"""The benchmark's workloads: how each one's inputs are made and checked.

Every input is generated from the workload seed alone.  Shapes (n, m, k or
n, d) are fixed per workload so that the cost of a request depends on the
seed only through the values, and runs with different seeds measure the
same amount of work.  Each workload's reason for existing is its `why`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from dshp import (
    ExactOptions,
    VisitCounter,
    brute_force_mds,
    build_reduction,
    check_solution,
    default_params,
    detect_three_values,
    detect_two_values,
    dominating_solution_revenue,
    extract_dominating,
    gen_regular_graph,
    is_dominating,
    parse_graph,
    parse_instance,
    parse_solution,
    prunable,
    regular_degree,
    serialize_graph,
    serialize_instance,
    solve_exact,
    solve_two_value,
)
from dshp.cli import gen_random_instance
from dshp.model import DshpError


@dataclass(frozen=True)
class Part:
    """One kind of input in a workload.

    values is the `gen random --values` class ("any", "2" or "3"), or None
    for reduction instances; shapes holds (n, m, k) triples for random
    instances and (n, d) pairs for reduction graphs.  Each shape is one
    input, solved with `solve --algo algo`.
    """

    algo: str
    values: str | None
    shapes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its parts' inputs, requested in order, make a pass."""

    name: str
    why: str
    parts: tuple[Part, ...]


EXACT_RANDOM = Part(
    algo="exact",
    values="any",
    # Random any-valued instances, n 14..17, m in {8, 32}, k = n/2, unpruned:
    # enumeration is nearly the whole request and parsing is under 1%.  n = 18
    # is left out: one such request would outweigh the rest of the pass.
    shapes=((14, 8, 7), (14, 32, 7), (15, 32, 7), (16, 8, 8), (17, 8, 8)),
)
REDUCTION_EXACT = Part(
    algo="exact",
    values=None,
    # Dominating-set reduction instances: k = n-1, m = n, three heavily tied
    # values and no prunable assets, so a search change that helps the random
    # instances but hurts this shape shows in the same workload.
    shapes=((12, 3), (12, 4), (13, 4), (14, 3), (14, 4)),
)
TWO_VALUE_BULK = Part(
    algo="two-value",
    values="2",
    # k exceeds the number of v_max first-stage assets, so the per-scenario
    # pass runs.  Parsing and coercion dominate.
    shapes=((150, 100, 135),) * 5,
)
APPROX_BULK = Part(
    algo="approx",
    values="3",
    # k exceeds the mid- plus high-valued first-stage assets, so greedy
    # completion sorts every scenario: the only inputs where approx and
    # complete_first_stage run at scale.
    shapes=((150, 100, 135),) * 5,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact",
            why="exact enumeration on random and dominating-set reduction instances: "
            "the solver core is nearly the whole request and parsing is under 1%",
            parts=(EXACT_RANDOM, REDUCTION_EXACT),
        ),
        Workload(
            name="bulk",
            why="two-value and approx on large instances: parsing, coercion and the "
            "O(nm) passes dominate and exact never runs",
            parts=(TWO_VALUE_BULK, APPROX_BULK),
        ),
    )
}


def input_seed(seed: int, index: int, attempt: int = 0) -> int:
    return (seed * 1000 + index) * 1000 + attempt


def _leaves_second_stage(instance, values: str) -> bool:
    """True when the first-stage rule leaves budget for every scenario."""
    if values == "2":
        return len(detect_two_values(instance).max_valued) < instance.k
    if values == "3":
        profile = detect_three_values(instance)
        return profile.high_count + profile.mid_count < instance.k
    return True


def _random_instance(values: str, shape, seed: int, index: int):
    n, m, k = shape
    for attempt in range(100):
        instance = gen_random_instance(n, m, k, values, input_seed(seed, index, attempt))
        if _leaves_second_stage(instance, values):
            return instance
    raise DshpError(f"no {values}-valued {shape} instance with a second stage (seed {seed})")


def generate(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the workload's input files; return their manifest.

    The manifest lists each input with its algorithm, value class, shape
    and file digests, and the time spent in the reduction module's
    generator and builder.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    gen_graph_s = build_s = 0.0
    shapes = [(part, shape) for part in workload.parts for shape in part.shapes]
    for index, (part, shape) in enumerate(shapes):
        item = {"instance": f"{index:02d}.json", "algo": part.algo, "values": part.values}
        if part.values is None:
            n, d = shape
            started = time.perf_counter()
            graph = gen_regular_graph(n, d, input_seed(seed, index))
            built = time.perf_counter()
            instance = build_reduction(graph, default_params(n, d))
            gen_graph_s += built - started
            build_s += time.perf_counter() - built
            item["graph"] = f"{index:02d}.graph"
            (out_dir / item["graph"]).write_text(serialize_graph(graph), encoding="utf-8")
        else:
            instance = _random_instance(part.values, shape, seed, index)
        (out_dir / item["instance"]).write_text(
            serialize_instance(instance) + "\n", encoding="utf-8"
        )
        item.update(n=instance.n, m=instance.m, k=instance.k)
        item["sha256"] = [
            hashlib.sha256((out_dir / item[key]).read_bytes()).hexdigest()
            for key in ("instance", "graph")
            if key in item
        ]
        inputs.append(item)
    return {"inputs": inputs, "gen_graph_s": gen_graph_s, "build_s": build_s}


# --- exact counts of the work each input asks for ---


def cells(item: dict) -> int:
    """Numbers parsed for one request: c, p and f."""
    return item["n"] + item["m"] + item["n"] * item["m"]


def candidate_sets(item: dict) -> int:
    """First-stage sets unpruned enumeration visits: sum over s <= k of C(n, s)."""
    n, k = item["n"], item["k"]
    return sum(comb(n, s) for s in range(min(k, n) + 1))


def pruned_assets(instance) -> int:
    return len(prunable(instance))


def two_value_visits(instance) -> int:
    counter = VisitCounter()
    solve_two_value(instance, counter)
    return counter.visits


# --- output checks ---


def check_output(
    item: dict, in_dir: Path, rc: int, stdout: str, solution_text: str
) -> tuple[list[str], dict]:
    """Problems with one request's output, plus facts the oracles measured.

    Every input: exit code 0, the report's objective equals the written
    solution's value, and check_solution accepts the re-read solution.
    Random exact inputs: the objective equals pruned solve_exact.  Reduction
    inputs: the complement of the first stage dominates the graph, has the size of
    brute_force_mds, and the value matches dominating_solution_revenue.
    """
    if rc != 0:
        return [f"exit code {rc}"], {}
    facts: dict = {}
    try:
        objective = Fraction(json.loads(stdout)["objective"])
        solution = parse_solution(solution_text)
        instance = parse_instance((in_dir / item["instance"]).read_text(encoding="utf-8"))
    except (DshpError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"], facts
    problems = check_solution(instance, solution)
    if objective != solution.value:
        problems.append(f"report objective {objective} != solution value {solution.value}")
    if problems:
        return problems, facts
    if item["algo"] == "exact" and item["values"] is not None:
        best = solve_exact(instance, ExactOptions(prune=True)).value
        if objective != best:
            problems.append(f"objective {objective} != pruned exact optimum {best}")
    if item["values"] is None:
        graph = parse_graph((in_dir / item["graph"]).read_text(encoding="utf-8"))
        dominating = extract_dominating(graph, solution)
        started = time.perf_counter()
        minimum = brute_force_mds(graph)
        facts["mds_s"] = time.perf_counter() - started
        facts["mds_size"] = len(minimum)
        if not is_dominating(graph, dominating):
            problems.append(f"complement of the first stage {list(dominating)} does not dominate")
        if len(dominating) != len(minimum):
            problems.append(f"held-back set has {len(dominating)} vertices, MDS has {len(minimum)}")
        params = default_params(graph.n, regular_degree(graph))
        revenue = dominating_solution_revenue(graph.n, params, len(dominating))
        if solution.value != revenue:
            problems.append(f"value {solution.value} != dominating-plan revenue {revenue}")
    return problems, facts
