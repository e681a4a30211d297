"""Acceptance suite: one test per criterion, exact rational tolerances.

Each test prints a single PASS line on success (run with -s to see them);
a failed assertion means the criterion did not hold.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache

from dshp import (
    brute_force_mds,
    build_reduction,
    complete_first_stage,
    default_params,
    detect_three_values,
    dominating_solution_revenue,
    extract_dominating,
    gen_regular_graph,
    gen_tightness,
    is_dominating,
    parse_instance,
    prunable,
    regular_degree,
    serialize_instance,
    solve_approx,
    solve_exact,
    solve_two_value,
)
from dshp.cli import gen_random_instance, main
from dshp.exact import ExactOptions

from conftest import (
    brute_force_second_stage,
    cycle_graph,
    dominating_plan,
    first_optimum_by_enumeration,
    octahedron,
)


def test_criterion_1_two_value_exactness():
    rng = random.Random(1001)
    seen_k = set()
    for case in range(500):
        if case <= 10:
            n, k = 10, case  # pin full coverage of k in 0..10
            m = rng.randint(1, 6)
        else:
            n = rng.randint(1, 10)
            m = rng.randint(1, 6)
            k = rng.randint(0, n)
        seen_k.add(k)
        inst = gen_random_instance(n, m, k, "2", rng.randrange(10**9))
        assert solve_two_value(inst).value == solve_exact(inst).value
    assert seen_k == set(range(11))
    print("ACCEPTANCE 1 PASS: two-value solver equals exact on 500 instances")


def test_criterion_2_approximation_guarantee():
    rng = random.Random(2002)
    for _ in range(500):
        n = rng.randint(2, 10)
        m = rng.randint(1, 6)
        k = rng.randint(0, n)
        inst = gen_random_instance(n, m, k, "3", rng.randrange(10**9))
        profile = detect_three_values(inst)
        achieved = solve_approx(inst)
        best = solve_exact(inst)
        # achieved >= (mid/high) * optimum, compared without division
        assert profile.high * achieved.value >= profile.mid * best.value
    print("ACCEPTANCE 2 PASS: mid/high guarantee holds on 500 instances")


def test_criterion_3_tightness():
    triples = [(0, 1, 2), (1, 2, 3), (Fraction(1, 2), Fraction(3, 4), 1)]
    for low, mid, high in triples:
        inst = gen_tightness(low, mid, high)
        achieved = solve_approx(inst)
        best = solve_exact(inst)
        assert achieved.value / best.value == detect_three_values(inst).guarantee
    print("ACCEPTANCE 3 PASS: realized ratio equals mid/high on all three triples")


@lru_cache(maxsize=1)
def reduction_corpus():
    """Octahedron, 5-cycle, and 20 generated connected regular graphs with
    their built instances, exact optima and brute-force dominating sets."""
    graphs = [octahedron(), cycle_graph(5)]
    specs = [(n, 2) for n in range(4, 13)]
    specs += [(n, 3) for n in (6, 8, 10, 12)]
    specs += [(n, 4) for n in range(6, 13)]
    assert len(specs) == 20
    graphs += [gen_regular_graph(n, d, seed=4000 + 17 * n + d) for n, d in specs]
    corpus = []
    for graph in graphs:
        degree = regular_degree(graph)
        params = default_params(graph.n, degree)
        inst = build_reduction(graph, params)
        best = solve_exact(inst, ExactOptions())
        mds = brute_force_mds(graph)
        corpus.append((graph, params, inst, best, mds))
    return corpus


def test_criterion_4_reduction_round_trip():
    corpus = reduction_corpus()
    octa_graph, _, _, octa_best, octa_mds = corpus[0]
    assert len(octa_mds) == 2 and len(octa_best.first_stage) == 4
    cyc_graph, _, _, cyc_best, cyc_mds = corpus[1]
    assert len(cyc_mds) == 2 and len(cyc_best.first_stage) == 3
    for graph, params, inst, best, mds in corpus:
        assert graph.n - len(best.first_stage) == len(mds)
        extracted = extract_dominating(graph, best)
        assert is_dominating(graph, extracted)
    print(f"ACCEPTANCE 4 PASS: round trip holds on {len(corpus)} graphs")


def test_criterion_5_closed_form_revenue():
    corpus = reduction_corpus()
    for graph, params, inst, best, mds in corpus:
        extracted = extract_dominating(graph, best)
        for dset in (extracted, mds):
            plan = dominating_plan(inst, dset)
            assert plan.value == dominating_solution_revenue(graph.n, params, len(dset))
        size = len(extracted)
        assert dominating_solution_revenue(
            graph.n, params, size
        ) > dominating_solution_revenue(graph.n, params, size + 1)
    print(f"ACCEPTANCE 5 PASS: closed form matches plans and decreases on {len(corpus)} graphs")


def test_criterion_6_pruning_preserves_objective():
    # solve_exact never considers a prunable asset; enumerating every first
    # stage over all n assets must still give the same plan, tie-break
    # included.  The completion is the greedy, which criterion 7 checks.
    rng = random.Random(6006)
    with_prunable = 0
    for _ in range(500):
        n = rng.randint(1, 10)
        m = rng.randint(1, 6)
        k = rng.randint(0, n)
        inst = gen_random_instance(n, m, k, "any", rng.randrange(10**9))
        expected = first_optimum_by_enumeration(inst, range(n), greedy=True)
        assert solve_exact(inst) == expected
        with_prunable += bool(prunable(inst))
    assert with_prunable > 400
    print(
        f"ACCEPTANCE 6 PASS: pruned search equals full enumeration on 500 instances "
        f"({with_prunable} with a prunable asset)"
    )


def test_criterion_7_greedy_second_stage_optimality():
    rng = random.Random(7007)
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(1, 4)
        k = rng.randint(0, n)
        inst = gen_random_instance(n, m, k, "any", rng.randrange(10**9))
        first = set(rng.sample(range(n), rng.randint(0, k)))
        first_value = sum((inst.c[i] for i in first), Fraction(0))
        value = complete_first_stage(inst, first).value
        assert value == first_value + brute_force_second_stage(inst, first)
    print("ACCEPTANCE 7 PASS: greedy equals exhaustive completion on 200 instances")


def test_criterion_8_determinism_and_round_trip(tmp_path, capsys):
    # byte-identical solver reports (timing field excluded) on repeated runs
    instances = {
        "tight.json": serialize_instance(gen_tightness(0, 1, 2)),
        "rand2.json": serialize_instance(gen_random_instance(7, 4, 3, "2", 88)),
        "rand3.json": serialize_instance(gen_random_instance(7, 4, 3, "3", 88)),
    }
    for name, text in instances.items():
        (tmp_path / name).write_text(text)
    algo_of = {"tight.json": "exact", "rand2.json": "two-value", "rand3.json": "approx"}
    for name, algo in algo_of.items():
        outputs = []
        for _ in range(2):
            code = main(["solve", "--algo", algo, "--instance", str(tmp_path / name)])
            out = capsys.readouterr().out
            assert code == 0
            report = json.loads(out)
            report.pop("wall_time_ms")
            outputs.append(json.dumps(report, sort_keys=True).encode())
        assert outputs[0] == outputs[1]
    # seeded generation is byte-identical outright
    for args in (
        ["gen", "random", "--n", "8", "--m", "5", "--k", "4", "--values", "any", "--seed", "3"],
        ["gen", "graph", "--n", "10", "--d", "3", "--seed", "3"],
    ):
        assert main(args) == 0
        first = capsys.readouterr().out.encode()
        assert main(args) == 0
        assert capsys.readouterr().out.encode() == first
    # serialize . parse is the identity on 100 generated instances
    rng = random.Random(8008)
    for _ in range(100):
        n = rng.randint(1, 10)
        inst = gen_random_instance(
            n, rng.randint(1, 6), rng.randint(0, n),
            rng.choice(["2", "3", "any"]) if n > 1 else "2",
            rng.randrange(10**9),
        )
        assert parse_instance(serialize_instance(inst)) == inst
    print("ACCEPTANCE 8 PASS: byte-identical reruns and 100 round-trip identities")
