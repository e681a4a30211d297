"""Command-line front end: solve, gen, mds, compare, check.

Reports are single-line JSON objects on stdout (pass --pretty for indented
output).  Exit codes: 0 success, 1 check failed, 2 invalid instance or
arguments, 3 algorithm/domain mismatch, 4 I/O failure.  The searches
(solve_exact, brute_force_mds) alone enforce the cap from --max-n or
DSHP_MAX_N, raising EnumerationCapError: solve --algo exact and mds exit 2
on it, compare and check reduction report that search as skipped; the
other solvers never read the cap.  The check commands only read their
files and emit a report: model.check_solution and reduction.check_reduction
decide every check in it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import random
import sys
import time
from fractions import Fraction

from .approx import detect_three_values, gen_tightness, solve_approx
from .exact import ExactOptions, solve_exact
from .model import (
    DEFAULT_MAX_N,
    DshpError,
    EnumerationCapError,
    Instance,
    ValueDomainError,
    check_solution,
    parse_instance,
    parse_rational,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from .reduction import (
    GenerationError,
    brute_force_mds,
    build_reduction,
    check_reduction,
    gen_regular_graph,
    parse_graph,
    reduction_premises,
    serialize_graph,
)
from .two_value import detect_two_values, solve_two_value

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DOMAIN_MISMATCH = 3
EXIT_IO = 4


def _enumeration_cap(max_n_arg) -> int:
    """The cap from --max-n, else DSHP_MAX_N, else the default; below 1 is an error."""
    cap = max_n_arg
    if cap is None:
        env = os.environ.get("DSHP_MAX_N")
        try:
            cap = int(env) if env else DEFAULT_MAX_N
        except ValueError:
            raise ValueError(f"DSHP_MAX_N must be an integer, got {env!r}") from None
    if cap < 1:
        raise ValueError(f"max_n must be >= 1, got {cap}")
    return cap


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2))
    else:
        print(json.dumps(obj, separators=(",", ":")))


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# Words per getrandbits call in _draw_indices, which bounds its transient
# memory at a few times 4 bytes per word whatever the instance's size.
_BLOCK_WORDS = 4096
# bytes.translate arguments taking a word's top byte to its top two bits,
# deleting those >= size: for sizes 2 and 3, size.bit_length() is 2.
_TOP_TWO_BITS = bytes(byte >> 6 for byte in range(256))
_AT_LEAST = {size: bytes(range(size << 6, 256)) for size in (2, 3)}


def _draw_indices(rng: random.Random, size: int, count: int) -> bytearray:
    """count indices below size (2 or 3), the same ones, leaving rng in the
    same state, as count calls of rng.choice on a sequence of that size.

    CPython's choice reads one 32-bit word per try and keeps its top two
    bits unless they are >= size.  getrandbits(32 * w) returns w words, the
    first in the lowest bits, so byte 3 of each little-endian 4-byte group
    is a word's top byte, in draw order.  A block asks for no more words
    than indices still missing, so it never reads a word that the choice
    calls would not, and the loop ends with rng exactly where they leave it.
    """
    delete = _AT_LEAST[size]
    drawn = bytearray()
    while len(drawn) < count:
        words = min(count - len(drawn), _BLOCK_WORDS)
        block = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        drawn += block.translate(_TOP_TWO_BITS, delete)
    return drawn


def gen_random_instance(n: int, m: int, k: int, values: str, seed: int) -> Instance:
    """Seeded random instance whose values come from a random admissible set.

    values "2": two distinct rationals (signs unrestricted); "3": three
    distinct nonnegative rationals; "any": unrestricted per-entry draws.
    For "2"/"3" the instance is regenerated until every set member actually
    appears, so the value-count detectors accept the output.

    The draw stream is fixed, so serialize_instance writes the output of a
    (shape, values, seed) byte for byte alike on every run.
    random.Random(seed) draws, for "2"/"3", the value set, then per attempt
    the n cells of c and the n * m cells of f, row by row, each the index
    into the sorted set's numerals read from one 32-bit Mersenne Twister
    word's top size.bit_length() bits, the word redrawn while they are >=
    size, exactly as rng.choice(numerals) draws (see _draw_indices); for
    "any", each cell of c, then of f, as a denominator and a numerator;
    last, the m integer weights of p.  A "2"/"3" cell is its numeral
    string, which Instance parses once per distinct numeral.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    rng = random.Random(seed)

    def rand_rational(lo: int, hi: int) -> Fraction:
        den = rng.randint(1, 4)
        return Fraction(rng.randint(lo * den, hi * den), den)

    if values == "any":
        c = tuple(rand_rational(-6, 9) for _ in range(n))
        f = tuple(tuple(rand_rational(-6, 9) for _ in range(m)) for _ in range(n))
    elif values in ("2", "3"):
        size, lo = (2, -3) if values == "2" else (3, 0)
        if size > n * (m + 1):
            raise ValueError(
                f"an instance with n={n}, m={m} has only {n * (m + 1)} value slots, "
                f"too few for {size} distinct values"
            )
        while True:
            pool = {rand_rational(lo, 6) for _ in range(size)}
            if len(pool) == size:
                break
        numerals = [str(v) for v in sorted(pool)]
        for _ in range(10000):
            drawn = _draw_indices(rng, size, n * (m + 1))
            if all(index in drawn for index in range(size)):
                break
        else:
            raise GenerationError(f"could not realize all {size} values (seed {seed})")
        cells = tuple(map(numerals.__getitem__, drawn))
        c = cells[:n]
        f = tuple(cells[start:start + m] for start in range(n, len(cells), m))
    else:
        raise ValueError(f"values must be one of 2, 3, any; got {values!r}")
    while True:
        weights = [rng.randint(0, 8) for _ in range(m)]
        if any(weights):
            break
    total = sum(weights)
    p = tuple(Fraction(w, total) for w in weights)
    label = f"random(n={n},m={m},k={k},values={values},seed={seed})"
    return Instance(n=n, m=m, k=k, c=c, p=p, f=f, label=label)


def cmd_solve(args) -> int:
    instance = parse_instance(_read(args.instance))
    started = time.perf_counter()
    extras: dict = {}
    if args.algo == "exact":  # the one solver that reads the cap
        solution = solve_exact(instance, ExactOptions(max_n=_enumeration_cap(args.max_n)), extras)
    elif args.algo == "two-value":
        profile = detect_two_values(instance)
        if profile.v_min == profile.v_max:
            extras["degenerate"] = True
        else:
            extras["v_min"] = str(profile.v_min)
            extras["v_max"] = str(profile.v_max)
        solution = solve_two_value(instance, profile=profile)
    else:
        profile = detect_three_values(instance)
        solution = solve_approx(instance, profile)
        extras["low"] = str(profile.low)
        extras["mid"] = str(profile.mid)
        extras["high"] = str(profile.high)
        extras["high_count"] = profile.high_count
        extras["mid_count"] = profile.mid_count
        extras["guarantee"] = str(profile.guarantee)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    plan = solution.as_dict()
    if args.solution_out:
        with open(args.solution_out, "w", encoding="utf-8") as handle:
            handle.write(serialize_solution(solution) + "\n")
    _emit(
        {
            "algorithm": args.algo,
            "instance": instance.label,
            "objective": str(solution.value),
            "wall_time_ms": elapsed_ms,
            "solution": plan,
            "extras": extras,
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "random":
        instance = gen_random_instance(args.n, args.m, args.k, args.values, args.seed)
        print(serialize_instance(instance))
    elif args.kind == "tightness":
        instance = gen_tightness(
            parse_rational(args.vs), parse_rational(args.vm), parse_rational(args.vl)
        )
        print(serialize_instance(instance))
    elif args.kind == "reduction":
        graph = parse_graph(_read(args.graph))
        # None when a premise fails, which build_reduction then raises.
        params = reduction_premises(graph)[1]
        if params is not None:
            if args.B is not None:
                params = dataclasses.replace(params, discount=parse_rational(args.B))
            if args.S is not None:
                params = dataclasses.replace(params, premium=parse_rational(args.S))
        instance = build_reduction(graph, params)
        print(serialize_instance(instance))
    else:
        graph = gen_regular_graph(args.n, args.d, args.seed)
        sys.stdout.write(serialize_graph(graph))
    return EXIT_OK


def cmd_mds(args) -> int:
    graph = parse_graph(_read(args.graph))
    dominating = brute_force_mds(graph, _enumeration_cap(args.max_n))
    _emit(
        {"n": graph.n, "edges": len(graph.edges), "mds": list(dominating), "size": len(dominating)},
        args.pretty,
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    instance = parse_instance(_read(args.instance))
    cap = _enumeration_cap(args.max_n)
    profile = detect_three_values(instance)
    solution = solve_approx(instance, profile)
    out = {
        "instance": instance.label,
        "approx_objective": str(solution.value),
        "guarantee_value_ratio": str(profile.guarantee),
    }
    try:
        best = solve_exact(instance, ExactOptions(max_n=cap)).value
    except EnumerationCapError:
        best = None
    out["exact_objective"] = None if best is None else str(best)
    out["exact_skipped"] = best is None
    out["realized_ratio"] = str(solution.value / best) if best else None
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_check_solution(args) -> int:
    instance = parse_instance(_read(args.instance))
    solution = parse_solution(_read(args.solution))
    failures = check_solution(instance, solution)
    check = {"name": "solution", "ok": not failures, "detail": "; ".join(failures) or "ok"}
    _emit({"checks": [check], "passed": not failures}, args.pretty)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def cmd_check_reduction(args) -> int:
    graph = parse_graph(_read(args.graph))
    instance = parse_instance(_read(args.instance))
    solution = parse_solution(_read(args.solution))
    checks, mds_size = check_reduction(graph, instance, solution, _enumeration_cap(args.max_n))
    passed = all(check["ok"] for check in checks)
    _emit({"checks": checks, "passed": passed, "mds_size": mds_size}, args.pretty)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (building takes about 2 ms)."""
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", help="indent JSON output")
    max_n = argparse.ArgumentParser(add_help=False)
    max_n.add_argument(
        "--max-n", type=int, help=f"search cap (default: DSHP_MAX_N, else {DEFAULT_MAX_N})"
    )

    parser = argparse.ArgumentParser(
        prog="dshp", description="Discrete sell-or-hold problem toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[pretty, max_n], help="solve an instance file")
    p_solve.add_argument("--algo", required=True, choices=["exact", "two-value", "approx"])
    p_solve.add_argument("--instance", required=True, help="instance JSON file")
    p_solve.add_argument("--solution-out", default=None, help="also write the solution to a file")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate instances and graphs")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)

    g_random = gen_sub.add_parser("random", help="random instance")
    g_random.add_argument("--n", type=int, required=True)
    g_random.add_argument("--m", type=int, required=True)
    g_random.add_argument("--k", type=int, required=True)
    g_random.add_argument("--values", choices=["2", "3", "any"], default="any")
    g_random.add_argument("--seed", type=int, default=0)
    g_random.set_defaults(func=cmd_gen)

    g_tight = gen_sub.add_parser("tightness", help="the ratio-tight 4x3 family")
    g_tight.add_argument("--vs", required=True, help="low value (rational)")
    g_tight.add_argument("--vm", required=True, help="mid value (rational)")
    g_tight.add_argument("--vl", required=True, help="high value (rational)")
    g_tight.set_defaults(func=cmd_gen)

    g_red = gen_sub.add_parser("reduction", help="instance from a regular graph")
    g_red.add_argument("--graph", required=True, help="graph file")
    g_red.add_argument("--B", default=None, help="discount below 1 (rational)")
    g_red.add_argument("--S", default=None, help="premium above 1 (rational)")
    g_red.set_defaults(func=cmd_gen)

    g_graph = gen_sub.add_parser("graph", help="random connected regular graph")
    g_graph.add_argument("--n", type=int, required=True)
    g_graph.add_argument("--d", type=int, required=True)
    g_graph.add_argument("--seed", type=int, default=0)
    g_graph.set_defaults(func=cmd_gen)

    p_mds = sub.add_parser(
        "mds", parents=[pretty, max_n], help="brute-force minimum dominating set"
    )
    p_mds.add_argument("--graph", required=True)
    p_mds.set_defaults(func=cmd_mds)

    p_cmp = sub.add_parser(
        "compare", parents=[pretty, max_n], help="approx vs exact on a three-valued instance"
    )
    p_cmp.add_argument("--instance", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_check = sub.add_parser("check", help="verify solution or reduction files")
    check_sub = p_check.add_subparsers(dest="what", required=True)

    c_sol = check_sub.add_parser("solution", parents=[pretty], help="structural and value checks")
    c_sol.add_argument("--instance", required=True)
    c_sol.add_argument("--solution", required=True)
    c_sol.set_defaults(func=cmd_check_solution)

    c_red = check_sub.add_parser(
        "reduction", parents=[pretty, max_n], help="dominating-set round-trip checks"
    )
    c_red.add_argument("--graph", required=True)
    c_red.add_argument("--instance", required=True)
    c_red.add_argument("--solution", required=True)
    c_red.set_defaults(func=cmd_check_reduction)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_MISMATCH
    except (DshpError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
