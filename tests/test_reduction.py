"""Reduction machinery: params window, construction, domination, formulas."""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dshp import (
    EnumerationCapError,
    ExactOptions,
    Graph,
    GraphError,
    ParseError,
    ReductionError,
    ReductionParams,
    Solution,
    brute_force_mds,
    build_reduction,
    default_params,
    dominating_solution_revenue,
    evaluate,
    extract_dominating,
    gen_regular_graph,
    is_connected,
    is_dominating,
    parse_graph,
    parse_instance,
    parse_solution,
    regular_degree,
    serialize_graph,
    serialize_instance,
    serialize_solution,
    solve_exact,
    window_bounds,
)
from dshp import exact, reduction
from dshp.cli import main
from dshp.reduction import adjacency, check_reduction, reduction_premises

from conftest import complete_graph, cycle_graph, dominating_plan, octahedron

GOLDEN = Path(__file__).parent / "golden"


def test_window_and_default_params_octahedron_case():
    assert window_bounds(6, 4) == (Fraction(2), Fraction(5))
    params = default_params(6, 4)
    assert params.discount == Fraction(1, 2)
    assert params.premium == Fraction(7, 4)
    ratio = params.premium / params.discount
    assert Fraction(2) < ratio < Fraction(5)


def test_default_params_five_cycle_case():
    assert window_bounds(5, 2) == (Fraction(2, 3), Fraction(3, 2))
    params = default_params(5, 2)
    assert params.discount == Fraction(1, 2)
    assert params.premium == Fraction(13, 24)
    assert all(check.ok for check in reduction_premises(cycle_graph(5), params)[0])


@pytest.mark.parametrize("premium, ratio", [(Fraction(1), 2), (Fraction(5, 2), 5)])
def test_the_window_endpoints_are_outside_it(premium, ratio):
    # octahedron: window (2, 5); at B = 1/2, S = 1 and S = 5/2 put S/B on its ends
    params = ReductionParams(degree=4, discount=Fraction(1, 2), premium=premium)
    premises, _ = reduction_premises(octahedron(), params)
    window = premises[2]
    assert (window.name, window.ok) == ("ratio_window", False)
    assert window.detail == f"need 2 < S/B = {ratio} < 5"
    with pytest.raises(ReductionError) as info:
        build_reduction(octahedron(), params)
    assert str(info.value) == f"ratio window violated: need 2 < S/B = {ratio} < 5"


def test_empty_window_rejected():
    with pytest.raises(ReductionError, match="empty"):
        default_params(5, 4)  # complete graph: degree n-1


def test_build_octahedron():
    inst = build_reduction(octahedron(), default_params(6, 4))
    assert inst.n == inst.m == 6
    assert inst.k == 5
    assert set(inst.p) == {Fraction(1, 6)}
    assert set(inst.c) == {Fraction(1)}
    assert sorted(inst.distinct) == [Fraction(1, 2), Fraction(1), Fraction(11, 4)]


def test_build_five_cycle_entries():
    graph = cycle_graph(5)
    inst = build_reduction(graph, default_params(5, 2))
    near, far = Fraction(1, 2), Fraction(37, 24)
    adj = adjacency(graph)
    for i in range(5):
        for j in range(5):
            expected = near if j == i or j in adj[i] else far
            assert inst.f[i][j] == expected


def test_each_row_has_degree_plus_one_near_entries():
    for graph, d in [(octahedron(), 4), (cycle_graph(5), 2), (gen_regular_graph(8, 3, 5), 3)]:
        params = default_params(graph.n, d)
        inst = build_reduction(graph, params)
        near = 1 - params.discount
        for row in inst.f:
            assert sum(1 for v in row if v == near) == d + 1


def test_build_rejects_bad_graphs():
    disconnected = Graph(6, frozenset({(0, 1), (2, 3), (4, 5)}))  # 1-regular
    with pytest.raises(ReductionError, match="connected"):
        build_reduction(disconnected, default_params(6, 1))
    irregular = Graph(3, frozenset({(0, 1)}))
    with pytest.raises(ReductionError, match="regular"):
        build_reduction(irregular, default_params(3, 1))
    bad_window = ReductionParams(degree=4, discount=Fraction(1, 2), premium=Fraction(1, 2))
    with pytest.raises(ReductionError, match="window"):
        build_reduction(octahedron(), bad_window)
    wrong_degree = default_params(6, 3)
    with pytest.raises(ReductionError, match="regular"):
        build_reduction(octahedron(), wrong_degree)


def test_is_dominating():
    graph = octahedron()
    assert is_dominating(graph, set(range(6)))
    assert is_dominating(graph, {0, 3})
    assert not is_dominating(graph, {0})  # the antipode is missed
    assert is_dominating(cycle_graph(5), {0, 2})
    with pytest.raises(GraphError):
        is_dominating(graph, {0, 6})


def test_brute_force_mds():
    assert len(brute_force_mds(octahedron())) == 2
    assert len(brute_force_mds(cycle_graph(5))) == 2
    assert brute_force_mds(complete_graph(7)) == (0,)
    with pytest.raises(Exception, match="cap"):
        brute_force_mds(cycle_graph(30))


def test_brute_force_mds_over_its_cap_raises_enumeration_cap_error():
    # The cap and its default are the exact solver's: one constant, one error type.
    with pytest.raises(EnumerationCapError, match=r"n=25 exceeds .* max_n=24; .*--max-n"):
        brute_force_mds(cycle_graph(25))
    with pytest.raises(EnumerationCapError, match="max_n=5"):
        brute_force_mds(octahedron(), max_n=5)
    assert len(brute_force_mds(octahedron(), max_n=6)) == 2
    assert ExactOptions().max_n == 24
    assert exact.EnumerationCapError is EnumerationCapError


def test_round_trip_octahedron():
    graph = octahedron()
    inst = build_reduction(graph, default_params(6, 4))
    sol = solve_exact(inst)
    assert len(sol.first_stage) == 4
    extracted = extract_dominating(graph, sol)
    assert len(extracted) == 2 == len(brute_force_mds(graph))
    assert is_dominating(graph, extracted)


def test_round_trip_five_cycle():
    graph = cycle_graph(5)
    inst = build_reduction(graph, default_params(5, 2))
    sol = solve_exact(inst)
    assert len(sol.first_stage) == 3
    extracted = extract_dominating(graph, sol)
    assert len(extracted) == 2
    assert is_dominating(graph, extracted)


def test_revenue_formula_octahedron_value():
    params = default_params(6, 4)
    assert dominating_solution_revenue(6, params, 2) == Fraction(21, 4)


def test_revenue_formula_matches_explicit_plan():
    for graph, d in [(octahedron(), 4), (cycle_graph(5), 2)]:
        params = default_params(graph.n, d)
        inst = build_reduction(graph, params)
        mds = brute_force_mds(graph)
        plan = dominating_plan(inst, mds)
        assert plan.value == dominating_solution_revenue(graph.n, params, len(mds))
        # any larger dominating set obeys the formula too
        bigger = tuple(sorted(set(mds) | {max(set(range(graph.n)) - set(mds))}))
        assert is_dominating(graph, bigger)
        assert dominating_plan(inst, bigger).value == dominating_solution_revenue(
            graph.n, params, len(bigger)
        )


def test_revenue_strictly_decreasing_in_set_size():
    for n, d in [(6, 4), (5, 2), (8, 3)]:
        params = default_params(n, d)
        values = [dominating_solution_revenue(n, params, s) for s in range(1, n + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_revenue_formula_range_checks():
    params = default_params(6, 4)
    with pytest.raises(ValueError):
        dominating_solution_revenue(6, params, 0)
    with pytest.raises(ValueError):
        dominating_solution_revenue(6, params, 7)


def _improvement_delta(graph, params, candidate):
    """Exchange argument behind the reduction: if the held-back set misses
    some vertex, holding that vertex back too and re-routing one scenario
    gains exactly (-d*B + (n-d)*S)/n."""
    inst = build_reduction(graph, params)
    n = graph.n
    held = set(candidate)
    adj = adjacency(graph)
    missed = [v for v in range(n) if v not in held and not (adj[v] & held)]
    assert missed, "candidate set must fail to dominate"
    i = missed[0]
    original = dominating_plan(inst, held)
    first = tuple(v for v in range(n) if v not in held and v != i)
    second = []
    for j in range(n):
        sold = set(original.second_stage[j])
        if j == i:
            sold.add(min(held - sold))  # a held asset unsold under scenario i
        else:
            sold.add(i)
        second.append(tuple(sorted(sold)))
    alternative = Solution(first, tuple(second), Fraction(0))
    return evaluate(inst, alternative) - original.value


def test_improvement_step_five_cycle():
    params = default_params(5, 2)
    delta = _improvement_delta(cycle_graph(5), params, {2})
    expected = (-2 * params.discount + 3 * params.premium) / 5
    assert delta == expected == Fraction(1, 8)
    assert delta > 0


def test_improvement_step_more_cases():
    cases = [
        (octahedron(), 4, {0}),
        (cycle_graph(5), 2, {2, 3}),
        (gen_regular_graph(9, 2, 3), 2, {0}),
    ]
    for graph, d, candidate in cases:
        params = default_params(graph.n, d)
        if is_dominating(graph, candidate):
            continue
        n = graph.n
        delta = _improvement_delta(graph, params, candidate)
        assert delta == (-d * params.discount + (n - d) * params.premium) / n
        assert delta > 0


def test_gen_regular_graph_properties():
    rng = random.Random(61)
    for _ in range(10):
        d = rng.choice([2, 3, 4])
        n = rng.randint(d + 2, 12)
        if (n * d) % 2:
            n += 1
        graph = gen_regular_graph(n, d, rng.randrange(10**6))
        assert graph.n == n
        assert regular_degree(graph) == d
        assert is_connected(graph)
        assert len(graph.edges) == n * d // 2


def test_gen_regular_graph_parity_error():
    with pytest.raises(ValueError, match="odd"):
        gen_regular_graph(5, 3, 1)


def test_gen_regular_graph_deterministic():
    a = gen_regular_graph(10, 3, 42)
    b = gen_regular_graph(10, 3, 42)
    assert a == b


def test_gen_regular_graph_attempt_budget(monkeypatch):
    from dshp import GenerationError

    monkeypatch.setattr(reduction, "PAIRING_ATTEMPTS", 0)
    with pytest.raises(GenerationError, match="attempts") as info:
        gen_regular_graph(8, 3, 7)
    assert str(info.value) == (
        "no connected 3-regular simple graph on 8 vertices found in 0 pairing attempts (seed 7)"
    )


def test_graph_file_round_trip():
    graph = octahedron()
    text = serialize_graph(graph)
    assert parse_graph(text) == graph


def test_graph_file_comments_and_blanks():
    text = "# a comment\n\n3 2\n0 1\n\n# another\n1 2\n"
    graph = parse_graph(text)
    assert graph.n == 3
    assert graph.edges == frozenset({(0, 1), (1, 2)})


def test_graph_file_errors():
    with pytest.raises(ParseError, match="header"):
        parse_graph("# nothing\n")
    with pytest.raises(ParseError, match="u < v"):
        parse_graph("3 1\n1 0\n")
    with pytest.raises(ParseError, match="u < v"):
        parse_graph("3 1\n0 3\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph("3 2\n0 1\n0 1\n")
    with pytest.raises(ParseError, match="declares"):
        parse_graph("3 2\n0 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("3 1\nzero one\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("3\n", "line 1: expected header 'n e', got '3'"),
        ("3 x\n", "line 1: expected integers in header, got '3 x'"),
        ("3 1\n0 1 2\n", "line 2: expected edge 'u v', got '0 1 2'"),
    ],
    ids=["header-arity", "header-not-integer", "edge-arity"],
)
def test_graph_file_refuses_a_malformed_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Graph(0, frozenset()), GraphError, "need at least one vertex, got n=0"),
        (lambda: ReductionParams(-1, 1, 1), ValueError, "degree must be >= 0, got -1"),
        (lambda: ReductionParams(1, 0, 1), ValueError,
         "discount and premium must be positive, got B=0, S=1"),
        (lambda: gen_regular_graph(0, 0, 1), ValueError, "need at least one vertex, got n=0"),
        (lambda: gen_regular_graph(4, 4, 1), ValueError,
         "need 0 <= degree < n, got degree=4, n=4"),
    ],
    ids=["graph-no-vertex", "params-negative-degree", "params-zero-discount",
         "gen-graph-no-vertex", "gen-graph-degree-n"],
)
def test_bad_arguments_raise_their_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_graph_normalizes_a_reversed_edge():
    assert Graph(3, frozenset({(2, 0)})).edges == frozenset({(0, 2)})
    assert Graph(3, frozenset({(2, 0)})) == Graph(3, frozenset({(0, 2)}))


def test_premises_of_the_octahedron_default_params_all_hold():
    premises, params = reduction_premises(octahedron(), default_params(6, 4))
    assert [(check.name, check.ok, check.detail) for check in premises] == [
        ("graph_regular", True, "degree 4"),
        ("graph_connected", True, "ok"),
        ("ratio_window", True, "ok"),
    ]
    assert params == default_params(6, 4)


def test_premises_report_a_ratio_outside_the_window():
    params = ReductionParams(4, Fraction(1, 2), Fraction(1, 2))
    premises, _ = reduction_premises(octahedron(), params)
    assert [check.ok for check in premises] == [True, True, False]
    assert premises[2].name == "ratio_window"
    assert premises[2].detail == "need 2 < S/B = 1 < 5"


def test_premises_default_to_the_graph_degree_params():
    premises, params = reduction_premises(octahedron())
    assert all(check.ok for check in premises)
    assert params == default_params(6, 4)
    assert build_reduction(octahedron()) == build_reduction(octahedron(), params)


@pytest.mark.parametrize(
    "graph, error",
    [
        (Graph(3, frozenset({(0, 1), (1, 2)})), "graph is not regular"),
        (complete_graph(5), "empty ratio window: need 0 <= degree < n-1, got degree=4, n=5"),
    ],
    ids=["irregular", "complete"],
)
def test_default_premises_fail_with_the_build_error(graph, error):
    premises, params = reduction_premises(graph)
    assert params is None
    assert [check.ok for check in premises] == [error != "graph is not regular", True, False]
    with pytest.raises(ReductionError) as info:
        build_reduction(graph)
    assert str(info.value) == error


def test_premises_decode_b_and_s_from_a_built_instance():
    params = default_params(6, 4)
    premises, decoded = reduction_premises(octahedron(), build_reduction(octahedron(), params))
    assert all(check.ok for check in premises)
    assert decoded == params


@pytest.mark.parametrize("plan", ["pass", "fail"])
def test_check_reduction_matches_the_golden_report(plan):
    inputs = GOLDEN / "inputs"
    solution = {"pass": "reduction_solution.json", "fail": "reduction_suboptimal.json"}[plan]
    checks, mds_size = check_reduction(
        parse_graph((inputs / "graph.txt").read_text()),
        parse_instance((inputs / "reduction.json").read_text()),
        parse_solution((inputs / solution).read_text()),
    )
    expected = json.loads((GOLDEN / "expected" / f"check-reduction-{plan}.out").read_text())
    assert checks == expected["checks"]
    assert mds_size == expected["mds_size"]


def test_check_reduction_decides_the_premises_once(monkeypatch):
    # The round trip rebuilds the instance from premises it has already
    # decided, so each graph test runs once per check.
    graph = octahedron()
    instance = build_reduction(graph)
    solution = solve_exact(instance)
    calls = {"regular_degree": 0, "is_connected": 0}
    for name in calls:
        def counted(graph, test=getattr(reduction, name), name=name):
            calls[name] += 1
            return test(graph)

        monkeypatch.setattr(reduction, name, counted)
    checks, _ = check_reduction(graph, instance, solution)
    assert all(check["ok"] for check in checks), checks
    assert calls == {"regular_degree": 1, "is_connected": 1}


def test_check_reduction_reports_an_instance_that_differs_from_the_construction(
    tmp_path, capsys
):
    # Swap a near and a far cell of row 0: the values are still {1-B, 1, 1+S},
    # so every premise holds, but the instance is not the graph's reduction.
    graph = octahedron()
    built = build_reduction(graph)
    row = list(built.f[0])
    near = row[1]
    assert row[3] != near
    row[1], row[3] = row[3], near
    instance = dataclasses.replace(built, f=(tuple(row),) + built.f[1:])
    assert instance.distinct == built.distinct and instance != built
    solution = solve_exact(instance)
    checks, mds_size = check_reduction(graph, instance, solution)
    # the premises, then the instance and plan checks; no search runs
    assert [check["name"] for check in checks] == [
        "graph_regular", "graph_connected", "ratio_window",
        "instance_matches_reduction", "solution_valid",
    ]
    assert all(check["ok"] for check in checks[:3])
    assert checks[3:] == [
        {"name": "instance_matches_reduction", "ok": False,
         "detail": "instance differs from the construction"},
        {"name": "solution_valid", "ok": True, "detail": "ok"},
    ]
    assert mds_size is None
    files = {"graph": serialize_graph(graph), "instance": serialize_instance(instance),
             "solution": serialize_solution(solution)}
    argv = ["check", "reduction"]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        argv += [f"--{name}", str(tmp_path / name)]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == checks


def test_graph_construction_errors():
    with pytest.raises(GraphError, match="loop"):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(GraphError, match="range"):
        Graph(3, frozenset({(0, 3)}))
