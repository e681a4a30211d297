"""Instance/solution model: validation, greedy completion, evaluation, formats."""

import copy
import dataclasses
import json
import pickle
import random
from fractions import Fraction
from itertools import chain, filterfalse, islice
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import dshp.model
from dshp import (
    Instance,
    InstanceError,
    ParseError,
    Solution,
    SolutionError,
    as_rational,
    check_solution,
    complete_first_stage,
    default_params,
    build_reduction,
    evaluate,
    gen_tightness,
    parse_instance,
    parse_rational,
    parse_solution,
    serialize_instance,
    serialize_solution,
    solve_approx,
    solve_two_value,
)
from dshp.cli import gen_random_instance
from dshp.exact import _Costs
from dshp.model import by_value

from conftest import (
    brute_force_second_stage,
    dominating_plan,
    integer_view,
    octahedron,
    small_instances,
)


def test_validate_budget_exceeds_assets():
    with pytest.raises(InstanceError) as caught:
        Instance(n=2, m=1, k=3, c=(1, 1), p=(1,), f=((1,), (1,)))
    assert any("k > n" in v for v in caught.value.violations)


def test_validate_probability_simplex():
    with pytest.raises(InstanceError) as caught:
        Instance(n=1, m=2, k=1, c=(1,), p=(Fraction(1, 2), Fraction(1, 3)), f=((1, 1),))
    assert any("5/6" in v for v in caught.value.violations)


def test_validate_negative_probability_and_shape():
    with pytest.raises(InstanceError) as caught:
        Instance(n=2, m=2, k=1, c=(1,), p=(Fraction(3, 2), Fraction(-1, 2)), f=((1, 1),))
    violations = caught.value.violations
    assert any("p[1]" in v for v in violations)
    assert any("c has 1 entries" in v for v in violations)
    assert any("f has 1 rows" in v for v in violations)


def test_validate_generator_output_is_ok(tightness_012):
    # Building an Instance checks it: each generator's output was built without InstanceError.
    assert isinstance(tightness_012, Instance)
    for seed in range(5):
        assert isinstance(gen_random_instance(5, 3, 2, "any", seed), Instance)


BROKEN = [
    (
        dict(n=2, m=2, k=3, c=(1,), p=(Fraction(3, 2), Fraction(-1, 2)), f=((1, 1), (1,))),
        [
            "k > n (k=3, n=2)",
            "c has 1 entries, expected n=2",
            "f[1] has 1 entries, expected m=2",
            "p[1] = -1/2 is negative",
        ],
    ),
    (
        dict(n=0, m=1, k=-1, c=(), p=(Fraction(1, 4), Fraction(1, 4)), f=()),
        [
            "n must be >= 1, got 0",
            "k must be >= 0, got -1",
            "p has 2 entries, expected m=1",
            "probabilities sum to 1/2, not 1",
        ],
    ),
    (dict(n=1, m=0, k=0, c=(1,), p=(), f=((),)), ["m must be >= 1, got 0"]),
]


@pytest.mark.parametrize("fields, expected", BROKEN)
def test_every_way_of_building_a_broken_instance_lists_every_violation(
    fields, expected, tightness_012
):
    text = json.dumps(
        {
            **fields,
            "c": [str(v) for v in fields["c"]],
            "p": [str(v) for v in fields["p"]],
            "f": [[str(v) for v in row] for row in fields["f"]],
        }
    )
    for build in (
        lambda: Instance(**fields),
        lambda: parse_instance(text),
        lambda: dataclasses.replace(tightness_012, **fields),
    ):
        with pytest.raises(InstanceError) as caught:
            build()
        assert caught.value.violations == expected
        assert str(caught.value) == "invalid instance: " + "; ".join(expected)


def revenue(instance, solution):
    """A plan's expected second-stage revenue: its value less its first stage's c sum."""
    return solution.value - sum((instance.c[i] for i in solution.first_stage), Fraction(0))


def test_greedy_no_budget_left(tightness_012):
    inst = gen_tightness(0, 1, 2)
    solution = complete_first_stage(inst, {1})  # |F| == k == 1
    assert solution.second_stage == ((), (), ())
    assert revenue(inst, solution) == 0


def test_full_first_stage_leaves_nothing_to_sell():
    # |F| == k: every scenario sells nothing, and the plan is worth F's c
    inst = gen_tightness(0, 1, 2)
    sol = complete_first_stage(inst, (1,))
    assert sol == Solution((1,), ((), (), ()), 1)
    inst = gen_tightness(0, 1, 2)
    assert solve_approx(inst) == sol


def test_greedy_tightness_sells_high_asset_per_scenario(tightness_012):
    solution = complete_first_stage(tightness_012, set())
    assert solution.second_stage == ((0,), (2,), (3,))
    assert revenue(tightness_012, solution) == 2


def test_greedy_budget_violation():
    inst = gen_tightness(0, 1, 2)
    with pytest.raises(SolutionError):
        complete_first_stage(inst, {0, 1})


def test_completion_rejects_duplicate_first_stage():
    inst = Instance(n=3, m=1, k=2, c=(1, 2, 3), p=(1,), f=((1,), (2,), (3,)))
    with pytest.raises(SolutionError, match="first_stage contains duplicate assets"):
        complete_first_stage(inst, (0, 0))


def test_greedy_matches_brute_force_on_random_instances():
    rng = random.Random(41)
    for _ in range(30):
        inst = gen_random_instance(5, 3, rng.randint(0, 5), "any", rng.randrange(10**6))
        size = rng.randint(0, inst.k)
        first = set(rng.sample(range(inst.n), size))
        solution = complete_first_stage(inst, first)
        assert revenue(inst, solution) == brute_force_second_stage(inst, first)


@st.composite
def completions(draw):
    """An instance of one, two, three or many values and a first stage of at most k assets."""
    instance = draw(small_instances(max_n=8, palette_sizes=(1, 2, 3, 12)))
    size = draw(st.integers(0, instance.k))
    assets = st.integers(0, instance.n - 1)
    first = draw(st.lists(assets, min_size=size, max_size=size, unique=True))
    return instance, first


SIGNED = Instance(
    n=4, m=3, k=2, c=(2, 0, -1, 3), p=(0, Fraction(1, 3), Fraction(2, 3)),
    f=((1, 5, 9), (4, 4, -2), (3, -6, 0), (-1, 2, 7)),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=completions())
@example(case=(dataclasses.replace(SIGNED, k=0), []))
@example(case=(dataclasses.replace(SIGNED, k=4), []))
@example(case=(dataclasses.replace(SIGNED, k=4), [3, 1]))
@example(case=(SIGNED, [2, 0]))
@example(case=(SIGNED, [2]))
def test_completion_sells_the_selling_order_without_the_first_stage(case):
    # the completion groups only the held assets, yet sells exactly what
    # walking each scenario's full selling order past F sold, and its value
    # is the exact objective recomputed in Fractions; F is read once, so a
    # set or a generator of it gives the same plan as the list
    instance, first = case
    solution = complete_first_stage(instance, first)
    need, view = instance.k - len(first), integer_view(instance)
    orders = [sorted(range(instance.n), key=lambda i: (-column[i], i)) for column in view.columns]
    expected = tuple(
        tuple(sorted(islice(filterfalse(set(first).__contains__, order), need)))
        for order in orders
    )
    assert solution.second_stage == expected
    assert revenue(instance, solution) == sum(
        (pj * sum((instance.f[i][j] for i in sold), Fraction(0))
         for j, (pj, sold) in enumerate(zip(instance.p, expected))),
        Fraction(0),
    )
    assert solution.value == evaluate(instance, solution)
    assert complete_first_stage(instance, set(first)) == solution
    assert complete_first_stage(instance, (i for i in first)) == solution


def test_evaluate_empty_solution_zero_budget():
    inst = Instance(n=2, m=2, k=0, c=(1, 2), p=(Fraction(1, 2), Fraction(1, 2)), f=((1, 1), (2, 2)))
    sol = Solution((), ((), ()), Fraction(0))
    assert evaluate(inst, sol) == 0


def test_evaluate_tightness_mid_asset(tightness_012):
    sol = Solution((1,), ((), (), ()), Fraction(1))
    assert evaluate(tightness_012, sol) == 1


def test_evaluate_octahedron_dominating_plan_value():
    graph = octahedron()
    inst = build_reduction(graph, default_params(6, 4))
    plan = dominating_plan(inst, {0, 3})
    assert evaluate(inst, plan) == Fraction(21, 4)


def test_evaluate_names_violated_constraints(tightness_012):
    wide = Instance(
        n=4, m=2, k=2, c=(0, 1, 0, 0), p=(Fraction(1, 2),) * 2,
        f=((2, 0), (0, 0), (0, 2), (1, 1)),
    )
    overlapping = Solution((1,), ((1,), (2,)), Fraction(1))
    with pytest.raises(SolutionError, match="x_i \\+ y_ij <= 1"):
        evaluate(wide, overlapping)
    short = Solution((), ((0,), (), (3,)), Fraction(0))
    with pytest.raises(SolutionError, match="sum\\(x\\) \\+ sum\\(y\\) = k"):
        evaluate(tightness_012, short)
    too_big = Solution((0, 1), ((), (), ()), Fraction(1))
    with pytest.raises(SolutionError, match="budget"):
        evaluate(tightness_012, too_big)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    st.integers(1, 6),
    st.integers(1, 4),
    st.sampled_from(["file", "fresh", "mixed"]),
    st.data(),
)
def test_evaluate_equals_the_per_cell_fraction_sum(n, m, mode, data):
    # cells spelled "1/2" and "0.5" share one object per spelling, fresh
    # Fractions are one object each: evaluate counts sold cells per object,
    # and must add up as one Fraction per cell does
    inst = drawn_instance(n, m, mode, data)
    weights = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
    p = [Fraction(w, sum(weights)) for w in weights]
    inst = dataclasses.replace(inst, k=data.draw(st.integers(0, n)), p=p)
    first = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=inst.k))
    rest = [i for i in range(n) if i not in first]
    second = [data.draw(st.permutations(rest))[: inst.k - len(first)] for _ in range(m)]
    solution = Solution(first, second, 0)
    expected = sum((inst.c[i] for i in first), Fraction(0))
    for j, sold in enumerate(second):
        expected += inst.p[j] * sum((inst.f[i][j] for i in sold), Fraction(0))
    assert evaluate(inst, solution) == expected
    # a from-scratch check: no integer table is built
    assert "integers" not in vars(inst)


@pytest.mark.parametrize("values, solve", [("2", solve_two_value), ("3", solve_approx)])
def test_a_second_stage_builds_no_whole_instance_view(values, solve):
    # completion maps only the held rows through the integer table, and the
    # instance keeps nothing else of what it built
    inst = gen_random_instance(150, 100, 135, values, 1)
    solution = solve(inst)
    assert len(solution.first_stage) < inst.k  # a second stage ran
    fields = {field.name for field in dataclasses.fields(inst)}
    assert set(vars(inst)) == fields | {"_objects", "distinct", "integers"}
    assert solution.value == evaluate(inst, solution)


def test_check_solution_reports_value_mismatch(tightness_012):
    stale = Solution((1,), ((), (), ()), Fraction(7))
    failures = check_solution(tightness_012, stale)
    assert len(failures) == 1 and "recomputed" in failures[0]
    good = complete_first_stage(tightness_012, (1,))
    assert check_solution(tightness_012, good) == []


def test_linearity_of_evaluate():
    rng = random.Random(7)
    for _ in range(20):
        inst = gen_random_instance(6, 3, rng.randint(0, 6), "any", rng.randrange(10**6))
        sol = complete_first_stage(inst, rng.sample(range(inst.n), rng.randint(0, inst.k)))
        expected = sum((inst.c[i] for i in sol.first_stage), Fraction(0))
        for j in range(inst.m):
            expected += inst.p[j] * sum((inst.f[i][j] for i in sol.second_stage[j]), Fraction(0))
        assert evaluate(inst, sol) == expected == sol.value


def test_scale_equivariance_of_greedy():
    rng = random.Random(11)
    for _ in range(10):
        inst = gen_random_instance(6, 3, 3, "any", rng.randrange(10**6))
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = Instance(
            n=inst.n,
            m=inst.m,
            k=inst.k,
            c=tuple(lam * v for v in inst.c),
            p=inst.p,
            f=tuple(tuple(lam * v for v in row) for row in inst.f),
        )
        first = set(rng.sample(range(inst.n), rng.randint(0, inst.k)))
        base = complete_first_stage(inst, first)
        scaled_plan = complete_first_stage(scaled, first)
        assert scaled_plan.second_stage == base.second_stage
        assert revenue(scaled, scaled_plan) == lam * revenue(inst, base)


def test_permutation_equivariance_of_greedy():
    rng = random.Random(13)
    n, m, k = 6, 3, 3
    # distinct values within each scenario, so the tie-break never fires
    f = tuple(
        tuple(Fraction(rng.randrange(100) * n + i, 7) for j in range(m))
        for i in range(n)
    )
    c = tuple(Fraction(i) for i in range(n))
    inst = Instance(n=n, m=m, k=k, c=c, p=(Fraction(1, 3),) * 3, f=f)
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = Instance(
        n=n,
        m=m,
        k=k,
        c=tuple(c[perm.index(i)] for i in range(n)),
        p=inst.p,
        f=tuple(f[perm.index(i)] for i in range(n)),
    )
    first = set(rng.sample(range(n), 2))
    base = complete_first_stage(inst, first)
    mapped = complete_first_stage(relabeled, {perm[i] for i in first})
    assert revenue(relabeled, mapped) == revenue(inst, base)
    for j in range(m):
        assert set(mapped.second_stage[j]) == {perm[i] for i in base.second_stage[j]}


def test_instance_round_trip(tightness_012):
    text = serialize_instance(tightness_012)
    again = parse_instance(text)
    assert again == tightness_012


def test_fraction_literals_parse_exactly():
    inst = parse_instance(
        '{"n": 1, "m": 3, "k": 1, "c": ["1"], "p": ["1/3", "1/3", "1/3"],'
        ' "f": [["1", "1", "1"]]}'
    )
    assert inst.p == (Fraction(1, 3),) * 3


def test_decimal_literals_parse_exactly():
    assert parse_rational("0.1") == Fraction(1, 10)
    inst = parse_instance(
        '{"n": 1, "m": 1, "k": 0, "c": [0.1], "p": ["1"], "f": [["0.3"]]}'
    )
    assert inst.c[0] == Fraction(1, 10)
    assert inst.f[0][0] == Fraction(3, 10)


ASCII_DIGITS = st.text("0123456789", min_size=1, max_size=12)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    sign=st.sampled_from(["", "+", "-"]),
    whole=ASCII_DIGITS,
    denominator=st.none() | ASCII_DIGITS.filter(lambda d: d.strip("0")),
    pad=st.sampled_from(["", " ", "\t\n"]),
)
@example(sign="-", whole="0", denominator=None, pad="")
@example(sign="+", whole="5", denominator=None, pad="")
@example(sign="", whole="007", denominator="010", pad="")
def test_plain_numerals_parse_as_fraction_reads_them(sign, whole, denominator, pad):
    # Sign, digits and "/" digits, leading zeros included, read through int().
    numeral = sign + whole + ("" if denominator is None else "/" + denominator)
    value = parse_rational(pad + numeral + pad)
    assert value == Fraction(numeral) and type(value) is Fraction


@pytest.mark.parametrize(
    "numeral", ["1_0", "٣", "²", "+-1", "1/-2", "5/0", "-05/00", "", "-", "1 /2", "0x10"]
)
def test_near_plain_numerals_read_as_fraction_reads_them(numeral):
    # Spellings next to the int() path: each gives Fraction's value, or its
    # error with the message parse_rational has always given.
    try:
        expected = Fraction(numeral)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ParseError) as info:
            parse_rational(numeral)
        assert str(info.value) == f"not a rational numeral: {numeral!r} ({exc})"
    else:
        assert parse_rational(numeral) == expected


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError, match="f\\[1\\]\\[0\\]"):
        parse_instance(
            '{"n": 2, "m": 1, "k": 1, "c": ["1", "1"], "p": ["1"],'
            ' "f": [["1"], ["nope"]]}'
        )
    with pytest.raises(InstanceError, match="p has 1 entries"):
        parse_instance('{"n": 1, "m": 2, "k": 1, "c": ["1"], "p": ["1"], "f": [["1", "1"]]}')
    with pytest.raises(ParseError):
        parse_instance("{not json")
    with pytest.raises(ParseError, match="missing field 'k'"):
        parse_instance('{"n": 1, "m": 1, "c": ["1"], "p": ["1"], "f": [["1"]]}')


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 1, "m": 1, "k": 0, "p": ["1"], "f": [["1"]]}', "missing field 'c'"),
        ('{"n": "1", "m": 1, "k": 0, "c": ["1"], "p": ["1"], "f": [["1"]]}',
         "n: expected an integer, got '1'"),
        ('{"n": 1, "m": 1, "k": 0, "c": "1", "p": ["1"], "f": [["1"]]}', "c: expected an array"),
        ('{"n": 1, "m": 1, "k": 0, "c": ["1"], "p": ["1"], "f": [["1"]], "label": 7}',
         "label: expected a string, got 7"),
        ('{"n": 1, "m": 1, "k": 0, "c": ["1"], "p": ["1"], "f": ["1"]}',
         "f[0]: expected an array (row of asset 0)"),
        ("[]", "malformed instance: expected a JSON object"),
        ('{"n": 5.0, "m": 1, "k": 0, "c": ["1"], "p": ["1"], "f": [["1"]]}',
         "n: expected an integer, got '5.0'"),
        ('{"n": 1, "m": 1, "k": 0, "c": ["1"], "p": ["1"], "f": [["1"]], "label": 0.5}',
         "label: expected a string, got '0.5'"),
    ],
    ids=["missing-field", "n-not-integer", "c-not-array", "label-not-string", "f-row-not-array",
         "not-an-object", "n-bare-decimal", "label-bare-decimal"],
)
def test_parse_instance_refuses_a_malformed_structure(text, message):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"first_stage": [], "second_stage": []}', "missing field 'value'"),
        ('{"first_stage": [], "second_stage": {}, "value": "0"}',
         "second_stage: expected an array of arrays"),
        ('{"first_stage": [], "second_stage": [["0"]], "value": "0"}',
         "second_stage[0]: expected integer asset indices, got '0'"),
        ('{"first_stage": 5, "second_stage": [], "value": "0"}', "first_stage: expected an array"),
        ('{"first_stage": [1.0], "second_stage": [], "value": "0"}',
         "first_stage: expected integer asset indices, got '1.0'"),
        ('{"first_stage": [], "second_stage": [[0, 1.0]], "value": "0"}',
         "second_stage[0]: expected integer asset indices, got '1.0'"),
    ],
    ids=["missing-field", "second-stage-not-array", "index-not-integer",
         "first-stage-not-array", "first-stage-bare-decimal", "second-stage-bare-decimal"],
)
def test_parse_solution_refuses_a_malformed_structure(text, message):
    with pytest.raises(ParseError) as info:
        parse_solution(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "first, second, failure",
    [
        ((), ((0, 1),), "second_stage has 1 scenario lists, expected m=2"),
        ((), ((0, 0), (0, 1)), "second_stage[0] contains duplicate assets"),
        ((3,), ((0,), (1,)), "first-stage asset 3 out of range 0..2"),
        ((), ((0, 1), (0, 3)), "second_stage[1] asset 3 out of range 0..2"),
    ],
    ids=["scenario-count", "duplicate-in-scenario", "first-stage-range", "second-stage-range"],
)
def test_check_solution_names_a_malformed_plan(first, second, failure):
    half = Fraction(1, 2)
    instance = Instance(n=3, m=2, k=2, c=(1, 2, 1), p=(half, half), f=((2, 1), (1, 1), (1, 2)))
    assert check_solution(instance, Solution(first, second, 0)) == [failure]


def test_floats_rejected_outside_parsing():
    with pytest.raises(TypeError):
        as_rational(0.1)
    with pytest.raises(TypeError):
        Instance(n=1, m=1, k=0, c=(0.1,), p=(1,), f=((1,),))


def test_solution_round_trip():
    sol = Solution((2, 0), ((3, 1), (4,)), Fraction(21, 4))
    again = parse_solution(serialize_solution(sol))
    assert again == sol
    assert again.first_stage == (0, 2)  # stored sorted


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    st.lists(
        st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3)), max_size=12
    ),
    st.data(),
)
def test_by_value_is_value_descending_ties_to_lowest_index(values, data):
    # ints and Fractions mixed, with ties (2 == Fraction(2)) and negatives;
    # items is any ascending subset of the positions
    keep = data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    items = [i for i, kept in enumerate(keep) if kept]
    groups = by_value(items, [values[i] for i in items])
    assert [i for _, members in groups for i in members] == sorted(
        items, key=lambda i: (-values[i], i)
    )
    # one group per distinct value, strictly descending, each holding its members only
    assert [value for value, _ in groups] == sorted({values[i] for i in items}, reverse=True)
    assert all(values[i] == value for value, members in groups for i in members)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(st.sampled_from("23"), st.integers(2, 12), st.integers(1, 4), st.data(), st.integers(0, 10**6))
def test_the_sale_sorts_only_the_distinct_held_values(values, n, m, data, seed):
    # The O(nm) bound of the two-value algorithm: each scenario groups its
    # held column with by_value, whose one sort sees one group per distinct
    # held value (at most two or three), never the held assets themselves.
    inst = gen_random_instance(n, m, data.draw(st.integers(0, n)), values, seed)
    first = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=inst.k))
    sorts = []  # per by_value call: its column's distinct values, the lengths sorted

    def grouped(items, column):
        lengths = []
        sorts.append((len(set(column)), lengths))

        def spy(iterable, **kwargs):
            listed = list(iterable)
            lengths.append(len(listed))
            return sorted(listed, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dshp.model, "sorted", spy, raising=False)
            return by_value(items, column)

    solve = solve_two_value if values == "2" else solve_approx
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dshp.model, "by_value", grouped)
        complete_first_stage(inst, first)
        assert len(sorts) == (inst.m if len(first) < inst.k else 0)
        solve(inst)
    assert all(lengths == [distinct] for distinct, lengths in sorts), sorts
    assert all(distinct <= int(values) for distinct, _ in sorts)


# Each value with numerals that spell it; a numeral JSON reads as a number may
# also be written bare in a file.
SPELLED = {
    Fraction(1, 2): ("0.5", "1/2", "2/4", "5e-1"),
    Fraction(-3, 4): ("-0.75", "-3/4", "-6/8"),
    Fraction(7, 3): ("7/3", "14/6"),
    Fraction(2): ("2", "2.0", "4/2"),
    Fraction(0): ("0", "-0", "0/5", "0.0"),
    Fraction(-5): ("-5", "-5.00"),
}
WHOLE = [v for v in SPELLED if v.denominator == 1]


def reference_distinct(inst):
    """The per-cell value scan: c, then f row by row, keyed by (numerator, denominator)."""
    rows = (inst.c, *inst.f)
    return tuple({(v.numerator, v.denominator): v for row in rows for v in row}.values())


def reference_integers(inst):
    """The per-cell integer view: (c, columns, weights, scale, pscale)."""
    scale = lcm(*(v.denominator for row in (inst.c, *inst.f) for v in row))
    pscale = lcm(*(v.denominator for v in inst.p))
    c = tuple(v.numerator * (scale // v.denominator) for v in inst.c)
    rows = [[v.numerator * (scale // v.denominator) for v in row] for row in inst.f]
    weights = tuple(v.numerator * (pscale // v.denominator) for v in inst.p)
    return c, tuple(zip(*rows)), weights, scale, pscale


def is_bare_number(numeral: str) -> bool:
    try:
        return not isinstance(json.loads(numeral), str)
    except json.JSONDecodeError:
        return False


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.sampled_from(["file", "shared", "fresh", "int", "mixed"]),
    st.data(),
)
def test_value_table_matches_the_per_cell_scan(n, m, mode, data):
    pool = WHOLE if mode == "int" else list(SPELLED)
    value = st.sampled_from(pool)
    c = data.draw(st.lists(value, min_size=n, max_size=n))
    f = data.draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n))
    # 1/m may be a p-only value, which distinct leaves out
    p = [Fraction(1, m)] * m

    def cell(v):
        kind = mode if mode != "mixed" else data.draw(
            st.sampled_from(["file", "shared", "fresh"] + ["int"] * (v in WHOLE))
        )
        if kind == "file":
            return data.draw(st.sampled_from(SPELLED[v]))
        if kind == "shared":
            return v
        if kind == "fresh":
            return Fraction(v.numerator, v.denominator)
        return int(v)

    c = [cell(v) for v in c]
    f = [[cell(v) for v in row] for row in f]
    if mode == "file":
        def literal(numeral):
            bare = is_bare_number(numeral) and data.draw(st.booleans())
            return numeral if bare else json.dumps(numeral)

        text = '{"n": %d, "m": %d, "k": 0, "c": [%s], "p": %s, "f": [%s]}' % (
            n,
            m,
            ", ".join(map(literal, c)),
            json.dumps([str(v) for v in p]),
            ", ".join("[" + ", ".join(map(literal, row)) + "]" for row in f),
        )
        inst = parse_instance(text)
    else:
        inst = Instance(n=n, m=m, k=0, c=c, p=p, f=f)
    assert inst.distinct == reference_distinct(inst)
    c, columns, weights, scale, pscale = reference_integers(inst)
    assert integer_view(inst) == (c, columns, weights, scale, pscale)
    # equal values spelled apart share one integer
    assert len({*c, *(x for column in columns for x in column)}) == len(inst.distinct)
    # the exact search's integers, per cell, over the scenarios of nonzero weight
    costs = _Costs(inst)
    kept = [(w, column) for w, column in zip(weights, columns) if w]
    assert (costs.c, costs.scale, costs.pscale) == (list(c), scale, pscale)
    assert costs.weights == [w for w, _ in kept]
    assert costs.columns == [[w * v for v in column] for w, column in kept]
    assert costs.values == [tuple(w * column[i] for w, column in kept) for i in range(n)]
    assert costs.net == [pscale * ci - sum(w * column[i] for w, column in kept)
                         for i, ci in enumerate(c)]
    # the integer table holds one entry per recorded object; no build keeps
    # a value table of its own, and the instance keeps its record
    objects = vars(inst)["_objects"]
    assert inst.integers.ints == {id(v): v.numerator * (scale // v.denominator) for v in objects}
    assert len(inst.integers.ints) == len(objects)
    fields = {field.name for field in dataclasses.fields(inst)}
    assert set(vars(inst)) == fields | {"_objects", "distinct", "integers"}
    assert recorded_ids(inst) == first_appearance_ids(inst)


def drawn_instance(n, m, mode, data):
    """An instance of SPELLED values, each cell drawn as test_value_table_matches_the_per_cell_scan draws it."""
    pool = WHOLE if mode == "int" else list(SPELLED)
    value = st.sampled_from(pool)
    c = data.draw(st.lists(value, min_size=n, max_size=n))
    f = data.draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n))
    p = [Fraction(1, m)] * m

    def cell(v):
        kind = mode if mode != "mixed" else data.draw(
            st.sampled_from(["file", "shared", "fresh"] + ["int"] * (v in WHOLE))
        )
        if kind == "file":
            return data.draw(st.sampled_from(SPELLED[v]))
        if kind == "shared":
            return v
        if kind == "fresh":
            return Fraction(v.numerator, v.denominator)
        return int(v)

    c = [cell(v) for v in c]
    f = [[cell(v) for v in row] for row in f]
    if mode != "file":
        return Instance(n=n, m=m, k=0, c=c, p=p, f=f)

    def literal(numeral):
        bare = is_bare_number(numeral) and data.draw(st.booleans())
        return numeral if bare else json.dumps(numeral)

    return parse_instance(
        '{"n": %d, "m": %d, "k": 0, "c": [%s], "p": %s, "f": [%s]}' % (
            n,
            m,
            ", ".join(map(literal, c)),
            json.dumps([str(v) for v in p]),
            ", ".join("[" + ", ".join(map(literal, row)) + "]" for row in f),
        )
    )


def recorded_ids(inst):
    """The ids of the value objects the instance recorded while coercing its cells."""
    return list(map(id, vars(inst)["_objects"]))


def first_appearance_ids(inst):
    """The ids of the cells of c and f, each once, in order of first appearance."""
    return list(dict.fromkeys(map(id, chain(inst.c, *inst.f))))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.sampled_from(["file", "shared", "fresh", "int", "mixed"]),
    st.sampled_from(["distinct", "integers"]),
    st.data(),
)
def test_the_value_record_serves_either_view_first(n, m, mode, first, data):
    inst = drawn_instance(n, m, mode, data)
    # the record is every value object of c and f once, in order of first appearance
    assert recorded_ids(inst) == first_appearance_ids(inst)
    getattr(inst, first)
    assert recorded_ids(inst) == first_appearance_ids(inst)  # kept for the other view
    assert inst.distinct == reference_distinct(inst)
    assert integer_view(inst) == reference_integers(inst)
    # and kept after both, for the instance's lifetime
    fields = {field.name for field in dataclasses.fields(inst)}
    assert set(vars(inst)) == fields | {"_objects", "distinct", "integers"}
    assert recorded_ids(inst) == first_appearance_ids(inst)


def test_the_value_record_follows_the_cells_of_c_and_f_only():
    # c: a string row whose one-pass read fails at the Fraction, so "1/2" enters
    # the numeral table before the general read records the row; f[0]: a string
    # row adding only "5"; f[1]: a Fraction row; f[2]: bare numbers; "1/3" and
    # "2/3" are spelled only in p, which has its own numeral table
    half = Fraction(1, 2)
    inst = Instance(
        n=3,
        m=2,
        k=1,
        c=("1/2", half, "3/4"),
        p=("1/3", "2/3"),
        f=(("3/4", "5"), (half, Fraction(3, 4)), (1, Fraction(5))),
    )
    assert recorded_ids(inst) == first_appearance_ids(inst)
    assert set(vars(inst)["_objects"]) == {half, Fraction(3, 4), Fraction(5), Fraction(1)}
    assert inst.distinct == (half, Fraction(3, 4), Fraction(5), Fraction(1))
    # bare rows: f[2] all bare, f[3] opening with a bare int; a bare number
    # shares the object of its quoted spelling, so the record holds one object
    # each for "0.5", "1/2" and "2"
    parsed = parse_instance(
        '{"n": 4, "m": 2, "k": 1, "c": ["0.5", 0.5, 2, "2"], "p": ["1/3", "2/3"],'
        ' "f": [["1/2", "0.5"], [2, "0.5"], [0.5, 2], [2, "1/2"]]}'
    )
    assert recorded_ids(parsed) == first_appearance_ids(parsed)
    assert len(vars(parsed)["_objects"]) == 3
    assert parsed.c[1] is parsed.c[0] is parsed.f[2][0]
    assert parsed.c[3] is parsed.c[2] is parsed.f[2][1] is parsed.f[3][0]
    assert parsed.distinct == (half, Fraction(2))
    assert Fraction(1, 3) not in vars(parsed)["_objects"]


@pytest.mark.parametrize("copier", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
@pytest.mark.parametrize("built", ["distinct", "integers"])
def test_an_instance_with_one_view_copies_with_its_record(built, copier):
    text = (
        '{"n": 3, "m": 2, "k": 1, "c": ["1/2", 0.5, "7/3"], "p": ["1/4", "3/4"],'
        ' "f": [["0.5", "2"], [2, "14/6"], ["-3/4", 0.5]]}'
    )
    inst = parse_instance(text)
    getattr(inst, built)
    again = copier(inst)
    fresh = parse_instance(text)
    assert again == fresh
    # the copy's record is its own cells' objects, kept through both views
    assert recorded_ids(again) == first_appearance_ids(again)
    assert again.distinct == fresh.distinct
    # the integer table, keyed by the ids of the original's objects, is not
    # copied: the copy builds its own, for its completion and its view
    assert "integers" not in vars(again)
    assert complete_first_stage(again, ()) == complete_first_stage(fresh, ())
    assert integer_view(again) == integer_view(fresh)
    assert recorded_ids(again) == first_appearance_ids(again)


def per_cell_serialization(inst) -> str:
    """serialize_instance written cell by cell: one str() per cell."""
    obj = {
        "n": inst.n,
        "m": inst.m,
        "k": inst.k,
        "c": [str(v) for v in inst.c],
        "p": [str(v) for v in inst.p],
        "f": [[str(v) for v in row] for row in inst.f],
    }
    if inst.label:
        obj["label"] = inst.label
    return json.dumps(obj)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.sampled_from(["file", "shared", "fresh", "int", "mixed"]),
    st.sampled_from(["", "drawn"]),
    st.sampled_from([None, "distinct", "integers", "both"]),
    st.data(),
)
def test_serialization_per_value_object_equals_the_per_cell_form(n, m, mode, label, built, data):
    # str, int and Fraction cells; equal values spelled apart, or fresh
    # Fractions, are distinct objects of one text; either view, or both, may
    # be built before writing
    inst = dataclasses.replace(drawn_instance(n, m, mode, data), label=label)
    for view in {"both": ["distinct", "integers"], None: []}.get(built, [built]):
        getattr(inst, view)
    text = serialize_instance(inst)
    assert text == per_cell_serialization(inst)
    assert parse_instance(text) == inst


@pytest.mark.parametrize("views", [(), ("distinct", "integers")], ids=["no-view", "both-views"])
def test_serialization_writes_each_value_object_once(views):
    written = []

    class Counted(Fraction):
        def __str__(self):
            written.append(id(self))
            return super().__str__()

    half, also_half, two = Counted(1, 2), Counted(1, 2), Counted(2)
    inst = Instance(n=2, m=2, k=1, c=[half, two], p=["1/3", "2/3"],
                    f=[[two, also_half], [half, two]])
    for view in views:
        getattr(inst, view)
    expected = per_cell_serialization(inst)
    written.clear()
    assert serialize_instance(inst) == expected
    assert sorted(written) == sorted(map(id, [half, two, also_half]))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    st.lists(st.fractions(-2, 2, max_denominator=6), min_size=1, max_size=6),
    st.booleans(),
    st.booleans(),
)
def test_probability_violations_match_the_fraction_sum(p, complete, spelled):
    # zeros and negatives included; complete makes the last p_j close the sum to 1
    if complete:
        p[-1] = 1 - sum(p[:-1], Fraction(0))
    expected = [f"p[{j}] = {pj} is negative" for j, pj in enumerate(p) if pj < 0]
    if not expected and sum(p, Fraction(0)) != 1:
        expected.append(f"probabilities sum to {sum(p, Fraction(0))}, not 1")
    m = len(p)
    cells = [str(pj) for pj in p] if spelled else p
    try:
        Instance(n=1, m=m, k=0, c=[0], p=cells, f=[[0] * m])
    except InstanceError as exc:
        assert exc.violations == expected
    else:
        assert expected == []
