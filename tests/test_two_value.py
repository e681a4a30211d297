"""Two-value solver: detection, optimality vs enumeration, linear-time evidence."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

import dshp.two_value
from dshp import (
    Instance,
    TwoValueProfile,
    ValueDomainError,
    VisitCounter,
    build_reduction,
    default_params,
    detect_two_values,
    parse_instance,
    solve_exact,
    solve_two_value,
)
from dshp.cli import gen_random_instance

from conftest import cycle_graph, two_valued_instances


def test_detect_basic_profile():
    inst = Instance(n=2, m=2, k=1, c=(2, 1), p=(Fraction(1, 2),) * 2, f=((1, 2), (2, 1)))
    profile = detect_two_values(inst)
    assert profile.v_min == 1
    assert profile.v_max == 2
    assert profile.max_valued == (0,)


def test_detect_rejects_three_values_with_witness():
    inst = Instance(n=2, m=1, k=1, c=(1, 2), p=(1,), f=((3,), (1,)))
    with pytest.raises(ValueDomainError, match="witness"):
        detect_two_values(inst)


def test_detect_rejects_reduction_instances():
    inst = build_reduction(cycle_graph(5), default_params(5, 2))
    with pytest.raises(ValueDomainError):
        detect_two_values(inst)


def test_detect_degenerate_single_value():
    # one value is the case v_min = v_max: every asset is worth v_max up front
    inst = Instance(n=2, m=1, k=1, c=(3, 3), p=(1,), f=((3,), (3,)))
    assert detect_two_values(inst) == TwoValueProfile(Fraction(3), Fraction(3), (0, 1))


def test_max_valued_matches_fraction_comparison_across_spellings():
    # c spells v_max = 1/2 as "1/2", "0.5", bare 0.5 and a fresh Fraction(1, 2):
    # the file's cells of one numeral share one Fraction, other spellings do not
    parsed = parse_instance(
        '{"n": 6, "m": 2, "k": 3, "c": ["1/2", "0.5", 0.5, "0", "1/2", "0"],'
        ' "p": ["1/2", "1/2"], "f": [["0", "1/2"], ["0", "0.5"], ["1/2", 0.5],'
        ' ["0", "0"], ["1/2", "0"], ["0", "1/2"]]}'
    )
    inst = dataclasses.replace(parsed, c=parsed.c[:5] + (Fraction(1, 2),))
    assert len({id(v) for v in inst.c if v}) == 3
    profile = detect_two_values(inst)
    assert profile.max_valued == tuple(i for i in range(inst.n) if inst.c[i] == profile.v_max)
    assert profile.max_valued == (0, 1, 2, 4, 5)


def test_solve_spec_example():
    inst = Instance(
        n=3, m=2, k=2, c=(2, 1, 1), p=(Fraction(1, 2),) * 2, f=((1, 1), (2, 1), (1, 2))
    )
    sol = solve_two_value(inst)
    assert sol.first_stage == (0,)
    assert sol.second_stage == ((1,), (2,))
    assert sol.value == 4
    assert sol.value == solve_exact(inst).value


def test_everything_maximal_up_front():
    # every c_i is v_max and k = n: sell all at the first stage
    inst = Instance(n=3, m=2, k=3, c=(2, 2, 2), p=(Fraction(1, 2),) * 2, f=((1, 1), (1, 1), (1, 1)))
    sol = solve_two_value(inst)
    assert sol.first_stage == (0, 1, 2)
    assert sol.second_stage == ((), ())
    assert sol.value == 6


def test_degenerate_returns_lexicographic_plan():
    v = Fraction(7, 2)
    inst = Instance(n=4, m=2, k=2, c=(v,) * 4, p=(Fraction(1, 2),) * 2, f=((v, v),) * 4)
    sol = solve_two_value(inst)
    assert sol.first_stage == (0, 1)
    assert sol.second_stage == ((), ())
    assert sol.value == 2 * v


@pytest.mark.parametrize(
    "value, k, p",
    [
        (Fraction(5, 2), 0, (Fraction(1, 2), Fraction(1, 2))),
        (Fraction(5, 2), 5, (Fraction(1, 3), Fraction(2, 3))),
        (Fraction(-7, 3), 2, (Fraction(1, 4), Fraction(3, 4))),
        (Fraction(4), 3, (Fraction(0), Fraction(1))),
    ],
    ids=["k=0", "k=n", "negative", "zero-probability"],
)
def test_single_valued_matches_exact(value, k, p):
    inst = Instance(n=5, m=2, k=k, c=(value,) * 5, p=p, f=((value, value),) * 5)
    assert detect_two_values(inst) == TwoValueProfile(value, value, tuple(range(5)))
    sol = solve_two_value(inst)
    assert sol.first_stage == tuple(range(k))
    assert sol.second_stage == ((), ())
    assert sol.value == solve_exact(inst).value == k * value


def test_matches_exact_on_random_instances():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 8)
        inst = gen_random_instance(
            n, rng.randint(1, 5), rng.randint(0, n), "2", rng.randrange(10**6)
        )
        assert solve_two_value(inst).value == solve_exact(inst).value


def wait_and_see(instance):
    """sum_j p_j times the sum of the k largest max(c_i, f_ij): the value
    of a plan that knew the scenario before its first stage."""
    return sum(
        (
            pj * sum(sorted(map(max, instance.c, column), reverse=True)[: instance.k])
            for pj, column in zip(instance.p, zip(*instance.f))
        ),
        Fraction(0),
    )


NEGATIVE = dict(
    n=3, m=3, c=(-2, 1, -2), p=(0, Fraction(1, 3), Fraction(2, 3)),
    f=((1, -2, 1), (-2, -2, 1), (1, 1, -2)),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(instance=two_valued_instances(max_n=12, max_m=6))
@example(instance=Instance(k=0, **NEGATIVE))
@example(instance=Instance(k=3, **NEGATIVE))
@example(instance=Instance(n=2, m=2, k=2, c=(-1, -1), p=(1, 0), f=((-1, -1), (-1, -1))))
def test_value_is_the_wait_and_see_bound(instance):
    # On at most two values no plan sells more entries worth v_max in any
    # scenario than the two-value plan, so knowing the scenario gains nothing.
    assert solve_two_value(instance).value == wait_and_see(instance)


def test_value_is_the_wait_and_see_bound_at_bulk_size():
    inst = gen_random_instance(150, 100, 135, "2", 1)
    assert solve_two_value(inst).value == wait_and_see(inst)


def test_first_stage_only_max_valued_assets():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(1, 8)
        inst = gen_random_instance(
            n, rng.randint(1, 4), rng.randint(0, n), "2", rng.randrange(10**6)
        )
        profile = detect_two_values(inst)
        sol = solve_two_value(inst)
        assert all(inst.c[i] == profile.v_max for i in sol.first_stage)


@pytest.mark.parametrize("k", [2, 3], ids=["all-up-front", "budget-left"])
def test_visit_count_does_not_depend_on_call_history(k):
    # the counter charges one fixed rule, not whichever views an earlier call
    # left on the instance: a second solve, and a solve after the value scan
    # and the integer table were built by hand, count what a fresh one does
    def visits(instance):
        counter = VisitCounter()
        solve_two_value(instance, counter)
        return counter.visits

    fresh = visits(gen_random_instance(8, 4, k, "2", 7))
    inst = gen_random_instance(8, 4, k, "2", 7)
    assert [visits(inst), visits(inst)] == [fresh, fresh]
    built = gen_random_instance(8, 4, k, "2", 7)
    built.distinct
    built.integers
    assert visits(built) == fresh
    # the plan takes the branch its id names
    assert (len(solve_two_value(inst).first_stage) < k) == (k == 3)


def test_a_given_profile_is_not_detected_again(monkeypatch):
    # the plan is the same, and the counter is not charged the value scan
    # or detection's n reads of c, which the caller ran
    inst = gen_random_instance(8, 4, 6, "2", 7)
    profile = detect_two_values(inst)
    fresh, given = VisitCounter(), VisitCounter()
    expected = solve_two_value(gen_random_instance(8, 4, 6, "2", 7), fresh)
    monkeypatch.setattr(dshp.two_value, "detect_two_values", None)
    assert solve_two_value(inst, given, profile=profile) == expected
    assert fresh.visits - given.visits == inst.n * (inst.m + 1) + inst.n


def test_visit_count_of_a_fresh_solve_matches_the_plan():
    # a fresh solve reads: the value scan (c and f), c for detection, the
    # first stage, then, if budget is left, in every scenario f of each held
    # asset (those not sold first) to group them by value; the sale sums
    # each value group it sells as value times count and reads no f again
    rng = random.Random(61)
    branches = set()
    for _ in range(40):
        n, m = rng.randint(1, 9), rng.randint(1, 4)
        inst = gen_random_instance(n, m, rng.randint(0, n), "2", rng.randrange(10**6))
        counter = VisitCounter()
        sol = solve_two_value(inst, counter)
        expected = n * (m + 1) + n + len(sol.first_stage)
        if len(sol.first_stage) < inst.k:
            expected += (n - len(sol.first_stage)) * m
        branches.add(len(sol.first_stage) < inst.k)
        assert counter.visits == expected
    assert branches == {False, True}
    # single-valued: the same reads, and the first stage is the first k assets
    inst = Instance(n=4, m=2, k=3, c=(1,) * 4, p=(Fraction(1, 2),) * 2, f=((1, 1),) * 4)
    counter = VisitCounter()
    assert solve_two_value(inst, counter).first_stage == (0, 1, 2)
    assert counter.visits == 4 * (2 + 1) + 4 + 3


def test_visit_count_scales_linearly_in_m():
    # operation-count evidence for the O(nm) claim: doubling m at fixed n
    # costs at most 2.5x as many element visits
    rng = random.Random(53)
    n = 8
    for m in (2, 3):
        base = gen_random_instance(n, m, 3, "2", 99)
        doubled = Instance(
            n=n,
            m=2 * m,
            k=base.k,
            c=base.c,
            p=tuple(pj / 2 for pj in base.p) * 2,
            f=tuple(row * 2 for row in base.f),
        )
        small, big = VisitCounter(), VisitCounter()
        solve_two_value(base, small)
        solve_two_value(doubled, big)
        assert big.visits <= 2.5 * small.visits
