"""Three-value heuristic: detection, guarantee, tightness family."""

import dataclasses
import random
from fractions import Fraction

import pytest

from dshp import (
    Instance,
    ValueDomainError,
    build_reduction,
    default_params,
    detect_three_values,
    evaluate,
    gen_tightness,
    parse_instance,
    solve_approx,
    solve_exact,
)
from dshp.cli import gen_random_instance

from conftest import octahedron


def test_detect_tightness_profile(tightness_012):
    profile = detect_three_values(tightness_012)
    assert (profile.low, profile.mid, profile.high) == (0, 1, 2)
    assert profile.high_count == 0
    assert profile.mid_count == 1


def test_detect_reduction_instance():
    inst = build_reduction(octahedron(), default_params(6, 4))
    profile = detect_three_values(inst)
    assert (profile.low, profile.mid, profile.high) == (
        Fraction(1, 2),
        1,
        Fraction(11, 4),
    )
    assert profile.high_count == 0
    assert profile.mid_count == 6


def test_detect_rejects_wrong_cardinality():
    one = Instance(n=2, m=1, k=1, c=(1, 1), p=(1,), f=((1,), (1,)))
    with pytest.raises(ValueDomainError) as raised:
        detect_three_values(one)
    assert str(raised.value) == "only 1 distinct value(s); use the two-value solver"
    two = Instance(n=2, m=1, k=1, c=(1, 2), p=(1,), f=((1,), (2,)))
    with pytest.raises(ValueDomainError) as raised:
        detect_three_values(two)
    assert str(raised.value) == "only 2 distinct value(s); use the two-value solver"
    four = Instance(n=2, m=1, k=1, c=(1, 2), p=(1,), f=((3,), (4,)))
    with pytest.raises(ValueDomainError, match="witness"):
        detect_three_values(four)


def test_tightness_run(tightness_012):
    sol = solve_approx(tightness_012)
    assert sol.first_stage == (1,)
    assert sol.value == 1
    assert detect_three_values(tightness_012).guarantee == Fraction(1, 2)
    assert solve_exact(tightness_012).value == 2


def test_no_qualifying_first_stage_assets():
    # all first-stage values are the low value: pure second-stage greedy
    inst = Instance(
        n=3, m=2, k=2, c=(0, 0, 0), p=(Fraction(1, 2),) * 2, f=((2, 0), (1, 1), (0, 2))
    )
    sol = solve_approx(inst)
    assert sol.first_stage == ()
    assert sol.second_stage == ((0, 1), (1, 2))
    assert sol.value == 3


def test_full_budget_sells_everything():
    inst = Instance(
        n=3, m=2, k=3, c=(2, 1, 0), p=(Fraction(1, 2),) * 2, f=((0, 0), (0, 0), (1, 2))
    )
    sol = solve_approx(inst)
    assert set(sol.first_stage) >= {0, 1}
    expected = sum((inst.c[i] for i in sol.first_stage), Fraction(0))
    for j in range(inst.m):
        expected += inst.p[j] * sum(
            (inst.f[i][j] for i in sol.second_stage[j]), Fraction(0)
        )
    assert sol.value == expected
    assert evaluate(inst, sol) == sol.value


def test_rejects_negative_values():
    inst = Instance(n=2, m=1, k=1, c=(-1, 0), p=(1,), f=((1,), (0,)))
    with pytest.raises(ValueDomainError, match="negative"):
        solve_approx(inst)


def test_stage_one_choices_high_before_mid():
    # more qualifying assets than budget: high-valued win, low index first
    inst = Instance(
        n=5,
        m=1,
        k=2,
        c=(1, 2, 0, 2, 1),
        p=(1,),
        f=((0,), (0,), (0,), (0,), (0,)),
    )
    sol = solve_approx(inst)
    assert sol.first_stage == (1, 3)
    assert sol.value == 4


# c spells one half as "1/2", "0.5" and bare 0.5, and two as "2", "2.0",
# bare 2 and "4/2"; the file's cells of one numeral share one Fraction, and
# other spellings of the value are other objects
SPELLED = (
    '{"n": 10, "m": 2, "k": %d, "c": ["2", "1/2", "0", "0.5", 0.5, "2.0", 2, "4/2", "1/2", "0"],'
    ' "p": ["1/2", "1/2"], "f": [["0", "2"], ["1/2", "0"], ["0", "0"], ["2", "0.5"], ["0", "0"],'
    ' ["0", "0"], ["0", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]}'
)


@pytest.mark.parametrize("k", [2, 4, 7, 9])
def test_classification_matches_fraction_comparison_across_spellings(k):
    parsed = parse_instance(SPELLED % k)
    # two more objects: a fresh Fraction(1, 2) and a fresh Fraction(2)
    inst = dataclasses.replace(parsed, c=parsed.c[:8] + (Fraction(1, 2), Fraction(2)))
    half = [v for v in inst.c if v == Fraction(1, 2)]
    assert len({id(v) for v in half}) == 3
    profile = detect_three_values(inst)
    assert (profile.low, profile.mid, profile.high) == (0, Fraction(1, 2), 2)
    assert profile.high_count == sum(1 for v in inst.c if v == profile.high) == 5
    assert profile.mid_count == sum(1 for v in inst.c if v == profile.mid) == 4
    ranked = sorted(range(inst.n), key=lambda i: (-inst.c[i], i))
    expected = [i for i in ranked if inst.c[i] >= profile.mid][:k]
    sol = solve_approx(inst)
    assert sol.first_stage == tuple(sorted(expected))
    assert sol.value == evaluate(inst, sol)


def test_gen_tightness_family():
    for triple in [(0, 1, 2), (1, 2, 3), (Fraction(1, 2), Fraction(3, 4), 1)]:
        inst = gen_tightness(*triple)
        profile = detect_three_values(inst)
        assert (profile.low, profile.mid, profile.high) == tuple(map(Fraction, triple))
        assert (profile.high_count, profile.mid_count) == (0, 1)
        sol = solve_approx(inst)
        best = solve_exact(inst)
        assert sol.value == profile.mid
        assert best.value == profile.high
        assert sol.value == profile.guarantee * best.value  # ratio met exactly


def test_gen_tightness_rejects_bad_ordering():
    with pytest.raises(ValueError):
        gen_tightness(1, 1, 2)
    with pytest.raises(ValueError):
        gen_tightness(2, 1, 0)


def test_guarantee_on_random_instances():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(2, 8)
        inst = gen_random_instance(
            n, rng.randint(1, 4), rng.randint(0, n), "3", rng.randrange(10**6)
        )
        profile = detect_three_values(inst)
        sol = solve_approx(inst)
        assert solve_approx(inst, profile) == sol  # a profile passed in is the one computed
        best = solve_exact(inst)
        assert profile.high * sol.value >= profile.mid * best.value
        assert profile.guarantee == profile.mid / profile.high
        assert evaluate(inst, sol) == sol.value  # feasibility
        assert all(inst.c[i] in (profile.mid, profile.high) for i in sol.first_stage)
