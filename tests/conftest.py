"""Shared graph fixtures and small oracles used across the test modules."""

import itertools
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from dshp import Graph, Instance, complete_first_stage


def octahedron() -> Graph:
    """4-regular planar graph on 6 vertices: all pairs except the three
    antipodal ones."""
    edges = {(u, v) for u in range(6) for v in range(u + 1, 6)}
    edges -= {(0, 3), (1, 4), (2, 5)}
    return Graph(6, frozenset(edges))


def cycle_graph(n: int) -> Graph:
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    return Graph(n, frozenset(edges))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def dominating_plan(instance, dominating):
    """The canonical plan for a vertex set D on a built reduction instance.

    Sells the complement of D at stage 1 and completes greedily, which per
    scenario sells all of D except one lowest-valued member.  Its value
    equals dominating_solution_revenue(n, params, |D|) exactly when D
    dominates the source graph.
    """
    chosen = set(dominating)
    return complete_first_stage(instance, [i for i in range(instance.n) if i not in chosen])


class IntegerView(NamedTuple):
    """An instance's cells as integers: c[i] and columns[j][i] are c_i and
    f_ij times scale, and weights[j] is p_j times pscale."""

    c: tuple
    columns: tuple
    weights: tuple
    scale: int
    pscale: int


def integer_view(instance) -> IntegerView:
    """Every cell of instance looked up, one by one, in Instance.integers: the
    tests' reference for the integers the exact search reads."""
    table = instance.integers
    ints = table.ints
    c = tuple(ints[id(v)] for v in instance.c)
    columns = tuple(zip(*[[ints[id(v)] for v in row] for row in instance.f]))
    return IntegerView(c, columns, table.weights, table.scale, table.pscale)


def brute_force_second_stage(instance, first_stage):
    """Independent oracle for the greedy completion: per scenario, maximize
    over every (k - |F|)-subset of the unsold assets by full enumeration."""
    first = set(first_stage)
    need = instance.k - len(first)
    remaining = [i for i in range(instance.n) if i not in first]
    revenue = Fraction(0)
    for j in range(instance.m):
        best = max(
            sum((instance.f[i][j] for i in combo), Fraction(0))
            for combo in itertools.combinations(remaining, need)
        )
        revenue += instance.p[j] * best
    return revenue


def two_valued_first_stage(instance):
    """Independent oracle for solve_exact's first stage on exactly two values a < b.

    Let A = {i: c_i = b}, L_j = {i in A: f_ij = a} and T_j = #{i: f_ij = b}.
    A first stage F within A lets scenario j sell min(k, T_j + |F & L_j|)
    entries worth b, and no plan sells more, so F is optimal iff |F & L_j|
    >= min(|L_j|, max(k - T_j, 0)) in every scenario of nonzero weight.  The
    result is the first such F by size and then lexicographically (selling
    an asset with c_i = a first gains nothing, so the first optimum lies in A).
    """
    a, b = sorted({*instance.c, *(v for row in instance.f for v in row)})
    high = [i for i, ci in enumerate(instance.c) if ci == b]
    demands = []
    for j, pj in enumerate(instance.p):
        if pj:
            low = {i for i in high if instance.f[i][j] == a}
            worth_b = sum(1 for row in instance.f if row[j] == b)
            demands.append((low, min(len(low), max(instance.k - worth_b, 0))))
    for size in range(min(instance.k, len(high)) + 1):
        for first in itertools.combinations(high, size):
            if all(len(low.intersection(first)) >= need for low, need in demands):
                return first
    raise AssertionError("no first stage meets every scenario's demand")


@st.composite
def small_instances(draw, max_n=7, palette_sizes=(1, 2, 12)):
    """n <= max_n, m <= 4, any k; values from a small signed set (its size
    drawn up to one of palette_sizes: one, two or many distinct values);
    probabilities from weights that may be zero."""
    n, m = draw(st.integers(1, max_n)), draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    palette = draw(
        st.lists(
            st.builds(Fraction, st.integers(-6, 9), st.sampled_from([1, 2, 3])),
            min_size=1,
            max_size=draw(st.sampled_from(palette_sizes)),
        )
    )
    value = st.sampled_from(palette)
    c = draw(st.lists(value, min_size=n, max_size=n))
    f = [draw(st.lists(value, min_size=m, max_size=m)) for _ in range(n)]
    weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
    p = [Fraction(w, sum(weights)) for w in weights]
    return Instance(n=n, m=m, k=k, c=c, p=p, f=f)


@st.composite
def two_valued_instances(draw, max_n=9, max_m=4):
    """n <= max_n, m <= max_m, any k; every c_i and f_ij one of two signed
    values a <= b (a == b, or one of them unused, gives a single-valued
    instance); probabilities from weights that may be zero."""
    a = draw(st.builds(Fraction, st.integers(-6, 9), st.sampled_from([1, 2, 3])))
    b = a + draw(st.builds(Fraction, st.integers(0, 5), st.sampled_from([1, 2])))
    n, m = draw(st.integers(1, max_n)), draw(st.integers(1, max_m))
    value = st.sampled_from([a, b])
    c = draw(st.lists(value, min_size=n, max_size=n))
    f = [draw(st.lists(value, min_size=m, max_size=m)) for _ in range(n)]
    weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
    p = [Fraction(w, sum(weights)) for w in weights]
    return Instance(n=n, m=m, k=draw(st.integers(0, n)), c=c, p=p, f=f)


def first_optimum_by_enumeration(instance, pool, greedy=False):
    """Naive reference for solve_exact's plan: every first-stage set drawn
    from pool, by size and then lexicographically, scored as its c sum plus
    brute_force_second_stage(instance, set), or with greedy, faster, as
    complete_first_stage(instance, set).value (criterion 7 checks the two
    agree); the first strict maximum is completed by complete_first_stage."""
    best_value, best_first = None, ()
    for size in range(min(instance.k, len(pool)) + 1):
        for first in itertools.combinations(sorted(pool), size):
            if greedy:
                value = complete_first_stage(instance, first).value
            else:
                value = sum((instance.c[i] for i in first), Fraction(0))
                value += brute_force_second_stage(instance, first)
            if best_value is None or value > best_value:
                best_value, best_first = value, first
    return complete_first_stage(instance, best_first)


@pytest.fixture
def tightness_012():
    from dshp import gen_tightness

    return gen_tightness(0, 1, 2)
