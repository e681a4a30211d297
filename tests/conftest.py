"""Shared graph fixtures and small oracles used across the test modules."""

import itertools
from fractions import Fraction

import pytest

from dshp import Graph, complete_first_stage, second_stage_greedy


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


def greedy_second_stage(instance, first_stage):
    """second_stage_greedy's revenue, a faster completion for
    first_optimum_by_enumeration (criterion 7 checks it against brute force)."""
    return second_stage_greedy(instance, first_stage)[1]


def first_optimum_by_enumeration(instance, pool, second_stage=brute_force_second_stage):
    """Naive reference for solve_exact's plan: every first-stage set drawn
    from pool, by size and then lexicographically, scored as its c sum plus
    second_stage(instance, set); the first strict maximum is completed by
    complete_first_stage."""
    best_value, best_first = None, ()
    for size in range(min(instance.k, len(pool)) + 1):
        for first in itertools.combinations(sorted(pool), size):
            value = sum((instance.c[i] for i in first), Fraction(0)) + second_stage(instance, first)
            if best_value is None or value > best_value:
                best_value, best_first = value, first
    return complete_first_stage(instance, best_first)


@pytest.fixture
def tightness_012():
    from dshp import gen_tightness

    return gen_tightness(0, 1, 2)
