"""Exact solver: correctness anchors, pruning, bounds, determinism."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dshp import (
    EnumerationCapError,
    ExactOptions,
    Instance,
    InstanceError,
    brute_force_mds,
    build_reduction,
    complete_first_stage,
    default_params,
    dominating_solution_revenue,
    extract_dominating,
    gen_regular_graph,
    is_dominating,
    prunable,
    solve_exact,
    solve_two_value,
)
from dshp.cli import gen_random_instance
from dshp.exact import SearchTables, _Costs, _HoldOneSearch

from conftest import (
    brute_force_second_stage,
    first_optimum_by_enumeration,
    integer_view,
    small_instances,
    two_valued_first_stage,
    two_valued_instances,
)


def brute_force_optimum(instance):
    """Fully independent oracle: try every first-stage set of every size and
    every per-scenario completion subset."""
    best = None
    for size in range(instance.k + 1):
        for first in itertools.combinations(range(instance.n), size):
            remaining = [i for i in range(instance.n) if i not in first]
            total = sum((instance.c[i] for i in first), Fraction(0))
            for j in range(instance.m):
                scenario_best = max(
                    sum((instance.f[i][j] for i in combo), Fraction(0))
                    for combo in itertools.combinations(remaining, instance.k - size)
                )
                total += instance.p[j] * scenario_best
            if best is None or total > best:
                best = total
    return best


HALF = Fraction(1, 2)
SIGNED = dict(n=3, m=2, c=(1, -2, 3), p=(HALF, HALF), f=((1, 2), (3, 4), (-5, 6)))
# Scenario 0 has zero weight; in the others asset 0 is worth 0 and the rest 4.
ZERO_WEIGHTS = dict(
    n=4, m=3, c=(1, 4, 4, 4), p=(0, HALF, HALF), f=((9, 0, 0), (-3, 4, 4), (7, 4, 4), (0, 4, 4))
)


def test_nothing_to_sell():
    inst = Instance(n=3, m=2, k=0, c=(1, 2, 3), p=(Fraction(1, 2),) * 2, f=((1, 1), (1, 1), (1, 1)))
    sol = solve_exact(inst)
    assert sol.first_stage == ()
    assert sol.value == 0


def test_constant_values():
    v = Fraction(5, 3)
    inst = Instance(n=4, m=2, k=2, c=(v,) * 4, p=(Fraction(1, 2),) * 2, f=((v, v),) * 4)
    sol = solve_exact(inst)
    assert sol.value == 2 * v
    # every plan ties, so the first-encountered set (the empty one) is kept
    assert sol.first_stage == ()


def test_tightness_optimum_holds_everything(tightness_012):
    sol = solve_exact(tightness_012)
    assert sol.first_stage == ()
    assert sol.value == 2
    assert sol.second_stage == ((0,), (2,), (3,))


def test_two_value_example():
    inst = Instance(
        n=3, m=2, k=2, c=(2, 1, 1), p=(Fraction(1, 2),) * 2, f=((1, 1), (2, 1), (1, 2))
    )
    sol = solve_exact(inst)
    assert sol.value == 4
    assert sol.first_stage == (0,)
    assert sol.second_stage == ((1,), (2,))


def test_matches_independent_brute_force():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 6)
        inst = gen_random_instance(
            n, rng.randint(1, 3), rng.randint(0, n), "any", rng.randrange(10**6)
        )
        assert solve_exact(inst).value == brute_force_optimum(inst)


def test_prunable_strict_dominance():
    inst = Instance(n=1, m=2, k=1, c=(1,), p=(Fraction(1, 2),) * 2, f=((2, 2),))
    assert prunable(inst) == {0}


def test_prunable_boundary_excluded():
    # c equals the expected second-stage value exactly: not prunable
    inst = Instance(n=1, m=2, k=1, c=(2,), p=(Fraction(1, 2),) * 2, f=((2, 2),))
    assert prunable(inst) == frozenset()


def test_prunable_on_tightness(tightness_012):
    assert prunable(tightness_012) == {0, 2, 3}


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(instance=small_instances(), draws=st.randoms(use_true_random=False))
@example(instance=Instance(k=0, **SIGNED), draws=random.Random(1))  # r = n
@example(instance=Instance(k=2, **SIGNED), draws=random.Random(2))  # r = 1
@example(instance=Instance(k=3, **SIGNED), draws=random.Random(3))  # r = 0
@example(instance=Instance(k=2, **ZERO_WEIGHTS), draws=random.Random(4))
@example(instance=Instance(k=1, **ZERO_WEIGHTS), draws=random.Random(5))
def test_selling_a_pruned_asset_first_always_loses(instance, draws):
    """For each asset prunable names and a drawn first stage F holding it,
    F less that asset earns strictly more, by complete_first_stage; the
    pruned set holds the plain rule's, c_i < E f_i, and equals it at r <= 1."""
    pruned = prunable(instance)
    plain = set(range(instance.n)) - set(pruned_pool(instance))
    assert plain <= pruned
    if instance.n - instance.k <= 1:
        assert pruned == plain
    for i in sorted(pruned) if instance.k else ():
        others = [a for a in range(instance.n) if a != i]
        rest = draws.sample(others, draws.randint(0, min(instance.k - 1, len(others))))
        kept = complete_first_stage(instance, rest).value
        assert kept > complete_first_stage(instance, [i, *rest]).value, (i, rest)


def test_prunable_drops_more_than_the_plain_rule_at_a_hold_of_two():
    # Asset 0 earns 1 sold first and 0 in either weighted scenario, so c_0 >
    # E f_0 and the plain rule keeps it.  But at r = 2 each weighted
    # scenario's second-lowest value is 4: holding asset 0 back lets every
    # scenario sell one more asset, worth 4.  At r = 1 the floor is 0.
    assert pruned_pool(Instance(k=2, **ZERO_WEIGHTS)) == [0, 1, 2, 3]
    assert prunable(Instance(k=2, **ZERO_WEIGHTS)) == {0}
    assert prunable(Instance(k=1, **ZERO_WEIGHTS)) == {0}
    assert prunable(Instance(k=3, **ZERO_WEIGHTS)) == frozenset()
    assert solve_exact(Instance(k=2, **ZERO_WEIGHTS)) == first_optimum_by_enumeration(
        Instance(k=2, **ZERO_WEIGHTS), range(4)
    )


def test_solve_exact_reports_its_pruned_count(tightness_012):
    extras = {"kept": True}
    assert solve_exact(tightness_012, extras=extras) == solve_exact(tightness_012)
    assert extras == {"kept": True, "pruned_assets": 3}


def test_value_bounds():
    rng = random.Random(31)
    for _ in range(20):
        inst = gen_random_instance(6, 3, rng.randint(0, 6), "any", rng.randrange(10**6))
        sol = solve_exact(inst)
        everything = list(inst.c) + [v for row in inst.f for v in row]
        assert sol.value <= inst.k * max(everything)
        assert sol.value >= inst.k * min(everything)


def test_monotone_in_budget_for_nonnegative_values():
    rng = random.Random(37)
    for _ in range(10):
        inst = gen_random_instance(6, 3, 0, "3", rng.randrange(10**6))
        values = [
            solve_exact(
                Instance(n=inst.n, m=inst.m, k=k, c=inst.c, p=inst.p, f=inst.f)
            ).value
            for k in range(inst.n + 1)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_enumeration_cap():
    inst = Instance(n=3, m=1, k=1, c=(1, 1, 1), p=(1,), f=((1,), (1,), (1,)))
    with pytest.raises(EnumerationCapError, match="max_n"):
        solve_exact(inst, ExactOptions(max_n=2))
    assert solve_exact(inst, ExactOptions(max_n=3)).value == 1
    with pytest.raises(ValueError) as info:
        ExactOptions(max_n=0)
    assert str(info.value) == "max_n must be >= 1, got 0"


def test_invalid_instance_rejected():
    # Refused at construction, so no solver is ever handed one.
    with pytest.raises(InstanceError, match="k > n"):
        Instance(n=2, m=1, k=3, c=(1, 1), p=(1,), f=((1,), (1,)))


def test_deterministic_tie_break_prefers_smaller_first_stage():
    # both assets equal everywhere: empty first stage is encountered first
    # among optima only when holding back ties with selling now
    v = Fraction(3)
    inst = Instance(n=2, m=1, k=1, c=(v, v), p=(1,), f=((v,), (v,)))
    sol = solve_exact(inst)
    assert sol.first_stage == ()
    assert sol.value == v
    repeat = solve_exact(inst)
    assert repeat == sol


def pruned_pool(instance):
    """The assets with c_i >= E f_i, in Fractions: the pool of the plain
    exchange rule, which holds solve_exact's pool (prunable also drops, at
    r = n - k >= 2, assets whose c_i is below sum_j p_j max(f_ij, s_j))."""
    return [
        i for i, (ci, row) in enumerate(zip(instance.c, instance.f))
        if ci >= sum(map(operator.mul, instance.p, row))
    ]


def search_pool(instance):
    """The pool solve_exact searches."""
    return sorted(set(range(instance.n)) - prunable(instance))


def with_budget(instance, k):
    """instance with its sale budget set to k."""
    return Instance(n=instance.n, m=instance.m, k=k, c=instance.c, p=instance.p, f=instance.f)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(instance=small_instances())
@example(instance=Instance(k=0, **SIGNED))
@example(instance=Instance(k=3, **SIGNED))
@example(instance=Instance(n=4, m=2, k=2, c=(HALF,) * 4, p=(HALF, HALF), f=((HALF, HALF),) * 4))
@example(
    instance=Instance(
        n=4, m=3, k=2, c=(2, 0, -1, 3), p=(0, 1, 0),
        f=((1, 5, 9), (4, 4, -2), (3, -6, 0), (-1, 2, 7)),
    )
)
def test_search_returns_first_optimum_by_enumeration(instance):
    """The full Solution, tie-break included.  Enumerating without the
    prunable assets finds the same first optimum (the exchange argument)."""
    expected = first_optimum_by_enumeration(instance, range(instance.n))
    assert solve_exact(instance) == expected
    assert first_optimum_by_enumeration(instance, pruned_pool(instance)) == expected


@pytest.mark.parametrize(
    "shape, seed",
    [((8, 1, 8), 680499), ((8, 1, 5), 332188), ((9, 2, 7), 106927), ((9, 4, 6), 372027)],
)
def test_cut_on_an_equal_bound_still_finds_the_first_optimum(shape, seed):
    # Two-valued instances with many tied optima.  On each, a search that
    # also skipped every subtree whose bound merely equals the best objective
    # found would miss a smaller or lexicographically earlier optimum.
    inst = gen_random_instance(*shape, "2", seed)
    assert solve_exact(inst) == first_optimum_by_enumeration(inst, range(inst.n))


def weighted(view):
    """Per asset, its row of values times the weights of the scenarios of
    nonzero weight, and its net, pscale * c_i less that row's sum: the
    reference for _Costs' values and net."""
    kept = [j for j, w in enumerate(view.weights) if w]
    values = [tuple(view.weights[j] * view.columns[j][i] for j in kept) for i in range(len(view.c))]
    return values, [view.pscale * ci - sum(row) for ci, row in zip(view.c, values)]


def random_multipliers(rng, view, spread):
    """Integers in -spread..spread, a row per kept scenario, each column summing to 0."""
    kept = sum(1 for w in view.weights if w)
    rows = [[rng.randint(-spread, spread) for _ in view.c] for _ in range(kept - 1)]
    rows.append([-sum(column) for column in zip(*rows)] if rows else [0] * len(view.c))
    return rows


def subtree_bound(view, k, pool, multipliers, first, q):
    """The search's bound on the subtree of F+{pool[q]}, from its definition.

    first is F, pool assets before pool[q].  Each kept scenario j, of weight
    w, sells from the assets outside F+{pool[q]} all but its n - k lowest,
    where a pool asset after pool[q] is worth max(w c_i + lambda_ij, w f_ij)
    and any other asset w f_ij; F+{pool[q]} adds pscale * c_i per asset.
    O(n m log n) per node, where SearchTables.bound costs O((n - k) m).
    """
    sold, later = {*first, pool[q]}, set(pool[q + 1 :])
    kept = [j for j, w in enumerate(view.weights) if w]
    total = view.pscale * sum(view.c[i] for i in sold)
    for j, prices in zip(kept, multipliers):
        w = view.weights[j]
        worth = sorted(
            max(w * view.c[i] + prices[i], w * f) if i in later else w * f
            for i, f in enumerate(view.columns[j])
            if i not in sold
        )
        total += sum(worth[len(view.c) - k :])
    return total


def run_bound(view, k, pool, multipliers, first, q):
    """The search's bound on the run F+G, G made of pool[q:], from its definition.

    first is F, pool assets before pool[q].  Each kept scenario j, of weight
    w, sells from the assets outside F all but its n - k lowest, where a pool
    asset from pool[q] on is worth max(w c_i + lambda_ij, w f_ij) and any
    other asset w f_ij; F adds pscale * c_i per asset.
    """
    sold, later = set(first), set(pool[q:])
    kept = [j for j, w in enumerate(view.weights) if w]
    total = view.pscale * sum(view.c[i] for i in sold)
    for j, prices in zip(kept, multipliers):
        w = view.weights[j]
        worth = sorted(
            max(w * view.c[i] + prices[i], w * f) if i in later else w * f
            for i, f in enumerate(view.columns[j])
            if i not in sold
        )
        total += sum(worth[len(view.c) - k :])
    return total


def incremental_bounds(tables, view, k):
    """(F, q, run, child) at every node F+{pool[q]} of the search tree: run is
    tables.bound(q, ...) on the run F+G, G from pool[q:], and child is
    tables.bound(q + 1, ...) on the subtree of F+{pool[q]}.  The held table is
    carried down the tree as the search carries it: a child starts from its
    parent's table at its own q, and each sibling step inserts one asset.
    Nets and values are view's."""
    pool = tables.pool
    values, net = weighted(view)

    def walk(first, start, net_sum, held):
        if len(first) == k:
            return
        for q in range(start, len(pool)):
            t = pool[q]
            run = tables.bound(q, net_sum, held)
            yield first, q, run, tables.bound(q + 1, net_sum + net[t], held)
            yield from walk((*first, t), q + 1, net_sum + net[t], held)
            held = tables.insert(held, values[t])

    return walk((), 0, 0, tables.held)


def objectives(instance, pool):
    """The objective, times scale * pscale, of every first stage of at most k
    pool assets, keyed by its ascending tuple, by brute force."""
    view = integer_view(instance)
    units = view.scale * view.pscale
    return {
        first: units * (sum((instance.c[i] for i in first), Fraction(0))
                        + brute_force_second_stage(instance, first))
        for size in range(min(instance.k, len(pool)) + 1)
        for first in itertools.combinations(pool, size)
    }


def test_subtree_bound_is_sound_and_exact_at_the_last_pool_asset():
    # Any zero-sum multipliers give a sound bound, exact at the last pool
    # asset: none (the wait-and-see bound), random ones and the tuned ones.
    rng, draws = random.Random(41), random.Random(47)
    checked = exact_at_last = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        values = rng.choice(["any", "2", "3"])
        inst = gen_random_instance(
            n, rng.randint(1, 3), rng.randint(1, n), values, rng.randrange(10**6)
        )
        view = integer_view(inst)
        units = view.scale * view.pscale
        kept = sum(1 for w in view.weights if w)
        for pool in (list(range(n)), pruned_pool(inst)):
            tables = SearchTables(_Costs(inst), pool)
            tuned = tables.multipliers
            assert len(tuned) == kept and all(len(row) == n for row in tuned)
            assert all(sum(column) == 0 for column in zip(*tuned)), (inst, pool, tuned)
            objective = objectives(inst, pool)
            for multipliers in (
                [[0] * n] * kept, random_multipliers(draws, view, 3 * units), tuned
            ):
                tables.price(multipliers)
                for first, q, _, bound in incremental_bounds(tables, view, inst.k):
                    child = (*first, pool[q])
                    subtree = [s for s in objective if s[: len(child)] == child]
                    where = (inst, pool, multipliers, child)
                    assert bound >= max(objective[s] for s in subtree), where
                    if q == len(pool) - 1:
                        assert bound == objective[child], where
                        exact_at_last += 1
                    checked += 1
    assert checked > 3000 and exact_at_last > 300


# The reductions at k = n - 2: at n - 1 the held-set search runs, not SearchTables.
RUN_INPUTS = {
    "any-5x2": lambda: gen_random_instance(5, 2, 2, "any", 0),
    "two-6x3": lambda: gen_random_instance(6, 3, 3, "2", 1),
    "three-6x1": lambda: gen_random_instance(6, 1, 4, "3", 2),
    "any-7x3": lambda: gen_random_instance(7, 3, 5, "any", 3),
    "any-7x4-k1": lambda: gen_random_instance(7, 4, 1, "any", 4),
    "reduction-6-3": lambda: with_budget(build_reduction(gen_regular_graph(6, 3, 0)), 4),
    "reduction-6-4": lambda: with_budget(build_reduction(gen_regular_graph(6, 4, 1)), 4),
    "reduction-8-3": lambda: with_budget(build_reduction(gen_regular_graph(8, 3, 0)), 6),
    "reduction-8-3-b": lambda: with_budget(build_reduction(gen_regular_graph(8, 3, 2)), 6),
    "reduction-8-4": lambda: with_budget(build_reduction(gen_regular_graph(8, 4, 1)), 6),
    "reduction-9-4": lambda: with_budget(build_reduction(gen_regular_graph(9, 4, 0)), 7),
}


@pytest.mark.parametrize("name", RUN_INPUTS)
def test_run_bound_is_at_least_every_set_of_its_run(name):
    # The bound the search takes before a child F+{pool[q]} with q past its
    # first: every F+G, G made of pool[q:] and |F+G| <= k, earns at most it,
    # and it is the definition's bound, under zero, random and tuned
    # multipliers on the full and the pruned pool.
    inst = RUN_INPUTS[name]()
    view, k = integer_view(inst), inst.k
    kept = sum(1 for w in view.weights if w)
    draws = random.Random(59)
    checked = 0
    for pool in (list(range(inst.n)), pruned_pool(inst)):
        tables = SearchTables(_Costs(inst), pool)
        objective = objectives(inst, pool)
        for multipliers in (
            [[0] * inst.n] * kept,
            random_multipliers(draws, view, 3 * view.scale * view.pscale),
            tables.multipliers,
        ):
            tables.price(multipliers)
            for first, q, run, _ in incremental_bounds(tables, view, k):
                members = [
                    s for s in objective
                    if s[: len(first)] == first and set(s[len(first):]) <= set(pool[q:])
                ]
                where = (pool, multipliers, first, q)
                assert run >= max(objective[s] for s in members), where
                assert run == run_bound(view, k, pool, multipliers, first, q), where
                checked += 1
    assert checked > 20


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    instance=small_instances(),
    pruned=st.booleans(),
    kind=st.sampled_from(["zero", "random", "tuned"]),
    draws=st.randoms(use_true_random=False),
)
@example(instance=Instance(k=2, **SIGNED), pruned=False, kind="random", draws=random.Random(1))
@example(
    instance=Instance(
        n=4, m=3, k=3, c=(2, 0, -1, 3), p=(0, 1, 0),
        f=((1, 5, 9), (4, 4, -2), (3, -6, 0), (-1, 2, 7)),
    ),
    pruned=True, kind="tuned", draws=random.Random(2),
)
def test_incremental_bound_equals_the_definition_at_every_node(instance, pruned, kind, draws):
    """Every hold n - k, full and pruned pools, zero, random and tuned
    multipliers, signed values and zero-weight scenarios: exact equality."""
    view, k = integer_view(instance), instance.k
    pool = pruned_pool(instance) if pruned else list(range(instance.n))
    kept = sum(1 for w in view.weights if w)
    tables = SearchTables(_Costs(instance), pool)
    multipliers = {
        "zero": lambda: [[0] * instance.n] * kept,
        "random": lambda: random_multipliers(draws, view, 3 * view.scale * view.pscale),
        "tuned": lambda: tables.multipliers,
    }[kind]()
    tables.price(multipliers)
    for first, q, run, child in incremental_bounds(tables, view, k):
        assert child == subtree_bound(view, k, pool, multipliers, first, q), (first, q)
        assert run == run_bound(view, k, pool, multipliers, first, q), (first, q)


def test_every_bound_the_search_takes_is_the_definition_at_its_node(monkeypatch):
    # The search adds each held-back sibling to its held table as it passes
    # it.  Each bound it takes, on the run of a child and its later siblings
    # or on the child's subtree, must be the definition's bound, under the
    # multipliers in force when it is taken, at a node of the same index and
    # sum of net: a fold that skipped, repeated or wrongly took an asset would
    # loosen it.  The search takes its first 7 * len(pool) bounds at alpha = 0
    # and the rest at the tuned alpha; tuning's own root bounds (q = 0) come
    # between.
    taken = []
    original = SearchTables.bound

    def recording(self, q, net, held):
        taken.append((q, net, original(self, q, net, held), self.multipliers))
        return taken[-1][2]

    monkeypatch.setattr(SearchTables, "bound", recording)
    rng = random.Random(53)
    # Reductions held back to r = 2: at r = 1 the held-set search runs instead.
    # The reductions take 67, 68 and 73 bounds, so each tunes after its 56th.
    instances = [with_budget(build_reduction(gen_regular_graph(8, 3, s)), 6) for s in range(3)]
    instances += [
        gen_random_instance(8, rng.randint(1, 4), rng.randint(4, 7), "any", rng.randrange(10**6))
        for _ in range(6)
    ]
    checked = runs = tuned = 0
    for inst in instances:
        taken.clear()
        solve_exact(inst)
        recorded = list(taken)
        view, k, pool = integer_view(inst), inst.k, search_pool(inst)
        tables = SearchTables(_Costs(inst), pool)
        zero = tables.multipliers
        tables.tune()
        search = [entry for entry in recorded if entry[0]]
        schedule = [zero] * min(len(search), 7 * len(pool))
        schedule += [tables.multipliers] * (len(search) - len(schedule))
        assert [entry[3] for entry in search] == schedule, inst
        tuned += len(search) > 7 * len(pool)
        net = weighted(view)[1]
        by_multipliers = {}
        for q, net_sum, bound, multipliers in recorded:
            entries = by_multipliers.setdefault(id(multipliers), (multipliers, set()))[1]
            entries.add((q, net_sum, bound))
        for multipliers, entries in by_multipliers.values():
            if all(q == 0 for q, _, _ in entries):  # root bounds of the alphas tuning prices
                assert entries == {(0, 0, root_bound(view, k, set(pool), multipliers))}, inst
                continue
            children, nodes = set(), set()
            for first, q, _, _ in incremental_bounds(tables, view, k):
                child_net = sum(net[i] for i in (*first, pool[q]))
                subtree = subtree_bound(view, k, pool, multipliers, first, q)
                children.add((q + 1, child_net, subtree))
                run = run_bound(view, k, pool, multipliers, first, q)
                nodes.add((q, child_net - net[pool[q]], run))
            assert entries <= children | nodes, inst
            runs += sum(1 for entry in entries if entry[0] and entry not in children)
        checked += len(search)
    assert checked > 200 and runs > 10 and tuned == 3


# name: (SearchTables.bound calls, _HoldOneSearch.spread calls, _HoldOneSearch.drop
# calls, first stage).  The bench's any-valued shapes (k = n/2) at two seeds, and its
# reduction shapes held back to r = 1 (the held-set search) and r = 2 (the
# first-stage search, tuning once it has taken 7 bounds per pool asset).
WORK_COUNTS = {
    "any-14x8-0": (2, 0, 0, (5, 8)),
    "any-14x8-1": (2, 0, 0, (2, 4, 8)),
    "any-14x32-0": (21, 0, 0, (0, 5, 8, 13)),
    "any-14x32-1": (2, 0, 0, (2, 4, 8)),
    "any-15x8-0": (1, 0, 0, (5, 8)),
    "any-15x8-1": (1, 0, 0, (2, 4, 8)),
    "any-15x32-0": (11, 0, 0, (0, 5, 8, 13)),
    "any-15x32-1": (2, 0, 0, (2, 4, 8)),
    "any-16x8-0": (5, 0, 0, (0, 5, 8, 15)),
    "any-16x8-1": (1, 0, 0, (2, 4, 8)),
    "any-16x32-0": (11, 0, 0, (5, 8, 13, 15)),
    "any-16x32-1": (2, 0, 0, (2, 4, 8)),
    "any-17x8-0": (7, 0, 0, (0, 5, 8, 15)),
    "any-17x8-1": (1, 0, 0, (2, 8, 16)),
    "any-17x32-0": (22, 0, 0, (5, 8, 13, 15)),
    "any-17x32-1": (4, 0, 0, (2, 4, 8, 16)),
    "reduction-12-3-r1-0": (0, 59, 8, (0, 1, 2, 3, 4, 6, 7, 8, 11)),
    "reduction-12-3-r1-1": (0, 115, 29, (0, 1, 2, 3, 4, 5, 9, 10)),
    "reduction-12-3-r2-0": (815, 0, 0, (0, 1, 3, 4, 5)),
    "reduction-12-3-r2-1": (710, 0, 0, (0, 1, 2, 7, 8)),
    "reduction-12-4-r1-0": (0, 51, 3, (0, 1, 2, 3, 4, 5, 7, 8, 10)),
    "reduction-12-4-r1-1": (0, 47, 1, (0, 1, 2, 3, 4, 5, 6, 7, 9)),
    "reduction-12-4-r2-0": (711, 0, 0, (0, 1, 2, 5, 7, 8, 10)),
    "reduction-12-4-r2-1": (726, 0, 0, (0, 1, 2, 3, 4, 6, 9)),
    "reduction-13-4-r1-0": (0, 57, 5, (0, 1, 2, 3, 4, 5, 8, 10, 11, 12)),
    "reduction-13-4-r1-1": (0, 83, 19, (0, 1, 3, 4, 6, 7, 8, 9, 10, 12)),
    "reduction-13-4-r2-0": (1226, 0, 0, (0, 1, 2, 3, 4, 8, 11)),
    "reduction-13-4-r2-1": (1079, 0, 0, (0, 1, 2, 4, 5, 8, 11)),
    "reduction-14-3-r1-0": (0, 91, 18, (0, 1, 2, 3, 4, 5, 6, 10, 11, 12)),
    "reduction-14-3-r1-1": (0, 149, 56, (0, 1, 2, 4, 5, 6, 8, 9, 10, 13)),
    "reduction-14-3-r2-0": (2134, 0, 0, (0, 1, 2, 3, 4, 5)),
    "reduction-14-3-r2-1": (2196, 0, 0, (0, 1, 2, 4, 6, 8)),
    "reduction-14-4-r1-0": (0, 81, 15, (0, 1, 2, 3, 4, 7, 8, 9, 11, 12, 13)),
    "reduction-14-4-r1-1": (0, 109, 29, (0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 12)),
    "reduction-14-4-r2-0": (2241, 0, 0, (0, 1, 4, 5, 6, 9, 10, 13)),
    "reduction-14-4-r2-1": (2608, 0, 0, (0, 1, 2, 4, 6, 7, 8, 12)),
}


def work_count_input(name):
    """The instance a WORK_COUNTS name describes."""
    kind, *shape, seed = name.split("-")
    if kind == "any":
        n, m = map(int, shape[0].split("x"))
        return gen_random_instance(n, m, n // 2, "any", int(seed))
    n, d, held = int(shape[0]), int(shape[1]), int(shape[2][1:])
    return with_budget(build_reduction(gen_regular_graph(n, d, int(seed))), n - held)


def test_the_search_takes_the_pinned_work_and_plan_on_the_bench_shapes(monkeypatch):
    # Deterministic work counts: a change that leaves every plan alone but
    # bounds more, or bounds differently, moves a count here.  Every bound
    # counts, the root bounds that pricing and tuning take included.
    counts = {}

    def counted(name, method):
        def count(self, *args):
            counts[name] += 1
            return method(self, *args)
        return count

    monkeypatch.setattr(SearchTables, "bound", counted("bound", SearchTables.bound))
    monkeypatch.setattr(_HoldOneSearch, "spread", counted("spread", _HoldOneSearch.spread))
    monkeypatch.setattr(_HoldOneSearch, "drop", counted("drop", _HoldOneSearch.drop))
    found = {}
    for name in WORK_COUNTS:
        counts.update(bound=0, spread=0, drop=0)
        first_stage = solve_exact(work_count_input(name)).first_stage
        found[name] = (counts["bound"], counts["spread"], counts["drop"], first_stage)
    assert found == WORK_COUNTS


# The alpha SearchTables.tune scans for its multipliers, in sixteenths, in order.
ALPHA_SIXTEENTHS = (0, 8, 12, 13, 14, 15, 16)


def alpha_multipliers(view, e):
    """alpha = e/16 times each kept scenario's deviation from the expected
    value, w_j (pscale f_ij - sum_j' w_j' f_ij') / pscale, rounded half up;
    the last kept row also takes each column's remainder, so it sums to 0."""
    pscale, weights = view.pscale, view.weights
    expected = [sum(map(operator.mul, weights, row)) for row in zip(*view.columns)]
    rows = [
        [math.floor(Fraction(e * w * (pscale * f - s), 16 * pscale) + HALF)
         for f, s in zip(column, expected)]
        for w, column in zip(weights, view.columns)
        if w
    ]
    rows[-1] = [-sum(column[:-1]) for column in zip(*rows)]
    return rows


def root_bound(view, k, pool, multipliers):
    """The bound with nothing forced, by sorting: each kept scenario j, of
    weight w, sells its top k values, a pool asset worth max(w c_i +
    lambda_ij, w f_ij) and any other asset w f_ij."""
    kept = [j for j, w in enumerate(view.weights) if w]
    total = 0
    for j, prices in zip(kept, multipliers):
        w = view.weights[j]
        worth = sorted(
            (max(w * view.c[i] + prices[i], w * f) if i in pool else w * f
             for i, f in enumerate(view.columns[j])),
            reverse=True,
        )
        total += sum(worth[:k])
    return total


def assert_tuned_as_the_scan(instance, pool):
    """SearchTables starts at alpha = 0; tune prices every alpha's
    multipliers at their sorted root bound, and keeps those of the first
    lowest bound, the scan stopping at the first rise, with the tables they
    give."""
    view, k = integer_view(instance), instance.k
    tables = SearchTables(_Costs(instance), pool)
    candidates = [alpha_multipliers(view, e) for e in ALPHA_SIXTEENTHS]
    bounds = [root_bound(view, k, set(pool), rows) for rows in candidates]
    assert (tables.multipliers, tables.root) == (candidates[0], bounds[0])
    tables.tune()
    chosen, root, free, tail = tables.multipliers, tables.root, tables.free, tables.tail
    assert [tables.price(rows) for rows in candidates] == bounds
    kept = 0
    for a in range(1, len(bounds)):
        if bounds[a] > bounds[kept]:
            break
        if bounds[a] < bounds[kept]:
            kept = a
    assert (chosen, root) == (candidates[kept], bounds[kept]), (bounds, kept)
    tables.price(chosen)
    assert (tables.free, tables.tail) == (free, tail)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(instance=small_instances(), pruned=st.booleans())
@example(instance=Instance(k=3, **SIGNED), pruned=False)
@example(
    instance=Instance(
        n=4, m=3, k=2, c=(2, 0, -1, 3), p=(0, 1, 0),
        f=((1, 5, 9), (4, 4, -2), (3, -6, 0), (-1, 2, 7)),
    ),
    pruned=True,
)
# Root bounds 1364, 1350, 1347, 1349, 1348, 1346, 1347: the scan stops at the
# rise to 1349 and keeps 12/16, though 15/16 is lower.
@example(instance=gen_random_instance(6, 4, 5, "3", 650418), pruned=False)
def test_tables_tune_the_multipliers_as_the_sorted_scan(instance, pruned):
    """Full and pruned pools, every hold down to 0, signed values and
    zero-weight scenarios: exact equality of every alpha's root bound."""
    pool = pruned_pool(instance) if pruned else list(range(instance.n))
    assert_tuned_as_the_scan(instance, pool)


@pytest.mark.parametrize(
    "shape", [(14, 8, 7), (14, 32, 7), (15, 32, 7), (16, 8, 8), (17, 8, 8),
              (12, 3), (12, 4), (14, 3), (14, 4)],
)
def test_tables_tune_the_multipliers_as_the_sorted_scan_on_the_bench_shapes(shape):
    # The bench's random (any-valued, k = n/2) and reduction shapes, on the
    # pool the solver searches; the reductions held back to k = n - 2.
    for seed in range(3):
        if len(shape) == 3:
            inst = gen_random_instance(*shape, "any", seed)
        else:
            inst = with_budget(build_reduction(gen_regular_graph(*shape, seed)), shape[0] - 2)
        assert_tuned_as_the_scan(inst, search_pool(inst))


def solve_tuned(instance, schedule):
    """solve_exact's plan, and the bounds its search took, with tune moved:
    "root" tunes in SearchTables' constructor, "per-asset" once the search
    has taken one bound per pool asset, "lazy" where solve_exact tunes, and
    "never" not at all."""
    init, tune, bound = SearchTables.__init__, SearchTables.tune, SearchTables.bound
    taken = []

    def tuned_init(self, *args):
        init(self, *args)
        tune(self)

    def counted(self, q, net, held):
        if q:  # the search's own bounds; price takes the root bound, q = 0
            if schedule == "per-asset" and len(taken) == len(self.pool):
                tune(self)
            taken.append(q)
        return bound(self, q, net, held)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SearchTables, "bound", counted)
        if schedule != "lazy":
            patch.setattr(SearchTables, "tune", lambda self: None)
        if schedule == "root":
            patch.setattr(SearchTables, "__init__", tuned_init)
        solution = solve_exact(instance, ExactOptions(max_n=instance.n))
    return solution, len(taken)


def tuning_inputs():
    rng = random.Random(61)
    for values in ("any", "2", "3"):
        for _ in range(6):
            n = rng.randint(8, 16)
            yield gen_random_instance(
                n, rng.choice([4, 8, 32]), rng.randint(2, n - 2), values, rng.randrange(10**6)
            )
    for n, d, held, seed in ((10, 3, 2, 0), (10, 3, 3, 1), (12, 4, 2, 2), (12, 3, 3, 3),
                             (14, 3, 2, 4), (14, 4, 3, 5)):
        yield with_budget(build_reduction(gen_regular_graph(n, d, seed)), n - held)


def test_the_plan_does_not_depend_on_when_the_multipliers_are_tuned():
    # Any zero-sum multipliers give a sound bound and the held tables read
    # values only, so tuning at the root, after one bound per pool asset,
    # lazily or never changes what is cut, never the plan.
    tuned_mid_search = 0
    for inst in tuning_inputs():
        plan, taken = solve_tuned(inst, "lazy")
        assert plan == solve_exact(inst)
        for schedule in ("root", "per-asset", "never"):
            assert solve_tuned(inst, schedule)[0] == plan, (schedule, inst)
        tuned_mid_search += taken > 7 * (inst.n - len(prunable(inst)))
    assert tuned_mid_search >= 6


def test_a_two_valued_plan_does_not_depend_on_when_the_multipliers_are_tuned():
    inst = gen_random_instance(28, 32, 14, "2", 1)
    expected = two_valued_first_stage(inst)
    for schedule in ("root", "per-asset", "lazy", "never"):
        assert solve_tuned(inst, schedule)[0].first_stage == expected, schedule


@pytest.mark.parametrize("n, d", [(20, 4), (18, 3)])
def test_lazy_tuning_costs_at_most_the_scan_over_root_tuning(n, d):
    # The ski-rental rule: the search tunes once it has taken as many bounds
    # as the scan costs, so it takes at most that many more than a search
    # tuned at the root.
    for seed in range(3):
        inst = with_budget(build_reduction(gen_regular_graph(n, d, seed)), n - 2)
        lazy, lazy_bounds = solve_tuned(inst, "lazy")
        root, root_bounds = solve_tuned(inst, "root")
        assert lazy == root
        scan = 7 * len(search_pool(inst))
        assert lazy_bounds <= root_bounds + scan, (seed, lazy_bounds, root_bounds)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 12), st.integers(1, 4), st.data(), st.integers(0, 10**6))
def test_search_orders_follow_the_selling_rule_on_two_valued_inputs(n, m, data, seed):
    # one selling order per scenario of nonzero weight, value descending and
    # ties to the lowest index; the O(nm) grouping of the sale is checked in
    # test_model.test_the_sale_sorts_only_the_distinct_held_values
    inst = gen_random_instance(n, m, data.draw(st.integers(0, n)), "2", seed)
    view = integer_view(inst)
    kept = [column for column, w in zip(view.columns, view.weights) if w]
    tables = SearchTables(_Costs(inst), pruned_pool(inst))
    assert tables.orders == [sorted(range(n), key=lambda i: (-column[i], i)) for column in kept]
    assert solve_two_value(inst).value == solve_exact(inst).value


@pytest.mark.parametrize(
    "shape, values, seed",
    [pytest.param((22, 8, 11), "any", seed, id=str(seed)) for seed in range(3)]
    # Where prunable's floors drop the most beyond the plain rule: 12 -> 4,
    # 12 -> 9, 15 -> 5, 12 -> 11, 15 -> 7 and 7 -> 5 pool assets.
    + [
        pytest.param(shape, values, seed, id=f"{values}-{shape[0]}x{shape[1]}-k{shape[2]}-{seed}")
        for shape, values, seed in [
            ((20, 32, 5), "any", 0), ((20, 32, 10), "any", 0), ((24, 32, 6), "any", 0),
            ((24, 32, 12), "any", 1), ((22, 32, 6), "3", 0), ((22, 32, 11), "3", 1),
        ]
    ],
)
def test_search_at_scale_matches_enumeration(shape, values, seed):
    # Every optimum avoids the assets with c_i < E f_i (the exchange
    # argument), so enumerating the rest finds the same first optimum; the
    # search leaves out more.  The per-set completion is the greedy, which
    # criterion 7 checks against brute force.
    inst = gen_random_instance(*shape, values, seed)
    expected = first_optimum_by_enumeration(inst, pruned_pool(inst), greedy=True)
    assert solve_exact(inst, ExactOptions(max_n=inst.n)) == expected


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(instance=two_valued_instances().filter(lambda inst: len(inst.distinct) == 2))
def test_two_valued_oracle_is_the_first_optimum_by_enumeration(instance):
    # Every first-stage set of every size, completed greedily (criterion 7
    # checks the greedy against brute force).
    expected = first_optimum_by_enumeration(instance, range(instance.n), greedy=True)
    assert two_valued_first_stage(instance) == expected.first_stage


@pytest.mark.parametrize("n, seed", [(30, 1), (30, 2), (30, 3), (32, 1), (36, 1)])
def test_search_past_enumeration_returns_the_two_valued_oracle_plan(n, seed):
    inst = gen_random_instance(n, 32, n // 2, "2", seed)
    assert solve_exact(inst, ExactOptions(max_n=n)).first_stage == two_valued_first_stage(inst)


@pytest.mark.parametrize("seed", [0, 1])
def test_reduction_search_holds_back_a_minimum_dominating_set(seed):
    graph = gen_regular_graph(14, 3, seed)
    solution = solve_exact(build_reduction(graph, default_params(14, 3)))
    assert len(extract_dominating(graph, solution)) == len(brute_force_mds(graph))


def test_reduction_search_returns_the_first_minimum_dominating_plan():
    # On the dominating-set reduction every optimal first stage is the
    # complement of a minimum dominating set, and each such plan earns
    # dominating_solution_revenue; the search keeps the lexicographically
    # first complement.  k = n - 1, so the held-set search runs: every
    # minimum dominating set is a held set of the first level to reach the
    # optimum, and the search keeps the first it meets.
    rng = random.Random(43)
    for _ in range(12):
        n, d = rng.choice([(8, 3), (10, 3), (12, 3), (6, 4), (8, 4), (10, 4), (12, 4)])
        graph = gen_regular_graph(n, d, rng.randrange(10**6))
        params = default_params(n, d)
        size = len(brute_force_mds(graph))
        first = min(
            tuple(v for v in range(n) if v not in dominating)
            for dominating in itertools.combinations(range(n), size)
            if is_dominating(graph, dominating)
        )
        solution = solve_exact(build_reduction(graph, params))
        assert solution.first_stage == first, (graph, solution)
        assert len(extract_dominating(graph, solution)) == size
        assert solution.value == dominating_solution_revenue(n, params, size)


@pytest.mark.parametrize("n, d", [(12, 3), (12, 4), (13, 4), (14, 3), (14, 4)])
def test_reduction_plan_on_the_bench_shapes(n, d):
    # The bench's reduction shapes (no 3-regular graph has 13 vertices), where
    # the held-set search runs.  The plan is the lexicographically first
    # complement of a minimum dominating set.
    for seed in range(4):
        graph = gen_regular_graph(n, d, seed)
        params = default_params(n, d)
        size = len(brute_force_mds(graph))
        first = min(
            tuple(v for v in range(n) if v not in dominating)
            for dominating in itertools.combinations(range(n), size)
            if is_dominating(graph, dominating)
        )
        solution = solve_exact(build_reduction(graph, params))
        assert solution.first_stage == first, (graph, solution)
        assert solution.value == dominating_solution_revenue(n, params, size)


@pytest.mark.parametrize("d", [3, 4])
def test_reduction_search_past_the_cap(d):
    # n = 28 is past the default cap: the held-set search answers in well
    # under a second, and brute_force_mds checks the size of its held set.
    graph = gen_regular_graph(28, d, 1)
    params = default_params(28, d)
    solution = solve_exact(build_reduction(graph, params), ExactOptions(max_n=28))
    held = extract_dominating(graph, solution)
    size = len(brute_force_mds(graph, max_n=28))
    assert is_dominating(graph, held)
    assert len(held) == size
    assert solution.value == dominating_solution_revenue(28, params, size)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(instance=small_instances(max_n=9).map(lambda inst: with_budget(inst, inst.n - 1)))
@example(instance=Instance(k=2, **SIGNED))
@example(  # zero weights; assets 0 and 1 prunable
    instance=Instance(
        n=4, m=3, k=3, c=(2, 0, -1, 3), p=(0, 1, 0),
        f=((1, 5, 9), (4, 4, -2), (3, -6, 0), (-1, 2, 7)),
    )
)
@example(instance=Instance(n=4, m=2, k=3, c=(HALF,) * 4, p=(HALF, HALF), f=((HALF, HALF),) * 4))
@example(  # every asset prunable
    instance=Instance(n=3, m=2, k=2, c=(0, -1, 1), p=(HALF, HALF), f=((1, 2), (0, 0), (3, 2)))
)
@example(instance=with_budget(gen_random_instance(9, 4, 8, "any", 5), 8))
def test_hold_one_search_returns_first_optimum_by_enumeration(instance):
    """k = n - 1: signed values, zero weights, single-valued and
    all-prunable instances, n from 1 to 9."""
    assert solve_exact(instance) == first_optimum_by_enumeration(instance, range(instance.n))


@pytest.mark.parametrize("values", ["any", "2", "3"])
def test_hold_one_search_on_generated_inputs(values):
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(2, 10)
        inst = gen_random_instance(n, rng.randint(1, 6), n - 1, values, rng.randrange(10**6))
        assert solve_exact(inst) == first_optimum_by_enumeration(inst, range(n)), inst


def hold_one_costs(instance):
    """Every held set's cost, by brute force: each first stage F of at most
    k pool assets, keyed by V - F, costs sum_i pscale * c_i less F's
    objective (both times scale * pscale)."""
    view, pool = integer_view(instance), pruned_pool(instance)
    everything = view.pscale * sum(view.c)
    return {
        frozenset(range(instance.n)) - set(first): everything - objective
        for first, objective in objectives(instance, pool).items()
    }


def test_every_bound_the_hold_one_search_takes_is_sound_and_its_definition(monkeypatch):
    # Each bound (a) or (b) the search takes at a node, given the held part's
    # net sum and least values, is at most the cost of every held set below
    # it, and is the definition's bound.  The held part may be any subset of
    # pool[:q] with that sum and those least values (all of them have the
    # same sets below), so every one is checked.
    taken = []

    def recording(kind, method):
        def record(self, q, t, cost, mins, *gains):
            bound = method(self, q, t, cost, mins, *gains)
            taken.append((kind, q, t, cost, mins and tuple(mins), bound))
            return bound
        return record

    monkeypatch.setattr(_HoldOneSearch, "spread", recording("a", _HoldOneSearch.spread))
    monkeypatch.setattr(_HoldOneSearch, "drop", recording("b", _HoldOneSearch.drop))
    instances = [build_reduction(gen_regular_graph(n, d, seed))
                 for n, d in [(8, 3), (9, 4), (10, 3)] for seed in range(2)]
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(6, 10)
        values = rng.choice(["any", "2", "3"])
        instances.append(
            gen_random_instance(n, rng.randint(1, 3), n - 1, values, rng.randrange(10**6))
        )
    kinds = {"a": 0, "b": 0}
    for inst in instances:
        taken.clear()
        solve_exact(inst)
        pool = pruned_pool(inst)
        value, net = weighted(integer_view(inst))
        outside = [i for i in range(inst.n) if i not in pool]
        costs = hold_one_costs(inst)
        # Each held part, the assets outside the pool and some pool assets,
        # by its net sum and least values, with the pool index past its last.
        parts = {}
        for size in range(len(pool) + 1):
            for chosen in itertools.combinations(range(len(pool)), size):
                held = (*outside, *(pool[a] for a in chosen))
                mins = tuple(map(min, zip(*(value[i] for i in held)))) if held else None
                key = (sum(net[i] for i in held), mins)
                parts.setdefault(key, []).append((chosen[-1] + 1 if chosen else 0, held))
        for kind, q, t, cost, mins, bound in set(taken):
            rest = pool[q:]
            nodes = [held for end, held in parts.get((cost, mins), ()) if end <= q]
            assert nodes, (inst, q, t, cost, mins)
            for held in nodes:
                below = min(costs[frozenset((*held, *added))]
                            for added in itertools.combinations(rest, t))
                assert bound <= below, (inst, kind, held, q, t)
            if kind == "a":
                lows = [min(column) for column in zip(*(value[i] for i in rest))]
                if mins:
                    lows = map(min, lows, mins)
                assert bound == cost + sum(sorted(net[i] for i in rest)[:t]) + sum(lows)
            else:
                gains = [net[i] - sum(max(0, x - v) for x, v in zip(mins, value[i])) for i in rest]
                assert bound == cost + sum(mins) + sum(sorted(gains)[:t])
            kinds[kind] += 1
    assert kinds["a"] > 500 and kinds["b"] > 120, kinds


def held_set_first_stage(instance):
    """Oracle for solve_exact's first stage at r = n - k >= 1: a search over
    held sets H = V - F that shares no code with the solver.

    Over the scenarios of nonzero weight, with v_ij = w_j f_ij and net_i =
    pscale c_i - sum_j v_ij (integer_view's units), F's objective is sum_i
    pscale c_i less cost(H) = sum_{i in H} net_i + sum_j (the r lowest v_ij
    over H), and |F| <= k is |H| >= r.  So the plan is the H of least cost,
    ties to the largest H and then to the lexicographically first F.  Every
    optimal H holds each asset with pscale c_i < sum_j max(v_ij, s_j), s_j
    the r-th lowest v_ij over all n (prunable's exchange argument), so H is
    those plus S drawn from the rest, whose nets are >= 0.  Sizes |S|
    ascend; within one a depth-first search decides the rest in ascending
    order, sold before held, so the sets of one size come in the order of
    their F.  A node adding t assets of rest[q:] to a held part of net sum
    c is cut when c + the t smallest nets over rest[q:] + sum_j (the r
    lowest v_ij over the held part and rest[q:]) exceeds the best cost, or
    equals it within the best's own size; the search ends at the first size
    whose floor, that bound at the root, exceeds the best cost.
    """
    n, r = instance.n, instance.n - instance.k
    view = integer_view(instance)
    value, net = weighted(view)
    floors = [sorted(column)[r - 1] for column in zip(*value)]
    fixed = [i for i in range(n) if view.pscale * view.c[i] < sum(map(max, value[i], floors))]
    rest = [i for i in range(n) if i not in fixed]

    def lowest(assets):
        """Per scenario, the r lowest values over assets, ascending."""
        lows = [sorted(column)[:r] for column in zip(*(value[i] for i in assets))]
        return lows or [[]] * len(floors)

    later = [lowest(rest[q:]) for q in range(len(rest) + 1)]
    cheapest = [[0, *itertools.accumulate(sorted(net[i] for i in rest[q:]))]
                for q in range(len(rest) + 1)]
    best = None  # (cost, |S|, F)

    def visit(q, t, cost, lows, held):
        nonlocal best
        if len(rest) - q < t:
            return
        bound = cost + cheapest[q][t] + sum(
            sum(sorted(a + b)[:r]) for a, b in zip(lows, later[q])
        )
        if best and (bound > best[0] or (bound == best[0] and best[1] == size)):
            return
        if not t:
            total = cost + sum(map(sum, lows))
            if not best or total < best[0] or (total == best[0] and size > best[1]):
                best = (total, size, tuple(i for i in rest if i not in held))
            return
        i = rest[q]
        visit(q + 1, t, cost, lows, held)
        visit(q + 1, t - 1, cost + net[i],
              [sorted([*a, v])[:r] for a, v in zip(lows, value[i])], {*held, i})

    base = lowest(fixed)
    for size in range(max(0, r - len(fixed)), len(rest) + 1):
        floor = sum(net[i] for i in fixed) + cheapest[0][size]
        if best and floor + sum(sum(sorted(a + b)[:r]) for a, b in zip(base, later[0])) > best[0]:
            break
        visit(0, size, sum(net[i] for i in fixed), base, set())
    return best[2]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(instance=small_instances().filter(lambda inst: inst.k < inst.n))
@example(instance=Instance(k=2, **ZERO_WEIGHTS))
def test_held_set_oracle_is_the_first_optimum_by_enumeration(instance):
    expected = first_optimum_by_enumeration(instance, range(instance.n), greedy=True)
    assert held_set_first_stage(instance) == expected.first_stage


# Reductions held back to r = 2 and 3, and random inputs at r = 2 to 4, where
# the first-stage search runs past enumeration sizes.  The any-valued optima
# are unique; the two- and three-valued inputs, like the reductions, have
# tied optima, so a tie-break fault changes their plans.
HELD_SET_ORACLE_INPUTS = [
    *((f"reduction-{n}-{d}-r{r}-{seed}", ("reduction", n, d, r, seed))
      for n, d, r, seed in [(12, 3, 2, 0), (12, 4, 3, 1), (13, 4, 2, 2), (14, 3, 3, 3),
                            (14, 4, 2, 4), (15, 4, 3, 5), (16, 3, 2, 6), (16, 4, 3, 7)]),
    *((f"{values}-{n}x{m}-r{r}-{seed}", (values, n, m, r, seed))
      for values, n, m, r, seed in [
          ("any", 16, 8, 2, 0), ("any", 17, 32, 3, 1), ("any", 18, 8, 2, 2),
          ("any", 19, 32, 3, 3), ("any", 20, 8, 2, 4), ("any", 20, 32, 3, 5),
          ("3", 16, 8, 3, 0), ("3", 18, 8, 3, 0), ("3", 20, 8, 4, 0), ("2", 18, 8, 4, 2),
      ]),
]


@pytest.mark.parametrize("shape", [shape for _, shape in HELD_SET_ORACLE_INPUTS],
                         ids=[name for name, _ in HELD_SET_ORACLE_INPUTS])
def test_search_past_enumeration_returns_the_held_set_oracle_plan(shape):
    kind, n, size, r, seed = shape
    if kind == "reduction":
        inst = with_budget(build_reduction(gen_regular_graph(n, size, seed)), n - r)
    else:
        inst = gen_random_instance(n, size, n - r, kind, seed)
    expected = complete_first_stage(inst, held_set_first_stage(inst))
    assert solve_exact(inst, ExactOptions(max_n=n)) == expected


def mapped(instance, value):
    """The instance with value() applied to every c_i and f_ij."""
    return Instance(
        n=instance.n, m=instance.m, k=instance.k, c=tuple(map(value, instance.c)),
        p=instance.p, f=tuple(tuple(map(value, row)) for row in instance.f),
    )


ORACLE_FREE_INPUTS = {
    "any-20x8": lambda: gen_random_instance(20, 8, 10, "any", 1),
    "any-24x32": lambda: gen_random_instance(24, 32, 12, "any", 1),
    "three-22x16": lambda: gen_random_instance(22, 16, 15, "3", 1),
    "two-24x16": lambda: gen_random_instance(24, 16, 12, "2", 1),
    "reduction-16-3": lambda: build_reduction(gen_regular_graph(16, 3, 1)),
    "reduction-18-4": lambda: build_reduction(gen_regular_graph(18, 4, 1)),
    "reduction-20-4": lambda: build_reduction(gen_regular_graph(20, 4, 1)),
    "one-24x16": lambda: Instance(
        n=24, m=16, k=12, c=(Fraction(7, 5),) * 24, p=(Fraction(1, 16),) * 16,
        f=((Fraction(7, 5),) * 16,) * 24,
    ),
}


def assert_passes_the_oracle_free_checks(instance):
    """Check solve_exact's plan on instance without an oracle.

    Adding delta to every value raises every plan's objective by exactly
    k*delta (|F| + |S_j| = k and the p_j sum to 1), and scaling by a > 0
    scales it, so neither may change the plan.  Splitting scenario 0 into
    two copies of half its weight changes no plan's objective, so it may
    change neither the first stage nor the value.  No 1-exchange of the
    first stage (F - a, F + b, F - a + b, each completed greedily) may beat
    it.  On at most two distinct values solve_two_value's value must agree.
    """
    solution = solve_exact(instance)
    plan = (solution.first_stage, solution.second_stage)
    for a, delta in [(1, Fraction(-7, 3)), (1, Fraction(5)), (Fraction(3, 2), 0)]:
        moved = solve_exact(mapped(instance, lambda v: a * v + delta))
        assert (moved.first_stage, moved.second_stage) == plan
        assert moved.value == a * solution.value + instance.k * delta
    half = instance.p[0] / 2
    split = solve_exact(Instance(
        n=instance.n, m=instance.m + 1, k=instance.k, c=instance.c,
        p=(half, half, *instance.p[1:]), f=tuple((row[0], *row) for row in instance.f),
    ))
    assert (split.first_stage, split.value) == (solution.first_stage, solution.value)
    first = set(solution.first_stage)
    rest = [b for b in range(instance.n) if b not in first]
    exchanges = [first - {a} for a in first]
    if len(first) < instance.k:
        exchanges += [first | {b} for b in rest]
    exchanges += [first - {a} | {b} for a in first for b in rest]
    for exchange in exchanges:
        assert complete_first_stage(instance, exchange).value <= solution.value, exchange
    if len(instance.distinct) <= 2:
        assert solve_two_value(instance).value == solution.value


@pytest.mark.parametrize("name", ORACLE_FREE_INPUTS)
def test_exact_plan_passes_the_oracle_free_checks(name):
    # Past brute-force sizes the plan is checked without an oracle.
    assert_passes_the_oracle_free_checks(ORACLE_FREE_INPUTS[name]())


# (n, d) of the regular graphs up to n = 10 whose reduction has a ratio window
REDUCTION_SHAPES = [
    (n, d) for n in range(3, 11) for d in (2, 3, 4) if n * d % 2 == 0 and d < n - 1
]


@st.composite
def generated_instances(draw, kind):
    """A random instance of kind any, 2 or 3 values (n <= 12, m <= 6), or a reduction (n <= 10)."""
    seed = draw(st.integers(0, 10**6))
    if kind == "reduction":
        return build_reduction(gen_regular_graph(*draw(st.sampled_from(REDUCTION_SHAPES)), seed))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1 if n > 1 else 2, 6))  # room for three values
    return gen_random_instance(n, m, draw(st.integers(0, n)), kind, seed)


@pytest.mark.parametrize("kind", ["any", "2", "3", "reduction"])
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_exact_plan_passes_the_oracle_free_checks_on_drawn_instances(kind, data):
    assert_passes_the_oracle_free_checks(data.draw(generated_instances(kind)))
