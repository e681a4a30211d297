"""Exact DSHP solver: depth-first search over first-stage sets.

The search covers first-stage sets of every size 0..k, because holding
everything back for the second stage is often optimal.  It works on the
instance's integer view (model.Instance.scaled), where every objective,
times scale * pscale, is an integer.

- Order and ties.  Sets are visited depth first, the children F+{t} of F
  in increasing t, so sets of one size are met in lexicographic order.
  The result is the plan exhaustive enumeration by size, then
  lexicographically, keeps first: maximal objective, then smallest |F|,
  then the lexicographically first set.
- Incremental second stage.  Each scenario of nonzero weight sells the
  first k-|F| assets of its selling order (view.order, built by
  model.by_value) not in F.  The search keeps, per scenario, the position
  in that order of the last asset sold and its value, and the weighted
  second-stage total.  From F to F+{t}, one asset leaves each scenario's
  sale: t if it sells at or before that position, else the asset there,
  so the larger of the two values.  Where the asset there leaves, the
  position steps back to the previous asset not in F.  A set costs O(m),
  not a walk of every order.
- Lagrangian cut.  subtree_bound bounds every set in the subtree of F+{t}
  (F+{t} plus pool assets after t) by giving each scenario j, of weight
  w_j = pscale * p_j, its own copy of the first stage, priced with integer
  multipliers lambda_ij that sum to 0 over the scenarios for every asset
  (dual decomposition: Caroe and Schultz 1999, after Geoffrion 1974).
  Each scenario sells, from the assets outside F+{t}, the k-|F|-1 best,
  a pool asset after t counting max(w_j c_i + lambda_ij, w_j f_ij) and
  any other asset w_j f_ij; F+{t} adds pscale * c_i per asset.  A plan
  in the subtree sells one first stage in every scenario, so its
  multipliers cancel and its objective is a sum of one choice per
  scenario, each at most that scenario's best: any zero-sum lambda gives
  a sound bound, exact when no pool asset follows t, and lambda changes
  how much is cut, never the result.  lambda = 0 is the
  perfect-information ("wait-and-see") bound.  tune_multipliers picks
  lambda once, at the root: alpha times each scenario's deviation from
  the expected second-stage value, alpha from a short scan that keeps the
  lowest root bound.  A subtree whose bound is below the best objective
  found is skipped, and so is one whose bound equals it when no set
  inside is smaller than the best found: those sets come later in the
  order and lose the tie.  The bound costs O(mn) and a set O(m), so only
  subtrees of at least n sets are bounded.

The pool always excludes the prunable assets, those whose first-stage
value is strictly below their expected second-stage value.  No optimal plan
sells one first (an exchange argument: moving it to every scenario's second
stage gains E f_i - c_i > 0), so searching the full pool would return the
same plan.  The returned plan is built by model.complete_first_stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import add, mul
from typing import Sequence

from .model import (
    DEFAULT_MAX_N,
    EnumerationCapError,
    Instance,
    ScaledView,
    Solution,
    by_value,
    complete_first_stage,
)


@dataclass(frozen=True)
class ExactOptions:
    """solve_exact's options; prune is unread, accepted for the bench until ROADMAP item 3."""

    prune: bool = False
    max_n: int = DEFAULT_MAX_N

    def __post_init__(self):
        if self.max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {self.max_n}")


def prunable(instance: Instance) -> frozenset[int]:
    """Assets with c_i strictly below sum_j p_j f_ij (never sold first-stage)."""
    view = instance.scaled
    # Both sides times scale * pscale: c_i * pscale against sum_j weights[j] * f_ij.
    return frozenset(
        i
        for i, (ci, row) in enumerate(zip(view.c, zip(*view.columns)))
        if ci * view.pscale < sum(map(mul, view.weights, row))
    )


class SearchTables:
    """What the search reads of an instance's integer view, for one pool.

    pool lists the assets a first stage may hold, ascending; rank[i] is i's
    index in pool, or -1 for an asset outside it.  hold is n - k, the number
    of assets every scenario leaves unsold.  Only scenarios of nonzero
    weight w are kept, and every value is multiplied by its scenario's w.
    multipliers holds one row of integers per kept scenario, one per asset,
    and each column sums to 0 (tune_multipliers; all zeros gives the
    wait-and-see bound).  In a kept scenario of weight w with row lam, a
    pool asset's either value is max(w c_i + lam[i], w f_ij): sold first,
    at its priced value, or in the scenario.  Per kept scenario: orders
    holds the view's selling order, ranked the values in that order, later
    the pool assets by_value of their either values and later_ranked those
    values.  Per asset i: values[i] holds its value and positions[i] its
    index in the selling order, one entry per kept scenario, and net[i] is
    pscale * c_i minus the sum of values[i].  everything sums values over
    all assets, and gain[q] sums either value minus w_j f_ij over the kept
    scenarios and the pool assets from pool[q] on.
    """

    def __init__(
        self, view: ScaledView, k: int, pool: Sequence[int], multipliers: Sequence[Sequence[int]]
    ):
        n = len(view.c)
        rank = [-1] * n
        for q, i in enumerate(pool):
            rank[i] = q
        kept = [j for j, w in enumerate(view.weights) if w]
        orders = [view.order[j] for j in kept]
        columns = [[view.weights[j] * v for v in view.columns[j]] for j in kept]
        ranked, later, later_ranked, positions = [], [], [], []
        gain = dict.fromkeys(pool, 0)
        for j, order, column, prices in zip(kept, orders, columns, multipliers):
            ranked.append([column[i] for i in order])
            either = {i: max(view.weights[j] * view.c[i] + prices[i], column[i]) for i in pool}
            best = by_value(either, pool)
            later.append(best)
            later_ranked.append([either[i] for i in best])
            for i in pool:
                gain[i] += either[i] - column[i]
            position = [0] * n
            for q, i in enumerate(order):
                position[i] = q
            positions.append(position)
        suffix = [0]
        for i in reversed(pool):
            suffix.append(suffix[-1] + gain[i])
        self.pool = list(pool)
        self.rank = rank
        self.hold = n - k
        self.orders = orders
        self.ranked = ranked
        self.later = later
        self.later_ranked = later_ranked
        self.values = list(zip(*columns))
        self.positions = list(zip(*positions))
        self.net = [view.pscale * ci - sum(v) for ci, v in zip(view.c, self.values)]
        self.everything = sum(map(sum, columns))
        self.gain = suffix[::-1]


# alpha, in sixteenths, in the order tune_multipliers tries it.
_ALPHA_SIXTEENTHS = (0, 8, 12, 13, 14, 15, 16)


def tune_multipliers(view: ScaledView, k: int, pool: Sequence[int]) -> list[list[int]]:
    """Zero-sum integer multipliers for SearchTables that lower its root bound.

    The root bound is what SearchTables bounds with nothing forced: the sum
    over kept scenarios of the top k values, a pool asset counting its
    either value and any other asset w_j f_ij.  Scenario j's deviation of
    asset i from its expected value, in scaled units, is
    w_j (pscale f_ij - sum_j' w_j' f_ij') / pscale.  The multipliers are
    alpha times it, rounded to the nearest integer, less each column's sum
    in the last kept scenario so that every column sums to 0.  At alpha = 1
    every scenario values asset i at about f_ij + max(c_i - E f_i, 0), so
    all scenarios agree on the first stage.  alpha runs over
    _ALPHA_SIXTEENTHS and the first alpha with the lowest root bound is
    kept.  The bound is convex in alpha up to the rounding, so the scan
    stops at the first rise.
    """
    pscale, weights = view.pscale, view.weights
    kept = [j for j, w in enumerate(weights) if w]
    outside = sorted(set(range(len(view.c))) - set(pool))
    firsts = [[weights[j] * v for v in view.c] for j in kept]
    columns = [[weights[j] * v for v in view.columns[j]] for j in kept]
    expected = [sum(values) for values in zip(*columns)]  # sum_j w_j f_ij
    # Each deviation times 2 * pscale, so that e/16 of it, rounded half up,
    # is (e * d + half) // unit.
    unit = 32 * pscale
    half = unit // 2
    deviations = [
        [2 * (pscale * f - weights[j] * s) for f, s in zip(column, expected)]
        for j, column in zip(kept, columns)
    ]
    best, best_bound = None, None
    for e in _ALPHA_SIXTEENTHS:
        rows = [[(e * d + half) // unit for d in row] for row in deviations]
        rows[-1] = [p - s for p, s in zip(rows[-1], map(sum, zip(*rows)))]
        bound = 0
        for first, column, prices in zip(firsts, columns, rows):
            values = list(map(max, map(add, first, prices), column))
            for i in outside:
                values[i] = column[i]
            values.sort(reverse=True)
            bound += sum(values[:k])
        if best_bound is not None and bound > best_bound:
            break
        if best_bound is None or bound < best_bound:
            best, best_bound = rows, bound
    return best


def subtree_bound(tables: SearchTables, first: Sequence[int], q: int) -> int:
    """Upper bound on every first stage in the search subtree of F+{pool[q]}.

    first is F, pool assets before pool[q]; the subtree holds each
    F+{pool[q]}+G with G made of pool assets after pool[q], at most k-|F|-1
    of them.  Each scenario sells, from the assets outside F+{pool[q]}, all
    but its hold lowest values, where a pool asset after pool[q] counts its
    either value (sold first, priced by the tables' multipliers, or in this
    scenario, whichever pays) and any other asset f_ij.  The result is, like
    every objective the search compares, times scale * pscale; it equals the
    objective of F+{pool[q]} when no pool asset follows pool[q].
    """
    t = tables.pool[q]
    rank, net = tables.rank, tables.net
    sold = set(first)
    total = tables.everything + sum(net[i] for i in sold) + net[t] + tables.gain[q + 1]
    for order, ranked, later, later_ranked in zip(
        tables.orders, tables.ranked, tables.later, tables.later_ranked
    ):
        # Walk both lists from their low end; F+{t} leaves at least hold assets.
        a, b = len(later) - 1, len(order) - 1
        for _ in range(tables.hold):
            while a >= 0 and later[a] <= t:
                a -= 1
            # Pool assets from t on count in later (or are t); F is sold.
            while b >= 0 and (rank[order[b]] >= q or order[b] in sold):
                b -= 1
            if b < 0 or (a >= 0 and later_ranked[a] <= ranked[b]):
                total -= later_ranked[a]
                a -= 1
            else:
                total -= ranked[b]
                b -= 1
    return total


def solve_exact(instance: Instance, options: ExactOptions | None = None) -> Solution:
    """Globally optimal solution by depth-first search over first-stage sets.

    The result is the set exhaustive enumeration by increasing size,
    lexicographically within each size, keeps first among those of maximal
    objective, so it is deterministic.  The pool leaves out prunable(instance),
    which no optimal plan sells first.  An Instance is valid by construction,
    so only n > options.max_n is refused here.
    """
    if options is None:
        options = ExactOptions()
    if instance.n > options.max_n:
        raise EnumerationCapError("enumeration", instance.n, options.max_n)

    n, k = instance.n, instance.k
    view = instance.scaled
    pool = sorted(set(range(n)) - prunable(instance))
    tables = SearchTables(view, k, pool, tune_multipliers(view, k, pool))
    orders, ranked = tables.orders, tables.ranked
    values, positions = tables.values, tables.positions
    size = len(pool)
    first_value = [view.pscale * ci for ci in view.c]
    # large[a][r]: a subtree with a pool assets after t and r picks left holds
    # sum_{s <= r} C(a, s) >= n sets, enough to repay the O(mn) bound.
    large = []
    for a in range(size):
        sets = 0
        large.append([(sets := sets + comb(a, r)) >= n for r in range(k)])
    chosen = bytearray(n)
    path: list[int] = []
    # The empty first stage: each scenario sells the first k assets of its order.
    best_total = sum(sum(row[:k]) for row in ranked)
    best_first: tuple[int, ...] = ()

    def visit(start: int, base: int, second: int, lasts: list[int], at_last: list[int]) -> None:
        """Search the children F+{pool[q]}, q >= start, of F = path.

        second is F's weighted second-stage total; per kept scenario, lasts
        holds the position of the last asset F's completion sells and
        at_last that asset's value.
        """
        nonlocal best_total, best_first
        depth = len(path) + 1
        need = k - depth
        for q in range(start, size):
            t = pool[q]
            child_base = base + first_value[t]
            if large[size - q - 1][need]:
                bound = subtree_bound(tables, path, q)
                if bound < best_total or (bound == best_total and depth >= len(best_first)):
                    continue
            # Orders are by value, so t leaves the sale if it sells at or
            # before the last position (value >= the value there) and the
            # asset at that position leaves otherwise: the larger one leaves.
            child_second = second - sum(map(max, values[t], at_last)) if need else 0
            total = child_base + child_second
            if total > best_total or (total == best_total and depth < len(best_first)):
                best_total = total
                best_first = (*path, t)
            if not need or q + 1 == size:
                continue
            child_lasts, child_at_last = lasts.copy(), at_last.copy()
            for j, position, last in zip(range(len(lasts)), positions[t], lasts):
                if position >= last:
                    # t was last or unsold: the sale ends one unsold asset earlier.
                    order = orders[j]
                    last -= 1
                    while chosen[order[last]]:
                        last -= 1
                    child_lasts[j] = last
                    child_at_last[j] = ranked[j][last]
            chosen[t] = 1
            path.append(t)
            visit(q + 1, child_base, child_second, child_lasts, child_at_last)
            path.pop()
            chosen[t] = 0

    if k and size:
        visit(0, 0, best_total, [k - 1] * len(orders), [row[k - 1] for row in ranked])
    # visit's closure refers to visit; emptying that cell lets reference
    # counting free the search state here instead of a later cycle collection.
    del visit
    return complete_first_stage(instance, best_first)
