"""Exact DSHP solver: depth-first search over first-stage sets, or over
held sets when every scenario holds one asset back.

The search covers first-stage sets of every size 0..k, because holding
everything back for the second stage is often optimal.  It reads the
instance's integers through _Costs, built once per solve from
model.Instance.integers, where every objective, times scale * pscale, is an
integer.  When r = n - k is 1 the search runs over held sets instead (see
the last part below); the plan is the same.

- Order and ties.  Sets are visited depth first, the children F+{t} of F
  in increasing t, so sets of one size are met in lexicographic order.
  The result is the plan exhaustive enumeration by size, then
  lexicographically, keeps first: maximal objective, then smallest |F|,
  then the lexicographically first set.
- Incremental second stage.  Each scenario of nonzero weight sells the
  first k-|F| assets of its selling order (SearchTables.orders: value
  descending, ties to the lowest index, the rule of the greedy sale) not in
  F.  The search keeps, per scenario, the position in that order of the
  last asset sold and its value, and the objective of F.  From F to F+{t},
  one asset leaves each scenario's sale: t if it sells at or before that
  position, else the asset there, so the larger of the two values.  Where
  the asset there leaves, the position steps back to the previous asset not
  in F.  A set costs O(m), not a walk of every order.
- Lagrangian cut.  SearchTables.bound(q, ...) bounds every set F+G, G
  made of pool assets from pool[q] on, by giving each scenario j, of weight
  w_j = pscale * p_j, its own copy of the first stage, priced with integer
  multipliers lambda_ij that sum to 0 over the scenarios for every asset
  (dual decomposition: Caroe and Schultz 1999, after Geoffrion 1974).  Each
  scenario sells, from the assets outside F, all but the r = n-k lowest, a
  pool asset from pool[q] on counting its either value max(w_j c_i +
  lambda_ij, w_j f_ij) and any other asset w_j f_ij; F adds pscale * c_i
  per asset.  A plan F+G sells one first stage in every scenario, so its
  multipliers cancel and its objective is a sum of one choice per scenario,
  each at most that scenario's best: any zero-sum lambda gives a sound
  bound, exact when q is past the pool, and lambda changes how much is cut,
  never the result.  lambda = 0 is the perfect-information ("wait-and-see")
  bound, and the search starts with it.  SearchTables.tune picks lambda
  once: alpha times each scenario's deviation from the expected
  second-stage value, alpha from a short scan that keeps the lowest root
  bound (F empty, q = 0), priced through the tables the search bounds with.
  The scan costs about as much as one bound per pool asset per alpha, so the
  search tunes only once it has taken that many bounds (the ski-rental
  rule): most small searches end first.  The search bounds two things
  before a child F+{t}, t = pool[q]: past the first child, the run of it
  and its later siblings, every F+G with G from pool[q] on (F forced, from
  q), and then the subtree of F+{t} (F+{t} forced, from q+1).  A run or
  subtree whose bound is below the best objective found is skipped, a run
  ending the loop, and so is one whose bound equals it when no set inside
  is smaller than the best found: those sets come later in the order and
  lose the tie.
- Incremental bound.  A scenario's r lowest take s from the held assets
  (outside the pool, or in it before pool[q] and not in F) and r-s from the
  free ones (pool[q:], at either value), so their sum is the least of H_s +
  S_(r-s) over s, where H_s and S_s sum the s lowest of each group.  The
  free sums depend on q alone and are built once per lambda.  Only
  subtrees of more than r sets are bounded, each after its run, so a node's
  bounded children come first and nothing under an unbounded child is
  bounded.  The held sums take the sibling just passed at each bounded
  child, and a child starts from its parent's at its own q; adding a value
  v sets H_s to min(H_s, H_(s-1) + v), one pass over the scenarios per s.
  The run and the subtree at one q read the same held sums.  So a bound
  costs O(rm) and a set O(m).

The pool always excludes the prunable assets.  With r >= 1 and s_j the r-th
lowest value of scenario j over all n assets, those are the assets whose
first-stage value is strictly below sum_j p_j max(f_ij, s_j); with r = 0,
below their expected second-stage value.  No optimal plan sells one first
(an exchange argument: moving it to the second stage makes every scenario
sell one more asset, worth max(f_ij, the r-th lowest value held) >=
max(f_ij, s_j), since the held set is a subset of all n), so searching the
full pool would return the same plan.  At r = 1, s_j is the column minimum
and the rule is c_i < E f_i.  The returned plan is built by
model.complete_first_stage.

Held sets at r = 1.  With k = n - 1, as on every dominating-set reduction,
each scenario sells all of the held set H = V - F but its lowest value, and
the problem is uncapacitated facility location (Cornuejols, Nemhauser and
Wolsey 1990).  With v_ij = w_j f_ij and net_i = pscale * c_i - sum_j v_ij,
F's objective is sum_i pscale * c_i less cost(H) = sum_{i in H} net_i +
sum_j min_{i in H} v_ij.  The optimal H is small (a minimum dominating set on
a reduction) where F is large, so _HoldOneSearch enumerates H = prunable + S
by |S| ascending, one level per size, each level a depth-first search that
decides the pool assets in ascending order, sold before held.  At a node
adding t assets of pool[q:] to a held part of cost c and per-scenario least
values mins, two bounds apply, and the node is cut when either exceeds the
best cost:
  (a) c + the t smallest net over pool[q:] + sum_j min(mins_j, the least
      v_ij over pool[q:]);
  (b) c + sum_j mins_j + the t smallest net_i - sum_j max(0, mins_j - v_ij)
      over pool[q:]: a set of assets lowers a scenario's least value by at
      most the sum of its members' drops.
Pool nets are >= 0, so the level floor, bound (a) with nothing decided,
never falls, and the search stops before the first level whose floor
exceeds the best cost.  Ties map to the first-stage rule: an equal cost
in a later level replaces the best (a larger H is a smaller F), and within
a level only a lower cost does, and a node whose bound equals the best cost
found in its own level is cut too.  Of two held sets of one size, the first
found sells the first asset where they differ, so its F is the
lexicographically first.  Neither SearchTables nor a selling order is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import add
from typing import Sequence

from .model import (
    DEFAULT_MAX_N,
    EnumerationCapError,
    Instance,
    Solution,
    complete_first_stage,
)


@dataclass(frozen=True)
class ExactOptions:
    """solve_exact's options; prune is unread, accepted for the bench.

    The bench refresh (ROADMAP item 1) frees it; ROADMAP item 8 then deletes
    this class.
    """

    prune: bool = False
    max_n: int = DEFAULT_MAX_N

    def __post_init__(self):
        if self.max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {self.max_n}")


class _Costs:
    """An instance's objective in integers, built once per solve from its
    integer table (model.Instance.integers) and its cells.

    n and hold = n - k are the instance's, scale and pscale the table's,
    and c[i] is c_i times scale.  Only the scenarios of nonzero weight w_j =
    pscale * p_j are kept: weights lists their w_j, columns[j] holds w_j
    f_ij times scale over the assets, and values[i] asset i's row of those,
    one per kept scenario.  expected[i] is the sum of values[i], and net[i]
    is pscale * c_i less it.  Every objective the search compares, times
    scale * pscale, is an integer over these.

    pruned is prunable's set: with hold >= 1 and s_j the hold-th lowest of
    columns[j], the assets with pscale * c_i strictly below sum_j max(w_j
    f_ij, s_j); with hold = 0, those with net[i] < 0.  That is prunable's
    test times scale * pscale: for w_j > 0, s_j is w_j times the hold-th
    lowest f_ij, and a scenario of zero weight adds 0 to both sides.
    """

    def __init__(self, instance: Instance):
        table = instance.integers
        ints = table.ints.__getitem__
        pscale = table.pscale
        self.n = instance.n
        self.hold = hold = instance.n - instance.k
        self.scale, self.pscale = table.scale, pscale
        self.c = c = list(map(ints, map(id, instance.c)))
        columns = zip(*[map(ints, map(id, row)) for row in instance.f])
        self.weights = [w for w in table.weights if w]
        self.columns = [[w * v for v in column] for w, column in zip(table.weights, columns) if w]
        self.values = values = list(zip(*self.columns))
        self.expected = expected = list(map(sum, values))  # sum_j w_j f_ij
        self.net = [pscale * ci - e for ci, e in zip(c, expected)]
        worth = expected
        if hold:
            floors = [sorted(column)[hold - 1] for column in self.columns]
            worth = [sum([v if v > s else s for v, s in zip(row, floors)]) for row in values]
        self.pruned = frozenset(i for i, (ci, x) in enumerate(zip(c, worth)) if pscale * ci < x)


def prunable(instance: Instance) -> frozenset[int]:
    """Assets no optimal plan sells first: with r = n - k >= 1 and s_j the
    r-th lowest value of scenario j over all n assets, c_i strictly below
    sum_j p_j max(f_ij, s_j); with r = 0, c_i strictly below sum_j p_j f_ij.

    Moving i from F to the second stage makes every scenario sell one more
    asset, worth max(f_ij, the r-th lowest value of the held set) >= max(f_ij,
    s_j), so the move gains.  At r = 1, s_j is the column minimum and the
    test is c_i < E f_i.  _Costs computes it in integers.
    """
    return _Costs(instance).pruned


# alpha, in sixteenths, in the order SearchTables.tune tries it.
_ALPHA_SIXTEENTHS = (0, 8, 12, 13, 14, 15, 16)


class SearchTables:
    """The first-stage search's tables over a solve's costs, for one pool.

    costs is the solve's _Costs, whose kept scenarios and weighted values
    the tables read.  pool lists the assets a first stage may hold,
    ascending.  hold is n - k, the number of assets every scenario
    leaves unsold.  Per kept scenario: orders holds the selling order of
    every asset, value descending and ties to the lowest index, from one
    stable sort, and ranked the values in that order.  Per asset i, with
    one entry per kept scenario: positions[i] holds its index in the
    selling order and firsts[i] its first-stage value w c_i.

    multipliers holds one row of integers per kept scenario, one per asset,
    and each column sums to 0 (all zeros gives the wait-and-see bound).  In
    a kept scenario of weight w with row lam, a pool asset's either value is
    max(w c_i + lam[i], w f_ij): sold first, at its priced value, or in the
    scenario.  The constructor prices them at zero, and tune picks alpha
    times scenario j's deviation of asset i from its expected value, w_j
    (pscale f_ij - sum_j' w_j' f_ij') / pscale in scaled units, rounded to
    the nearest integer, less each column's sum in the last kept scenario.
    At alpha = 1 every scenario values asset i at about f_ij + max(c_i - E
    f_i, 0), so all scenarios agree on the first stage.  root is the root
    bound under the multipliers in force.

    The bound reads lowest-value tables: the table of a set of assets lists,
    for s = 1..min(hold, its size), the per-scenario sums of the s lowest
    values in the set (insert adds one asset).  free[q], for q = 0..len(pool),
    is the table of the either values of the pool assets from pool[q] on, and
    held that of the values of the assets outside the pool.  tail[q] is the
    sum of values over all assets plus, over the kept scenarios and the pool
    assets from pool[q] on, either value minus value.
    """

    def __init__(self, costs: _Costs, pool: Sequence[int]):
        n, columns = costs.n, costs.columns
        # Value descending, ties to the lowest index: reverse keeps the sort stable.
        orders = [sorted(range(n), key=column.__getitem__, reverse=True) for column in columns]
        self.costs = costs
        self.pool = list(pool)
        self.hold = costs.hold
        self.orders = orders
        self.ranked = [[column[i] for i in order] for column, order in zip(columns, orders)]
        # Each order's inverse: asset i's index in it.
        self.positions = list(zip(*(sorted(range(n), key=order.__getitem__) for order in orders)))
        self.firsts = [tuple(w * ci for w in costs.weights) for ci in costs.c]
        held = []
        for i in sorted(set(range(n)) - set(pool)):
            held = self.insert(held, costs.values[i])
        self.held = held
        self.price([[0] * n for _ in columns])

    def tune(self) -> None:
        """Scan alpha over _ALPHA_SIXTEENTHS for the multipliers of the lowest
        root bound, and keep the first such, with its tables.  Called once,
        with the constructor's zero multipliers in force.

        Those are alpha = 0, already priced; price gives each later alpha its
        root bound, and the scan stops at the first rise, since the bound is
        convex in alpha up to the rounding.  The held tables read values only,
        so the search may tune between two bounds: that changes what is cut,
        never the plan.
        """
        costs = self.costs
        pscale = costs.pscale
        # Each deviation times 2 * pscale, so that e/16 of it, rounded half up,
        # is (e * d + half) // unit.
        unit = 32 * pscale
        half = unit // 2
        deviations = [
            [2 * (pscale * f - w * s) for f, s in zip(column, costs.expected)]
            for w, column in zip(costs.weights, costs.columns)
        ]
        best = (self.root, self.multipliers, self.free, self.tail)
        for e in _ALPHA_SIXTEENTHS[1:]:
            rows = [[(e * d + half) // unit for d in row] for row in deviations]
            rows[-1] = [p - s for p, s in zip(rows[-1], map(sum, zip(*rows)))]
            bound = self.price(rows)
            if bound > best[0]:
                break
            if bound < best[0]:
                best = (bound, rows, self.free, self.tail)
        self.root, self.multipliers, self.free, self.tail = best

    def price(self, multipliers: Sequence[Sequence[int]]) -> int:
        """Set multipliers, fill free and tail for them, and set and return
        root, the root bound.

        The root bound, bound(0, 0, held), is the bound with nothing forced:
        every value, a pool asset counting its either value, less each
        scenario's hold lowest.
        """
        self.multipliers = multipliers
        values, expected, firsts = self.costs.values, self.costs.expected, self.firsts
        prices = list(zip(*multipliers))
        free = [[]]
        tail = [sum(expected)]
        for i in reversed(self.pool):
            either = [x if x > v else v for x, v in zip(map(add, firsts[i], prices[i]), values[i])]
            free.append(self.insert(free[-1], either))
            tail.append(tail[-1] + sum(either) - expected[i])
        # Built from the back; reversed, free[q] covers the pool from pool[q] on.
        self.free = free[::-1]
        self.tail = tail[::-1]
        self.root = self.bound(0, 0, self.held)
        return self.root

    def insert(self, table: list[list[int]], row: Sequence[int]) -> list[list[int]]:
        """table with one more asset, of per-scenario values row: the s
        lowest values either leave it out or add it to the s - 1 lowest."""
        # Comprehensions with a comparison beat map(min, ...), whose every
        # call parses arguments.
        out = [[x if x < v else v for x, v in zip(table[0], row)]] if table else []
        for fewer, more in zip(table, table[1:]):
            out.append([x if x < (y := f + v) else y for x, f, v in zip(more, fewer, row)])
        if len(table) < self.hold:
            out.append(list(map(add, table[-1], row)) if table else list(row))
        return out

    def lowest(self, held: list[list[int]], free: list[list[int]]) -> int:
        """The sum over kept scenarios of the hold lowest values of two
        disjoint sets of assets, given their tables: s of them from held and
        hold - s from free, for the least such split."""
        hold = self.hold
        if not hold:
            return 0
        lowest = None
        for s in range(hold - len(free), len(held) + 1):
            if s == 0:
                split = free[-1]
            elif s == hold:
                split = held[-1]
            else:
                split = map(add, held[s - 1], free[hold - s - 1])
            lowest = split if lowest is None else [x if x < y else y for x, y in zip(lowest, split)]
        return sum(lowest)

    def bound(self, q: int, net: int, held: list[list[int]]) -> int:
        """Upper bound on every first stage F+G, G made of pool assets from
        pool[q] on, with |F+G| <= k.

        F is forced: net is the sum of net over F, and held the table of the
        assets outside the pool and the pool assets before pool[q] not in F.
        Each scenario sells, from the assets outside F, all but its hold
        lowest values, where a pool asset from pool[q] on counts its either
        value and any other asset f_ij; lowest splits those between held and
        free[q].  The result is, like every objective the search compares,
        times scale * pscale; it equals the objective of F when q is
        len(pool).  The root bound is bound(0, 0, self.held); the search
        bounds the run of F's children from F+{pool[q]} on with bound(q,
        ...) and the subtree of F+{pool[q]} with bound(q + 1, ...).
        """
        return self.tail[q] + net - self.lowest(held, self.free[q])


class _HoldOneSearch:
    """The search over held sets at hold n - k = 1, for one pool.

    values and net are those of the solve's _Costs, over its kept scenarios.
    A held set H = V - F costs sum_{i in H} net_i plus, per kept scenario,
    the least value in H, and F's objective is sum_i pscale * c_i less that
    cost.
    Every asset outside the pool is held: cost and mins are the net sum and
    per-scenario least values of those (mins is None when there are none).
    Per q = 0..len(pool): lows[q] holds each scenario's least value over
    pool[q:] (None past the pool), and cheapest[q][t] sums the t smallest
    net over pool[q:], which are all >= 0: a pool asset is not prunable.
    """

    def __init__(self, costs: _Costs, pool: Sequence[int]):
        values = costs.values
        self.pool = list(pool)
        self.values = values
        self.net = costs.net
        held = sorted(set(range(costs.n)) - set(pool))
        self.cost = sum(self.net[i] for i in held)
        self.mins = [min(column[i] for i in held) for column in costs.columns] if held else None
        lows = [None]
        cheapest = [[0]]
        for q in reversed(range(len(pool))):
            row, later = values[pool[q]], lows[-1]
            lows.append(
                list(row) if later is None else [x if x < v else v for x, v in zip(later, row)]
            )
            nets = sorted(self.net[i] for i in pool[q:])
            cheapest.append([0, *accumulate(nets)])
        self.lows = lows[::-1]
        self.cheapest = cheapest[::-1]

    def spread(self, q: int, t: int, cost: int, mins: list[int] | None) -> int:
        """Bound (a) on every held set that adds t assets of pool[q:] to a
        held part of net sum cost and per-scenario least values mins: the t
        smallest net over pool[q:], and per scenario the least of mins and
        of every value over pool[q:].  Exact when t = len(pool) - q."""
        lows = self.lows[q]
        if mins is not None:
            lows = [x if x < v else v for x, v in zip(mins, lows)]
        return cost + self.cheapest[q][t] + sum(lows)

    def drop(self, q: int, t: int, cost: int, mins: list[int]) -> int:
        """Bound (b) on the same held sets, for a held part that is not empty:
        mins kept, less each added asset's drop below them.

        Adding a set of assets lowers a scenario's least value by at most the
        sum of the single assets' drops max(0, mins_j - v_ij), so the bound
        is the held part's cost plus the t smallest net_i less drop_i over
        pool[q:].  Exact when t = 1.
        """
        values, net = self.values, self.net
        gains = sorted(
            net[i] - sum([x - v for x, v in zip(mins, values[i]) if x > v]) for i in self.pool[q:]
        )
        return cost + sum(mins) + sum(gains[:t])

    def held(self) -> tuple[int, ...]:
        """The pool assets of the best held set; the module docstring gives
        the order, the cuts and the tie rule.

        A level is |S| for held sets prunable + S.  Level 0, the prunable
        assets alone, is the first best when there are any; with none, its
        F, the whole pool, would exceed k.
        """
        pool, values, net = self.pool, self.values, self.net
        spread, drop = self.spread, self.drop
        size = len(pool)
        if self.mins is None:  # above every held set's cost
            best = sum(x for x in net if x > 0) + sum(map(max, zip(*values))) + 1
        else:
            best = self.cost + sum(self.mins)
        best_level, best_held = 0, ()
        path: list[int] = []

        def visit(q: int, t: int, cost: int, mins: list[int] | None) -> None:
            """Search the held sets that add t assets of pool[q:] to path."""
            nonlocal best, best_level, best_held
            bound = spread(q, t, cost, mins)
            if bound > best or (bound == best and best_level == level):
                return
            if q + t == size:  # every asset left is held: the bound is its cost
                best, best_level, best_held = bound, level, (*path, *pool[q:])
                return
            if t == 1:
                # The last pick, in the search's order: an asset is held only
                # after every later one has been tried.
                for i in reversed(pool[q:]):
                    row = values[i]
                    least = row if mins is None else [x if x < v else v for x, v in zip(mins, row)]
                    total = cost + net[i] + sum(least)
                    if total < best or (total == best and best_level < level):
                        best, best_level, best_held = total, level, (*path, i)
                return
            if mins is not None:
                bound = drop(q, t, cost, mins)
                if bound > best or (bound == best and best_level == level):
                    return
            visit(q + 1, t, cost, mins)  # pool[q] sold
            i = pool[q]
            row = values[i]
            path.append(i)
            visit(q + 1, t - 1, cost + net[i],
                  row if mins is None else [x if x < v else v for x, v in zip(mins, row)])
            path.pop()

        for level in range(1, size + 1):
            if spread(0, level, self.cost, self.mins) > best:
                break
            visit(0, level, self.cost, self.mins)
        del visit
        return best_held


def solve_exact(
    instance: Instance, options: ExactOptions | None = None, extras: dict | None = None
) -> Solution:
    """Globally optimal solution by depth-first search over first-stage sets.

    The result is the set exhaustive enumeration by increasing size,
    lexicographically within each size, keeps first among those of maximal
    objective, so it is deterministic.  At k = n - 1 (and k >= 1, with a pool
    to search) the search runs over held sets instead: by size ascending,
    cut by the module's bounds (a) and (b), a later size winning a tie and,
    within a size, the first set found.  That is the same plan: the largest
    optimal held set is the smallest first stage, and the first one found
    of a size has the lexicographically first complement.  The first-stage
    search bounds with zero multipliers and calls SearchTables.tune once it
    has taken len(_ALPHA_SIXTEENTHS) * len(pool) bounds, about what the scan
    costs.  The solve builds one _Costs, and its pool leaves out the pruned
    assets, prunable(instance), which no optimal plan sells first; given
    extras, a dict, the solver sets extras["pruned_assets"] to their
    number.  An Instance is valid by construction, so only n >
    options.max_n is refused here.
    """
    if options is None:
        options = ExactOptions()
    if instance.n > options.max_n:
        raise EnumerationCapError("enumeration", instance.n, options.max_n)

    n, k = instance.n, instance.k
    costs = _Costs(instance)
    pool = [i for i in range(n) if i not in costs.pruned]
    if extras is not None:
        extras["pruned_assets"] = n - len(pool)
    if not (k and pool):  # the empty first stage is the only candidate
        return complete_first_stage(instance, ())
    if n - k == 1:
        held = set(_HoldOneSearch(costs, pool).held())
        return complete_first_stage(instance, [i for i in pool if i not in held])
    tables = SearchTables(costs, pool)
    orders, ranked, positions = tables.orders, tables.ranked, tables.positions
    values, net = costs.values, costs.net
    insert = tables.insert
    size = len(pool)
    # Tuning prices up to one table per alpha, each about size inserts, as
    # dear as that many bounds: tune once the search has taken as many.
    untuned = len(_ALPHA_SIXTEENTHS) * size

    def bound_at(q: int, net_sum: int, held: list[list[int]]) -> int:
        nonlocal untuned
        if not untuned:
            tables.tune()
        untuned -= 1
        return tables.bound(q, net_sum, held)

    first_value = [costs.pscale * ci for ci in costs.c]
    # bounded[a][r]: a subtree with a pool assets after t and r picks left
    # holds sum_{s <= r} C(a, s) sets.  A bound costs about hold passes over
    # the kept scenarios and a set about one, so only subtrees of more than
    # hold sets are bounded, and past a parent's first child each only after
    # the run of it and its later siblings.
    bounded = []
    for a in range(size):
        sets = 0
        bounded.append([(sets := sets + comb(a, r)) > tables.hold for r in range(k)])
    chosen = bytearray(n)
    path: list[int] = []
    # The empty first stage: each scenario sells the first k assets of its order.
    best_total = sum(sum(row[:k]) for row in ranked)
    best_first: tuple[int, ...] = ()

    def visit(
        start: int,
        value: int,
        lasts: list[int],
        at_last: list[int],
        net_sum: int,
        held: list[list[int]],
    ) -> None:
        """Search the children F+{pool[q]}, q >= start, of F = path.

        value is F's objective; per kept scenario, lasts holds the position
        of the last asset F's completion sells and at_last that asset's
        value.  net_sum sums net over F.  held is the lowest-value table of
        the assets outside the pool and of the pool assets before
        pool[start] not in F; it is read only if some child is bounded.
        """
        nonlocal best_total, best_first
        depth = len(path) + 1
        need = k - depth
        # At the last level F's one sale per scenario leaves (t sells no earlier).
        leaf = 0 if need else sum(at_last)
        for q in range(start, size):
            t = pool[q]
            child_net = net_sum + net[t]
            # bounded[a][r] grows with a and with r, so the bounded children
            # come first in this loop and a child's own children are bounded
            # only if it is: held is current at each bounded child.
            if bounded[size - q - 1][need]:
                # Every set of the run F+G, G from pool[q:], and of the subtree
                # of F+{t} has at least depth assets and comes later in the order.
                if q > start:
                    held = insert(held, values[pool[q - 1]])
                    bound = bound_at(q, net_sum, held)
                    if bound < best_total or (bound == best_total and depth >= len(best_first)):
                        return
                bound = bound_at(q + 1, child_net, held)
                if bound < best_total or (bound == best_total and depth >= len(best_first)):
                    continue
            # Orders are by value, so t leaves the sale if it sells at or
            # before the last position (value >= the value there) and the
            # asset at that position leaves otherwise: the larger one leaves.
            leaving = sum([x if x > y else y for x, y in zip(values[t], at_last)]) if need else leaf
            total = value + first_value[t] - leaving
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
            visit(q + 1, total, child_lasts, child_at_last, child_net, held)
            path.pop()
            chosen[t] = 0

    visit(0, best_total, [k - 1] * len(orders), [row[k - 1] for row in ranked], 0, tables.held)
    # visit's closure refers to visit; emptying that cell lets reference
    # counting free the search state here instead of a later cycle collection.
    del visit
    return complete_first_stage(instance, best_first)
