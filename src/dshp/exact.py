"""Exact DSHP solver: enumerate first-stage sets, complete each greedily.

Enumeration covers every size 0..k because holding everything back for the
second stage is often optimal.  Each set is scored on the instance's integer
view (model.Instance.scaled), whose second_stage method, the sale every
solver shares, walks the view's selling order.  Assets whose first-stage value is strictly
below their expected second-stage value can be excluded from first-stage
consideration without changing the optimal objective (an exchange argument:
moving such an asset to every scenario's second stage strictly improves any
plan that sells it early).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (
    DshpError,
    Instance,
    Solution,
    complete_first_stage,
    require_valid,
)


class EnumerationCapError(DshpError):
    """n exceeds the safety cap on exhaustive enumeration."""


@dataclass(frozen=True)
class ExactOptions:
    prune: bool = False
    max_n: int = 24

    def __post_init__(self):
        if self.max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {self.max_n}")


def prunable(instance: Instance) -> frozenset[int]:
    """Assets with c_i strictly below sum_j p_j f_ij (never sold first-stage)."""
    view = instance.scaled
    # Both sides times scale * pscale: c_i * pscale against sum_j weights[j] * f_ij.
    return frozenset(
        i
        for i, ci in enumerate(view.c)
        if ci * view.pscale < sum(w * column[i] for w, column in zip(view.weights, view.columns))
    )


def solve_exact(instance: Instance, options: ExactOptions | None = None) -> Solution:
    """Globally optimal solution by exhaustive first-stage enumeration.

    First-stage sets are enumerated by increasing size, lexicographically
    within each size, and the first set achieving the maximal objective is
    kept, so the result is deterministic.  With options.prune, enumeration
    is restricted to assets outside prunable(instance).
    """
    if options is None:
        options = ExactOptions()
    require_valid(instance)
    if instance.n > options.max_n:
        raise EnumerationCapError(
            f"n={instance.n} exceeds the enumeration cap max_n={options.max_n}; "
            f"pass a larger max_n (CLI: --max-n or DSHP_MAX_N) to override"
        )

    n, k = instance.n, instance.k
    view = instance.scaled
    # Every plan's objective, times scale * pscale, is an integer.
    c, pscale, order, second_stage = view.c, view.pscale, view.order, view.second_stage
    if options.prune:
        pool = sorted(set(range(n)) - prunable(instance))
    else:
        pool = list(range(n))

    best_total = None
    best_first: tuple[int, ...] = ()
    for size in range(min(k, len(pool)) + 1):
        need = k - size
        for combo in itertools.combinations(pool, size):
            total = pscale * sum(c[i] for i in combo)
            if need:
                total += second_stage(order, set(combo), need)
            if best_total is None or total > best_total:
                best_total = total
                best_first = combo
    return complete_first_stage(instance, best_first)
