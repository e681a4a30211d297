"""Linear-time solver for instances whose values all lie in {v_min, v_max}.

Selling every asset whose first-stage value is v_max as early as possible is
optimal (an exchange argument: swapping such an asset into the first stage
never loses value), and the leftover budget is spent per scenario on v_max
entries first.  That is the package's one selling order (model.by_value, via
model.ScaledView.order and second_stage, the sale that builds every solver's
plan): it groups each column by value and sorts only the distinct values,
two here, so the work is linear in n*m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DegenerateValuesError,
    Instance,
    Solution,
    ValueDomainError,
    require_valid,
)


class VisitCounter:
    """Tally of value-entry reads; evidence for the linear-time bound."""

    __slots__ = ("visits",)

    def __init__(self):
        self.visits = 0

    def add(self, amount: int = 1) -> None:
        self.visits += amount


@dataclass(frozen=True)
class TwoValueProfile:
    """The two values of an instance plus the assets worth v_max up front."""

    v_min: Fraction
    v_max: Fraction
    max_valued: tuple[int, ...]


def detect_two_values(
    instance: Instance, counter: VisitCounter | None = None
) -> TwoValueProfile:
    """Classify an instance as two-valued or raise.

    More than two distinct values raises ValueDomainError with a witness
    triple; a single distinct value raises DegenerateValuesError (all
    feasible plans then share one objective, which solve_two_value handles).
    The counter is charged the cells of the instance's value scan, if this
    call runs it, and the n first-stage values.
    """
    require_valid(instance)
    distinct = instance._distinct_values(counter)
    if len(distinct) > 2:
        witness = ", ".join(str(v) for v in sorted(distinct[:3]))
        raise ValueDomainError(f"not two-valued: witness values {witness}")
    if len(distinct) == 1:
        raise DegenerateValuesError(
            f"every value equals {distinct[0]}: all budget-k plans are equal-value"
        )
    v_min, v_max = sorted(distinct)
    max_valued = tuple(i for i in range(instance.n) if instance.c[i] == v_max)
    if counter:
        counter.add(instance.n)
    return TwoValueProfile(v_min, v_max, max_valued)


def solve_two_value(
    instance: Instance, counter: VisitCounter | None = None
) -> Solution:
    """Optimal solution of a two-valued instance in O(nm) operations.

    If fewer than k assets are worth v_max up front, all of them are sold at
    the first stage and each scenario sells the most valuable remainder;
    otherwise the k lowest-indexed v_max assets are sold and the second
    stage is empty.  Single-valued instances get the lexicographic budget-k
    first-stage plan.
    """
    n, m, k = instance.n, instance.m, instance.k
    try:
        profile = detect_two_values(instance, counter)
    except DegenerateValuesError:
        first = tuple(range(k))
    else:
        first = profile.max_valued[:k]
    value = sum((instance.c[i] for i in first), Fraction(0))
    need = k - len(first)
    if counter:
        counter.add(len(first))
    if not need:
        return Solution(first, ((),) * m, value)

    view = instance.scaled
    if counter and "order" not in view.__dict__:
        # Building the selling order reads every cell once; a two-valued
        # column has two value groups, so by_value orders it in O(n).
        counter.add(n * m)
    revenue, picks = view.second_stage(set(first), need)
    value += Fraction(revenue, view.scale * view.pscale)
    if counter:
        # Each scenario's sale walked its order up to the last asset it sold.
        counter.add(sum(o.index(sel[-1]) + 1 for o, sel in zip(view.order, picks)))
    return Solution(first, tuple(picks), value)
