"""Linear-time solver for instances whose values all lie in {v_min, v_max}.

Selling every asset whose first-stage value is v_max as early as possible is
optimal (an exchange argument: swapping such an asset into the first stage
never loses value), and the leftover budget is spent per scenario on v_max
entries first.  A single-valued instance is the case v_min = v_max: every
asset is worth v_max, so the first k are sold up front.  So solve_two_value
only detects the values and picks that first stage;
model.complete_first_stage sells the rest: each scenario groups the held
assets, those not sold first, by the sale's selling rule
(model.by_value), which sorts only the distinct values, at most two here, so
the work is linear in n*m.  A VisitCounter tallies the value entries a solve
reads, by one fixed rule that no earlier call on the instance changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .model import Instance, Solution, ValueDomainError, complete_first_stage


class VisitCounter:
    """Tally of value-entry reads; evidence for the linear-time bound."""

    __slots__ = ("visits",)

    def __init__(self):
        self.visits = 0

    def add(self, amount: int = 1) -> None:
        self.visits += amount


@dataclass(frozen=True)
class TwoValueProfile:
    """The two values of an instance plus the assets worth v_max up front.

    A single-valued instance has v_min = v_max, and every asset is max-valued.
    """

    v_min: Fraction
    v_max: Fraction
    max_valued: tuple[int, ...]


def detect_two_values(instance: Instance) -> TwoValueProfile:
    """Classify an instance as having at most two values, or raise.

    More than two distinct values raises ValueDomainError with a witness
    triple.  A single value v gives TwoValueProfile(v, v, every asset).
    Only the values are checked: an Instance is valid by construction.
    c is matched against v_max on (numerator, denominator) pairs, since
    comparing Fractions is slow.
    """
    distinct = instance.distinct
    if len(distinct) > 2:
        witness = ", ".join(str(v) for v in sorted(distinct[:3]))
        raise ValueDomainError(f"not two-valued: witness values {witness}")
    v_max = max(distinct)
    top = v_max.as_integer_ratio()
    ratios = map(Fraction.as_integer_ratio, instance.c)
    max_valued = tuple(compress(range(instance.n), map(top.__eq__, ratios)))
    return TwoValueProfile(min(distinct), v_max, max_valued)


def solve_two_value(
    instance: Instance,
    counter: VisitCounter | None = None,
    profile: TwoValueProfile | None = None,
) -> Solution:
    """Optimal solution of an instance of at most two values in O(nm) operations.

    If fewer than k assets are worth v_max up front, all of them are sold at
    the first stage and each scenario sells the most valuable remainder;
    otherwise the k lowest-indexed v_max assets are sold and the second
    stage is empty.  complete_first_stage builds the plan.  profile is
    detect_two_values(instance); a caller that has it already passes it, so
    that the instance is classified once.  The counter is charged what a
    solve of a fresh instance reads: n(m+1) for the value scan plus n for
    detection's reads of c when this call detects (profile is None), |F| for
    the first stage, and, when |F| < k, (n - |F|)*m for grouping each
    scenario's held assets; the sale sums each value group it sells as
    value times count, so it reads no value again.  The charge counts each
    value read once, wherever it happens:
    Instance.distinct reads the objects recorded while the cells were
    coerced, and a view built by an earlier call is charged again, so the
    same instance always gets the same count.
    """
    if profile is None:
        if counter:
            counter.add(instance.n * (instance.m + 1) + instance.n)
        profile = detect_two_values(instance)
    first = profile.max_valued[: instance.k]
    solution = complete_first_stage(instance, first)
    if counter:
        counter.add(len(first))
        if len(first) < instance.k:
            # Grouping reads each held asset's value once per scenario (a
            # two-valued column has two value groups, so by_value is O(n)).
            counter.add((instance.n - len(first)) * instance.m)
    return solution
