"""Heuristic for three-valued instances with a worst-case guarantee.

With values {low, mid, high}, selling every mid- or high-valued asset as
early as the budget allows achieves at least mid/high of the optimum
(ThreeValueProfile.guarantee), and the ratio is attained exactly on a
4-asset, 3-scenario family (gen_tightness), so the bound cannot be
improved.  solve_approx picks that first stage and returns
model.complete_first_stage of it, like every solver: each scenario then
sells the best of the held assets, those not sold first.  First-stage values
are matched against mid and high on (numerator, denominator) pairs, since
comparing Fractions is slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .model import Instance, Solution, ValueDomainError, as_rational, complete_first_stage


@dataclass(frozen=True)
class ThreeValueProfile:
    """The sorted value triple plus first-stage class sizes.

    high_count / mid_count are the numbers of assets whose first-stage
    value is high resp. mid; together they bound what stage 1 can sell.
    """

    low: Fraction
    mid: Fraction
    high: Fraction
    high_count: int
    mid_count: int

    @property
    def guarantee(self) -> Fraction:
        """mid/high: solve_approx achieves at least this share of the optimum.

        Proven for nonnegative values only, which solve_approx requires.
        """
        return self.mid / self.high


def detect_three_values(instance: Instance) -> ThreeValueProfile:
    """Classify an instance as exactly three-valued or raise; only its values need a check."""
    distinct = instance.distinct
    if len(distinct) > 3:
        witness = ", ".join(str(x) for x in sorted(distinct[:4]))
        raise ValueDomainError(f"more than three distinct values: witness {witness}")
    if len(distinct) < 3:
        raise ValueDomainError(f"only {len(distinct)} distinct value(s); use the two-value solver")
    low, mid, high = sorted(distinct)
    ratios = list(map(Fraction.as_integer_ratio, instance.c))
    high_count = ratios.count(high.as_integer_ratio())
    mid_count = ratios.count(mid.as_integer_ratio())
    return ThreeValueProfile(low, mid, high, high_count, mid_count)


def solve_approx(instance: Instance, profile: ThreeValueProfile | None = None) -> Solution:
    """Run the heuristic: stage 1 takes high- then mid-valued assets.

    If the mid/high classes fit the budget they are all sold at stage 1 and
    any leftover budget goes to the per-scenario greedy; otherwise the k
    highest-class assets (lowest index within a class) are sold and the
    second stage is empty.  Instances with negative values are rejected:
    the mid/high ratio guarantee is only meaningful for nonnegative values.
    profile is detect_three_values(instance); a caller that has it already
    passes it, so that the instance is classified once.
    """
    if profile is None:
        profile = detect_three_values(instance)
    if profile.low < 0:
        raise ValueDomainError(
            f"negative value {profile.low} present: the ratio guarantee needs nonnegative values"
        )
    ratios = list(map(Fraction.as_integer_ratio, instance.c))
    assets = range(instance.n)
    high = compress(assets, map(profile.high.as_integer_ratio().__eq__, ratios))
    mid = compress(assets, map(profile.mid.as_integer_ratio().__eq__, ratios))
    return complete_first_stage(instance, [*high, *mid][: instance.k])


def gen_tightness(low, mid, high) -> Instance:
    """The 4-asset, 3-scenario, k=1 family where the guarantee is exact.

    The heuristic sells the single mid-valued asset at stage 1 (revenue mid)
    while the optimum holds everything and sells each scenario's high-valued
    asset (revenue high), realizing the ratio mid/high exactly.
    """
    low, mid, high = as_rational(low), as_rational(mid), as_rational(high)
    if not low < mid < high:
        raise ValueError(f"need a strictly increasing triple, got {low}, {mid}, {high}")
    third = Fraction(1, 3)
    return Instance(
        n=4,
        m=3,
        k=1,
        c=(low, mid, low, low),
        p=(third, third, third),
        f=(
            (high, low, low),
            (low, low, low),
            (low, high, low),
            (low, low, high),
        ),
        label=f"tightness({low},{mid},{high})",
    )
