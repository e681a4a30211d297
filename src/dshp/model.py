"""Core data model for the discrete sell-or-hold problem (DSHP).

An instance holds n assets with known first-stage values c, and m future
scenarios with probabilities p and per-scenario values f.  Exactly k assets
are sold in total along every scenario path: a first-stage set F plus
k - |F| assets per scenario.  All arithmetic is exact rational; nothing in
this package ever rounds.  An Instance is valid by construction: building
one whose shapes, budget or probabilities break the invariant raises
InstanceError.

Instance is the one place a number becomes a Fraction, and cells of equal
value mostly share one: every cell spelling one numeral does, quoted or bare
in a file.  So Instance coerces a row of strings and ints in one C-level
pass, and keeps a record of the value objects of c and f as it makes them.
Its distinct values read that record and no cell.  Its integer table
(Instance.integers) scales each recorded object once and keys the integers
by id, one entry per object; a cell then looks its integer up in C (map).
serialize_instance writes each recorded object once and looks each cell's
text up by id the same way.  The exact search reads the whole instance
through that table once per solve (exact._Costs).  serialize_solution
writes a plan alike: each distinct index's numeral once, every list joined
from them.  That text holds no space but in its separators, so the CLI
writes it to the solution file and splices it, spaces dropped, into its
report.

Every solver picks a first-stage set F and returns complete_first_stage(F),
the one completion: with F fixed, the greedy second stage is optimal.  It
maps only the held rows, those of the assets not in F, through the integer
table, and groups each scenario's held assets with by_value: highest value
first, ties to the lowest index, sorting only the distinct values, which
keeps a sale O(nm) on inputs of few values.  F's value and the sale's add
up to one integer of the same table, so every plan's value is one Fraction.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import filterfalse, islice
from math import lcm
from typing import Iterable, Sequence


class DshpError(Exception):
    """Base class for all toolkit errors."""


class ParseError(DshpError):
    """Malformed instance, solution or graph text."""


class InstanceError(DshpError):
    """An instance violates its invariants."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid instance: " + "; ".join(violations))
        self.violations = list(violations)


class SolutionError(DshpError):
    """A solution violates a structural constraint; the message names it."""


class ValueDomainError(DshpError):
    """The instance's set of distinct values does not fit the algorithm."""


DEFAULT_MAX_N = 24  # the default cap on n of solve_exact and brute_force_mds


class EnumerationCapError(DshpError):
    """An exhaustive search refused an input whose n exceeds its cap."""

    def __init__(self, search: str, n: int, max_n: int):
        super().__init__(
            f"n={n} exceeds the {search} cap max_n={max_n}; "
            f"pass a larger max_n (CLI: --max-n or DSHP_MAX_N) to override"
        )


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction or numeric string to an exact Fraction.

    A Fraction is returned unchanged.  Floats are rejected: binary floating
    point has no place in this toolkit.  Strings may be decimals ("1.25") or
    fractions ("5/4").
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: pass a string or Fraction")
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not a rational: {value!r}")


# str() prints at most this many digits of an int (0: no limit, as before
# Python 3.10.7); a nonzero limit is at least 640, so shorter numerals fit.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
# A numeral as Fraction reads it: a sign, then "a/b" or a decimal with an
# optional exponent.  Groups: sign, whole part, denominator, decimals, exponent.
_NUMERAL = re.compile(
    r"([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
    r"(?:/(\d+(?:_\d+)*)|(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?)"
)


def parse_rational(text: str) -> Fraction:
    """Parse a decimal or "a/b" numeral exactly; raise ParseError otherwise.

    A numeral whose numerator or denominator has more digits than
    sys.get_int_max_str_digits() allows (no check when it is 0) is refused,
    since str() could not write it back.  A long numeral is judged by its
    digits and exponent before any big integer is built (_judged):
    Fraction("1e10000000") takes seconds, and int() would refuse a numeral
    of too many digits, or of too many leading zeros, as if it were
    malformed.  A short numeral of an optional sign, ASCII digits and
    optionally "/" and ASCII digits is read through int(), which is about
    twice as fast as Fraction(str) and gives the same value and errors.
    """
    numeral = text.strip()
    try:
        if len(numeral) <= 640 and "e" not in numeral and "E" not in numeral:
            whole, slash, denominator = numeral.partition("/")
            digits = whole[1:] if whole[:1] in ("+", "-") else whole
            if digits.isascii() and digits.isdigit() and (
                not slash or (denominator.isascii() and denominator.isdigit())
            ):
                return Fraction(int(whole), int(denominator)) if slash else Fraction(int(whole))
            return Fraction(numeral)
        limit = _max_str_digits()
        match = limit and _NUMERAL.fullmatch(numeral)
        value = _judged(match, limit) if match else Fraction(numeral)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational numeral: {text!r} ({exc})") from None
    if value is None or (limit and max(abs(value.numerator), value.denominator) >= 10**limit):
        raise ParseError(f"numeral {text!r} has a numerator or denominator over {limit} digits")
    return value


def _judged(match: re.Match, limit: int) -> Fraction | None:
    """A matched numeral's value, or None when a numerator or denominator has over limit digits.

    Digits are counted without underscores and leading zeros, and a
    decimal's trailing zeros go into its exponent, so int() never reads more
    than limit digits and no power of ten is built for a numeral refused.
    """
    sign, whole, denominator, decimals, exponent = (
        part.replace("_", "") for part in match.groups("")
    )
    if denominator:
        numerator, denominator = whole.lstrip("0") or "0", denominator.lstrip("0") or "0"
        if max(len(numerator), len(denominator)) > limit:
            return None
        return Fraction(int(sign + numerator), int(denominator))
    significant = (whole + decimals).lstrip("0")
    digits = significant.rstrip("0")
    if not digits:  # zero, whatever the exponent
        return Fraction(0)
    shift = int(exponent or 0) - len(decimals) + len(significant) - len(digits)
    # A numerator of len(digits) + shift digits, or a denominator over 10**(-shift - len(digits)).
    if len(digits) + max(shift, 0) > limit or -shift - len(digits) >= limit:
        return None
    if shift >= 0:
        return Fraction(int(sign + digits) * 10**shift)
    return Fraction(int(sign + digits), 10**-shift)


class _Numerals(dict):
    """Numeral string -> its Fraction, each distinct string parsed once, when first looked up.

    One per Instance, never shared: parse_rational reads the digit limit when it
    runs, and the Fractions live only as long as the instance holding them.
    Keys are str only: an int (never a bool) resolves through its decimal
    text, str(int), which may raise ValueError past the digit limit, and is
    not stored, so True and 1.0 match no key and are refused with TypeError.
    """

    def __missing__(self, text: str) -> Fraction:
        if type(text) is int:
            return self[str(text)]
        if not isinstance(text, str):
            raise TypeError("not a numeral string")
        value = self[text] = parse_rational(text)
        return value


def _rationals(
    values: Iterable, where: str, numerals: _Numerals, seen: dict
) -> tuple[Fraction, ...]:
    """Each value as a Fraction: a str or int (as str) through numerals, else through as_rational.

    A row whose first cell is a str or an int is tried through numerals
    alone, in one C-level pass.  Any other row, or one where that pass meets
    another cell (numerals refuses it with TypeError), is read by one loop
    that sends each cell its own way and raises at the first bad cell,
    naming it where[index].  A row that is not a list or tuple is made a
    tuple first, so that a one-shot iterator can be read again.

    seen records id -> object of every value object of the row, in order of
    first appearance.  After the one-pass read that is only the numerals
    this row added to the table, which keeps lookup order, so no cell is
    read again; after the general read, every cell in one C-level pass.
    """
    if not isinstance(values, (list, tuple)):
        values = tuple(values)
    if values and (isinstance(values[0], str) or type(values[0]) is int):
        known = len(numerals)
        try:
            row = tuple(map(numerals.__getitem__, values))
        except (TypeError, ValueError, ParseError):
            pass
        else:
            if len(numerals) > known:
                added = [*islice(reversed(numerals.values()), len(numerals) - known)]
                seen.update({id(v): v for v in reversed(added)})
            return row
    cells = []
    try:
        for v in values:
            cells.append(numerals[v] if isinstance(v, str) or type(v) is int else as_rational(v))
    except (TypeError, ValueError, ParseError) as exc:  # v is cell len(cells)
        raise type(exc)(f"{where}[{len(cells)}]: {exc}") from None
    row = tuple(cells)
    seen.update(zip(map(id, row), row))
    return row


@dataclass(frozen=True)
class Instance:
    """A DSHP instance.

    n assets, m scenarios, sale budget k, first-stage values c (length n),
    scenario probabilities p (length m, summing to 1 exactly) and the
    second-stage value matrix f with f[i][j] = value of asset i under
    scenario j.  Values may be negative; probabilities may be zero.
    Assets and scenarios are 0-indexed everywhere, including file formats.
    Every cell of c, p and f is coerced once, here: each distinct numeral
    string is parsed once per instance, and every cell spelling it shares
    that Fraction, as does an int cell spelling it; any other cell goes
    through as_rational.  A cell refused raises TypeError, ParseError or
    (an int past the digit limit) ValueError naming it, e.g. "f[1][0]: ...".
    c and f share one numeral table and one record of their value objects,
    kept for the instance's lifetime, which distinct, integers and
    serialize_instance read; p has a table of its own, so a value spelled
    only in p is not one of the distinct values.  The record holds the
    objects, not their ids, so copy.deepcopy and pickle keep it right; the
    integer table, keyed by id, is left out of a copy's state and rebuilt
    on first use.  The record holds one reference per recorded object: one
    per distinct numeral of a parsed file, one per cell of an instance
    built from fresh Fractions.
    Then the invariant is checked: n, m >= 1, 0 <= k <= n, len(c) = len(f)
    = n, len(p) = len(f[i]) = m, p >= 0 and sum(p) = 1.  Breaking it, by
    dataclasses.replace too, raises InstanceError listing every violation,
    so no solver or command checks an Instance again.
    """

    n: int
    m: int
    k: int
    c: tuple[Fraction, ...]
    p: tuple[Fraction, ...]
    f: tuple[tuple[Fraction, ...], ...]
    label: str = ""

    def __post_init__(self):
        numerals, seen = _Numerals(), {}
        object.__setattr__(self, "c", _rationals(self.c, "c", numerals, seen))
        object.__setattr__(self, "p", _rationals(self.p, "p", _Numerals(), {}))
        object.__setattr__(
            self,
            "f",
            tuple([_rationals(row, f"f[{i}]", numerals, seen) for i, row in enumerate(self.f)]),
        )
        violations = _violations(self)
        if violations:
            raise InstanceError(violations)
        object.__setattr__(self, "_objects", tuple(seen.values()))

    @cached_property
    def distinct(self) -> tuple[Fraction, ...]:
        """Every distinct value in c or f, in order of first appearance.

        Built on first use from the value objects recorded while coercing,
        not from the cells: each object is keyed by its (numerator,
        denominator), since hashing a Fraction is slow.
        """
        objects = self._objects
        return tuple(dict(zip(map(Fraction.as_integer_ratio, objects), objects)).values())

    def __getstate__(self):
        """The state copy.deepcopy and pickle keep: all but the integer
        table, whose id keys name this instance's objects, not the copy's."""
        state = dict(vars(self))
        state.pop("integers", None)
        return state

    @cached_property
    def integers(self) -> IntegerTable:
        """The integer table of this instance, built on first use.

        Each recorded value object is scaled once and keyed by its id; no
        cell is read.
        """
        objects = self._objects
        scale = lcm(*{v.denominator for v in objects})
        ratios = map(Fraction.as_integer_ratio, objects)
        ints = dict(zip(map(id, objects), [n * (scale // d) for n, d in ratios]))
        pscale = lcm(*(v.denominator for v in self.p))
        weights = tuple(v.numerator * (pscale // v.denominator) for v in self.p)
        return IntegerTable(ints, weights, scale, pscale)


@dataclass(frozen=True)
class IntegerTable:
    """An instance's value objects as integers over common denominators.

    ints maps the id of each recorded value object v of c and f to v times
    scale; weights[j] is p_j times pscale.
    """

    ints: dict[int, int]
    weights: tuple[int, ...]
    scale: int
    pscale: int


def by_value(items, values) -> list[tuple]:
    """items grouped by their values (values[t] is the value of items[t]):
    (value, members) pairs, highest value first, members in item order.

    This is the greedy sale's selling rule: "value descending, ties to the
    lowest index" whenever items ascend (the exact search sorts its orders
    by the same rule).  Only the distinct values are sorted, so with d
    distinct values the cost is O(len(items) + d log d): linear on a
    two-valued column.
    """
    groups = defaultdict(list)
    for i, v in zip(items, values):
        groups[v].append(i)
    return sorted(groups.items(), reverse=True)


@dataclass(frozen=True)
class Solution:
    """A feasible plan: first-stage sold set, per-scenario sold lists, value.

    first_stage has at most k assets; every scenario list has exactly
    k - |first_stage| assets, disjoint from first_stage.  value is the exact
    objective the plan achieves.
    """

    first_stage: tuple[int, ...]
    second_stage: tuple[tuple[int, ...], ...]
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "first_stage", tuple(sorted(self.first_stage)))
        object.__setattr__(
            self, "second_stage", tuple(tuple(sorted(sel)) for sel in self.second_stage)
        )
        object.__setattr__(self, "value", as_rational(self.value))

    def as_dict(self) -> dict:
        """The JSON object of the solution file format."""
        return {
            "first_stage": list(self.first_stage),
            "second_stage": [list(sel) for sel in self.second_stage],
            "value": str(self.value),
        }


def _violations(instance: Instance) -> list[str]:
    """Every violated instance invariant, in a fixed order; an empty list means ok."""
    violations = []
    if instance.n < 1:
        violations.append(f"n must be >= 1, got {instance.n}")
    if instance.m < 1:
        violations.append(f"m must be >= 1, got {instance.m}")
    if instance.k < 0:
        violations.append(f"k must be >= 0, got {instance.k}")
    if instance.k > instance.n:
        violations.append(f"k > n (k={instance.k}, n={instance.n})")
    if len(instance.c) != instance.n:
        violations.append(f"c has {len(instance.c)} entries, expected n={instance.n}")
    if len(instance.p) != instance.m:
        violations.append(f"p has {len(instance.p)} entries, expected m={instance.m}")
    if len(instance.f) != instance.n:
        violations.append(f"f has {len(instance.f)} rows, expected n={instance.n}")
    for i, row in enumerate(instance.f):
        if len(row) != instance.m:
            violations.append(f"f[{i}] has {len(row)} entries, expected m={instance.m}")
    ratios = list(map(Fraction.as_integer_ratio, instance.p))
    negative = [j for j, (numerator, _) in enumerate(ratios) if numerator < 0]
    for j in negative:
        violations.append(f"p[{j}] = {instance.p[j]} is negative")
    if ratios and not negative:
        # the sum over the common denominator: one Fraction, for the message only
        scale = lcm(*(d for _, d in ratios))
        total = sum(numerator * (scale // d) for numerator, d in ratios)
        if total != scale:
            violations.append(f"probabilities sum to {Fraction(total, scale)}, not 1")
    return violations


def _check_plan(instance: Instance, first_stage, second_stage=None) -> tuple[int, ...]:
    """Raise SolutionError on the first structural violation of a (partial) plan.

    Checks the first stage and, when given, the per-scenario sold lists;
    returns the first stage as a tuple.
    """
    chosen = tuple(first_stage)
    first = set(chosen)
    if len(first) != len(chosen):
        raise SolutionError("first_stage contains duplicate assets")
    if len(chosen) > instance.k:
        raise SolutionError(
            f"first-stage budget |F| <= k violated: |F|={len(chosen)}, k={instance.k}"
        )
    for i in chosen:
        if not 0 <= i < instance.n:
            raise SolutionError(f"first-stage asset {i} out of range 0..{instance.n - 1}")
    if second_stage is None:
        return chosen
    if len(second_stage) != instance.m:
        raise SolutionError(
            f"second_stage has {len(second_stage)} scenario lists, expected m={instance.m}"
        )
    for j, sel in enumerate(second_stage):
        if len(set(sel)) != len(sel):
            raise SolutionError(f"second_stage[{j}] contains duplicate assets")
        if len(first) + len(sel) != instance.k:
            raise SolutionError(
                f"budget constraint sum(x) + sum(y) = k violated in scenario {j}: "
                f"{len(first)} + {len(sel)} != {instance.k}"
            )
        for i in sel:
            if not 0 <= i < instance.n:
                raise SolutionError(
                    f"second_stage[{j}] asset {i} out of range 0..{instance.n - 1}"
                )
            if i in first:
                raise SolutionError(
                    f"constraint x_i + y_ij <= 1 violated: asset {i} sold at both stages "
                    f"(scenario {j})"
                )
    return chosen


def complete_first_stage(instance: Instance, first_stage: Iterable[int]) -> Solution:
    """The optimal plan for a fixed first-stage set F: every solver's plan.

    With F fixed, each scenario independently sells the k - |F| most
    valuable remaining assets (ties to the lowest index); the continuous
    relaxation of that per-scenario subproblem has an integral optimum, so
    this greedy is exact.  F, any iterable, is read once and checked; a
    first stage with duplicates, out-of-range assets or more than k assets
    raises SolutionError.  Only the held rows, those of the assets not in
    F, are mapped through instance.integers and transposed.  Each scenario
    groups its held column by_value once, then sells whole value groups,
    highest first, the last one cut to its lowest-indexed members, until
    k - |F| assets are sold, and sums each group it sells as value times
    count.  That is the first k - |F| assets of the scenario's selling
    order (every asset, value descending, ties to the lowest index) with F
    left out, and that order is never built here.  With |F| = k nothing is
    left to sell, and no row is mapped.

    pscale times F's first-stage integers and each scenario's weighted
    revenue add up to one integer, the plan's value times scale * pscale,
    and the plan gets the one Fraction of it.  The sold lists stay in
    selling order: Solution index-sorts every list once.
    """
    chosen = _check_plan(instance, first_stage)
    table, need = instance.integers, instance.k - len(chosen)
    ints = table.ints.__getitem__
    # the plan's value times scale * pscale
    total = table.pscale * sum(map(ints, map(id, map(instance.c.__getitem__, chosen))))
    if not need:
        return Solution(chosen, ((),) * instance.m, Fraction(total, table.scale * table.pscale))
    first, f = set(chosen), instance.f
    held = list(filterfalse(first.__contains__, range(instance.n)))
    columns = zip(*[map(ints, map(id, f[i])) for i in held])
    selections = []
    for weight, column in zip(table.weights, columns):
        sold, revenue = [], 0
        for value, members in by_value(held, column):
            members = members[: need - len(sold)]
            sold += members
            revenue += value * len(members)
            if len(sold) == need:
                break
        total += weight * revenue
        selections.append(sold)
    return Solution(chosen, selections, Fraction(total, table.scale * table.pscale))


def _sum_by_object(cells: list[Fraction]) -> Fraction:
    """The exact sum of cells: each value object's count times its value."""
    ids = list(map(id, cells))
    objects = dict(zip(ids, cells))
    return sum((count * objects[key] for key, count in Counter(ids).items()), Fraction(0))


def evaluate(instance: Instance, solution: Solution) -> Fraction:
    """Exact objective of a solution; raises SolutionError on structural violations.

    The returned value is recomputed from scratch in Fractions, so callers
    can compare it against solution.value (check_solution does exactly
    that).  The first stage, and each scenario's sale, counts its cells per
    value object and adds count times value, one Fraction product per
    object, never reading the integer table.
    """
    _check_plan(instance, solution.first_stage, solution.second_stage)
    c, f = instance.c, instance.f
    total = _sum_by_object([c[i] for i in solution.first_stage])
    for j, (pj, sel) in enumerate(zip(instance.p, solution.second_stage)):
        total += pj * _sum_by_object([f[i][j] for i in sel])
    return total


def check_solution(instance: Instance, solution: Solution) -> list[str]:
    """All constraint violations of a solution, including a stale stored value."""
    try:
        recomputed = evaluate(instance, solution)
    except SolutionError as exc:
        return [str(exc)]
    if recomputed != solution.value:
        return [f"stored value {solution.value} != recomputed value {recomputed}"]
    return []


# --- instance / solution file formats (JSON, exact numeric strings) ---


class _Literal(str):
    """A bare JSON number's literal text, never a float, told apart from a JSON string."""


def _bare_integer(literal: str):
    """parse_int hook: the int; one past the digit limit stays text for Instance to name."""
    try:
        return int(literal)
    except ValueError:
        return _Literal(literal)


def _loads(text: str, what: str) -> dict:
    """The JSON object of text, a bare number other than an int kept as its literal text.

    Ints stay ints: a hook call per integer nearly doubles parse_solution's time.
    """
    try:
        try:
            obj = json.loads(text, parse_float=_Literal)
        except json.JSONDecodeError:
            raise
        except ValueError:
            # An integer literal past the digit limit; only then is the int hook on.
            obj = json.loads(text, parse_float=_Literal, parse_int=_bare_integer)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed {what}: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"malformed {what}: expected a JSON object")
    return obj


def _require_int(obj: dict, key: str) -> int:
    if key not in obj:
        raise ParseError(f"missing field {key!r}")
    raw = obj[key]
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ParseError(f"{key}: expected an integer, got {raw!r}")
    return raw


def parse_instance(text: str) -> Instance:
    """Parse the JSON instance format; Instance coerces the cells and checks the invariant."""
    obj = _loads(text, "instance")
    n = _require_int(obj, "n")
    m = _require_int(obj, "m")
    k = _require_int(obj, "k")
    for key in ("c", "p", "f"):
        if key not in obj:
            raise ParseError(f"missing field {key!r}")
        if not isinstance(obj[key], list):
            raise ParseError(f"{key}: expected an array")
    c, p, f = obj["c"], obj["p"], obj["f"]
    label = obj.get("label", "")
    if type(label) is not str:
        raise ParseError(f"label: expected a string, got {label!r}")
    for i, row in enumerate(f):
        if not isinstance(row, list):
            raise ParseError(f"f[{i}]: expected an array (row of asset {i})")
    try:
        return Instance(n=n, m=m, k=k, c=c, p=p, f=f, label=label)
    except TypeError as exc:  # a cell that is no numeral; the message names it
        raise ParseError(str(exc)) from None


def serialize_instance(instance: Instance) -> str:
    """Inverse of parse_instance: parse(serialize(I)) == I field for field.

    Each value object in the instance's record is written with str() once,
    keyed by id as in Instance.integers; the cells then look their text up in C.
    """
    texts = {id(v): str(v) for v in instance._objects}.__getitem__
    obj = {
        "n": instance.n,
        "m": instance.m,
        "k": instance.k,
        "c": list(map(texts, map(id, instance.c))),
        "p": [str(v) for v in instance.p],
        "f": [list(map(texts, map(id, row))) for row in instance.f],
    }
    if instance.label:
        obj["label"] = instance.label
    return json.dumps(obj)


def _parse_index_array(raw, where: str) -> tuple[int, ...]:
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected an array")
    for v in raw:
        if type(v) is not int:
            raise ParseError(f"{where}: expected integer asset indices, got {v!r}")
    return tuple(raw)


def parse_solution(text: str) -> Solution:
    obj = _loads(text, "solution")
    for key in ("first_stage", "second_stage", "value"):
        if key not in obj:
            raise ParseError(f"missing field {key!r}")
    first = _parse_index_array(obj["first_stage"], "first_stage")
    if not isinstance(obj["second_stage"], list):
        raise ParseError("second_stage: expected an array of arrays")
    second = tuple(
        _parse_index_array(sel, f"second_stage[{j}]")
        for j, sel in enumerate(obj["second_stage"])
    )
    try:
        return Solution(first, second, obj["value"])
    except (TypeError, ParseError) as exc:
        raise ParseError(f"value: {exc}") from None


def serialize_solution(solution: Solution) -> str:
    """The solution file's text: json.dumps(solution.as_dict()) byte for byte.

    Each distinct index is written with str() once, in a table keyed by the
    index, and every list is joined from that table with ", ".  The value
    is a Fraction numeral, which no JSON string escape touches.  So no
    string in the text holds a space, and the text without its spaces is
    the plan's compact JSON: the CLI's solve report splices it in.
    """
    first, second = solution.first_stage, solution.second_stage
    numerals = {i: str(i) for i in set().union(first, *second)}.__getitem__
    lists = ", ".join([f"[{', '.join(map(numerals, sold))}]" for sold in second])
    return (
        f'{{"first_stage": [{", ".join(map(numerals, first))}], '
        f'"second_stage": [{lists}], "value": "{solution.value}"}}'
    )
