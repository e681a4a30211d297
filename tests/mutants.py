"""Mutation gate: every listed mutant of the package must fail its tests.

    python tests/mutants.py

Each mutant is a file, an exact text substitution and the test ids expected
to fail.  The script copies src/, tests/ and pyproject.toml into a temporary
directory, and for each mutant writes the substituted file there, runs pytest
on its test ids alone and restores the file.  A mutant is caught when pytest
reports failed tests (exit code 1).  Before the first mutant, the union of
the listed test ids runs once on the unmodified copy; if any of them fails
there, the script names them and exits 1, since a test that fails unmutated
catches every mutant.  The script also exits 1 when a substitution
no longer matches its file exactly once, when a mutant survives, or when its
run ends any other way (a collection error, say).  It is not part of tier-1:
it starts one pytest process per mutant, each stopping at its first failure.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = "src/dshp/exact.py"
MODEL = "src/dshp/model.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


def tests_in(module: str, *names: str) -> tuple[str, ...]:
    return tuple(f"tests/{module}.py::{name}" for name in names)


def exact_tests(*names: str) -> tuple[str, ...]:
    return tests_in("test_exact", *names)


def model_tests(*names: str) -> tuple[str, ...]:
    return tests_in("test_model", *names)


# pytest runs ids in the order given and -x stops at the first failure, so
# the seeded tests come before the hypothesis ones, which shrink what fails.
HOLD_ONE_PLANS = exact_tests(
    "test_reduction_plan_on_the_bench_shapes",
    "test_hold_one_search_returns_first_optimum_by_enumeration",
)

MUTANTS = (
    Mutant(
        "held-set search: held tried before sold",
        EXACT,
        """            visit(q + 1, t, cost, mins)  # pool[q] sold
            i = pool[q]
            row = values[i]
            path.append(i)
            visit(q + 1, t - 1, cost + net[i],
                  row if mins is None else [x if x < v else v for x, v in zip(mins, row)])
            path.pop()
""",
        """            i = pool[q]
            row = values[i]
            path.append(i)
            visit(q + 1, t - 1, cost + net[i],
                  row if mins is None else [x if x < v else v for x, v in zip(mins, row)])
            path.pop()
            visit(q + 1, t, cost, mins)  # pool[q] sold
""",
        HOLD_ONE_PLANS,
    ),
    Mutant(
        "held-set search: last pick in ascending order",
        EXACT,
        "for i in reversed(pool[q:]):",
        "for i in pool[q:]:",
        HOLD_ONE_PLANS,
    ),
    Mutant(
        "held-set search: <= in the same-level replace",
        EXACT,
        "if total < best or (total == best and best_level < level):",
        "if total <= best or (total == best and best_level < level):",
        HOLD_ONE_PLANS,
    ),
    Mutant(
        "held-set search: level loop stops at >=",
        EXACT,
        "if spread(0, level, self.cost, self.mins) > best:",
        "if spread(0, level, self.cost, self.mins) >= best:",
        exact_tests(
            "test_deterministic_tie_break_prefers_smaller_first_stage",
            "test_hold_one_search_returns_first_optimum_by_enumeration",
        ),
    ),
    Mutant(
        "held-set search: bound (b) without max(0, .)",
        EXACT,
        "net[i] - sum([x - v for x, v in zip(mins, values[i]) if x > v])",
        "net[i] - sum([x - v for x, v in zip(mins, values[i])])",
        exact_tests(
            "test_every_bound_the_hold_one_search_takes_is_sound_and_its_definition",
            "test_reduction_plan_on_the_bench_shapes",
        ),
    ),
    Mutant(
        "held-set search: bound (a) with t - 1 nets",
        EXACT,
        "return cost + self.cheapest[q][t] + sum(lows)",
        "return cost + self.cheapest[q][t - 1] + sum(lows)",
        HOLD_ONE_PLANS,
    ),
    Mutant(
        "prune: s_j as the (r+1)-th lowest",
        EXACT,
        "floors = [sorted(column)[hold - 1] for column in self.columns]",
        "floors = [sorted(column)[min(hold, len(column) - 1)] for column in self.columns]",
        exact_tests(
            "test_selling_a_pruned_asset_first_always_loses",
            "test_prunable_drops_more_than_the_plain_rule_at_a_hold_of_two",
        ),
    ),
    Mutant(
        "prune: max(f_ij, s_j) replaced by s_j",
        EXACT,
        "worth = [sum([v if v > s else s for v, s in zip(row, floors)]) for row in values]",
        "worth = [sum([s for v, s in zip(row, floors)]) for row in values]",
        exact_tests("test_selling_a_pruned_asset_first_always_loses"),
    ),
    Mutant(
        "tune keeps the last priced alpha",
        EXACT,
        "        self.root, self.multipliers, self.free, self.tail = best\n",
        "",
        exact_tests(
            "test_tables_tune_the_multipliers_as_the_sorted_scan",
            "test_tables_tune_the_multipliers_as_the_sorted_scan_on_the_bench_shapes",
        ),
    ),
    Mutant(
        "first-stage search: an equal later set of one size replaces the best",
        EXACT,
        "(total == best_total and depth < len(best_first))",
        "(total == best_total and depth <= len(best_first))",
        exact_tests("test_search_past_enumeration_returns_the_held_set_oracle_plan"),
    ),
    Mutant(
        "by_value: ties to the highest index",
        MODEL,
        "        groups[v].append(i)\n",
        "        groups[v].insert(0, i)\n",
        model_tests("test_by_value_is_value_descending_ties_to_lowest_index")
        + tests_in("test_golden", "test_golden[solve-two-value]"),
    ),
    Mutant(
        "by_value: every item sorted (same groups)",
        MODEL,
        "    for i, v in zip(items, values):\n",
        "    for i, v in sorted(zip(items, values)):\n",
        model_tests("test_the_sale_sorts_only_the_distinct_held_values"),
    ),
    Mutant(
        "sale: a group summed as its value only",
        MODEL,
        "revenue += value * len(members)",
        "revenue += value",
        exact_tests("test_constant_values")
        + model_tests("test_greedy_matches_brute_force_on_random_instances"),
    ),
    Mutant(
        "sale: the last group not cut",
        MODEL,
        "            members = members[: need - len(sold)]\n",
        "",
        exact_tests("test_constant_values")
        + model_tests("test_greedy_matches_brute_force_on_random_instances"),
    ),
    Mutant(
        "plan value: F's integers not times pscale",
        MODEL,
        "total = table.pscale * sum(",
        "total = sum(",
        model_tests("test_full_first_stage_leaves_nothing_to_sell")
        + tests_in("test_acceptance", "test_criterion_3_tightness"),
    ),
    Mutant(
        "evaluate adds each value object once",
        MODEL,
        "sum((count * objects[key] for",
        "sum((objects[key] for",
        model_tests(
            "test_evaluate_octahedron_dominating_plan_value",
            "test_evaluate_equals_the_per_cell_fraction_sum",
        ),
    ),
    Mutant(
        "no Instance.__getstate__: a copy keeps the integer table",
        MODEL,
        "    def __getstate__(self):",
        "    def _getstate(self):",
        model_tests("test_an_instance_with_one_view_copies_with_its_record"),
    ),
    Mutant(
        "Solution keeps the sale's order",
        MODEL,
        "tuple(tuple(sorted(sel)) for sel in self.second_stage)",
        "tuple(tuple(sel) for sel in self.second_stage)",
        tests_in("test_approx", "test_no_qualifying_first_stage_assets")
        + tests_in("test_golden", "test_bulk_inputs_and_solutions_are_pinned[three-150]")
        + model_tests("test_completion_sells_the_selling_order_without_the_first_stage"),
    ),
    Mutant(
        "numeral fast path drops the sign",
        MODEL,
        "return Fraction(int(whole), int(denominator)) if slash else Fraction(int(whole))",
        "return Fraction(int(digits), int(denominator)) if slash else Fraction(int(digits))",
        model_tests("test_plain_numerals_parse_as_fraction_reads_them")
        + tests_in("test_boundary", "test_cell_forms_parse_to_the_same_fractions"),
    ),
)


def pytest(copy: Path, *args: str) -> subprocess.CompletedProcess:
    """pytest run quietly in copy on its own src/."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=copy, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    )


def baseline(copy: Path) -> list[str]:
    """Every listed test id that does not pass on the unmutated copy, in one run.

    A test that fails already would count every mutant listing it as caught.
    """
    proc = pytest(copy, "-rfE", *dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
    if proc.returncode == 0:
        return []
    failing = [line.split()[1] for line in proc.stdout.splitlines()
               if line.startswith(("FAILED ", "ERROR "))]
    return failing or [f"pytest exit code {proc.returncode}: {(proc.stderr + proc.stdout).strip()}"]


def run(mutant: Mutant, copy: Path) -> str:
    """Apply mutant in copy, run its tests, restore the file; the verdict."""
    target = copy / mutant.path
    original = target.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        return f"unmatched ({original.count(mutant.old)} matches)"
    target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        proc = pytest(copy, "-x", *mutant.tests)
    finally:
        target.write_text(original, encoding="utf-8")
    return {0: "survived", 1: "caught"}.get(proc.returncode, f"pytest exit code {proc.returncode}")


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        started = time.perf_counter()
        failing = baseline(copy)
        if failing:
            print("listed tests fail unmutated:", *failing, sep="\n  ")
            return 1
        print(f"baseline: every listed test passes ({time.perf_counter() - started:.1f} s)")
        for mutant in MUTANTS:
            started = time.perf_counter()
            verdict = run(mutant, copy)
            failed += verdict != "caught"
            print(f"{verdict:>10}  {mutant.name}  ({time.perf_counter() - started:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
