"""Golden corpus: CLI output must stay byte-identical, wall_time_ms aside.

Each case runs `dshp` in-process on the committed files in tests/golden/inputs
and compares its exit code, stdout, stderr and any --solution-out file with
the recorded ones in tests/golden/expected.  A change that is meant to alter
output regenerates the corpus with `PYTHONPATH=src python tests/test_golden.py`
and says so.
"""

import contextlib
import hashlib
import io
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

import dshp.cli
from dshp.cli import gen_random_instance, main
from dshp.model import serialize_instance

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

# name -> argv; "{inputs}" is tests/golden/inputs and "{out}" the case's --solution-out file.
SOLVE = ["solve", "--solution-out", "{out}", "--algo"]
CHECK_REDUCTION = [
    "check", "reduction", "--graph", "{inputs}/graph.txt", "--instance", "{inputs}/reduction.json",
]
CASES = {
    "solve-exact-any": SOLVE + ["exact", "--instance", "{inputs}/any.json"],
    "solve-exact-two": SOLVE + ["exact", "--instance", "{inputs}/two.json"],
    "solve-exact-reduction": SOLVE + ["exact", "--instance", "{inputs}/reduction.json"],
    "solve-exact-tight-pretty": [
        "solve", "--algo", "exact", "--instance", "{inputs}/tight.json", "--pretty",
    ],
    "solve-two-value": SOLVE + ["two-value", "--instance", "{inputs}/two.json"],
    "solve-two-value-top": SOLVE + ["two-value", "--instance", "{inputs}/two_top.json"],
    "solve-two-value-degenerate": SOLVE + ["two-value", "--instance", "{inputs}/one.json"],
    "solve-two-value-mismatch": SOLVE + ["two-value", "--instance", "{inputs}/three.json"],
    "solve-approx-three": SOLVE + ["approx", "--instance", "{inputs}/three.json"],
    "solve-approx-tight": SOLVE + ["approx", "--instance", "{inputs}/tight.json"],
    "compare-three": ["compare", "--instance", "{inputs}/three.json"],
    "compare-tight": ["compare", "--instance", "{inputs}/tight.json"],
    "check-solution-pass": [
        "check", "solution", "--instance", "{inputs}/any.json",
        "--solution", "{inputs}/any_solution.json",
    ],
    "check-solution-fail": [
        "check", "solution", "--instance", "{inputs}/any.json",
        "--solution", "{inputs}/any_bad_solution.json",
    ],
    "check-reduction-pass": CHECK_REDUCTION + ["--solution", "{inputs}/reduction_solution.json"],
    "check-reduction-fail": CHECK_REDUCTION + ["--solution", "{inputs}/reduction_suboptimal.json"],
}

WALL_TIME = re.compile(r'\s*"wall_time_ms": ?\d+,')


def run_case(argv: list[str], out_path: Path | None = None) -> dict:
    """Run dshp on argv, "{inputs}" and "{out}" filled in; return its exit
    code, stdout, stderr and the text of out_path, if written."""
    argv = [arg.format(inputs=INPUTS, out=out_path) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {
        "exit": code,
        "out": WALL_TIME.sub("", stdout.getvalue()),
        "err": stderr.getvalue(),
        "sol": out_path.read_text() if out_path and out_path.exists() else None,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    got = run_case(CASES[name], tmp_path / "solution.json")
    codes = json.loads((EXPECTED / "exit_codes.json").read_text())
    assert got["exit"] == codes[name]
    assert got["out"] == (EXPECTED / f"{name}.out").read_text()
    err = EXPECTED / f"{name}.err"
    assert got["err"] == (err.read_text() if err.exists() else "")
    sol = EXPECTED / f"{name}.sol"
    assert got["sol"] == (sol.read_text() if sol.exists() else None)


RANDOM_LABEL = re.compile(r"random\(n=(\d+),m=(\d+),k=(\d+),values=(\w+),seed=(\d+)\)")


@pytest.mark.parametrize("name", ["any", "two", "three", "two_top"])
def test_random_inputs_regenerate_byte_for_byte(name):
    """The seeded generator, which the bench's inputs also come from, still
    writes these committed inputs exactly as `dshp gen random` did."""
    text = (INPUTS / f"{name}.json").read_text()
    n, m, k, values, seed = RANDOM_LABEL.fullmatch(json.loads(text)["label"]).groups()
    instance = gen_random_instance(int(n), int(m), int(k), values, int(seed))
    assert serialize_instance(instance) + "\n" == text


# sha256 of serialize_instance(gen_random_instance(150, 100, 135, values, seed)),
# the bench's bulk shape: a change to the generator's draw stream, or to how
# an instance is written, changes them.
STREAM = {
    ("2", 1): "9dc0916fcea4456213b725e6cead2361cb6725a1af03caeea761336a3c76871d",
    ("2", 2): "66ce5a75284802ffde5446373283c24c4e00def208004ea132a096d14a765e0a",
    ("3", 1): "bdb552b92fdf3163574432a7a9f3f1ca9434adbbbff444759c53554bb94cd994",
    ("3", 2): "492fe77a971d12382ee3f8417d0e03e041568a5ad287255dfde2f5e19293796d",
    ("any", 1): "7ce74ff73921c20e91eb2b261e0a46d56cfcdc5de1dd1af76122093072e9844e",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("values, seed", sorted(STREAM))
def test_the_generator_draw_stream_is_pinned(values, seed):
    text = serialize_instance(gen_random_instance(150, 100, 135, values, seed))
    assert digest(text) == STREAM[values, seed]


def test_the_generator_draw_stream_holds_through_retries(monkeypatch):
    # n=1, m=2 with three values has 3 cells per attempt; seed 0 takes 7
    # attempts before every value appears
    made = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(dshp.cli, "random", SimpleNamespace(Random=Recording))
    instance = gen_random_instance(1, 2, 1, "3", 0)
    # a reference generator replays the stream with one rng.choice per cell:
    # the value set, 7 attempts of 3 cells, then the weights
    reference = random.Random(0)

    def rand_rational(lo, hi):
        den = reference.randint(1, 4)
        return Fraction(reference.randint(lo * den, hi * den), den)

    while len(pool := {rand_rational(0, 6) for _ in range(3)}) < 3:
        pass
    numerals = [str(v) for v in sorted(pool)]
    attempts = [[reference.choice(numerals) for _ in range(3)] for _ in range(7)]
    while not any([reference.randint(0, 8) for _ in range(2)]):
        pass
    assert [len(set(cells)) == 3 for cells in attempts] == [False] * 6 + [True]
    assert [rng.getstate() for rng in made] == [reference.getstate()]
    assert attempts[-1] == [str(instance.c[0])] + [str(v) for v in instance.f[0]]
    text = serialize_instance(instance)
    assert digest(text) == "f3f8ba8998ac6598b480ed6f624685b20746ec343ce758643152c2f6a43c81b6"
    assert instance.c == (Fraction(16, 3),)
    assert instance.f == ((Fraction(1, 4), Fraction(6)),)


@example(size=2, seed=0, count=dshp.cli._BLOCK_WORDS + 1)
@example(size=3, seed=0, count=0)
@given(
    size=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**64),
    count=st.integers(0, dshp.cli._BLOCK_WORDS + 64),
)
def test_block_draws_equal_one_choice_per_cell(size, seed, count):
    # counts past _BLOCK_WORDS read the stream in more than one capped block
    reference = random.Random(seed)
    expected = bytes(reference.choice(range(size)) for _ in range(count))
    rng = random.Random(seed)
    assert dshp.cli._draw_indices(rng, size, count) == expected
    assert rng.getstate() == reference.getstate()


# End-to-end pins: commands chained in a temporary directory, as from a shell; each pins
# exit codes, report fields or the sha256 of the files it writes.
@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def run_ok(argv: list[str], to: str | None = None) -> str:
    """run_case for a command that must exit 0; its stdout, also written to the file `to`."""
    got = run_case(argv)
    assert got["exit"] == 0, got["err"]
    if to:
        Path(to).write_text(got["out"])
    return got["out"]


@pytest.mark.parametrize("n, d", [("6", "4"), ("16", "3"), ("20", "4"), ("24", "4"), ("28", "3")])
def test_reduction_round_trip_end_to_end(n, d, workdir):
    cap = ["--max-n", "28"] if n == "28" else []  # past the default cap
    run_ok(["gen", "graph", "--n", n, "--d", d, "--seed", "1"], "g.txt")
    text = run_ok(["gen", "reduction", "--graph", "g.txt"], "inst.json")
    report = run_ok(["solve", "--algo", "exact", *cap, "--instance", "inst.json",
                     "--solution-out", "sol.json"])
    run_ok(["check", "reduction", *cap, "--graph", "g.txt", "--instance", "inst.json",
            "--solution", "sol.json"])
    if n == "16":
        assert digest(text) == "98bef8209d28a20579b7ee8200efe5c13ec57ae8251be35bf7244152947151d3"
        assert '"pruned_assets":0' in report


def test_two_valued_exact_past_the_cap_earns_the_two_value_objective(workdir):
    run_ok(["gen", "random", "--n", "36", "--m", "32", "--k", "18", "--values", "2", "--seed", "1"],
           "two.json")
    exact = run_ok(["solve", "--algo", "exact", "--max-n", "36", "--instance", "two.json"])
    two = run_ok(["solve", "--algo", "two-value", "--instance", "two.json"])
    assert json.loads(exact)["objective"] == json.loads(two)["objective"]


@pytest.mark.parametrize("k", ["12", "24", "0"])
def test_any_valued_exact_plans_check(k, workdir):
    text = run_ok(["gen", "random", "--n", "24", "--m", "32", "--k", k, "--values", "any",
                   "--seed", "1"], "any.json")
    run_ok(["solve", "--algo", "exact", "--instance", "any.json", "--solution-out", "sol.json"])
    run_ok(["check", "solution", "--instance", "any.json", "--solution", "sol.json"])
    if k == "12":
        assert digest(text) == "ef5dce8889ee074c3331ca8c52bf6a8c642ceb54899e1a63f0a8b8bece49db15"


@pytest.mark.parametrize(
    "n, values, instance_pin, solution_pin",
    [
        # STREAM pins the 150x100 inputs, less print's newline
        ("150", "2", None, "002a8e095152bc7babe6f0c0336361ac23619f0c4c091f5db3191d9af411c20a"),
        ("150", "3", None, "12b3b2c21c7ff99b717645c0373e10a7bb201f015fb9a2312b377f3407106a6c"),
        ("2000", "2", "dd071ea666f4ee8d6f7ca53bbab3ad1581a1ec482d6a185d5501e5ad1ec18f34",
         "33c2539ed66a258265c5b951fac14c5d9eed602441198f1e16c64704bd20ada1"),
        ("2000", "3", "7cea98676cbe80cc4ac5f0f2b85aea94bef7736278bd0201eaeddb5ed4fe44cd",
         "6171f1e5c821078a420c452770216f50c3df5bc77d080c135603bf285d62aacc"),
    ],
    ids=["two-150", "three-150", "two-2000", "three-2000"],
)
def test_bulk_inputs_and_solutions_are_pinned(n, values, instance_pin, solution_pin, workdir):
    m, k = ("100", "135") if n == "150" else ("500", "1800")
    text = run_ok(["gen", "random", "--n", n, "--m", m, "--k", k, "--values", values,
                   "--seed", "1"], "inst.json")
    assert instance_pin is None or digest(text) == instance_pin
    algo = "two-value" if values == "2" else "approx"
    run_ok(["solve", "--algo", algo, "--instance", "inst.json", "--solution-out", "sol.json"])
    assert digest(Path("sol.json").read_text()) == solution_pin
    if n == "150":  # checking an n = 2000 plan costs more than solving it; its pin stands
        run_ok(["check", "solution", "--instance", "inst.json", "--solution", "sol.json"])


@pytest.mark.parametrize("name, field", [("one", '"degenerate":true'), ("halves", '"v_min":"1/2"')])
def test_single_valued_and_respelled_inputs_are_two_valued(name, field, workdir):
    # two-value solves them and its plan checks; approx refuses them with 3
    instance = ["--instance", f"{{inputs}}/{name}.json"]
    assert field in run_ok(["solve", "--algo", "two-value", *instance, "--solution-out", "s.json"])
    run_ok(["check", "solution", *instance, "--solution", "s.json"])
    assert run_case(["solve", "--algo", "approx", *instance])["exit"] == 3


def test_bare_and_quoted_numbers_give_one_report(workdir):
    rng = random.Random(1)
    c = [rng.choice(["0.5", "2", "1.25"]) for _ in range(150)]
    f = [[rng.choice(["0.5", "2", "1.25"]) for _ in range(100)] for _ in range(150)]
    obj = {"n": 150, "m": 100, "k": 135, "c": c, "p": ["0.01"] * 100, "f": f, "label": "spelled"}
    text = json.dumps(obj)
    Path("quoted.json").write_text(text)
    Path("bare.json").write_text(re.sub(r'"([0-9.]+)"', r"\1", text))
    bare, quoted = [run_ok(["solve", "--algo", "approx", "--instance", f"{name}.json",
                            "--solution-out", f"{name}-sol.json"]) for name in ("bare", "quoted")]
    assert bare == quoted
    run_ok(["check", "solution", "--instance", "bare.json", "--solution", "bare-sol.json"])


def regenerate() -> None:
    import tempfile

    EXPECTED.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(CASES):
            got = run_case(CASES[name], Path(scratch) / f"{name}.json")
            codes[name] = got["exit"]
            (EXPECTED / f"{name}.out").write_text(got["out"])
            for key in ("err", "sol"):
                path = EXPECTED / f"{name}.{key}"
                if got[key]:
                    path.write_text(got[key])
                else:
                    path.unlink(missing_ok=True)
    (EXPECTED / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
