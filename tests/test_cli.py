"""CLI surface: exit codes, report shapes, determinism of emitted files."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dshp import (
    Graph,
    Instance,
    Solution,
    build_reduction,
    default_params,
    detect_three_values,
    detect_two_values,
    gen_regular_graph,
    gen_tightness,
    parse_graph,
    parse_instance,
    serialize_instance,
    serialize_solution,
    solve_exact,
)
from dshp import cli
from dshp.cli import main

from conftest import dominating_plan, octahedron


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_tightness(tmp_path, capsys, triple=("0", "1", "2")):
    code, out = run(capsys, "gen", "tightness", "--vs", triple[0], "--vm", triple[1], "--vl", triple[2])
    assert code == 0
    path = tmp_path / "tight.json"
    path.write_text(out)
    return path


def test_solve_exact_on_tightness(tmp_path, capsys):
    path = write_tightness(tmp_path, capsys)
    code, out = run(capsys, "solve", "--algo", "exact", "--instance", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["objective"] == "2"
    assert report["solution"]["value"] == "2"
    assert report["solution"]["first_stage"] == []
    assert report["algorithm"] == "exact"
    assert "wall_time_ms" in report


def test_solve_approx_on_tightness(tmp_path, capsys):
    path = write_tightness(tmp_path, capsys)
    code, out = run(capsys, "solve", "--algo", "approx", "--instance", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["objective"] == "1"
    assert report["extras"]["guarantee"] == "1/2"


@pytest.mark.parametrize("argv", [("solve", "--algo", "approx"), ("compare",)])
def test_approx_requests_classify_the_instance_once(argv, tmp_path, capsys, monkeypatch):
    import dshp.approx

    calls = []

    def counted(instance):
        calls.append(instance)
        return detect_three_values(instance)

    monkeypatch.setattr(cli, "detect_three_values", counted)
    monkeypatch.setattr(dshp.approx, "detect_three_values", counted)
    path = write_tightness(tmp_path, capsys)
    code, _ = run(capsys, *argv, "--instance", str(path))
    assert code == 0
    assert len(calls) == 1


def test_two_value_requests_classify_the_instance_once(tmp_path, capsys, monkeypatch):
    import dshp.two_value

    calls = []

    def counted(instance):
        calls.append(instance)
        return detect_two_values(instance)

    monkeypatch.setattr(cli, "detect_two_values", counted)
    monkeypatch.setattr(dshp.two_value, "detect_two_values", counted)
    path = tmp_path / "two.json"
    path.write_text(serialize_instance(cli.gen_random_instance(6, 3, 4, "2", 5)))
    code, _ = run(capsys, "solve", "--algo", "two-value", "--instance", str(path))
    assert code == 0
    assert len(calls) == 1


def test_solve_two_value_domain_mismatch(tmp_path, capsys):
    path = write_tightness(tmp_path, capsys)
    code, _ = run(capsys, "solve", "--algo", "two-value", "--instance", str(path))
    assert code == 3


def test_missing_file_is_io_error(capsys):
    code, _ = run(capsys, "solve", "--algo", "exact", "--instance", "/nonexistent.json")
    assert code == 4


def test_invalid_instance_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "m": 1, "k": 3, "c": ["1", "1"], "p": ["1"], "f": [["1"], ["1"]]}')
    code, _ = run(capsys, "solve", "--algo", "exact", "--instance", str(bad))
    assert code == 2


def test_gen_random_two_valued(capsys):
    code, out = run(capsys, "gen", "random", "--n", "5", "--m", "3", "--k", "2",
                    "--values", "2", "--seed", "11")
    assert code == 0
    inst = parse_instance(out)
    detect_two_values(inst)  # must classify cleanly


def test_gen_reduction_budget(tmp_path, capsys):
    code, out = run(capsys, "gen", "graph", "--n", "6", "--d", "4", "--seed", "2")
    assert code == 0
    gpath = tmp_path / "g.txt"
    gpath.write_text(out)
    code, out = run(capsys, "gen", "reduction", "--graph", str(gpath))
    assert code == 0
    inst = parse_instance(out)
    assert inst.k == 5
    assert inst.n == inst.m == 6


@pytest.mark.parametrize(
    "overrides, values",
    [
        ([], ("1/2", "1", "11/4")),  # defaults: B = 1/2, S at the window midpoint 7/4
        (["--B", "1/4", "--S", "3/4"], ("3/4", "1", "7/4")),
        (["--B", "2/5"], ("3/5", "1", "11/4")),
        (["--S", "3/2"], ("1/2", "1", "5/2")),
    ],
)
def test_gen_reduction_value_overrides(overrides, values, tmp_path, capsys):
    from dshp import serialize_graph

    gpath = tmp_path / "octa.txt"
    gpath.write_text(serialize_graph(octahedron()))  # window 2 < S/B < 5
    code, out = run(capsys, "gen", "reduction", "--graph", str(gpath), *overrides)
    assert code == 0
    profile = detect_three_values(parse_instance(out))
    assert (profile.low, profile.mid, profile.high) == tuple(map(Fraction, values))


def test_gen_reduction_rejects_ratio_outside_window(tmp_path, capsys):
    from dshp import serialize_graph

    gpath = tmp_path / "octa.txt"
    gpath.write_text(serialize_graph(octahedron()))
    code = main(["gen", "reduction", "--graph", str(gpath), "--B", "1/2", "--S", "1/2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ratio window violated: need 2 < S/B = 1 < 5")


@pytest.mark.parametrize(
    "text, error",
    [
        ("3 2\n0 1\n1 2\n", "graph is not regular"),
        ("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
         "empty ratio window: need 0 <= degree < n-1, got degree=3, n=4"),
    ],
    ids=["irregular", "complete"],
)
def test_gen_reduction_refuses_with_the_premise_error(text, error, tmp_path, capsys):
    # The same words build_reduction and check reduction use, also with --B.
    gpath = tmp_path / "g.txt"
    gpath.write_text(text)
    for overrides in ([], ["--B", "1/4"]):
        code = main(["gen", "reduction", "--graph", str(gpath), *overrides])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 1, 0, "any", 1), "need n >= 1 and m >= 1, got n=0, m=1"),
        ((2, 2, 1, "4", 1), "values must be one of 2, 3, any; got '4'"),
    ],
    ids=["no-asset", "unknown-values"],
)
def test_gen_random_instance_refuses_bad_arguments(args, message):
    with pytest.raises(ValueError) as info:
        cli.gen_random_instance(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_gen_graph_parity_exit(capsys):
    code, _ = run(capsys, "gen", "graph", "--n", "5", "--d", "3", "--seed", "0")
    assert code == 2


def test_compare_tightness(tmp_path, capsys):
    path = write_tightness(tmp_path, capsys)
    code, out = run(capsys, "compare", "--instance", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["realized_ratio"] == "1/2"
    assert report["guarantee_value_ratio"] == "1/2"
    assert "guarantee_budget_ratio" not in report
    assert report["exact_skipped"] is False


def test_compare_other_triple_beats_half(tmp_path, capsys):
    path = write_tightness(tmp_path, capsys, ("1", "2", "3"))
    code, out = run(capsys, "compare", "--instance", str(path))
    report = json.loads(out)
    assert report["realized_ratio"] == "2/3"
    assert report["guarantee_value_ratio"] == "2/3"


def test_compare_respects_cap(tmp_path, capsys, monkeypatch):
    path = write_tightness(tmp_path, capsys)
    monkeypatch.setenv("DSHP_MAX_N", "3")
    code, out = run(capsys, "compare", "--instance", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["exact_skipped"] is True
    assert report["exact_objective"] is None
    assert report["approx_objective"] == "1"


@pytest.mark.parametrize("cap, skipped", [(4, False), (3, True)])
def test_compare_cap_boundary(cap, skipped, tmp_path, capsys):
    # The tightness instance has n=4: a cap of n runs exact, n-1 skips it.
    path = write_tightness(tmp_path, capsys)
    code, out = run(capsys, "compare", "--instance", str(path), "--max-n", str(cap))
    assert code == 0
    report = json.loads(out)
    assert report["exact_skipped"] is skipped
    if skipped:
        assert report["exact_objective"] is None and report["realized_ratio"] is None
    else:
        assert report["exact_objective"] == "2" and report["realized_ratio"] == "1/2"


def test_env_cap_blocks_solve(tmp_path, capsys, monkeypatch):
    path = write_tightness(tmp_path, capsys)
    monkeypatch.setenv("DSHP_MAX_N", "3")
    code, _ = run(capsys, "solve", "--algo", "exact", "--instance", str(path))
    assert code == 2
    code, _ = run(capsys, "solve", "--algo", "exact", "--instance", str(path), "--max-n", "10")
    assert code == 0


def test_check_solution_pass_and_fail(tmp_path, capsys):
    path = write_tightness(tmp_path, capsys)
    spath = tmp_path / "sol.json"
    code, _ = run(capsys, "solve", "--algo", "exact", "--instance", str(path),
                  "--solution-out", str(spath))
    assert code == 0
    code, out = run(capsys, "check", "solution", "--instance", str(path), "--solution", str(spath))
    assert code == 0
    assert json.loads(out)["passed"] is True

    small = tmp_path / "small.json"
    small.write_text('{"n": 3, "m": 1, "k": 2, "c": ["1", "1", "1"], "p": ["1"], "f": [["1"], ["1"], ["1"]]}')
    overlap = tmp_path / "overlap.json"
    overlap.write_text('{"first_stage": [1], "second_stage": [[1]], "value": "2"}')
    code, out = run(capsys, "check", "solution", "--instance", str(small), "--solution", str(overlap))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert "x_i + y_ij" in report["checks"][0]["detail"]


def test_check_reduction_round_trip(tmp_path, capsys):
    gpath = tmp_path / "octa.txt"
    from dshp import serialize_graph

    gpath.write_text(serialize_graph(octahedron()))
    ipath = tmp_path / "inst.json"
    code, out = run(capsys, "gen", "reduction", "--graph", str(gpath))
    assert code == 0
    ipath.write_text(out)
    spath = tmp_path / "sol.json"
    code, _ = run(capsys, "solve", "--algo", "exact", "--instance", str(ipath),
                  "--solution-out", str(spath))
    assert code == 0
    code, out = run(capsys, "check", "reduction", "--graph", str(gpath),
                    "--instance", str(ipath), "--solution", str(spath))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["mds_size"] == 2

    # a deliberately suboptimal solution fails the round-trip checks
    bad = tmp_path / "bad_sol.json"
    from dshp import complete_first_stage, serialize_solution

    inst = parse_instance(ipath.read_text())
    bad.write_text(serialize_solution(complete_first_stage(inst, (0,))))
    code, out = run(capsys, "check", "reduction", "--graph", str(gpath),
                    "--instance", str(ipath), "--solution", str(bad))
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_check_reduction_skips_brute_force_above_cap(tmp_path, capsys):
    # n=26 is above the cap, so both the exact optimum and the brute-force
    # minimum dominating set are skipped instead of failing the command
    from dshp import serialize_solution

    gpath, ipath, spath = (tmp_path / name for name in ("g.txt", "inst.json", "sol.json"))
    code, out = run(capsys, "gen", "graph", "--n", "26", "--d", "3", "--seed", "1")
    assert code == 0
    gpath.write_text(out)
    code, out = run(capsys, "gen", "reduction", "--graph", str(gpath))
    assert code == 0
    ipath.write_text(out)
    # every vertex dominates: sell nothing at stage one
    spath.write_text(serialize_solution(dominating_plan(parse_instance(out), range(26))))
    code, out = run(capsys, "check", "reduction", "--graph", str(gpath), "--instance",
                    str(ipath), "--solution", str(spath), "--max-n", "25")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["mds_size"] is None
    details = {check["name"]: check["detail"] for check in report["checks"]}
    assert details["solution_optimal"] == "skipped: n=26 exceeds cap 25"
    assert details["mds_size_matches"] == "skipped: n=26 exceeds cap 25"


@pytest.mark.parametrize("cap", [6, 5])
def test_check_reduction_cap_boundary(cap, tmp_path, capsys):
    # The octahedron has n=6 and a minimum dominating set of size 2.  Holding
    # every vertex back is a valid plan but not an optimal one: at a cap of n
    # solution_optimal and mds_size_matches are checked and fail, at n-1 both
    # are skipped.
    from dshp import serialize_graph, serialize_solution

    gpath, ipath, spath = (tmp_path / name for name in ("g.txt", "inst.json", "sol.json"))
    gpath.write_text(serialize_graph(octahedron()))
    code, out = run(capsys, "gen", "reduction", "--graph", str(gpath))
    assert code == 0
    ipath.write_text(out)
    instance = parse_instance(out)
    spath.write_text(serialize_solution(dominating_plan(instance, range(6))))
    code, out = run(capsys, "check", "reduction", "--graph", str(gpath), "--instance",
                    str(ipath), "--solution", str(spath), "--max-n", str(cap))
    report = json.loads(out)
    checks = {check["name"]: check for check in report["checks"]}
    if cap == 6:
        assert code == 1 and report["passed"] is False
        assert report["mds_size"] == 2
        assert checks["solution_optimal"]["ok"] is False
        optimum = solve_exact(instance).value
        assert checks["solution_optimal"]["detail"].endswith(f"optimum {optimum}")
        assert checks["mds_size_matches"] == {
            "name": "mds_size_matches", "ok": False, "detail": "extracted 6, brute force 2"
        }
    else:
        assert code == 0 and report["passed"] is True
        assert report["mds_size"] is None
        skipped = {"ok": True, "detail": "skipped: n=6 exceeds cap 5"}
        for name in ("solution_optimal", "mds_size_matches"):
            assert checks[name] == {"name": name, **skipped}


def test_mds_subcommand(tmp_path, capsys):
    from dshp import serialize_graph

    gpath = tmp_path / "octa.txt"
    gpath.write_text(serialize_graph(octahedron()))
    code, out = run(capsys, "mds", "--graph", str(gpath))
    assert code == 0
    report = json.loads(out)
    assert report["size"] == 2


def test_solver_output_byte_identical_modulo_timing(tmp_path, capsys):
    path = write_tightness(tmp_path, capsys)
    outputs = []
    for _ in range(2):
        code, out = run(capsys, "solve", "--algo", "exact", "--instance", str(path))
        assert code == 0
        report = json.loads(out)
        report.pop("wall_time_ms")
        outputs.append(json.dumps(report, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_gen_outputs_byte_identical(capsys):
    first = run(capsys, "gen", "random", "--n", "6", "--m", "3", "--k", "2",
                "--values", "3", "--seed", "5")
    second = run(capsys, "gen", "random", "--n", "6", "--m", "3", "--k", "2",
                 "--values", "3", "--seed", "5")
    assert first == second
    ga = run(capsys, "gen", "graph", "--n", "8", "--d", "3", "--seed", "9")
    gb = run(capsys, "gen", "graph", "--n", "8", "--d", "3", "--seed", "9")
    assert ga == gb


def test_emitted_files_reparse_to_equal_objects(capsys):
    code, out = run(capsys, "gen", "random", "--n", "5", "--m", "2", "--k", "3",
                    "--values", "any", "--seed", "17")
    assert code == 0
    inst = parse_instance(out)
    assert parse_instance(serialize_instance(inst)) == inst
    code, out = run(capsys, "gen", "graph", "--n", "6", "--d", "2", "--seed", "3")
    assert code == 0
    graph = parse_graph(out)
    from dshp import serialize_graph

    assert parse_graph(serialize_graph(graph)) == graph


def test_pretty_flag(tmp_path, capsys):
    path = write_tightness(tmp_path, capsys)
    code, out = run(capsys, "solve", "--algo", "exact", "--instance", str(path), "--pretty")
    assert code == 0
    assert out.count("\n") > 1
    assert json.loads(out)["objective"] == "2"


@st.composite
def plans(draw):
    """A Solution of the shape a plan has: n assets, m scenarios, budget k,
    F of at most k assets and k - |F| others sold per scenario."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(0, n))
    first = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=k))
    rest = sorted(set(range(n)) - set(first))
    need = k - len(first)
    sold = st.lists(st.sampled_from(rest), unique=True, min_size=need, max_size=need)
    second = draw(st.lists(sold if rest else st.just([]), min_size=1, max_size=4))
    return Solution(first, second, draw(st.fractions(max_denominator=10**6)))


# Quotes, a backslash, non-ASCII text and the member name the report splices in.
AWKWARD_LABEL = 'a "quoted" \\ label, ünïcødé ☃ 😀, "solution": [1, 2], "extras":{}'


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    solution=plans(),
    label=st.text(),
    extras=st.dictionaries(st.text(), st.one_of(st.text(), st.integers(), st.booleans())),
)
@example(solution=Solution((), ((1, 2), (0, 2)), 3), label="", extras={})  # F empty
@example(solution=Solution((0, 4), ((), (), ()), Fraction(-7, 2)), label="", extras={})  # |F| = k
@example(solution=Solution((), ((),), 0), label="k=0, m=1", extras={"degenerate": True})
@example(  # n >= 11: indices of two digits
    solution=Solution((12, 3, 10), ((11, 2, 0), (1, 5, 14)), Fraction(12345, 6)),
    label=AWKWARD_LABEL,
    extras={"low": "-1/3", "high_count": 4, "guarantee": "1/2"},
)
def test_the_plan_text_is_the_json_writers(solution, label, extras):
    """serialize_solution writes json.dumps of the plan's object, and the
    solve report spliced from it, compact and re-indented, is json.dumps of
    the whole report object."""
    plan = serialize_solution(solution)
    assert plan == json.dumps(solution.as_dict())
    head = {"algorithm": "exact", "instance": label, "objective": str(solution.value),
            "wall_time_ms": 7}
    report = {**head, "solution": solution.as_dict(), "extras": extras}
    compact = cli._solve_report(head, plan, extras)
    assert compact == json.dumps(report, separators=(",", ":"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(compact, pretty=False)
        cli._emit(compact, pretty=True)
    assert out.getvalue() == f"{compact}\n{json.dumps(report, indent=2)}\n"


@pytest.mark.parametrize("algo", ["exact", "two-value", "approx"])
def test_the_report_holds_the_solution_files_object(algo, tmp_path, capsys):
    # n = 12, and a label that holds the spliced member's own name.
    inst = cli.gen_random_instance(12, 3, 7, "3" if algo == "approx" else "2", 5)
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(Instance(
        n=inst.n, m=inst.m, k=inst.k, c=inst.c, p=inst.p, f=inst.f, label=AWKWARD_LABEL)))
    reports = []
    for pretty in ((), ("--pretty",)):
        sol = tmp_path / f"sol{len(pretty)}.json"
        code, out = run(capsys, "solve", "--algo", algo, "--instance", str(path),
                        "--solution-out", str(sol), *pretty)
        assert code == 0
        report = json.loads(out)
        assert report["instance"] == AWKWARD_LABEL
        assert report["solution"] == json.loads(sol.read_text())
        report.pop("wall_time_ms")
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--algo", "nonsense", "--instance", "x"],
        ["solve", "--algo", "exact", "--instance", "x", "--prune"],
        ["gen", "reduction", "--graph", "x", "--d", "3"],
    ],
    ids=["unknown-algo", "solve-prune", "gen-reduction-d"],
)
def test_bad_arguments_exit_two(argv, capsys):
    """Arguments the parser refuses, removed options among them, exit 2 with usage."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: dshp ")
    # the parser is built once and reused by every call
    assert cli.build_parser() is cli.build_parser()


@pytest.fixture
def input_files(tmp_path, capsys):
    """Paths of small instances of each value domain and of a 26-vertex graph."""
    half = Fraction(1, 2)
    instances = {
        "three": gen_tightness(0, 1, 2),
        "one": Instance(n=3, m=2, k=2, c=(1,) * 3, p=(half, half), f=((1, 1),) * 3),
        "two": Instance(n=3, m=2, k=2, c=(1, 2, 1), p=(half, half), f=((2, 1), (1, 1), (1, 2))),
        "negative": Instance(
            n=3, m=2, k=2, c=(-1, 0, 1), p=(half, half), f=((1, 0), (0, -1), (-1, 1))
        ),
    }
    files = {}
    for name, instance in instances.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(serialize_instance(instance))
    code, out = run(capsys, "gen", "graph", "--n", "26", "--d", "3", "--seed", "1")
    assert code == 0
    files["graph26"] = tmp_path / "g26.txt"
    files["graph26"].write_text(out)
    files["path3"] = tmp_path / "path3.txt"
    files["path3"].write_text("3 2\n0 1\n1 2\n")
    files["plan"] = tmp_path / "plan.json"
    files["plan"].write_text('{"first_stage": [1], "second_stage": [[], [], []], "value": "1"}')
    return files


@pytest.mark.parametrize(
    "argv, env, expected",
    [
        (["solve", "--algo", "exact", "--instance", "{three}", "--max-n", "3"], None, 2),
        (["solve", "--algo", "exact", "--instance", "{three}"], "3", 2),
        (["solve", "--algo", "exact", "--instance", "{three}"], "three", 2),
        (["mds", "--graph", "{graph26}"], None, 2),
        (["mds", "--graph", "{graph26}"], "25", 2),
        (["solve", "--algo", "two-value", "--instance", "{three}"], None, 3),
        (["solve", "--algo", "approx", "--instance", "{one}"], None, 3),
        (["solve", "--algo", "approx", "--instance", "{two}"], None, 3),
        (["solve", "--algo", "approx", "--instance", "{negative}"], None, 3),
        (["compare", "--instance", "{three}", "--max-n", "0"], None, 2),
        (["compare", "--instance", "{three}"], "0", 2),
        (["check", "reduction", "--graph", "{graph26}", "--instance", "{three}",
          "--solution", "{plan}", "--max-n", "-3"], None, 2),
        (["mds", "--graph", "{graph26}", "--max-n", "0"], None, 2),
        (["mds", "--graph", "{graph26}", "--max-n", "25"], None, 2),
        (["gen", "random", "--n", "1", "--m", "1", "--k", "1", "--values", "3"], None, 2),
        (["gen", "random", "--n", "2", "--m", "1", "--k", "3"], None, 2),
        (["gen", "reduction", "--graph", "{path3}"], None, 2),
    ],
)
def test_cap_and_domain_errors_exit_with_one_error_line(
    input_files, capsys, monkeypatch, argv, env, expected
):
    """Caps exceeded, caps below 1 (in every command that searches), a bad
    DSHP_MAX_N and generator arguments no instance fits exit 2, value-domain
    mismatches exit 3; either prints one stderr line starting "error: " and no
    report.  solve --algo two-value and approx never read the cap (see the
    test below)."""
    if env is not None:
        monkeypatch.setenv("DSHP_MAX_N", env)
    code = main([arg.format(**input_files) for arg in argv])
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("algo, name", [("two-value", "two"), ("approx", "three")])
def test_solvers_without_a_search_ignore_the_cap(input_files, capsys, monkeypatch, algo, name):
    # A bad DSHP_MAX_N or a --max-n below 1 leaves the report as it is
    # without them; only the exact search refuses them.
    argv = ["solve", "--algo", algo, "--instance", str(input_files[name])]

    def report(*extra):
        code, out = run(capsys, *argv, *extra)
        assert code == 0
        obj = json.loads(out)
        del obj["wall_time_ms"]
        return obj

    plain = report()
    assert report("--max-n", "0") == plain
    monkeypatch.setenv("DSHP_MAX_N", "abc")
    assert report() == plain
    assert report("--max-n", "-3") == plain
    code = main(["solve", "--algo", "exact", "--instance", str(input_files[name])])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: DSHP_MAX_N must be an integer, got 'abc'\n"


def test_mds_cap_follows_max_n_and_env(input_files, capsys, monkeypatch):
    # Above the default cap of 24 this graph exits 2 (see the test above).
    graph = str(input_files["graph26"])
    code, out = run(capsys, "mds", "--graph", graph, "--max-n", "26")
    assert code == 0
    assert json.loads(out)["size"] == 7
    monkeypatch.setenv("DSHP_MAX_N", "26")
    code, out = run(capsys, "mds", "--graph", graph)
    assert code == 0
    assert json.loads(out)["size"] == 7


INVALID_INSTANCES = {
    "p-sums-to-half": (
        '{"n": 1, "m": 2, "k": 1, "c": ["1"], "p": ["1/4", "1/4"], "f": [["1", "1"]]}',
        "probabilities sum to 1/2, not 1",
    ),
    "c-too-short": (
        '{"n": 2, "m": 1, "k": 1, "c": ["1"], "p": ["1"], "f": [["1"], ["2"]]}',
        "c has 1 entries, expected n=2",
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_INSTANCES))
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--algo", "exact", "--instance", "{instance}"],
        ["solve", "--algo", "two-value", "--instance", "{instance}"],
        ["solve", "--algo", "approx", "--instance", "{instance}"],
        ["compare", "--instance", "{instance}"],
        ["check", "solution", "--instance", "{instance}", "--solution", "{solution}"],
        ["check", "reduction", "--graph", "{graph}", "--instance", "{instance}",
         "--solution", "{solution}"],
    ],
    ids=["solve-exact", "solve-two-value", "solve-approx", "compare", "check-solution",
         "check-reduction"],
)
def test_every_command_refuses_an_invalid_instance(argv, case, tmp_path, capsys):
    """Each command that reads an instance exits 2 with one stderr line naming the violation."""
    from dshp import serialize_graph

    text, violation = INVALID_INSTANCES[case]
    paths = {name: tmp_path / name for name in ("instance", "solution", "graph")}
    paths["instance"].write_text(text)
    paths["solution"].write_text('{"first_stage": [0], "second_stage": [[]], "value": "1"}')
    paths["graph"].write_text(serialize_graph(octahedron()))
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: invalid instance: {violation}"]


def write_reduction_check_files(tmp_path, graph, instance, plan=None):
    """Graph, instance and plan files for check reduction; the plan defaults
    to a feasible one."""
    from dshp import complete_first_stage, serialize_graph, serialize_solution

    paths = [tmp_path / name for name in ("g.txt", "inst.json", "sol.json")]
    paths[0].write_text(serialize_graph(graph))
    paths[1].write_text(serialize_instance(instance))
    paths[2].write_text(plan or serialize_solution(complete_first_stage(instance, ())))
    return ["--graph", str(paths[0]), "--instance", str(paths[1]), "--solution", str(paths[2])]


HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "graph, instance, plan, failing, last",
    [
        pytest.param(
            Graph(4, frozenset({(0, 1), (2, 3)})),  # 1-regular, two components
            # values {1/2, 1, 4/3}: S/B = 2/3 lies inside the window (1/3, 1)
            Instance(n=4, m=2, k=3, c=(1,) * 4, p=(HALF, HALF), f=((HALF, Fraction(4, 3)),) * 4),
            None,
            [{"name": "graph_connected", "ok": False, "detail": "graph is not connected"}],
            "ratio_window",
            id="disconnected",
        ),
        pytest.param(
            octahedron(),
            Instance(n=6, m=2, k=5, c=(1,) * 6, p=(HALF, HALF), f=((2, 1),) * 6),
            None,
            [{
                "name": "ratio_window",
                "ok": False,
                "detail": "cannot infer (B, S): instance values ['1', '2'] are not of the "
                "form {1-B, 1, 1+S}",
            }],
            "ratio_window",
            id="two-valued",
        ),
        pytest.param(
            octahedron(),
            build_reduction(octahedron(), default_params(6, 4)),
            '{"first_stage": [0], "second_stage": [[], [], [], [], [], []], "value": "1"}',
            [{
                "name": "solution_valid",
                "ok": False,
                "detail": "budget constraint sum(x) + sum(y) = k violated in scenario 0: "
                "1 + 0 != 5",
            }],
            "solution_valid",
            id="infeasible-plan",
        ),
        pytest.param(
            # gen_regular_graph(6, 3, 1) without its edge 3-5: vertices 3 and 5 have degree 2
            Graph(6, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)})),
            # values {1/2, 1, 7/4}, B = 1/2 and S = 3/4: they decode, but d is undefined
            build_reduction(gen_regular_graph(6, 3, 1), default_params(6, 3)),
            None,
            [
                {"name": "graph_regular", "ok": False, "detail": "vertex degrees differ"},
                {
                    "name": "ratio_window",
                    "ok": False,
                    "detail": "window undefined: the graph is not regular",
                },
            ],
            "ratio_window",
            id="irregular",
        ),
    ],
)
def test_check_reduction_stops_at_the_first_failing_stage(
    graph, instance, plan, failing, last, tmp_path, capsys
):
    """A failing graph or window check ends the report before the instance
    is rebuilt; a failing instance or plan check ends it before the searches.
    Either way no dominating set is sized."""
    code, out = run(capsys, "check", "reduction", *write_reduction_check_files(
        tmp_path, graph, instance, plan))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["mds_size"] is None
    assert [check for check in report["checks"] if not check["ok"]] == failing
    assert report["checks"][-1]["name"] == last


def test_check_reduction_reports_a_ratio_outside_the_window(tmp_path, capsys):
    # The octahedron's reduction with 1+S = 11/10 instead of the midpoint 11/4:
    # B = 1/2, S/B = 1/5, outside the window (2, 5).
    from dshp import build_reduction, default_params

    built = build_reduction(octahedron(), default_params(6, 4))
    far = max(built.distinct)
    f = tuple(tuple(Fraction(11, 10) if v == far else v for v in row) for row in built.f)
    instance = Instance(n=6, m=6, k=5, c=built.c, p=built.p, f=f)
    code, out = run(capsys, "check", "reduction", *write_reduction_check_files(
        tmp_path, octahedron(), instance))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["checks"][-1] == {
        "name": "ratio_window", "ok": False, "detail": "need 2 < S/B = 1/5 < 5"
    }


@pytest.mark.parametrize("n", [4, 2], ids=["K4", "single-edge"])
def test_check_reduction_reports_an_empty_window(n, tmp_path, capsys):
    # Degree n-1 leaves no S/B in the window; values {1/2, 1, 3/2} give S/B = 1.
    from conftest import complete_graph

    half = Fraction(1, 2)
    f = tuple(tuple(half if i == j else 3 * half for j in range(n)) for i in range(n))
    instance = Instance(n=n, m=n, k=n - 1, c=(1,) * n, p=(Fraction(1, n),) * n, f=f)
    code, out = run(capsys, "check", "reduction", *write_reduction_check_files(
        tmp_path, complete_graph(n), instance))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["checks"][-1] == {
        "name": "ratio_window",
        "ok": False,
        "detail": f"empty ratio window: need 0 <= degree < n-1, got degree={n - 1}, n={n}; "
        "S/B = 1",
    }
