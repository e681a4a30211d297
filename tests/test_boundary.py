"""The input boundary: every cell is coerced once, in Instance, and a bad cell
is named by its position.  Property tests are seeded (derandomized) and keep
instances small."""

import contextlib
import io
import json
import re
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dshp.model
from dshp import (
    Instance,
    ParseError,
    as_rational,
    parse_instance,
    parse_rational,
    parse_solution,
    serialize_instance,
)
from dshp.cli import gen_random_instance, main

SEEDED = settings(max_examples=80, derandomize=True, deadline=None, database=None)

# Denominators of the form 2^a 5^b, so every value also has an exact decimal numeral.
values = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.sampled_from([1, 2, 4, 5, 8, 20, 25, 125, 1000])
)
BAD_CELLS = [True, None, {}, [], "x"]


@st.composite
def written_instances(draw):
    """(JSON text, Instance): each cell written as a decimal string, an "a/b"
    string, a bare numeral or, when integral, a bare int."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    k = draw(st.integers(0, n))
    c = draw(st.lists(values, min_size=n, max_size=n))
    # p on the simplex, in thousandths, so it too has decimal numerals.
    cuts = sorted(draw(st.lists(st.integers(0, 1000), min_size=m - 1, max_size=m - 1)))
    p = [Fraction(b - a, 1000) for a, b in zip([0, *cuts], [*cuts, 1000])]
    f = [draw(st.lists(values, min_size=m, max_size=m)) for _ in range(n)]

    def cell(x: Fraction) -> str:
        form = draw(st.sampled_from(["decimal", "fraction", "numeral", "int"]))
        if form == "fraction":
            return json.dumps(f"{x.numerator}/{x.denominator}")
        if form == "int" and x.denominator == 1:
            return str(x.numerator)
        numeral = format(Decimal(x.numerator) / x.denominator, "f")
        return json.dumps(numeral) if form == "decimal" else numeral

    def array(row) -> str:
        return "[" + ", ".join(map(cell, row)) + "]"

    text = (
        f'{{"n": {n}, "m": {m}, "k": {k}, "c": {array(c)}, "p": {array(p)}, '
        f'"f": [{", ".join(map(array, f))}]}}'
    )
    return text, Instance(n=n, m=m, k=k, c=c, p=p, f=f)


@SEEDED
@given(written_instances())
def test_cell_forms_parse_to_the_same_fractions(case):
    text, expected = case
    parsed = parse_instance(text)
    assert parsed == expected
    assert all(type(v) is Fraction for row in (parsed.c, parsed.p, *parsed.f) for v in row)
    assert parse_instance(serialize_instance(parsed)) == parsed


@SEEDED
@given(values)
def test_fractions_are_not_coerced_again(x):
    assert as_rational(x) is x
    one = Fraction(1)
    inst = Instance(n=1, m=1, k=0, c=(x,), p=(one,), f=((x,),))
    assert inst.c[0] is x and inst.p[0] is one and inst.f[0][0] is x


@SEEDED
@given(st.data(), written_instances(), st.sampled_from(BAD_CELLS))
def test_bad_cell_is_named_by_position(data, case, bad):
    obj = json.loads(serialize_instance(case[1]))
    cells = [("c", i) for i in range(obj["n"])] + [("p", j) for j in range(obj["m"])]
    cells += [("f", i, j) for i in range(obj["n"]) for j in range(obj["m"])]
    position = data.draw(st.sampled_from(cells))
    if position[0] == "f":
        _, i, j = position
        obj["f"][i][j] = bad
        where = f"f[{i}][{j}]"
    else:
        key, i = position
        obj[key][i] = bad
        where = f"{key}[{i}]"
    with pytest.raises(ParseError) as info:
        parse_instance(json.dumps(obj))
    assert str(info.value).startswith(f"{where}: not a rational")


@pytest.mark.parametrize(
    "cell, message",
    [
        ("true", "c[0]: not a rational: True"),
        ("null", "c[0]: not a rational: None"),
        ("{}", "c[0]: not a rational: {}"),
        ('"x"', "c[0]: not a rational numeral: 'x' ("),
    ],
)
def test_bad_cell_wording(cell, message, tmp_path, capsys):
    text = f'{{"n": 1, "m": 1, "k": 0, "c": [{cell}], "p": ["1"], "f": [["1"]]}}'
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert str(info.value).startswith(message)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["solve", "--algo", "exact", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_bad_solution_value_is_named():
    with pytest.raises(ParseError, match=r"^value: not a rational: None$"):
        parse_solution('{"first_stage": [], "second_stage": [[]], "value": null}')
    with pytest.raises(ParseError, match=r"^value: not a rational numeral: 'x'"):
        parse_solution('{"first_stage": [], "second_stage": [[]], "value": "x"}')


@pytest.fixture
def digit_limit():
    """The int/str digit limit set to its default 4300 for the test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def one_cell(cell: str) -> str:
    return f'{{"n": 1, "m": 1, "k": 0, "c": [{cell}], "p": ["1"], "f": [["1"]]}}'


@pytest.mark.parametrize(
    "numeral, value",
    [
        ("1e4299", 10**4299),  # 4300 digits
        ("1e-4299", Fraction(1, 10**4299)),
        ("5e-4300", Fraction(1, 2 * 10**4299)),  # reduced, the denominator fits
        ("12.5e-2", Fraction(1, 8)),
        ("0e5000", 0),
        ("-0.0e-5000", 0),
    ],
)
def test_numerals_within_the_digit_limit(numeral, value, digit_limit):
    for cell in (json.dumps(numeral), numeral):
        inst = parse_instance(one_cell(cell))
        assert inst.c == (value,)
        assert parse_instance(serialize_instance(inst)) == inst


@pytest.mark.parametrize(
    "numeral",
    [
        "1e4300",
        "12.5e4299",
        "1e-4300",
        "1e5000",
        "1e-5000",
        "1e10000000",
        "7e-9999999",
        pytest.param("9" * 3000 + "." + "9" * 3000, id="6000-digit-decimal"),
        # written bare, a JSON integer that int() alone would refuse, naming no cell
        pytest.param("1" + "0" * 5000, id="5001-digit-integer"),
    ],
)
def test_numerals_over_the_digit_limit_are_named(numeral, digit_limit, tmp_path, capsys):
    # an exponent is refused before its power of ten is built, since
    # Fraction("1e10000000") alone takes seconds; a "1e5000" cell would
    # otherwise be solved and then fail to print, naming no cell
    message = f"c[0]: numeral '{numeral}' has a numerator or denominator over 4300 digits"
    for cell in (json.dumps(numeral), numeral):
        with pytest.raises(ParseError) as info:
            parse_instance(one_cell(cell))
        assert str(info.value) == message
    path = tmp_path / "big.json"
    path.write_text(one_cell(numeral))
    assert main(["solve", "--algo", "exact", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "numeral",
    [
        pytest.param("1" * 5000 + "/3", id="numerator"),
        pytest.param("3/" + "1" * 5000, id="denominator"),
        pytest.param("-" + "9" * 4301 + "/" + "7" * 4301, id="both"),
    ],
)
def test_ratio_numerals_over_the_digit_limit_are_named(numeral, digit_limit, tmp_path, capsys):
    message = f"c[0]: numeral '{numeral}' has a numerator or denominator over 4300 digits"
    with pytest.raises(ParseError) as info:
        parse_instance(one_cell(json.dumps(numeral)))
    assert str(info.value) == message
    path = tmp_path / "big.json"
    path.write_text(one_cell(json.dumps(numeral)))
    assert main(["solve", "--algo", "exact", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "numeral, value",
    [
        pytest.param("0" * 5000 + "1", 1, id="leading-zeros"),
        pytest.param("-" + "0" * 5000, 0, id="zeros"),
        pytest.param("1." + "0" * 5000, 1, id="trailing-zeros"),
        pytest.param("0" * 5000 + ".5e-1", Fraction(1, 20), id="leading-zeros-and-exponent"),
        pytest.param("0" * 5000 + "2/" + "0" * 5000 + "6", Fraction(1, 3), id="ratio"),
        pytest.param("1" * 4300 + "/" + "3" * 4300, Fraction(1, 3), id="ratio-at-the-limit"),
    ],
)
def test_zeros_do_not_count_toward_the_digit_limit(numeral, value, digit_limit):
    inst = parse_instance(one_cell(json.dumps(numeral)))
    assert inst.c == (value,)
    assert parse_instance(serialize_instance(inst)) == inst


def test_exponent_is_judged_before_a_power_of_ten_is_built(digit_limit, monkeypatch):
    built = []

    def fraction(text):
        built.append(text)
        return Fraction(text)

    monkeypatch.setattr(dshp.model, "Fraction", fraction)
    for numeral in ("1e10000000", "7e-9999999"):
        with pytest.raises(ParseError, match="over 4300 digits"):
            parse_rational(numeral)
    assert parse_rational("-0.0e10000000") == 0
    assert built == [0]  # the zero, from the int 0: no power of ten, no text


@pytest.mark.parametrize(
    "c, where",
    [((10**5000,), "c[0]"), (("1", 10**5000), "c[1]"), ((1, 10**5000), "c[1]")],
    ids=["first", "after-a-str", "after-an-int"],
)
def test_an_int_cell_over_the_digit_limit_is_named(c, where, digit_limit):
    # only a library caller can pass one: a bare JSON integer this long stays text
    with pytest.raises(ValueError) as info:
        Instance(n=len(c), m=1, k=0, c=c, p=["1"], f=[["1"]] * len(c))
    assert str(info.value).startswith(f"{where}: ")


def test_a_bare_integer_over_the_digit_limit_is_no_label(digit_limit):
    literal = "1" + "0" * 5000
    text = f'{{"n": 1, "m": 1, "k": 0, "c": ["1"], "p": ["1"], "f": [["1"]], "label": {literal}}}'
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert str(info.value) == f"label: expected a string, got '{literal}'"


def test_no_digit_limit_no_check(digit_limit):
    sys.set_int_max_str_digits(0)
    assert parse_instance(one_cell('"1e5000"')).c == (10**5000,)


def test_each_distinct_numeral_is_parsed_once(monkeypatch):
    instance = gen_random_instance(150, 100, 135, "2", 5)
    text = serialize_instance(instance)
    obj = json.loads(text)
    numerals = {v for row in (obj["c"], obj["p"], *obj["f"]) for v in row}
    parsed = []

    def counting(numeral):
        parsed.append(numeral)
        return parse_rational(numeral)

    monkeypatch.setattr(dshp.model, "parse_rational", counting)
    assert parse_instance(text) == instance
    assert len(parsed) <= len(numerals)


@pytest.mark.parametrize(
    "c, p, f, where",
    [
        pytest.param(
            '["x", "1", "x"]', '["x", "1"]', '[["1", "x"], ["x", "x"], ["1", "1"]]', "c[0]",
            id="first-in-c",
        ),
        pytest.param(
            '["1", "2", "1"]', '["1", "0"]', '[["1", "2"], ["x", "x"], ["1", "x"]]', "f[1][0]",
            id="first-in-f",
        ),
    ],
)
def test_repeated_bad_numeral_is_named_at_its_first_cell(c, p, f, where):
    text = f'{{"n": 3, "m": 2, "k": 0, "c": {c}, "p": {p}, "f": {f}}}'
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert str(info.value).startswith(f"{where}: not a rational numeral: 'x' (")


def test_repeated_numeral_over_the_digit_limit_is_named_at_its_first_cell(digit_limit):
    text = (
        '{"n": 2, "m": 2, "k": 0, "c": ["1", "2"], "p": ["1", "1e5000"], '
        '"f": [["1e5000", "1"], ["1", "1e5000"]]}'
    )
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert str(info.value) == (
        "p[1]: numeral '1e5000' has a numerator or denominator over 4300 digits"
    )


def test_equal_numerals_spelled_apart_parse_equal():
    inst = parse_instance(
        '{"n": 2, "m": 1, "k": 0, "c": ["0.5", "1/2"], "p": ["1"], "f": [["1/2"], [0.5]]}'
    )
    assert inst.c == (Fraction(1, 2), Fraction(1, 2))
    assert inst.f == ((Fraction(1, 2),), (Fraction(1, 2),))


def test_bad_cell_of_a_one_shot_row_is_named():
    with pytest.raises(ParseError) as info:
        Instance(1, 1, 0, iter(["1", "x", "y"]), ["1"], [["1"]])
    assert str(info.value).startswith("c[1]: not a rational numeral: 'x' (")
    with pytest.raises(TypeError, match=r"^f\[0\]\[0\]: "):
        Instance(1, 1, 0, ["1"], ["1"], [(v for v in [1.5])])


def test_a_row_the_all_strings_lookup_refuses_names_its_bad_cell():
    # a row holding any cell that is not a str leaves the all-strings lookup
    # for one loop that coerces each cell and raises at the first bad one
    with pytest.raises(ParseError) as info:
        Instance(3, 1, 0, ["1", Fraction(1, 2), "x"], ["1"], [["1"], ["1"], ["1"]])
    assert str(info.value).startswith("c[2]: not a rational numeral: 'x' (")
    with pytest.raises(TypeError, match=r"^f\[1\]\[1\]: not a rational: True$"):
        Instance(2, 3, 0, ["1", "1"], ["1", "0", "0"], [["1", "1", "1"], ["1", True, "1"]])
    text = (
        '{"n": 2, "m": 3, "k": 0, "c": ["1", "1"], "p": ["1", "0", "0"], '
        '"f": [["1", "1", "1"], ["1", true, "1"]]}'
    )
    with pytest.raises(ParseError, match=r"^f\[1\]\[1\]: not a rational: True$"):
        parse_instance(text)


@pytest.mark.parametrize(
    "row, error, message",
    [
        ([1, True], TypeError, "c[1]: not a rational: True"),
        ([True, 1], TypeError, "c[0]: not a rational: True"),
        ([1, 1.0], TypeError, "c[1]: refusing float 1.0: pass a string or Fraction"),
        ([1, "1", 0.5], TypeError, "c[2]: refusing float 0.5: pass a string or Fraction"),
        ([1, None], TypeError, "c[1]: not a rational: None"),
        ([1, "x"], ParseError, "c[1]: not a rational numeral: 'x' ("),
    ],
)
def test_a_row_opening_with_an_int_names_its_bad_cell(row, error, message):
    # the int 1 is looked up first, so a table that kept int keys would take
    # True and 1.0 for it
    with pytest.raises(error) as info:
        Instance(n=len(row), m=1, k=0, c=row, p=["1"], f=[["1"]] * len(row))
    assert type(info.value) is error
    assert str(info.value).startswith(message)


# Spellings of each value that JSON also reads as a bare number; a bare int
# is spelled as str() writes it, so bare 2 and "2" are one spelling.
BARE_SPELLED = {
    Fraction(1, 2): ("0.5", "5e-1", "0.50"),
    Fraction(5, 4): ("1.25", "125e-2"),
    Fraction(2): ("2", "2.0", "2E0"),
    Fraction(0): ("0", "0.0"),
    Fraction(3): ("3",),
}
UNIFORM = {1: "1", 2: "0.5", 4: "0.25", 5: "0.2"}  # 1/m as a bare decimal
WALL_TIME = re.compile(r'"wall_time_ms":\d+,')


def solve_report(text: str, algo: str) -> tuple[int, str]:
    """The exit code and report of solve --algo algo on the instance text, wall_time_ms dropped."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "instance.json"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["solve", "--algo", algo, "--instance", str(path)])
    return code, WALL_TIME.sub("", out.getvalue())


@SEEDED
@given(st.data())
def test_bare_and_quoted_numbers_share_the_numeral_table(data):
    values = data.draw(st.lists(st.sampled_from(list(BARE_SPELLED)), min_size=1, max_size=3,
                                unique=True))
    n, m = data.draw(st.integers(1, 5)), data.draw(st.sampled_from(list(UNIFORM)))
    k = data.draw(st.integers(0, n))
    spelling = st.sampled_from(values).flatmap(lambda v: st.sampled_from(BARE_SPELLED[v]))
    c = data.draw(st.lists(spelling, min_size=n, max_size=n))
    f = [data.draw(st.lists(spelling, min_size=m, max_size=m)) for _ in range(n)]

    def text(write) -> str:
        def array(row) -> str:
            return "[" + ", ".join(map(write, row)) + "]"

        return (
            f'{{"n": {n}, "m": {m}, "k": {k}, "c": {array(c)}, "p": {array([UNIFORM[m]] * m)}, '
            f'"f": [{", ".join(map(array, f))}], "label": "spelled"}}'
        )

    mixed = text(lambda s: s if data.draw(st.booleans()) else json.dumps(s))
    texts = [text(json.dumps), text(str), mixed]
    quoted, bare, either = map(parse_instance, texts)
    assert quoted == bare == either
    spellings = list(chain(c, *f))
    for inst in (quoted, bare, either):
        # one object per spelling, and the value record holds each once
        objects = {}
        for spelled, value in zip(spellings, chain(inst.c, *inst.f)):
            assert objects.setdefault(spelled, value) is value
        assert len(vars(inst)["_objects"]) == len(objects)
    assert quoted.distinct == bare.distinct == either.distinct
    algo = "two-value" if len(quoted.distinct) <= 2 else "approx"
    reports = [solve_report(t, algo) for t in texts]
    assert reports[0][0] == 0
    assert reports[0] == reports[1] == reports[2]
