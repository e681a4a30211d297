"""The input boundary: every cell is coerced once, in Instance, and a bad cell
is named by its position.  Property tests are seeded (derandomized) and keep
instances small."""

import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dshp import (
    Instance,
    ParseError,
    as_rational,
    parse_instance,
    parse_solution,
    serialize_instance,
)
from dshp.cli import main

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
    p = draw(st.lists(values, min_size=m, max_size=m))
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
    inst = Instance(n=1, m=1, k=0, c=(x,), p=(x,), f=((x,),))
    assert inst.c[0] is x and inst.p[0] is x and inst.f[0][0] is x


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

