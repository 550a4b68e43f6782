"""Fuzzing of the two file parsers.

Any text gives ``parse_array_file`` a valid array or an ``ArrayFileError``,
and gives ``parse_grid`` a list of RunSpec or a ValueError/KeyError (the
errors ``cmd_benchmark`` maps to exit 2); no other exception escapes.  What
parses holds its integers in ASCII decimal digits only, and its ``r_mult``
in ASCII with no '_'.
"""

import re

import numpy as np
from hypothesis import given, settings, strategies as st

from caforge import GroupKind, Parameters, RunSpec
from caforge.cli import ArrayFileError, parse_array_file, parse_grid, serialize_array
from caforge.pipeline import STAGE1_KINDS, STAGE2_KINDS

BIG = 2**64
FUZZ = settings(max_examples=200, deadline=None)

# Integers near the interesting small range, and far beyond int64 either way.
integers = st.one_of(st.integers(-2, 9), st.integers(-BIG * BIG, BIG * BIG))
junk = st.sampled_from(["", "x", "1.5", "1e3", "0x1", "-", "#", "nan", "1_0",
                        "٣", "１", "+1", "-0", "=", " = ", "\t"])
token = st.one_of(integers.map(str), junk)
line = st.lists(token, max_size=6).map(" ".join)
OTHER_DIGITS = [str.maketrans("0123456789", digits)
                for digits in ("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")]


def respelled(x: int):
    """Spellings of x, other than plain decimal, that ``int`` also reads."""
    d = str(x)
    return st.sampled_from(["+" + d, "0_" + d, *(d.translate(t) for t in OTHER_DIGITS)])


@st.composite
def array_texts(draw):
    """Mostly well-formed files with a few cells, rows or header fields off."""
    t = draw(st.integers(2, 4))
    k = draw(st.integers(t, 6))
    v = draw(st.integers(2, 4))
    n = draw(st.integers(0, 4))
    header = draw(st.one_of(
        st.just(f"CA {n} {k} {t} {v}"),
        st.tuples(integers, integers, integers, integers).map(
            lambda h: "CA " + " ".join(map(str, h))),
        st.tuples(*(st.one_of(st.just(str(x)), respelled(x)) for x in (n, k, t, v))).map(
            lambda h: "CA " + " ".join(h)),
        line))
    cell = st.one_of(st.integers(0, v - 1).map(str), integers.map(str),
                     st.integers(0, v - 1).flatmap(respelled))
    row = st.one_of(st.lists(cell, min_size=k, max_size=k).map(" ".join), line,
                    st.just("# comment"), st.just("   "))
    rows = draw(st.lists(row, max_size=6))
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join([header, *rows]) + draw(st.sampled_from(["", sep]))


def decimal(token) -> bool:
    return re.fullmatch("[0-9]+", token) is not None


def check_array_text(text):
    try:
        array, p = parse_array_file(text)
    except ArrayFileError:
        return
    head, *body = text.splitlines()
    assert all(decimal(x) for x in head.split()[1:])
    assert all(decimal(x) for line in body if not line.startswith("#")
               for x in line.split())
    n, k, t, v = (int(x) for x in head.split()[1:])
    assert p == Parameters(t=t, k=k, v=v)
    assert array.dtype == np.int64 and array.shape == (n, k)
    assert ((array >= 0) & (array < v)).all()
    again, q = parse_array_file(serialize_array(array, p))
    assert q == p and np.array_equal(again, array)


@FUZZ
@given(array_texts())
def test_array_file_structured(text):
    check_array_text(text)


@FUZZ
@given(st.text(max_size=60))
def test_array_file_any_text(text):
    check_array_text(text)


# t, k and v stay small: RunSpec computes v**t.
GRID_VALUES = {
    "t": st.one_of(st.integers(-1, 5).map(str), st.integers(2, 5).flatmap(respelled), junk),
    "k": st.one_of(st.integers(-1, 12).map(str), st.integers(2, 12).flatmap(respelled), junk),
    "v": st.one_of(st.integers(-1, 7).map(str), st.integers(2, 7).flatmap(respelled), junk),
    "stage1": st.sampled_from([*STAGE1_KINDS, "RAND", ""]),
    "stage2": st.sampled_from([*STAGE2_KINDS, "dens", ""]),
    "group": st.sampled_from([*(g.value for g in GroupKind), "dihedral", ""]),
    "r_mult": st.one_of(st.floats(allow_nan=True).map(repr), integers.map(str),
                        st.sampled_from(["1e-400", "1e400", "-inf"]),
                        st.integers(1, 9).flatmap(respelled), junk),
    "seed": st.one_of(integers.map(str), st.integers(0, 9).flatmap(respelled), junk),
    "verify": st.sampled_from(["true", "yes", "1", "no", "maybe", ""]),
    "color": st.just("1"),
}
# A stanza with t, k and v once each, and some of the other keys.
stanza = st.fixed_dictionaries(
    {key: GRID_VALUES[key] for key in "tkv"},
    optional={key: GRID_VALUES[key] for key in GRID_VALUES if key not in "tkv"},
).map(lambda fields: [f"{key}={val}" for key, val in fields.items()])
grid_line = st.one_of(
    st.sampled_from(list(GRID_VALUES)).flatmap(
        lambda key: GRID_VALUES[key].map(lambda val: f"{key}={val}")),
    line, st.just("# comment"))


@FUZZ
@given(st.lists(st.one_of(stanza, st.lists(grid_line, max_size=10)), max_size=4),
       st.sampled_from(["\n\n", "\r\n\r\n", "\n  \n"]))
def test_grid(stanzas, sep):
    text = sep.join("\n".join(lines) for lines in stanzas)
    try:
        specs = parse_grid(text)
    except (ValueError, KeyError):
        return
    assert all(isinstance(spec, RunSpec) for spec in specs)
    for line in text.splitlines():
        key, _, val = line.partition("=")
        if line.strip().startswith("#"):
            continue
        if key.strip() in ("t", "k", "v", "seed"):
            assert decimal(val.strip())
        if key.strip() == "r_mult":
            assert val.isascii() and "_" not in val


@FUZZ
@given(GRID_VALUES["r_mult"])
def test_grid_r_mult(val):
    """One valid stanza with only ``r_mult`` drawn, so that every spelling
    reaches the parser."""
    try:
        (spec,) = parse_grid(f"t=2\nk=5\nv=2\nr_mult={val}\n")
    except ValueError:
        return
    assert val.strip().isascii() and "_" not in val
    assert spec.r_multiplier == float(val)
