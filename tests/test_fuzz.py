"""Fuzzing of the two file parsers.

Any text gives ``parse_array_file`` a valid array or an ``ArrayFileError``,
and gives ``parse_grid`` a list of RunSpec or a ValueError/KeyError (the
errors ``cmd_benchmark`` maps to exit 2); no other exception escapes.
"""

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
                        "٣", "=", " = ", "\t"])
token = st.one_of(integers.map(str), junk)
line = st.lists(token, max_size=6).map(" ".join)


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
        line))
    cell = st.one_of(st.integers(0, v - 1), integers).map(str)
    row = st.one_of(st.lists(cell, min_size=k, max_size=k).map(" ".join), line,
                    st.just("# comment"), st.just("   "))
    rows = draw(st.lists(row, max_size=6))
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join([header, *rows]) + draw(st.sampled_from(["", sep]))


def check_array_text(text):
    try:
        array, p = parse_array_file(text)
    except ArrayFileError:
        return
    n, k, t, v = (int(x) for x in text.splitlines()[0].split()[1:])
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
    "t": st.one_of(st.integers(-1, 5).map(str), junk),
    "k": st.one_of(st.integers(-1, 12).map(str), junk),
    "v": st.one_of(st.integers(-1, 7).map(str), junk),
    "stage1": st.sampled_from([*STAGE1_KINDS, "RAND", ""]),
    "stage2": st.sampled_from([*STAGE2_KINDS, "dens", ""]),
    "group": st.sampled_from([*(g.value for g in GroupKind), "dihedral", ""]),
    "r_mult": st.one_of(st.floats(allow_nan=True).map(repr), integers.map(str),
                        st.sampled_from(["1e-400", "1e400", "-inf"]), junk),
    "seed": st.one_of(integers.map(str), junk),
    "verify": st.sampled_from(["true", "yes", "1", "no", "maybe", ""]),
    "color": st.just("1"),
}
grid_line = st.one_of(
    st.sampled_from(list(GRID_VALUES)).flatmap(
        lambda key: GRID_VALUES[key].map(lambda val: f"{key}={val}")),
    line, st.just("# comment"))


@FUZZ
@given(st.lists(st.lists(grid_line, max_size=10), max_size=4),
       st.sampled_from(["\n\n", "\r\n\r\n", "\n  \n"]))
def test_grid(stanzas, sep):
    text = sep.join("\n".join(lines) for lines in stanzas)
    try:
        specs = parse_grid(text)
    except (ValueError, KeyError):
        return
    assert all(isinstance(spec, RunSpec) for spec in specs)
