"""The two CSV readers behind ``ingest_csv``, and unreadable data files.

A file with no ``"`` and no lone ``\\r`` is split by ``str.split``; any
other file goes through ``csv.reader``.  Quoting one harmless cell sends
the same table down the other path, and the outcome must not change.
"""

import codecs
import csv
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmmkit import GlmmKitError, IngestionError, ModelConfig, ingest_csv
from glmmkit import ingest
from oracles import split_lines

CONFIG = ModelConfig.from_dict({"response": "y", "fixed": ["1", "x"],
                                "random": ["1"], "cluster": "id",
                                "family": "binomial"})
MISSING = ["", "NA", "NaN", "nan", "N/A", "null", "NULL"]
HEADER = ["y", "x", "g", "d", "m", "id", "w"]
CELLS = {
    "y": st.sampled_from(["0", "1", "1.0", "0.0"]),
    "x": st.one_of(st.integers(-9, 9).map(str),
                   st.floats(-5, 5, allow_nan=False).map(repr),
                   st.sampled_from(["1_0", "1e-3", "-.5"])),
    "g": st.sampled_from(["u", "v", "w"]),
    "d": st.sampled_from(["10", "20", "30"]),
    "m": st.sampled_from(["0.5", "1", "-2", "oops", "bad"]),
    "id": st.sampled_from(["a", "b", "c", "1", "1.0"]),
    "w": st.floats(-3, 3, allow_nan=False).map(repr),
}


@st.composite
def cells(draw, name):
    value = draw(st.one_of(CELLS[name], st.sampled_from(MISSING))
                 if draw(st.integers(0, 9)) == 0 else CELLS[name])
    pad = st.sampled_from(["", " ", "  "])
    return draw(pad) + value + draw(pad)


@st.composite
def tables(draw):
    """CSV text (never quoted) plus the config and extras to ingest it."""
    n_rows = draw(st.integers(2, 12))
    lines = [",".join(HEADER)]
    lines += [",".join(draw(cells(name)) for name in HEADER)
              for _ in range(n_rows)]
    if draw(st.integers(0, 5)) == 0:            # a ragged row
        row = draw(st.integers(1, n_rows))
        lines[row] = (lines[row].rsplit(",", 1)[0]
                      if draw(st.booleans()) else lines[row] + ",extra")
    if draw(st.integers(0, 5)) == 0:            # a blank line
        lines.insert(draw(st.integers(1, len(lines))), "")
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + (ending if draw(st.booleans()) else "")
    bom = draw(st.sampled_from(["", "\ufeff"]))
    fixed = ["1"] + draw(st.lists(
        st.sampled_from(["x", "g", "d", "m", "x*g", "x*d"]),
        max_size=3, unique=True))
    config = ModelConfig.from_dict({
        "response": "y", "fixed": fixed,
        "random": draw(st.sampled_from([["1"], ["1", "x"]])),
        "cluster": "id", "family": "binomial",
        "categorical": draw(st.sampled_from([[], ["d"]])),
    })
    extra = draw(st.sampled_from([(), ("w",), ("id",), ("w", "id")]))
    return bom, text, config, extra


def _outcome(path, config, extra):
    try:
        result = ingest_csv(path, config, extra_columns=extra)
    except GlmmKitError as exc:
        return type(exc), str(exc)
    d = result.data
    arrays = [d.y, d.X, d.Z, d.cluster_index, d.offsets]
    arrays += [result.extra[name] for name in extra]
    return ([(a.dtype, a.shape, a.tolist()) for a in arrays],
            d.cluster_ids, d.x_names, d.z_names,
            result.n_dropped, result.dropped_lines, tuple(result.extra))


@settings(max_examples=100, deadline=None)
@given(table=tables())
def test_fast_path_and_csv_reader_agree(table):
    bom, text, config, extra = table
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(bom + text)
        with mock.patch.object(csv, "reader",
                               side_effect=AssertionError("csv.reader used")):
            fast = _outcome(path, config, extra)
        # quoting the first header name changes no value, only the path
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(bom + '"y"' + text[1:])
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            slow = _outcome(path, config, extra)
        assert reader.called
    assert fast == slow


@st.composite
def bodies(draw):
    """Unquoted CSV bodies of 0 to 4 fields a line, with ragged and blank
    lines, non-ASCII cells and an optional final newline."""
    width = draw(st.integers(0, 4))
    cell = st.text(st.sampled_from(["a", "1", ".", " ", "-", "é", "中", "😀"]),
                   max_size=3)
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        count = width + (kind == 1) - (kind == 2)
        lines.append("" if kind == 0
                     else ",".join(draw(cell) for _ in range(count)))
    ending = "\n" if draw(st.booleans()) else ""
    return width, "\n".join(lines) + (ending if lines else "")


def _split_outcome(split):
    try:
        return split()
    except IngestionError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(case=bodies(), width=st.integers(0, 4), scan=st.integers(1, 9))
def test_text_split_matches_the_line_by_line_reference(case, width, scan):
    # the field counts come from a scan of the bytes in slices of ``scan``
    # characters; the reference counts the commas of every line string
    drawn, body = case
    for expect_width in (drawn, width):
        header = [f"h{j}" for j in range(expect_width)]
        text = ",".join(header) + "\n" + body
        lines = body.split("\n")
        if lines[-1] == "":
            lines.pop()
        expect = _split_outcome(lambda: (
            header, split_lines(list(lines), expect_width), len(lines)))
        with mock.patch.object(ingest, "_SCAN", scan):
            got = _split_outcome(
                lambda: ingest._split_unquoted("data.csv", [text]))
        assert got == expect


@pytest.mark.parametrize("first", ["y", '"y"'])
def test_blank_line_of_a_one_column_file_has_no_fields(tmp_path, first):
    # one column means no commas, so only the blank test catches the line
    path = tmp_path / "data.csv"
    path.write_text(f"{first}\n1\n\n0\n", encoding="utf-8")
    with pytest.raises(IngestionError,
                       match="^line 3: expected 1 fields, found 0$"):
        ingest_csv(path, CONFIG)


def test_lone_carriage_return_takes_the_csv_reader(tmp_path):
    # csv.reader ends a record at a lone \r; the split path must not run
    path = tmp_path / "data.csv"
    path.write_bytes(b"y,x,id\r1,0.5,a\r0,0.2,b\r")
    with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
        result = ingest_csv(path, CONFIG)
    assert reader.called
    np.testing.assert_array_equal(result.data.y, [1.0, 0.0])


# ---------------------------------------------------------------------------
# files that are not UTF-8 text or not CSV


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8])
def test_non_utf8_file_names_the_file_and_byte_offset(tmp_path, bom):
    raw = bom + "y,x,id\n1,0.5,café\n0,0.2,b\n".encode("latin-1")
    path = tmp_path / "latin1.csv"
    path.write_bytes(raw)
    with pytest.raises(IngestionError) as info:
        ingest_csv(path, CONFIG)
    message = str(info.value)
    assert str(path) in message
    offset = raw.index("é".encode("latin-1"))
    assert f"byte offset {offset}" in message


def test_csv_error_is_an_ingestion_error(tmp_path):
    too_long = "z" * (csv.field_size_limit() + 1)
    path = tmp_path / "huge.csv"
    path.write_text(f'y,x,id\n1,0.5,"{too_long}"\n', encoding="utf-8")
    with pytest.raises(IngestionError, match="not valid CSV") as info:
        ingest_csv(path, CONFIG)
    assert str(path) in str(info.value)
