"""CSV ingestion driven by a JSON model configuration.

Turns an RFC-4180 CSV file plus a :class:`ModelConfig` into a
:class:`~glmmkit.design.GlmmData`: fixed-effect terms are column names,
``"1"`` for the intercept, or ``a*b`` pairwise interactions (which pull
in both main effects); categorical columns expand to dummy indicators.
Rows with missing values in any referenced column are dropped and
counted.

The file is read once and decoded as UTF-8 (a leading byte-order mark is
dropped).  Parsing then works column by column.  When the text has no
``"`` and no lone ``\r`` once ``\r\n`` is read as ``\n``, no cell can be
quoted or span lines, so a fast path finds every line end and comma in
one vectorized scan of the text's UTF-8 bytes, checks each line's field
count from them, splits the text once on both and takes every column as
a stride slice.  Any other file goes through ``csv.reader``.
Both paths give the same header and columns (a blank line has 0 fields,
as ``csv.reader`` counts it), plus the file line on which each row
starts: a quoted cell may span lines, so line numbers in messages and in
``dropped_lines`` come from the reader, not from the row count.

Each referenced column that is neither the cluster nor declared
categorical is parsed in blocks of ``_BLOCK`` cells, one
``np.array(cells, dtype=float)`` call each, which reads a cell as
``float`` does, padding included.  A block that parses costs no further
per-cell work beyond a look at its NaN cells, which are missing when
they strip to a token.  A block with a cell ``float`` rejects is
stripped, masked for missing-value tokens and parsed again without
them, cell by cell only if that fails, so a non-numeric cell costs at
most one block's parse twice.  Once the rows with a missing value in
any referenced column are dropped, a column whose kept cells all parse
is numeric, one whose kept cells all fail is categorical, and a mix is
an error naming the lines.  The cluster and declared categorical
columns are stripped and masked for missing values.  Cluster ids are
coded once, by first appearance.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

import numpy as np

from .design import GlmmData, _codes_by_first_appearance
from .exceptions import ConfigError, IngestionError, _check_integer

__all__ = ["ModelConfig", "IngestResult", "ingest_csv"]

_MISSING = {"", "NA", "NaN", "nan", "N/A", "null", "NULL"}
_BLOCK = 2048   # cells per parse call in _scan
_SCAN = 1 << 16  # characters per slice of _field_counts' byte scan

_CONFIG_KEYS = {
    "response", "fixed", "random", "cluster", "family", "link",
    "categorical", "nagq", "seed", "structure", "optimizer",
}
_OPTIMIZER_KEYS = {"max_fev", "restarts"}


@dataclass(frozen=True)
class ModelConfig:
    """Declarative model description used by the CLI.

    Attributes
    ----------
    response : str
        Response column name.
    fixed : tuple of str
        Fixed-effect terms: ``"1"`` for the intercept, a column name for
        a main effect, or ``"a*b"`` for an interaction (main effects of
        both operands are included automatically).  Omitting ``"1"``
        drops the intercept and switches categorical expansion to full
        dummy coding.
    random : tuple of str
        Random-effect columns (``"1"`` for a random intercept); numeric
        columns only.
    cluster : str
        Grouping column.
    family, link : str
        Response family, and optionally a non-canonical link.
    categorical : tuple of str
        Columns forced to categorical even if they parse as numbers.
    nagq : int or None
        Quadrature points per dimension, at least 1.
    seed : int or None
        Echoed in the output metadata.
    structure : str
        Random-effect covariance structure.
    optimizer : dict
        Optional :class:`~glmmkit.estimation.FitControl` overrides:
        max_fev (evaluation budget) and restarts.
    """

    response: str
    fixed: tuple[str, ...]
    random: tuple[str, ...]
    cluster: str
    family: str
    link: str | None = None
    categorical: tuple[str, ...] = ()
    nagq: int | None = None
    seed: int | None = None
    structure: str = "unstructured"
    optimizer: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.nagq is not None:
            _check_integer(self.nagq, "nagq", 1)
        if self.seed is not None:
            _check_integer(self.seed, "seed")
        if not self.fixed:
            raise ConfigError("at least one fixed-effect term is required")
        if not self.random:
            raise ConfigError("at least one random-effect column is required")
        extra = set(self.optimizer) - _OPTIMIZER_KEYS
        if extra:
            raise ConfigError(f"unknown optimizer settings {sorted(extra)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        missing = {"response", "fixed", "random", "cluster", "family"} - set(raw)
        if missing:
            raise ConfigError(f"config is missing keys {sorted(missing)}")

        def names(key):
            value = raw.get(key, ())
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key} must be a list, got {value!r}")
            return tuple(str(t) for t in value)

        optimizer = raw.get("optimizer", {})
        if not isinstance(optimizer, dict):
            raise ConfigError(
                f"optimizer must be an object, got {optimizer!r}")
        return cls(
            response=str(raw["response"]),
            fixed=names("fixed"),
            random=names("random"),
            cluster=str(raw["cluster"]),
            family=str(raw["family"]),
            link=None if raw.get("link") is None else str(raw["link"]),
            categorical=names("categorical"),
            nagq=raw.get("nagq"),
            seed=raw.get("seed"),
            structure=str(raw.get("structure", "unstructured")),
            optimizer=dict(optimizer),
        )

    @classmethod
    def from_json_file(cls, path) -> "ModelConfig":
        try:
            with open(path, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(raw)

    def term_columns(self) -> list[str]:
        """All data columns the fixed and random terms reference."""
        names: list[str] = []
        for term in self.fixed:
            for part in _split_term(term):
                if part != "1" and part not in names:
                    names.append(part)
        for term in self.random:
            if term != "1" and term not in names:
                names.append(term)
        return names


@dataclass(frozen=True)
class IngestResult:
    """A built dataset plus bookkeeping about dropped rows."""

    data: GlmmData
    n_dropped: int
    dropped_lines: tuple[int, ...]    # 1-based file line numbers
    extra: dict                       # extra column name -> per-row values


def _split_term(term: str) -> list[str]:
    parts = [p.strip() for p in term.split("*")]
    if len(parts) > 2:
        raise ConfigError(
            f"term {term!r}: only pairwise interactions are supported"
        )
    if any(not p for p in parts):
        raise ConfigError(f"malformed term {term!r}")
    return parts


def _ragged(lineno, width, found):
    return IngestionError(
        f"line {lineno}: expected {width} fields, found {found}"
    )


def _read_text(path):
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise IngestionError(f"cannot read data file {path}: {exc}") from exc
    bom = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        return raw[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(
            f"data file {path} is not UTF-8: byte offset {bom + exc.start} "
            f"({exc.reason})"
        ) from exc


def _split_unquoted(path, box):
    """Header, columns and number of body lines of unquoted CSV text.

    ``_field_counts`` gives every line's field count from the text's
    bytes; then the text is split once on line ends and commas, and each
    column is a stride slice past the header's cells.  Empties ``box``,
    which holds the only reference to the text, so the text is freed
    before the cells are made.
    """
    text = box.pop()
    end = text.find("\n")
    first = text if end < 0 else text[:end]
    header = _header(path, first.split(",") if first else [])
    width = len(header)
    found = _field_counts(text)[1:]    # the header line comes first
    wrong = np.flatnonzero(found != width)
    if wrong.size:
        line = int(wrong[0])
        raise _ragged(line + 2, width, int(found[line]))
    n_lines = found.size
    del found
    if not width:
        return header, [], n_lines
    final = text[-1] == "\n"
    flat = text.replace("\n", ",")
    del text
    flat = flat.split(",")
    if final:
        flat.pop()
    return header, [flat[j::width] for j in range(width, 2 * width)], n_lines


def _field_counts(text):
    """Fields on each line of non-empty unquoted text: its commas plus
    one, or 0 when blank, as ``csv.reader`` counts them.

    The text's UTF-8 bytes are scanned ``_SCAN`` characters at a time, so
    no array is larger than a slice's; a line end or comma is one byte
    that occurs inside no multi-byte character.  A line that runs past a
    slice carries its commas and its length into the next.
    """
    counts = []
    commas = length = 0     # so far on the line that runs into the slice
    for start in range(0, len(text), _SCAN):
        codes = np.frombuffer(text[start:start + _SCAN].encode("utf-8"),
                              dtype=np.uint8)
        marks = np.flatnonzero((codes == ord("\n")) | (codes == ord(",")))
        at = np.flatnonzero(codes[marks] == ord("\n"))
        if not at.size:
            commas += marks.size
            length += codes.size
            continue
        ends = marks[at]
        # the marks from one line end to the next are a line's commas and
        # its end; a line is blank when its end follows the previous one
        found = np.diff(at, prepend=-1)
        found[0] += commas
        found[np.diff(ends, prepend=-1 - length) == 1] = 0
        counts.append(found)
        commas = marks.size - at[-1] - 1
        length = codes.size - ends[-1] - 1
    if length:              # the last line has no line end
        counts.append(np.array([commas + 1]))
    return np.concatenate(counts)


def _split_rows(rows, width, lines):
    """Columns of rows that ``csv.reader`` produced."""
    for lineno, row in zip(lines.tolist(), rows):
        if len(row) != width:
            raise _ragged(lineno, width, len(row))
    return [[row[j] for row in rows] for j in range(width)]


def _csv_rows(path, text):
    """Rows of ``csv.reader`` and the file line on which each starts."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows: list[list[str]] = []
    starts: list[int] = []
    start = 1
    try:
        for row in reader:
            rows.append(row)
            starts.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise IngestionError(
            f"data file {path} is not valid CSV near line "
            f"{reader.line_num}: {exc}"
        ) from exc
    return rows, starts


class _Table(NamedTuple):
    """A CSV file's header and raw body columns, and the ``_scan`` of each
    column parsed so far, keyed by position."""

    header: list[str]
    columns: list[list[str]]
    lines: np.ndarray    # the file line on which each body row starts
    scans: dict


def _read_table(path) -> _Table:
    """Header and raw columns of a CSV file with a rectangular body."""
    text = _read_text(path)
    unix = text.replace("\r\n", "\n") if "\r" in text else text
    if '"' in unix or "\r" in unix:
        del unix
        rows, starts = _csv_rows(path, text)
        del text
        if not rows:
            raise _empty(path)
        header = _header(path, rows.pop(0))
        lines = np.asarray(starts[1:], dtype=int)
        return _Table(header, _split_rows(rows, len(header), lines), lines,
                      {})
    del text
    if not unix:
        raise _empty(path)
    box = [unix]
    del unix
    header, columns, n_lines = _split_unquoted(path, box)
    return _Table(header, columns, np.arange(2, n_lines + 2), {})


def _empty(path):
    return IngestionError(f"{path} is empty; a header row is required")


def _header(path, first):
    """Column names from the cells of a header row."""
    header = [h.strip() for h in first]
    if len(set(header)) != len(header):
        raise IngestionError(f"{path} has duplicate column names")
    return header


def _scan(cells):
    """Parse a column's raw cells as floats, ``_BLOCK`` cells at a time.

    Returns the values (NaN where a cell is missing or unparseable), a
    mask of the cells that strip to a missing-value token, and a mask of
    the other cells ``float`` rejects.
    """
    n = len(cells)
    values = np.full(n, np.nan)
    missing = np.zeros(n, dtype=bool)
    bad = np.zeros(n, dtype=bool)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        try:
            values[start:stop] = np.array(cells[start:stop], dtype=float)
        except ValueError:
            stripped = list(map(str.strip, cells[start:stop]))
            present = [cell not in _MISSING for cell in stripped]
            missing[start:stop] = np.logical_not(present)
            rows = np.flatnonzero(present) + start
            block = list(compress(stripped, present))
            try:
                values[rows] = np.array(block, dtype=float)
            except ValueError:
                for i, cell in zip(rows.tolist(), block):
                    try:
                        values[i] = float(cell)
                    except ValueError:
                        bad[i] = True
            continue
        for i in np.flatnonzero(np.isnan(values[start:stop])) + start:
            missing[i] = cells[i].strip() in _MISSING
    return values, missing, bad


def _scan_column(table: _Table, j: int):
    """``_scan`` of the table's column ``j``, parsed once per table."""
    if j not in table.scans:
        table.scans[j] = _scan(table.columns[j])
    return table.scans[j]


def _classify(name, scan, cells, kept, lines):
    """Return ("numeric", float-array) or ("categorical", str-array) for
    the kept rows of a scanned column.

    ``lines`` holds the file line of each row, for error messages.
    """
    values, _, bad = scan
    bad = bad[kept]
    if not bad.any():
        return "numeric", values[kept]
    if bad.all():
        return "categorical", np.asarray([cells[i].strip() for i in kept],
                                         dtype=object)
    rows = kept[bad]
    shown = ", ".join(str(lines[r]) for r in rows[:5])
    more = "" if rows.size <= 5 else f" (+{rows.size - 5} more)"
    raise IngestionError(
        f"column {name!r} mixes numeric and non-numeric values; "
        f"unparseable at line(s) {shown}{more}"
    )


def _dummy_block(name, values, full_coding):
    levels = sorted(set(values))
    if len(levels) < 2:
        raise IngestionError(
            f"categorical column {name!r} has a single level after dropping"
        )
    used = levels if full_coding else levels[1:]
    block = np.column_stack([
        (np.asarray(values, dtype=object) == lvl).astype(float) for lvl in used
    ])
    labels = [f"{name}[{lvl}]" for lvl in used]
    return block, labels


def ingest_csv(path, config: ModelConfig, extra_columns=()) -> IngestResult:
    """Build a :class:`GlmmData` from a CSV file and a model config.

    Parameters
    ----------
    path : str or path-like
        CSV file with a header row.
    config : ModelConfig
    extra_columns : sequence of str
        Additional columns to carry through row dropping (for example an
        ordering variable); returned raw in ``IngestResult.extra``.

    Raises
    ------
    IngestionError
        Unknown columns, unparseable numeric values (with line numbers),
        or no rows left after dropping missing values.
    """
    return _build(_read_table(path), config, extra_columns)


def _build(table: _Table, config: ModelConfig, extra_columns=()) -> IngestResult:
    """:func:`ingest_csv` on a table already read.  One read can serve
    several configs: the table keeps each column's scan, so a column
    they share is parsed once."""
    header, columns, lines = table.header, table.columns, table.lines
    col_of = {name: j for j, name in enumerate(header)}
    if (config.cluster == config.response
            or config.cluster in config.term_columns()):
        raise IngestionError(
            f"cluster column {config.cluster!r} cannot double as a model term"
        )
    referenced = [config.response, config.cluster]
    referenced += [c for c in config.term_columns() if c not in referenced]
    for name in extra_columns:
        if name not in referenced:
            referenced.append(name)
    for name in referenced:
        if name not in col_of:
            raise IngestionError(
                f"column {name!r} not found; available: {', '.join(header)}"
            )

    declared = set(config.categorical)
    scans = {name: _scan_column(table, col_of[name]) for name in referenced
             if name != config.cluster and name not in declared}
    raw = {name: list(map(str.strip, columns[col_of[name]]))
           for name in referenced if name not in scans}
    missing = np.zeros(len(lines), dtype=bool)
    for _, column_missing, _ in scans.values():
        missing |= column_missing
    for cells in raw.values():
        if not _MISSING.isdisjoint(cells):
            missing |= np.array([cell in _MISSING for cell in cells],
                                dtype=bool)
    kept = np.flatnonzero(~missing)
    dropped = lines[missing].tolist()
    if not kept.size:
        raise IngestionError(
            "no rows left after dropping missing values "
            f"({len(dropped)} dropped)"
        )
    if dropped:
        keep = (~missing).tolist()
        raw = {name: list(compress(cells, keep)) for name, cells in raw.items()}

    kinds: dict[str, tuple[str, np.ndarray]] = {}
    for name in referenced:
        if name in scans:
            kinds[name] = _classify(name, scans[name], columns[col_of[name]],
                                    kept, lines)
        elif name != config.cluster:
            kinds[name] = "categorical", np.asarray(raw[name], dtype=object)
    if config.response in kinds and kinds[config.response][0] != "numeric":
        raise IngestionError(
            f"response column {config.response!r} must be numeric"
        )

    n_kept = kept.size
    has_intercept = "1" in config.fixed
    x_blocks: list[np.ndarray] = []
    x_names: list[str] = []
    emitted: set[str] = set()

    def emit_main(name):
        if name in emitted:
            return
        emitted.add(name)
        kind, values = kinds[name]
        if kind == "numeric":
            x_blocks.append(values[:, None])
            x_names.append(name)
        else:
            block, labels = _dummy_block(name, values, not has_intercept)
            x_blocks.append(block)
            x_names.extend(labels)

    def columns_for(name):
        kind, values = kinds[name]
        if kind == "numeric":
            return [(name, values)]
        block, labels = _dummy_block(name, values, not has_intercept)
        return list(zip(labels, block.T))

    if has_intercept:
        x_blocks.append(np.ones((n_kept, 1)))
        x_names.append("(Intercept)")
    for term in config.fixed:
        if term == "1":
            continue
        parts = _split_term(term)
        for part in parts:
            emit_main(part)
        if len(parts) == 2:
            left, right = parts
            for l_label, l_col in columns_for(left):
                for r_label, r_col in columns_for(right):
                    # a product that is not finite (inf * 0, or an
                    # overflow) fails the design's finiteness check with
                    # its typed error, so it need not warn first
                    with np.errstate(invalid="ignore", over="ignore"):
                        x_blocks.append((l_col * r_col)[:, None])
                    x_names.append(f"{l_label}:{r_label}")

    z_blocks: list[np.ndarray] = []
    z_names: list[str] = []
    for term in config.random:
        if term == "1":
            z_blocks.append(np.ones((n_kept, 1)))
            z_names.append("(Intercept)")
            continue
        kind, values = kinds[term]
        if kind != "numeric":
            raise IngestionError(
                f"random-effect column {term!r} must be numeric"
            )
        z_blocks.append(values[:, None])
        z_names.append(term)

    y = kinds[config.response][1]
    x = np.hstack(x_blocks)
    z = np.hstack(z_blocks)
    cluster = np.asarray(raw[config.cluster], dtype=object)
    coding = _codes_by_first_appearance(cluster)
    data = GlmmData.from_arrays(y, x, z, cluster, x_names=x_names,
                                z_names=z_names, _coding=coding)

    order = np.argsort(coding[1], kind="stable")
    extra: dict[str, np.ndarray] = {}
    for name in extra_columns:
        if name in kinds:
            extra[name] = kinds[name][1][order]
        else:   # the cluster column itself was requested
            extra[name] = cluster[order]
    return IngestResult(
        data=data,
        n_dropped=len(dropped),
        dropped_lines=tuple(dropped),
        extra=extra,
    )
