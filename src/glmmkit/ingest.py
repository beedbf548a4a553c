"""CSV ingestion driven by a JSON model configuration.

Turns an RFC-4180 CSV file plus a :class:`ModelConfig` into a
:class:`~glmmkit.design.GlmmData`: fixed-effect terms are column names,
``"1"`` for the intercept, or ``a*b`` pairwise interactions (which pull
in both main effects); categorical columns expand to dummy indicators.
Rows with missing values in any referenced column are dropped and
counted.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .design import GlmmData, grouping_permutation
from .exceptions import ConfigError, IngestionError

__all__ = ["ModelConfig", "IngestResult", "ingest_csv"]

_MISSING = {"", "NA", "NaN", "nan", "N/A", "null", "NULL"}

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
        Quadrature points per dimension.
    seed : int or None
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
        if self.nagq is not None and self.nagq < 1:
            raise ConfigError(f"nagq must be >= 1, got {self.nagq}")
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
        return cls(
            response=str(raw["response"]),
            fixed=tuple(str(t) for t in raw["fixed"]),
            random=tuple(str(t) for t in raw["random"]),
            cluster=str(raw["cluster"]),
            family=str(raw["family"]),
            link=None if raw.get("link") is None else str(raw["link"]),
            categorical=tuple(str(c) for c in raw.get("categorical", ())),
            nagq=None if raw.get("nagq") is None else int(raw["nagq"]),
            seed=None if raw.get("seed") is None else int(raw["seed"]),
            structure=str(raw.get("structure", "unstructured")),
            optimizer=dict(raw.get("optimizer", {})),
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


def _read_rows(path):
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
    except OSError as exc:
        raise IngestionError(f"cannot read data file {path}: {exc}") from exc
    if not rows:
        raise IngestionError(f"{path} is empty; a header row is required")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise IngestionError(f"{path} has duplicate column names")
    width = len(header)
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise IngestionError(
                f"line {lineno}: expected {width} fields, found {len(row)}"
            )
    return header, rows[1:]


def _classify(name, values, lines, declared_categorical):
    """Return ("numeric", float-array) or ("categorical", str-array)."""
    if name in declared_categorical:
        return "categorical", np.asarray(values, dtype=object)
    parsed = np.empty(len(values))
    bad: list[int] = []
    ok = 0
    for idx, value in enumerate(values):
        try:
            parsed[idx] = float(value)
            ok += 1
        except ValueError:
            bad.append(lines[idx])
    if not bad:
        return "numeric", parsed
    if ok == 0:
        return "categorical", np.asarray(values, dtype=object)
    shown = ", ".join(str(b) for b in bad[:5])
    more = "" if len(bad) <= 5 else f" (+{len(bad) - 5} more)"
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
    header, body = _read_rows(path)
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

    kept_lines: list[int] = []
    dropped: list[int] = []
    raw: dict[str, list[str]] = {name: [] for name in referenced}
    for lineno, row in enumerate(body, start=2):
        cells = {name: row[col_of[name]].strip() for name in referenced}
        if any(cells[name] in _MISSING for name in referenced):
            dropped.append(lineno)
            continue
        kept_lines.append(lineno)
        for name in referenced:
            raw[name].append(cells[name])
    if not kept_lines:
        raise IngestionError(
            "no rows left after dropping missing values "
            f"({len(dropped)} dropped)"
        )

    declared = set(config.categorical)
    kinds: dict[str, tuple[str, np.ndarray]] = {}
    for name in referenced:
        if name == config.cluster:
            continue
        kinds[name] = _classify(name, raw[name], kept_lines, declared)
    if config.response in kinds and kinds[config.response][0] != "numeric":
        raise IngestionError(
            f"response column {config.response!r} must be numeric"
        )

    n_kept = len(kept_lines)
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
    data = GlmmData.from_arrays(y, x, z, cluster,
                                x_names=x_names, z_names=z_names)

    order = grouping_permutation(cluster)
    extra: dict[str, np.ndarray] = {}
    for name in extra_columns:
        if name in kinds:
            extra[name] = kinds[name][1][order]
        else:   # the cluster column itself was requested
            extra[name] = np.asarray(raw[name], dtype=object)[order]
    return IngestResult(
        data=data,
        n_dropped=len(dropped),
        dropped_lines=tuple(dropped),
        extra=extra,
    )
