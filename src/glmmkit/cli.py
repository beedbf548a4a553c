"""Command-line front end.

Subcommands: fit, scores, hessian, sandwich, sctest, vuong.  Inputs are
an RFC-4180 CSV plus a JSON model config; outputs are JSON (with an
embedded metadata block) or CSV.  Floating-point values are serialized
with 17 significant digits so downstream comparisons are exact, and all
failures exit nonzero with machine-readable error JSON on stdout.

Thread control: ``--threads N`` (or the ``GLMMKIT_THREADS`` environment
variable) pins the BLAS/OpenMP thread count.  Because the linear-algebra
libraries read their environment at import time, the CLI re-executes
itself once with the variables set before any numeric module loads.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_SENTINEL = "GLMMKIT_THREADS_APPLIED"

_RANPAR_CHOICES = ("theta", "var", "sd")
_FUNCTIONAL_CHOICES = ("dm", "cvm", "maxlm", "maxlmo")


# ---------------------------------------------------------------------------
# serialization helpers


def _json_scalar(value) -> str:
    import numpy as np

    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        number = float(value)
        return format(number, ".17g") if math.isfinite(number) else "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _to_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    import numpy as np

    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(_to_json(v) for v in seq) + "]"
    return _json_scalar(obj)


def _metadata(seed=None, nagq=None, parameterization=None) -> dict:
    from . import __version__

    return {
        "version": __version__,
        "seed": seed,
        "nagq": nagq,
        "parameterization": parameterization,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")


def _write_json(path, payload):
    _write_text(path, _to_json(payload))


def _write_csv(path, header, rows):
    def emit(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                format(v, ".17g") if isinstance(v, float) else v for v in row
            ])

    if path is None or path == "-":
        emit(sys.stdout)
    else:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            emit(handle)


def _read_json_file(path, what):
    from .exceptions import ConfigError

    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# model plumbing shared by the subcommands


def _ingest(args, config, extra_columns=()):
    from .ingest import ingest_csv

    return ingest_csv(args.data, config, extra_columns=extra_columns)


def _config_from_args(args, attr="config"):
    from .ingest import ModelConfig

    return ModelConfig.from_json_file(getattr(args, attr))


def _family_of(config):
    from .families import family_spec

    return family_spec(config.family, config.link)


def _fit_control(config):
    from .estimation import FitControl

    options = dict(config.optimizer)
    if config.nagq is not None:
        options["n_points"] = config.nagq
    return FitControl(**options)


def _rehydrate(args, config=None, fit_attr="fit", extra_columns=()):
    """Rebuild a FittedGlmm from a fit JSON plus the original data."""
    from .estimation import load_fitted
    from .exceptions import ConfigError

    config = config or _config_from_args(args)
    ingest = _ingest(args, config, extra_columns=extra_columns)
    stored = _read_json_file(getattr(args, fit_attr), "fit")
    try:
        estimate = stored["estimate"]
        model = stored["model"]
        beta = estimate["beta"]
        theta = estimate["theta"]
        family = model["family"]
        link = model["link"]
        structure = model["structure"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(
            f"fit file {getattr(args, fit_attr)} is missing field {exc}"
        ) from exc
    from .families import family_spec

    fitted = load_fitted(beta, theta, ingest.data, family_spec(family, link),
                         structure=structure)
    return fitted, ingest, config


def _derivative_points(args, fitted):
    from .estimation import default_points

    if getattr(args, "nagq", None) is not None:
        return args.nagq
    return default_points(fitted.data.n_random, "derivatives")


def _parse_parm(spec: str):
    from .exceptions import ConfigError

    indices: list[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk[1:]:
            lo, _, hi = chunk.partition("-")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise ConfigError(f"bad parm range {chunk!r}") from None
            if hi_i < lo_i:
                raise ConfigError(f"bad parm range {chunk!r}")
            indices.extend(range(lo_i, hi_i + 1))
        else:
            try:
                indices.append(int(chunk))
            except ValueError:
                raise ConfigError(f"bad parm index {chunk!r}") from None
    if not indices:
        raise ConfigError(f"parm spec {spec!r} selects nothing")
    return indices


def _cluster_level(values, data, what):
    """Reduce a per-row column to one value per cluster."""
    import numpy as np

    from .exceptions import ConfigError

    values = np.asarray(values)
    first = values[data.offsets[:-1]]
    varies = values != first[data.cluster_index]
    if np.any(varies):
        i = data.cluster_index[np.argmax(varies)]
        raise ConfigError(
            f"{what} varies within cluster {data.cluster_ids[i]!r}; "
            "one value per cluster is required"
        )
    return first


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_fit(args) -> int:
    from .estimation import fit as fit_model

    config = _config_from_args(args)
    ingest = _ingest(args, config)
    if args.nagq is not None:
        config = _replace_nagq(config, args.nagq)
    fitted = fit_model(ingest.data, _family_of(config),
                       structure=config.structure,
                       control=_fit_control(config))
    payload = {
        "metadata": _metadata(seed=config.seed, nagq=fitted.m_used),
        "model": {
            "family": fitted.family.family,
            "link": fitted.family.link,
            "structure": fitted.structure,
            "x_names": list(ingest.data.x_names),
            "z_names": list(ingest.data.z_names),
            "n_obs": ingest.data.n_obs,
            "n_clusters": ingest.data.n_clusters,
            "n_dropped_rows": ingest.n_dropped,
        },
        "estimate": {
            "beta": fitted.beta,
            "theta": fitted.theta,
            "loglik": fitted.loglik,
            "converged": fitted.converged,
            "boundary": fitted.boundary,
            "grad_norm": fitted.grad_norm,
            "n_fev": fitted.n_fev,
            "nagq": fitted.m_used,
        },
    }
    _write_json(args.out, payload)
    return 0


def _replace_nagq(config, nagq):
    import dataclasses

    return dataclasses.replace(config, nagq=nagq)


def _cmd_scores(args) -> int:
    from .derivatives import estfun

    fitted, _, _ = _rehydrate(args)
    n_points = _derivative_points(args, fitted)
    scores = estfun(fitted, parameterization=args.ranpar, n_points=n_points)
    _write_csv(args.out, scores.labels,
               [list(map(float, row)) for row in scores.values])
    return 0


def _cmd_hessian(args) -> int:
    from .derivatives import hessian

    fitted, _, config = _rehydrate(args)
    n_points = _derivative_points(args, fitted)
    result = hessian(fitted, parameterization=args.ranpar, n_points=n_points)
    payload = {
        "metadata": _metadata(seed=config.seed, nagq=n_points,
                              parameterization=args.ranpar),
        "labels": list(result.labels),
        "hessian": result.values,
        "one_sided": list(result.one_sided),
    }
    _write_json(args.out, payload)
    return 0


def _cmd_sandwich(args) -> int:
    from .sandwich import sandwich_vcov

    fitted, _, config = _rehydrate(args)
    n_points = _derivative_points(args, fitted)
    result = sandwich_vcov(fitted, parameterization=args.ranpar,
                           n_points=n_points)
    payload = {
        "metadata": _metadata(seed=config.seed, nagq=n_points,
                              parameterization=args.ranpar),
        "labels": list(result.labels),
        "robust_se": result.robust_se,
        "model_se": result.model_se,
        "vcov": result.V,
        "bread": result.A,
        "meat": result.B,
    }
    _write_json(args.out, payload)
    return 0


def _cmd_sctest(args) -> int:
    from .stability import sctest

    fitted, ingest, _ = _rehydrate(args, extra_columns=(args.order_by,))
    order = _cluster_level(ingest.extra[args.order_by], fitted.data,
                           f"order-by column {args.order_by!r}")
    n_points = _derivative_points(args, fitted)
    parm = _parse_parm(args.parm) if args.parm else None
    result = sctest(fitted, order, parm=parm, functional=args.functional,
                    n_points=n_points, seed=args.seed, n_sim=args.n_sim,
                    parameterization=args.ranpar)
    path_file = args.path_out
    if path_file:
        header = ["t", "order_value"] + list(result.labels)
        rows = [[float(result.path.t[0]), ""]
                + [float(v) for v in result.path.values[0]]]
        for k in range(1, result.path.t.shape[0]):
            rows.append([float(result.path.t[k]),
                         str(result.path.order_values[k - 1])]
                        + [float(v) for v in result.path.values[k]])
        _write_csv(path_file, header, rows)
    payload = {
        "metadata": _metadata(seed=args.seed, nagq=n_points,
                              parameterization=args.ranpar),
        "functional": result.functional,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "critical_value_05": result.critical_value,
        "parm": list(result.parm),
        "labels": list(result.labels),
        "crossings": result.crossings,
        "n_sim": result.n_sim,
        "path_file": path_file,
    }
    _write_json(args.out, payload)
    return 0


def _cmd_vuong(args) -> int:
    from .exceptions import DegenerateError
    from .vuong import vuong_lr_test, vuong_variance_test

    config1 = _config_from_args(args, "config1")
    config2 = _config_from_args(args, "config2")
    fit1, _, _ = _rehydrate(args, config=config1, fit_attr="fit1")
    fit2, _, _ = _rehydrate(args, config=config2, fit_attr="fit2")
    nagq = args.nagq
    try:
        result = vuong_lr_test(fit1, fit2, nested=args.nested, n_points=nagq,
                               seed=args.seed, n_sim=args.n_sim)
    except DegenerateError:
        # omega2 is zero: only the variance test is defined
        result = vuong_variance_test(fit1, fit2, n_points=nagq,
                                     seed=args.seed, n_sim=args.n_sim)
    payload = {
        "metadata": _metadata(seed=args.seed, nagq=nagq),
        "omega2": result.omega2,
        "variance_p_value": result.variance_p_value,
        "weights": result.weights,
        "test": result.test,
        "statistic": result.statistic,
    }
    if result.test == "nested":
        payload["p_value"] = result.p_value
    elif result.test == "non-nested":
        payload["p_model1_better"] = result.p_a
        payload["p_model2_better"] = result.p_b
    else:
        payload["note"] = ("models are indistinguishable on this dataset; "
                           "the likelihood-ratio comparison is skipped")
    _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _add_common_model_args(sub, with_fit=True):
    if with_fit:
        sub.add_argument("--fit", required=True,
                         help="fit JSON produced by the fit subcommand")
    sub.add_argument("--data", required=True, help="input CSV file")
    sub.add_argument("--config", required=True, help="model config JSON")
    sub.add_argument("--nagq", type=int, default=None,
                     help="quadrature points per dimension")
    sub.add_argument("--out", default=None,
                     help="output file (default: stdout)")
    sub.add_argument("--threads", type=int, default=None,
                     help="BLAS/OpenMP thread count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glmmkit",
        description="GLMM marginal likelihoods, scores, and score-based tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate a model")
    _add_common_model_args(p_fit, with_fit=False)

    p_scores = sub.add_parser("scores", help="per-cluster score matrix (CSV)")
    _add_common_model_args(p_scores)
    p_scores.add_argument("--ranpar", choices=_RANPAR_CHOICES, default="var")

    p_hess = sub.add_parser("hessian", help="finite-difference Hessian (JSON)")
    _add_common_model_args(p_hess)
    p_hess.add_argument("--ranpar", choices=_RANPAR_CHOICES, default="var")

    p_sand = sub.add_parser("sandwich", help="robust covariance (JSON)")
    _add_common_model_args(p_sand)
    p_sand.add_argument("--ranpar", choices=_RANPAR_CHOICES, default="var")

    p_sct = sub.add_parser("sctest", help="parameter-instability score test")
    _add_common_model_args(p_sct)
    p_sct.add_argument("--ranpar", choices=_RANPAR_CHOICES, default="var")
    p_sct.add_argument("--order-by", required=True, dest="order_by",
                       help="data column that orders the clusters")
    p_sct.add_argument("--parm", default=None,
                       help="0-based column subset, e.g. '0-4' or '0,2,7'")
    p_sct.add_argument("--functional", choices=_FUNCTIONAL_CHOICES,
                       default="dm")
    p_sct.add_argument("--seed", type=int, required=True)
    p_sct.add_argument("--n-sim", type=int, default=50000, dest="n_sim")
    p_sct.add_argument("--path-out", default=None, dest="path_out",
                       help="write the fluctuation path as CSV here")

    p_vg = sub.add_parser("vuong", help="Vuong model comparison tests")
    p_vg.add_argument("--fit1", required=True)
    p_vg.add_argument("--config1", required=True)
    p_vg.add_argument("--fit2", required=True)
    p_vg.add_argument("--config2", required=True)
    p_vg.add_argument("--data", required=True)
    p_vg.add_argument("--nested", action="store_true")
    p_vg.add_argument("--seed", type=int, required=True)
    p_vg.add_argument("--n-sim", type=int, default=10 ** 6, dest="n_sim")
    p_vg.add_argument("--nagq", type=int, default=None)
    p_vg.add_argument("--out", default=None)
    p_vg.add_argument("--threads", type=int, default=None)

    return parser


_HANDLERS = {
    "fit": _cmd_fit,
    "scores": _cmd_scores,
    "hessian": _cmd_hessian,
    "sandwich": _cmd_sandwich,
    "sctest": _cmd_sctest,
    "vuong": _cmd_vuong,
}


def _apply_threads(argv) -> None:
    """Re-exec once with BLAS thread variables set, if requested."""
    requested = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            requested = argv[i + 1]
        elif arg.startswith("--threads="):
            requested = arg.split("=", 1)[1]
    if requested is None:
        requested = os.environ.get("GLMMKIT_THREADS")
    if requested is None or os.environ.get(_THREAD_SENTINEL) == requested:
        return
    try:
        int(requested)
    except ValueError:
        return          # let argparse report the bad value
    if "numpy" in sys.modules:
        os.environ[_THREAD_SENTINEL] = requested
        for var in _THREAD_VARS:
            os.environ[var] = requested
        os.execv(sys.executable,
                 [sys.executable, "-m", "glmmkit.cli"] + list(argv))
    else:
        os.environ[_THREAD_SENTINEL] = requested
        for var in _THREAD_VARS:
            os.environ[var] = requested


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _apply_threads(argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    from .exceptions import GlmmKitError

    try:
        return _HANDLERS[args.command](args)
    except GlmmKitError as exc:
        payload = {
            "error": {
                "category": exc.category,
                "message": str(exc),
            },
        }
        sys.stdout.write(_to_json(payload) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
