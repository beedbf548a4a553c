"""The benchmark's three workloads and the checks on their outputs.

Every workload is a closed loop: one caller makes each call and waits for
its result before the next.  A workload has a set-up and a round.  A round
is a fixed sequence of timed steps (one library call or one CLI
subcommand each), in one of three phases: ``data`` (simulating inputs),
``fit`` (the optimizer) and ``postest`` (everything after a fit).  Every
output is checked; a failed check, an unexpected exception or a nonzero
CLI exit counts as a failed operation.  The first rounds of the default
seed are also compared with the answer recorded in ``fingerprints.json``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import glmmkit as gk
from glmmkit import cli
from glmmkit.exceptions import SingularityError

DEFAULT_SEED = 1
FINGERPRINT_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "fingerprints.json")

# Problem sizes.  "full" is what the benchmark measures; "tiny" exists
# only so the self-test runs in seconds.  ``min_rounds`` rounds run even
# when --seconds has passed, and the traced run counts work over exactly
# those rounds, so counts repeat for a given seed.
SIZES = {
    "full": {
        "simstudy": {"clusters": 50, "n_sim": 2000, "min_rounds": 8},
        "slope_agq": {"clusters": 40, "rows": 10, "n_sim": 20000,
                      "min_rounds": 2},
        "cli_postest": {"clusters": 5000, "rows": 10, "sctest_n_sim": 500,
                        "vuong_n_sim": None, "min_rounds": 2},
    },
    "tiny": {
        "simstudy": {"clusters": 30, "n_sim": 200, "min_rounds": 2},
        "slope_agq": {"clusters": 30, "rows": 6, "n_sim": 500,
                      "min_rounds": 1},
        "cli_postest": {"clusters": 60, "rows": 5, "sctest_n_sim": 200,
                        "vuong_n_sim": 5000, "min_rounds": 1},
    },
}

# Fingerprint tolerances.  A log-likelihood may rise (a better optimum)
# but not fall; standard errors and Hessian entries leave room for an
# analytic Hessian; Monte-Carlo p-values may move by a few standard errors
# of the simulation, so an exact tail or a reused null passes.
_LOGLIK_DROP = 1e-6
_CURVATURE_REL = 0.02
_STAT_REL = 1e-3
_SCORES_REL = 1e-6
_P_SIGMAS = 4.0


def child_seed(seed: int, *path: int) -> int:
    """A seed for one input of one round, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# bookkeeping


@dataclass
class Round:
    """Timed steps and fingerprint entries of one round."""

    # (name, phase, seconds, host factor); see hostspeed.HostSpeed.after
    steps: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)

    def seconds(self, phase: str | None = None) -> float:
        return sum(s for _, p, s, _ in self.steps if phase in (None, p))

    def adjusted(self, phase: str | None = None) -> float:
        """``seconds`` at the nominal host speed."""
        return sum(s * f for _, p, s, f in self.steps if phase in (None, p))

    def step_seconds(self, name: str) -> list[float]:
        return [s for n, _, s, _ in self.steps if n == name]


class Run:
    """Operation and failure counts of one benchmark run."""

    def __init__(self, tracer, host):
        self.tracer = tracer
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.skipped = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok, what: str) -> None:
        if not ok:
            self.fail(what)

    def step(self, rnd: Round, name: str, phase: str, fn, *args, **kwargs):
        """Time one call, then sample the host's speed; checks and
        bookkeeping stay outside the timing."""
        self.attempted += 1
        start = time.perf_counter()
        with self.tracer.span(f"step.{name}"):
            result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        rnd.steps.append((name, phase, elapsed, self.host.after(elapsed)))
        return result


# ---------------------------------------------------------------------------
# checks shared by the workloads


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def check_loglik(run: Run, fitted, what: str) -> None:
    """llcont on the fit's own rule sums to the fit's log-likelihood."""
    with run.tracer.suspend():
        total = float(np.sum(gk.llcont(fitted, fitted.m_used)))
    run.check(math.isfinite(total) and abs(total - fitted.loglik)
              <= 1e-9 * max(1.0, abs(fitted.loglik)),
              f"{what}: llcont sums to {total!r}, loglik {fitted.loglik!r}")


def check_p(run: Run, p, what: str) -> None:
    run.check(p is not None and 0.0 <= p <= 1.0, f"{what}: p-value {p!r}")


def check_vcov(run: Run, v, what: str) -> None:
    v = np.asarray(v, dtype=float)
    run.check(_finite(v) and np.allclose(v, v.T, rtol=1e-10, atol=0.0)
              and bool(np.all(np.diag(v) > 0.0)),
              f"{what}: covariance not symmetric with a positive diagonal")


def fingerprint_p(p: float, n_sim: int) -> list:
    return ["p", [float(p), int(n_sim)]]


def compare_fingerprints(reference: list, observed: list) -> list[str]:
    """Mismatches between recorded and observed rounds (common prefix)."""
    problems = []
    for index, (ref_round, obs_round) in enumerate(zip(reference, observed)):
        for key, (kind, ref) in ref_round.items():
            if key not in obs_round:
                problems.append(f"round {index} {key}: missing")
                continue
            obs = obs_round[key][1]
            if not _matches(kind, ref, obs):
                problems.append(f"round {index} {key}: {obs!r} vs {ref!r}")
        for key in obs_round.keys() - ref_round.keys():
            problems.append(f"round {index} {key}: not in the record")
    return problems


def _matches(kind: str, ref, obs) -> bool:
    if kind == "exact":
        return obs == ref
    if kind == "loglik":
        return obs >= ref - _LOGLIK_DROP * max(1.0, abs(ref))
    if kind == "p":
        (p_ref, n_ref), (p_obs, n_obs) = ref, obs
        n = min(n_ref, n_obs)
        sigma = math.sqrt(p_ref * (1.0 - p_ref) / n)
        return abs(p_obs - p_ref) <= _P_SIGMAS * sigma + 2.0 / n
    rel = {"stat": _STAT_REL, "curvature": _CURVATURE_REL,
           "scores": _SCORES_REL}[kind]
    ref, obs = np.asarray(ref, dtype=float), np.asarray(obs, dtype=float)
    return ref.shape == obs.shape and bool(
        np.all(np.abs(obs - ref) <= rel * np.abs(ref) + 1e-12))


def load_fingerprints() -> dict:
    if not os.path.exists(FINGERPRINT_FILE):
        return {}
    with open(FINGERPRINT_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def warm_up() -> None:
    """One small call into each layer, so lazy imports and first-call
    costs are paid before timing starts."""
    sim = gk.make_glmm_data("binomial", n_clusters=15, cluster_size=4, seed=3)
    small = gk.fit(sim.data, "binomial", control=gk.FitControl(restarts=0))
    fitted = gk.load_fitted(sim.beta, sim.theta, sim.data, "binomial")
    scores = gk.estfun(fitted, "theta")
    hess = gk.hessian(fitted, "theta")
    gk.sandwich_vcov(fitted, "theta", scores=scores, neg_hessian=-hess.values)
    gk.sctest(fitted, np.arange(15.0), scores=scores, n_sim=50, seed=0)
    gk.vuong_lr_test(fitted, small, n_sim=50, seed=0,
                     parameterization="theta")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up plus one closed-loop round; subclasses define both."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.cfg = SIZES[size][self.name]
        self.workdir = workdir
        self.min_rounds = self.cfg["min_rounds"]

    def setup(self) -> None:
        warm_up()

    def run_round(self, index: int, rnd: Round, run: Run) -> None:
        raise NotImplementedError

    def step_metrics(self, rounds: list[Round]) -> dict:
        """Per-step figures of this workload, for the report line."""
        return {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class SimStudy(Workload):
    """Replicates of the simulation-study gates: a stability-test
    replicate followed by a nested-Vuong replicate."""

    name = "simstudy"

    def run_round(self, index, rnd, run):
        n_cl, n_sim = self.cfg["clusters"], self.cfg["n_sim"]
        fp = rnd.fingerprint
        sim = run.step(rnd, "simulate", "data", gk.make_glmm_data,
                       "binomial", n_clusters=n_cl, cluster_size=5,
                       seed=child_seed(self.seed, index, 7))
        ordering = np.random.default_rng(
            child_seed(self.seed, index, 70)).standard_normal(n_cl)
        fitted = run.step(rnd, "fit", "fit", gk.fit, sim.data, "binomial",
                          control=gk.FitControl(restarts=1))
        check_loglik(run, fitted, "stability replicate fit")
        fp["ll_stability"] = ["loglik", fitted.loglik]
        try:
            scores = run.step(rnd, "estfun", "postest", gk.estfun, fitted,
                              "var", n_points=5)
            tests = [run.step(rnd, f"sctest_{name}", "postest", gk.sctest,
                              fitted, ordering, functional=name,
                              scores=scores, n_sim=n_sim, seed=index)
                     for name in ("DM", "maxLM")]
        except SingularityError:
            # a boundary fit has no var-scale scores: skipped, as in the
            # stability-size gate, and not a failure
            if not fitted.boundary:
                raise
            run.skipped += 1
            fp["skipped"] = ["exact", True]
        else:
            fp["skipped"] = ["exact", False]
            for result in tests:
                check_p(run, result.p_value, f"sctest {result.functional}")
                fp[f"stat_{result.functional}"] = ["stat", result.statistic]
                fp[f"p_{result.functional}"] = fingerprint_p(
                    result.p_value, result.n_sim)

        full_data, reduced_data = run.step(
            rnd, "simulate_nested", "data", _nested_pair, n_cl,
            child_seed(self.seed, index, 8))
        full = run.step(rnd, "fit", "fit", gk.fit, full_data, "binomial",
                        control=gk.FitControl(restarts=1))
        reduced = run.step(rnd, "fit", "fit", gk.fit, reduced_data,
                           "binomial", control=gk.FitControl(restarts=1))
        check_loglik(run, full, "nested replicate full fit")
        check_loglik(run, reduced, "nested replicate reduced fit")
        result = run.step(rnd, "vuong", "postest", gk.vuong_lr_test, full,
                          reduced, nested=True, n_sim=n_sim, seed=index,
                          parameterization="theta")
        check_p(run, result.p_value, "vuong nested")
        check_p(run, result.variance_p_value, "vuong variance")
        fp["ll_full"] = ["loglik", full.loglik]
        fp["ll_reduced"] = ["loglik", reduced.loglik]
        fp["stat_lr"] = ["stat", result.statistic]
        fp["p_lr"] = fingerprint_p(result.p_value, result.n_sim)
        fp["p_variance"] = fingerprint_p(result.variance_p_value,
                                         result.n_sim)

    def step_metrics(self, rounds):
        fits = [s for r in rounds for s in r.step_seconds("fit")]
        total = sum(r.seconds() for r in rounds)
        return {
            "replicates_per_s": len(rounds) / total if total else 0.0,
            "fit_s_p50": float(np.percentile(fits, 50)) if fits else None,
            "fit_s_p75": float(np.percentile(fits, 75)) if fits else None,
            "fits": len(fits),
        }


def _nested_pair(n_clusters: int, seed: int):
    """Data with a strong second covariate, and the same data without it."""
    sim = gk.make_glmm_data("binomial", beta=(0.3, 1.2), n_clusters=n_clusters,
                            cluster_size=6, seed=seed)
    d = sim.data
    reduced = gk.GlmmData.from_arrays(d.y, d.X[:, :1], d.Z, d.cluster_index,
                                      x_names=d.x_names[:1])
    return d, reduced


class SlopeAgq(Workload):
    """A random-slope model (q=2): the Laplace fit, an M=7 refit from it,
    and the post-estimation chain at M=7 (49 nodes per cluster)."""

    name = "slope_agq"

    def run_round(self, index, rnd, run):
        n_cl, n_sim = self.cfg["clusters"], self.cfg["n_sim"]
        fp = rnd.fingerprint
        sim = run.step(rnd, "simulate", "data", gk.make_glmm_data,
                       "binomial", beta=(0.2, 0.8), random="slope",
                       theta=(1.0, 0.0, 1.0), n_clusters=n_cl,
                       cluster_size=self.cfg["rows"],
                       seed=child_seed(self.seed, index, 2))
        ordering = np.random.default_rng(
            child_seed(self.seed, index, 20)).standard_normal(n_cl)
        laplace = run.step(rnd, "fit_laplace", "fit", gk.fit, sim.data,
                           "binomial")
        check_loglik(run, laplace, "Laplace fit")
        agq = run.step(rnd, "fit_agq", "fit", gk.fit, sim.data, "binomial",
                       control=gk.FitControl(n_points=7,
                                             beta_start=laplace.beta,
                                             theta_start=laplace.theta))
        check_loglik(run, agq, "M=7 fit")
        fp["ll_laplace"] = ["loglik", laplace.loglik]
        fp["ll_agq"] = ["loglik", agq.loglik]

        try:
            scores = run.step(rnd, "estfun", "postest", gk.estfun, agq,
                              "var", n_points=7)
        except SingularityError:
            # a rare boundary fit has no var-scale scores: skipped, as in
            # simstudy
            if not agq.boundary:
                raise
            run.skipped += 1
            fp["skipped"] = ["exact", True]
            return
        fp["skipped"] = ["exact", False]
        hess = run.step(rnd, "hessian", "postest", gk.hessian, agq, "var",
                        n_points=7)
        robust = run.step(rnd, "sandwich", "postest", gk.sandwich_vcov, agq,
                          "var", n_points=7, scores=scores,
                          neg_hessian=-hess.values)
        check_vcov(run, robust.V, "sandwich")
        fp["robust_se"] = ["curvature", robust.robust_se.tolist()]
        for name in ("DM", "CvM", "maxLM"):
            result = run.step(rnd, f"sctest_{name}", "postest", gk.sctest,
                              agq, ordering, functional=name, scores=scores,
                              n_sim=n_sim, seed=index)
            check_p(run, result.p_value, f"sctest {name}")
            fp[f"stat_{name}"] = ["stat", result.statistic]
            fp[f"p_{name}"] = fingerprint_p(result.p_value, result.n_sim)

    def step_metrics(self, rounds):
        def median(values):
            return statistics.median(values) if values else None

        return {
            "fit_laplace_s": median([s for r in rounds
                                     for s in r.step_seconds("fit_laplace")]),
            "fit_agq_s": median([s for r in rounds
                                 for s in r.step_seconds("fit_agq")]),
            "inference_s": median([r.seconds("postest") for r in rounds]),
        }


class CliPostest(Workload):
    """The CLI's post-estimation subcommands on a large q=1 dataset whose
    fit JSONs carry the generating parameters, so no optimizer runs."""

    name = "cli_postest"
    subcommands = ("scores", "hessian", "sandwich", "sctest", "vuong")

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.files = {name: os.path.join(workdir, name) for name in (
            "data.csv", "full.json", "reduced.json", "fit_full.json",
            "fit_reduced.json", "scores.csv", "hessian.json",
            "sandwich.json", "sctest.json", "vuong.json")}
        self.validators = {}

    def setup(self):
        import jsonschema

        schema_dir = os.path.join(os.path.dirname(gk.__file__), "schemas")
        for name in ("fit", "hessian", "sandwich", "sctest", "vuong"):
            with open(os.path.join(schema_dir, f"{name}.schema.json"),
                      encoding="utf-8") as handle:
                schema = json.load(handle)
            self.validators[name] = jsonschema.validators.validator_for(
                schema)(schema)
        self._write_inputs()
        warm_up()

    def _write_inputs(self):
        n_cl, rows = self.cfg["clusters"], self.cfg["rows"]
        sim = gk.make_glmm_data("binomial", beta=(0.3, 0.8, -0.4),
                                n_clusters=n_cl, cluster_size=rows,
                                seed=child_seed(self.seed, 0, 5))
        d = sim.data
        order_col = np.random.default_rng(
            child_seed(self.seed, 0, 50)).standard_normal(n_cl)
        # plain decimals only: a cell such as "np.float64(0.1)" would make
        # ingest_csv read the column as categorical
        with open(self.files["data.csv"], "w", newline="",
                  encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["y", "x1", "x2", "id", "w"])
            for row in range(d.n_obs):
                cl = int(d.cluster_index[row])
                writer.writerow([repr(float(d.y[row])),
                                 repr(float(d.X[row, 1])),
                                 repr(float(d.X[row, 2])), f"c{cl}",
                                 repr(float(order_col[cl]))])
        base = {"response": "y", "random": ["1"], "cluster": "id",
                "family": "binomial"}
        reduced_data = gk.GlmmData.from_arrays(
            d.y, d.X[:, :2], d.Z, d.cluster_index, x_names=d.x_names[:2])
        for label, fixed, data, beta in (
                ("full", ["1", "x1", "x2"], d, sim.beta),
                ("reduced", ["1", "x1"], reduced_data, sim.beta[:2])):
            with open(self.files[f"{label}.json"], "w",
                      encoding="utf-8") as handle:
                json.dump(dict(base, fixed=fixed), handle)
            fitted = gk.load_fitted(beta, sim.theta, data, "binomial")
            payload = {
                "metadata": {"version": gk.__version__, "seed": self.seed,
                             "nagq": fitted.m_used, "parameterization": None,
                             "timestamp": "1970-01-01T00:00:00+00:00"},
                "model": {"family": "binomial", "link": "logit",
                          "structure": fitted.structure,
                          "x_names": list(data.x_names),
                          "z_names": list(data.z_names),
                          "n_obs": data.n_obs, "n_clusters": data.n_clusters,
                          "n_dropped_rows": 0},
                "estimate": {"beta": fitted.beta.tolist(),
                             "theta": fitted.theta.tolist(),
                             "loglik": fitted.loglik, "converged": True,
                             "boundary": fitted.boundary,
                             "nagq": fitted.m_used},
            }
            self.validators["fit"].validate(payload)
            with open(self.files[f"fit_{label}.json"], "w",
                      encoding="utf-8") as handle:
                json.dump(payload, handle)

    def _cli(self, rnd, run, name, argv) -> bool:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            try:
                code = run.step(rnd, f"cli_{name}", "postest", cli.main, argv)
            except SystemExit as exc:
                code = exc.code
        run.check(code == 0, f"cli {name}: exit {code} "
                             f"{captured.getvalue()[:300]}")
        return code == 0

    def _payload(self, run, name):
        with open(self.files[f"{name}.json"], encoding="utf-8") as handle:
            payload = json.load(handle)
        errors = list(self.validators[name].iter_errors(payload))
        run.check(not errors, f"cli {name}: schema: "
                              f"{errors[0].message if errors else ''}")
        return payload

    def run_round(self, index, rnd, run):
        f = self.files
        fp = rnd.fingerprint
        model = ["--data", f["data.csv"], "--config", f["full.json"],
                 "--fit", f["fit_full.json"]]

        if self._cli(rnd, run, "scores", ["scores", *model,
                                          "--out", f["scores.csv"]]):
            with open(f["scores.csv"], newline="", encoding="utf-8") as handle:
                table = list(csv.reader(handle))
            values = np.asarray(table[1:], dtype=float)
            run.check(values.shape == (self.cfg["clusters"], len(table[0]))
                      and _finite(values), "cli scores: bad score matrix")
            fp["scores_norm"] = ["scores", float(np.linalg.norm(values))]

        if self._cli(rnd, run, "hessian", ["hessian", *model,
                                           "--out", f["hessian.json"]]):
            payload = self._payload(run, "hessian")
            matrix = np.asarray(payload["hessian"], dtype=float)
            run.check(_finite(matrix) and np.allclose(matrix, matrix.T),
                      "cli hessian: not symmetric")
            fp["hessian_diag"] = ["curvature", np.diag(matrix).tolist()]

        if self._cli(rnd, run, "sandwich", ["sandwich", *model,
                                            "--out", f["sandwich.json"]]):
            payload = self._payload(run, "sandwich")
            check_vcov(run, payload["vcov"], "cli sandwich")
            fp["robust_se"] = ["curvature", payload["robust_se"]]

        n_sim = self.cfg["sctest_n_sim"]
        if self._cli(rnd, run, "sctest", [
                "sctest", *model, "--order-by", "w", "--n-sim", str(n_sim),
                "--seed", str(index), "--out", f["sctest.json"]]):
            payload = self._payload(run, "sctest")
            check_p(run, payload["p_value"], "cli sctest")
            fp["stat_sctest"] = ["stat", payload["statistic"]]
            fp["p_sctest"] = fingerprint_p(payload["p_value"],
                                           payload["n_sim"])

        argv = ["vuong", "--fit1", f["fit_full.json"],
                "--config1", f["full.json"], "--fit2", f["fit_reduced.json"],
                "--config2", f["reduced.json"], "--data", f["data.csv"],
                "--nested", "--seed", str(index), "--out", f["vuong.json"]]
        if self.cfg["vuong_n_sim"] is not None:
            argv += ["--n-sim", str(self.cfg["vuong_n_sim"])]
        if self._cli(rnd, run, "vuong", argv):
            payload = self._payload(run, "vuong")
            n_tail = self.cfg["vuong_n_sim"] or 10 ** 6
            check_p(run, payload.get("p_value"), "cli vuong nested")
            check_p(run, payload["variance_p_value"], "cli vuong variance")
            fp["omega2"] = ["stat", payload["omega2"]]
            fp["stat_lr"] = ["stat", payload["statistic"]]
            fp["p_lr"] = fingerprint_p(payload["p_value"], n_tail)
            fp["p_variance"] = fingerprint_p(payload["variance_p_value"],
                                             n_tail)

    def step_metrics(self, rounds):
        out = {}
        for name in self.subcommands:
            values = [s for r in rounds for s in r.step_seconds(f"cli_{name}")]
            out[f"cli_{name}_s"] = statistics.median(values) if values else None
        return out


WORKLOADS = {cls.name: cls for cls in (SimStudy, SlopeAgq, CliPostest)}
