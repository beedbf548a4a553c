"""Span tracing of glmmkit's public functions, installed from outside.

The tracer replaces every public function of every glmmkit module (the
names in each module's ``__all__``) with a wrapper, in every glmmkit
module that holds a reference to it: ``estimation.conditional_modes`` is
also replaced where ``derivatives`` imported it, ``derivatives.estfun``
where ``sandwich`` and ``stability`` imported it, and so on.  The CLI
subcommand handlers are wrapped through ``cli._HANDLERS``.  The library
itself is not edited.

Spans ``[name, start, end, parent, attrs]`` are kept in memory and written
out when the run ends.  Self time is a span's duration minus the durations
of its direct children.  ``layer_metrics`` turns the spans into the
per-layer metrics listed in ``bench/README.md``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

_LAYER_MODULES = ("covariance", "datasets", "derivatives", "design",
                  "estimation", "families", "ingest", "quadrature",
                  "sandwich", "simulate", "stability", "vuong")
CLI_SUBCOMMANDS = ("scores", "hessian", "sandwich", "sctest", "vuong")

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER_UNITS = {
    "estimation.fit.n_fev": "count",
    "estimation.fit.self_s_per_fev": "s",
    "estimation.conditional_modes.warm_calls": "count",
    "estimation.conditional_modes.warm_s": "s",
    "estimation.conditional_modes.cold_calls": "count",
    "estimation.conditional_modes.cold_s": "s",
    "estimation.load_fitted.s": "s",
    "derivatives.llcont.s": "s",
    "derivatives.llcont.row_nodes": "count",
    "derivatives.estfun.s": "s",
    "derivatives.hessian.s": "s",
    "derivatives.hessian.gradient_evals": "count",
    "derivatives.hessian.calls_per_distinct_input": "ratio",
    "sandwich.sandwich_vcov.self_s": "s",
    "stability.sctest.s": "s",
    "stability.sctest.draws": "count",
    "vuong.self_s": "s",
    "vuong.tail_draws": "count",
    "ingest.ingest_csv.s": "s",
    "ingest.rows_per_s": "1/s",
    **{f"cli.{name}.self_s": "s" for name in CLI_SUBCOMMANDS},
    "trace.spans": "count",
    "trace.overhead_share": "fraction",
    "trace.round_s_p50": "s",
}


def _argument(args, kwargs, position, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _annotators(default_points):
    """Per-function recorders of work counts, keyed by span name.

    Each takes the call's arguments plus its result or exception and
    returns the attributes stored on the span.  Counts are computed from
    the inputs and results, never measured.
    """

    def fit(args, kwargs, result, exc):
        best = result if exc is None else getattr(exc, "best", None)
        return {"n_fev": 0 if best is None else int(best.n_fev)}

    def conditional_modes(args, kwargs, result, exc):
        return {"warm": _argument(args, kwargs, 4, "start") is not None}

    def llcont(args, kwargs, result, exc):
        fitted = args[0]
        q = fitted.data.n_random
        m = _argument(args, kwargs, 1, "n_points") or default_points(
            q, "derivatives")
        return {"row_nodes": fitted.data.n_obs * m ** q}

    def hessian(args, kwargs, result, exc):
        if result is None:
            return {}
        fitted = args[0]
        n = result.values.shape[0]
        key = (id(fitted.data), fitted.beta.tobytes(), fitted.theta.tobytes(),
               result.parameterization, result.m_used)
        # two gradients per column, plus the shared centre gradient when
        # any column fell back to a one-sided difference
        return {"gradient_evals": 2 * n + (1 if result.one_sided else 0),
                "key": key}

    def sctest(args, kwargs, result, exc):
        if result is None:
            return {}
        grid = result.path.t.shape[0] - 1
        return {"draws": result.n_sim * grid * len(result.parm)}

    def vuong(tails_of):
        def annotate(args, kwargs, result, exc):
            if result is None:
                return {}
            return {"tail_draws": tails_of(result) * result.n_sim
                    * result.weights.shape[0]}
        return annotate

    def ingest_csv(args, kwargs, result, exc):
        if result is None:
            return {}
        return {"rows": result.data.n_obs + result.n_dropped}

    return {
        "estimation.fit": fit,
        "estimation.conditional_modes": conditional_modes,
        "derivatives.llcont": llcont,
        "derivatives.hessian": hessian,
        "stability.sctest": sctest,
        # the variance test draws one mixture tail; the likelihood-ratio
        # test draws the variance tail and, when nested, the LR tail
        "vuong.vuong_variance_test": vuong(lambda r: 1),
        "vuong.vuong_lr_test": vuong(lambda r: 2 if r.test == "nested" else 1),
        "ingest.ingest_csv": ingest_csv,
    }


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def suspend(self):
        return contextlib.nullcontext()

    def mark_round(self):
        pass


class Tracer:
    """Records spans around glmmkit's public functions and the benchmark's
    own steps."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.round_starts: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._suspended = False

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def suspend(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        previous, self._suspended = self._suspended, True
        try:
            yield
        finally:
            self._suspended = previous

    def mark_round(self):
        self.round_starts.append(len(self.spans))

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            index = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                self._close(index)
                if annotate is not None:
                    self.spans[index][4] = annotate(args, kwargs, result, exc)
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace glmmkit's public functions everywhere they are bound."""
        import glmmkit
        from glmmkit import cli

        modules = {name: sys.modules[f"glmmkit.{name}"]
                   for name in _LAYER_MODULES}
        annotators = _annotators(modules["estimation"].default_points)
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                original = getattr(module, attr)
                if not (inspect.isfunction(original)
                        and original.__module__ == module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(original)] = self.wrap(name, original,
                                                   annotators.get(name))
        holders = [glmmkit, cli, *modules.values()]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((holder, attr, value))
                    setattr(holder, attr, wrapper)
        for command in CLI_SUBCOMMANDS:
            original = cli._HANDLERS[command]
            self._patched.append((cli._HANDLERS, command, original))
            cli._HANDLERS[command] = self.wrap(f"cli.{command}", original)

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        names = sorted({span[0] for span in self.spans})
        code = {name: k for k, name in enumerate(names)}
        rows = []
        for name, start, end, parent, attrs in self.spans:
            row = [code[name], start, end, parent]
            if attrs:
                row.append({k: v for k, v in attrs.items() if k != "key"})
            rows.append(row)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names, "round_starts": self.round_starts,
                       "spans": rows}, handle)


def _span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one span: a wrapped no-op against a bare one."""
    def noop():
        return None

    wrapped = Tracer().wrap("probe", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - start
    return max(traced - bare, 0.0) / calls


def layer_metrics(tracer: Tracer, n_rounds: int, count_rounds: int,
                  measured_s: float, round_s_p50: float) -> dict:
    """Per-layer metrics from the recorded spans.

    Times are seconds per round, averaged over all ``n_rounds`` rounds.
    Counts are exact totals over the first ``count_rounds`` rounds, which
    every run completes, so they repeat exactly for a given seed.
    """
    spans = tracer.spans
    n_spans = len(spans)
    child_s = [0.0] * n_spans
    root = list(range(n_spans))
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
            root[index] = root[parent]
    starts = tracer.round_starts + [n_spans]
    counted_end = starts[min(count_rounds, n_rounds)]

    total_s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}      # over the counted prefix
    all_counts: dict[str, float] = {}  # over every round
    distinct_hessians: set = set()

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for index, (name, start, end, _, attrs) in enumerate(spans):
        duration = end - start
        if name == "estimation.conditional_modes":
            kind = "warm" if attrs and attrs["warm"] else "cold"
            name = f"{name}.{kind}"
        add(total_s, name, duration)
        add(self_s, name, duration - child_s[index])
        add(all_counts, name + ".calls", 1)
        if index < counted_end:
            add(counts, name + ".calls", 1)
        for key, value in (attrs or {}).items():
            if key == "key":
                distinct_hessians.add((root[index], value))
            elif key != "warm":
                add(all_counts, f"{name}.{key}", value)
                if index < counted_end:
                    add(counts, f"{name}.{key}", value)

    per_round = 1.0 / max(n_rounds, 1)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    fit_self = self_s.get("estimation.fit", 0.0)
    ingest_s = total_s.get("ingest.ingest_csv", 0.0)
    n_hessian = all_counts.get("derivatives.hessian.calls", 0)
    vuong_self = (self_s.get("vuong.vuong_lr_test", 0.0)
                  + self_s.get("vuong.vuong_variance_test", 0.0))
    vuong_draws = (counts.get("vuong.vuong_lr_test.tail_draws", 0)
                   + counts.get("vuong.vuong_variance_test.tail_draws", 0))
    span_cost = _span_cost_s()
    values = {
        "estimation.fit.n_fev": counts.get("estimation.fit.n_fev", 0),
        "estimation.fit.self_s_per_fev": ratio(
            fit_self, all_counts.get("estimation.fit.n_fev", 0)),
        "estimation.conditional_modes.warm_calls": counts.get(
            "estimation.conditional_modes.warm.calls", 0),
        "estimation.conditional_modes.warm_s": total_s.get(
            "estimation.conditional_modes.warm", 0.0) * per_round,
        "estimation.conditional_modes.cold_calls": counts.get(
            "estimation.conditional_modes.cold.calls", 0),
        "estimation.conditional_modes.cold_s": total_s.get(
            "estimation.conditional_modes.cold", 0.0) * per_round,
        "estimation.load_fitted.s": total_s.get(
            "estimation.load_fitted", 0.0) * per_round,
        "derivatives.llcont.s": total_s.get(
            "derivatives.llcont", 0.0) * per_round,
        "derivatives.llcont.row_nodes": counts.get(
            "derivatives.llcont.row_nodes", 0),
        "derivatives.estfun.s": total_s.get(
            "derivatives.estfun", 0.0) * per_round,
        "derivatives.hessian.s": total_s.get(
            "derivatives.hessian", 0.0) * per_round,
        "derivatives.hessian.gradient_evals": counts.get(
            "derivatives.hessian.gradient_evals", 0),
        "derivatives.hessian.calls_per_distinct_input": ratio(
            n_hessian, len(distinct_hessians)),
        "sandwich.sandwich_vcov.self_s": self_s.get(
            "sandwich.sandwich_vcov", 0.0) * per_round,
        "stability.sctest.s": total_s.get(
            "stability.sctest", 0.0) * per_round,
        "stability.sctest.draws": counts.get("stability.sctest.draws", 0),
        "vuong.self_s": vuong_self * per_round,
        "vuong.tail_draws": vuong_draws,
        "ingest.ingest_csv.s": ingest_s * per_round,
        "ingest.rows_per_s": ratio(
            all_counts.get("ingest.ingest_csv.rows", 0), ingest_s),
        **{f"cli.{name}.self_s": self_s.get(f"cli.{name}", 0.0) * per_round
           for name in CLI_SUBCOMMANDS},
        "trace.spans": counted_end,
        "trace.overhead_share": ratio(n_spans * span_cost, measured_s),
        "trace.round_s_p50": round_s_p50,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
