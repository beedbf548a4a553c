"""Self-test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def _bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_declared_metric_is_reported_with_its_unit(capsys, workload,
                                                         trace):
    code, report, result = _bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    assert report["environment"]["blas_threads"] >= 1


def test_corrupted_loglik_is_counted_as_failed(capsys, monkeypatch):
    import glmmkit

    original = glmmkit.llcont
    monkeypatch.setattr(glmmkit, "llcont",
                        lambda fit, n_points=None: original(fit, n_points)
                        + 1e-3)
    code, report, result = _bench(capsys, "simstudy")
    assert code == 0
    assert not result["correct"]
    assert result["failed"] >= 1 and report["error_rate"] > 0
    assert any("llcont" in message for message in report["failures"])


def test_corrupted_cli_output_is_counted_as_failed(capsys, monkeypatch):
    from glmmkit import stability

    original = stability.sctest
    monkeypatch.setattr(
        stability, "sctest",
        lambda *a, **k: dataclasses.replace(original(*a, **k), p_value=1.5))
    code, report, result = _bench(capsys, "cli_postest")
    assert code == 0
    assert not result["correct"] and result["failed"] >= 2
    assert any("schema" in message for message in report["failures"])


def test_fingerprint_tolerances():
    import workloads

    reference = [{"ll": ["loglik", -100.0], "p": ["p", [0.2, 2000]],
                  "se": ["curvature", [0.5, 0.25]], "skipped": ["exact", False]}]

    def observed(**changes):
        entry = {key: list(value) for key, value in reference[0].items()}
        entry.update(changes)
        return [entry]

    assert workloads.compare_fingerprints(reference, observed()) == []
    # a better optimum, an exact tail and an analytic Hessian pass
    assert workloads.compare_fingerprints(reference, observed(
        ll=["loglik", -99.0], p=["p", [0.21, 2000]],
        se=["curvature", [0.505, 0.2499]])) == []
    for bad in ({"ll": ["loglik", -100.01]}, {"p": ["p", [0.3, 2000]]},
                {"se": ["curvature", [0.55, 0.25]]},
                {"skipped": ["exact", True]}):
        assert len(workloads.compare_fingerprints(reference,
                                                  observed(**bad))) == 1


def test_adjusted_times_scale_each_step_by_its_host_factor(monkeypatch):
    import hostspeed
    import workloads

    host = hostspeed.HostSpeed()
    nominal = hostspeed.UNIT_S_NOMINAL
    units = iter([2.0 * nominal, nominal, nominal])
    monkeypatch.setattr(host, "_unit", lambda: next(units))
    assert host.after(0.0) == pytest.approx(0.5)        # nothing before
    assert host.after(0.0) == pytest.approx(1.0 / 1.5)  # before and after
    assert host.after(0.0) == pytest.approx(1.0)

    rnd = workloads.Round(steps=[("fit", "fit", 2.0, 0.5),
                                 ("sctest", "postest", 1.0, 2.0)])
    assert rnd.seconds() == 3.0 and rnd.adjusted() == 3.0
    assert rnd.adjusted("postest") == 2.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simstudy", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
