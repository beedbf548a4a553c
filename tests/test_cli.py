"""End-to-end command-line pipeline, run in-process via main(argv)."""

import csv
import importlib.resources
import json

import jsonschema
import numpy as np
import pytest

import glmmkit.derivatives
import glmmkit.estimation
from glmmkit import make_glmm_data
from glmmkit.cli import _cluster_level, _parse_parm, main
from glmmkit.exceptions import ConfigError
from glmmkit._nulls import _TAIL_EPS
from glmmkit._nulls import _DM_TOL


def _schema(name):
    ref = importlib.resources.files("glmmkit") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def _validate(payload, name):
    jsonschema.validate(payload, _schema(name))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """CSV data plus config files; fit JSONs are produced by the CLI."""
    root = tmp_path_factory.mktemp("cli")
    sim = make_glmm_data("binomial", beta=(0.3, 1.4), n_clusters=30,
                         cluster_size=6, seed=515)
    d = sim.data
    rng = np.random.default_rng(99)
    cluster_age = rng.uniform(20.0, 60.0, d.n_clusters)
    data_path = root / "data.csv"
    with open(data_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "x1", "id", "age"])
        for row in range(d.n_obs):
            cl = int(d.cluster_index[row])
            writer.writerow([f"{d.y[row]:g}", f"{d.X[row, 1]:.10g}",
                             f"g{cl:02d}", f"{cluster_age[cl]:.6g}"])
    full = {"response": "y", "fixed": ["1", "x1"], "random": ["1"],
            "cluster": "id", "family": "binomial", "nagq": 5,
            "optimizer": {"restarts": 1}}
    reduced = dict(full, fixed=["1"])
    (root / "config.json").write_text(json.dumps(full))
    (root / "reduced.json").write_text(json.dumps(reduced))
    assert main(["fit", "--data", str(data_path),
                 "--config", str(root / "config.json"),
                 "--out", str(root / "fit.json")]) == 0
    assert main(["fit", "--data", str(data_path),
                 "--config", str(root / "reduced.json"),
                 "--out", str(root / "fit_reduced.json")]) == 0
    return root


def _run_json(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_fit_output_matches_schema(workdir):
    payload = json.loads((workdir / "fit.json").read_text())
    _validate(payload, "fit")
    assert payload["estimate"]["converged"] is True
    assert payload["estimate"]["nagq"] == 5
    assert payload["model"]["x_names"] == ["(Intercept)", "x1"]
    assert np.isfinite(payload["estimate"]["loglik"])
    # strong positive slope was simulated
    assert payload["estimate"]["beta"][1] > 0.5


def test_fit_is_deterministic_up_to_timestamp(workdir, tmp_path):
    out = tmp_path / "fit_again.json"
    assert main(["fit", "--data", str(workdir / "data.csv"),
                 "--config", str(workdir / "config.json"),
                 "--out", str(out)]) == 0
    a = json.loads((workdir / "fit.json").read_text())
    b = json.loads(out.read_text())
    a["metadata"].pop("timestamp")
    b["metadata"].pop("timestamp")
    assert a == b


def test_scores_csv(workdir, capsys):
    code = main(["scores", "--data", str(workdir / "data.csv"),
                 "--config", str(workdir / "config.json"),
                 "--fit", str(workdir / "fit.json")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header == ["(Intercept)", "x1", "var[(Intercept)]"]
    values = np.array([[float(cell) for cell in line.split(",")]
                       for line in lines[1:]])
    assert values.shape == (30, 3)
    # at an interior optimum the scores nearly cancel columnwise
    np.testing.assert_allclose(values.sum(axis=0), 0.0, atol=0.05)


def test_scores_ranpar_theta(workdir, capsys):
    code = main(["scores", "--data", str(workdir / "data.csv"),
                 "--config", str(workdir / "config.json"),
                 "--fit", str(workdir / "fit.json"),
                 "--ranpar", "theta"])
    assert code == 0
    header = next(csv.reader(capsys.readouterr().out.splitlines()))
    assert header[-1] == "chol[(Intercept),(Intercept)]"


def test_hessian_schema_and_symmetry(workdir, capsys):
    code, payload = _run_json(
        ["hessian", "--data", str(workdir / "data.csv"),
         "--config", str(workdir / "config.json"),
         "--fit", str(workdir / "fit.json")], capsys)
    assert code == 0
    _validate(payload, "hessian")
    h = np.array(payload["hessian"])
    np.testing.assert_allclose(h, h.T, atol=1e-6 * np.abs(h).max())
    assert np.all(np.linalg.eigvalsh(h) < 0.0)


def test_sandwich_schema_and_positive_se(workdir, capsys):
    code, payload = _run_json(
        ["sandwich", "--data", str(workdir / "data.csv"),
         "--config", str(workdir / "config.json"),
         "--fit", str(workdir / "fit.json")], capsys)
    assert code == 0
    _validate(payload, "sandwich")
    assert all(se > 0.0 for se in payload["robust_se"])
    vcov = np.array(payload["vcov"])
    np.testing.assert_allclose(np.sqrt(np.diag(vcov)), payload["robust_se"],
                               rtol=1e-12)


def test_sctest_schema_and_path_csv(workdir, capsys, tmp_path):
    path_out = tmp_path / "path.csv"
    code, payload = _run_json(
        ["sctest", "--data", str(workdir / "data.csv"),
         "--config", str(workdir / "config.json"),
         "--fit", str(workdir / "fit.json"),
         "--order-by", "age", "--seed", "42", "--n-sim", "2000",
         "--path-out", str(path_out)], capsys)
    assert code == 0
    _validate(payload, "sctest")
    assert payload["functional"] == "DM"
    assert 0.0 <= payload["p_value"] <= 1.0
    # DM is exact: the error bound of its 3 coordinates, not a draw count
    assert payload["p_value_se"] == 3 * _DM_TOL
    assert payload["n_sim"] == 2000
    assert payload["path_file"] == str(path_out)
    with open(path_out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:2] == ["t", "order_value"]
    assert rows[0][2:] == ["(Intercept)", "x1", "var[(Intercept)]"]
    assert float(rows[1][0]) == 0.0
    assert rows[1][1] == ""          # no ordering value at the t=0 anchor
    np.testing.assert_allclose([float(cell) for cell in rows[1][2:]], 0.0)
    # 30 distinct cluster ages + the zero row + header
    assert len(rows) == 32


def test_sctest_parm_subset(workdir, capsys):
    code, payload = _run_json(
        ["sctest", "--data", str(workdir / "data.csv"),
         "--config", str(workdir / "config.json"),
         "--fit", str(workdir / "fit.json"),
         "--order-by", "age", "--seed", "42", "--parm", "0-1",
         "--functional", "maxlm"], capsys)
    assert code == 0
    assert payload["parm"] == [0, 1]
    assert payload["labels"] == ["(Intercept)", "x1"]
    assert payload["functional"] == "maxLM"


def test_sctest_order_by_must_be_cluster_constant(workdir, capsys):
    code, payload = _run_json(
        ["sctest", "--data", str(workdir / "data.csv"),
         "--config", str(workdir / "config.json"),
         "--fit", str(workdir / "fit.json"),
         "--order-by", "x1", "--seed", "1"], capsys)
    assert code == 1
    assert payload["error"]["category"] == "config"
    _validate(payload, "error")


@pytest.mark.parametrize("command", ["scores", "hessian", "sandwich",
                                     "sctest"])
def test_nagq_zero_is_a_config_error(workdir, capsys, command):
    argv = [command, "--data", str(workdir / "data.csv"),
            "--config", str(workdir / "config.json"),
            "--fit", str(workdir / "fit.json"), "--nagq", "0"]
    if command == "sctest":
        argv += ["--order-by", "age", "--seed", "1"]
    code, payload = _run_json(argv, capsys)
    assert code == 1
    assert payload["error"]["category"] == "config"
    _validate(payload, "error")


@pytest.mark.parametrize("command", ["sctest", "vuong"])
def test_nonpositive_n_sim_is_a_config_error(workdir, capsys, command):
    if command == "sctest":
        argv = ["sctest", "--data", str(workdir / "data.csv"),
                "--config", str(workdir / "config.json"),
                "--fit", str(workdir / "fit.json"), "--order-by", "age"]
    else:
        argv = ["vuong", "--data", str(workdir / "data.csv"),
                "--fit1", str(workdir / "fit.json"),
                "--config1", str(workdir / "config.json"),
                "--fit2", str(workdir / "fit_reduced.json"),
                "--config2", str(workdir / "reduced.json"), "--nested"]
    for n_sim in ("0", "-5"):
        code, payload = _run_json(argv + ["--seed", "1", "--n-sim", n_sim],
                                  capsys)
        assert code == 1
        _validate(payload, "error")
        assert payload["error"]["category"] == "config"
        assert "n_sim" in payload["error"]["message"]


@pytest.mark.parametrize("command", ["sctest", "vuong"])
def test_seed_is_optional_and_echoed(workdir, capsys, command):
    # every null is exact, so a run without --seed gives the same answer,
    # with a null seed in its metadata
    if command == "sctest":
        argv = ["sctest", "--data", str(workdir / "data.csv"),
                "--config", str(workdir / "config.json"),
                "--fit", str(workdir / "fit.json"), "--order-by", "age"]
    else:
        argv = ["vuong", "--data", str(workdir / "data.csv"),
                "--fit1", str(workdir / "fit.json"),
                "--config1", str(workdir / "config.json"),
                "--fit2", str(workdir / "fit_reduced.json"),
                "--config2", str(workdir / "reduced.json"), "--nested"]
    code, unseeded = _run_json(argv, capsys)
    assert code == 0
    _validate(unseeded, command)
    code, seeded = _run_json(argv + ["--seed", "5"], capsys)
    assert code == 0
    assert (unseeded["metadata"].pop("seed"),
            seeded["metadata"].pop("seed")) == (None, 5)
    unseeded["metadata"].pop("timestamp")
    seeded["metadata"].pop("timestamp")
    assert unseeded == seeded


def test_cluster_level_values_and_first_varying_cluster():
    data = make_glmm_data("binomial", n_clusters=6, cluster_size=3,
                          seed=4).data
    per_cluster = np.array([3.5, -1.0, 2.0, 2.0, 0.0, 7.25])
    values = per_cluster[data.cluster_index]
    np.testing.assert_array_equal(_cluster_level(values, data, "age"),
                                  per_cluster)
    values[data.offsets[4] + 2] = 1.0
    values[data.offsets[5] + 1] = 9.0
    with pytest.raises(ConfigError,
                       match=rf"varies within cluster {data.cluster_ids[4]};"):
        _cluster_level(values, data, "age")


def test_vuong_nested(workdir, capsys):
    code, payload = _run_json(
        ["vuong", "--data", str(workdir / "data.csv"),
         "--fit1", str(workdir / "fit.json"),
         "--config1", str(workdir / "config.json"),
         "--fit2", str(workdir / "fit_reduced.json"),
         "--config2", str(workdir / "reduced.json"),
         "--nested", "--seed", "7", "--n-sim", "20000"], capsys)
    assert code == 0
    _validate(payload, "vuong")
    assert payload["test"] == "nested"
    assert payload["p_value"] < 0.01
    assert payload["omega2"] > 0.0
    # both mixture tails are exact, to their error bound
    assert payload["p_value_se"] == payload["variance_p_value_se"] == _TAIL_EPS


def test_vuong_non_nested_reports_directional_p(workdir, capsys):
    code, payload = _run_json(
        ["vuong", "--data", str(workdir / "data.csv"),
         "--fit1", str(workdir / "fit.json"),
         "--config1", str(workdir / "config.json"),
         "--fit2", str(workdir / "fit_reduced.json"),
         "--config2", str(workdir / "reduced.json"),
         "--seed", "7", "--n-sim", "20000"], capsys)
    assert code == 0
    _validate(payload, "vuong")
    assert payload["test"] == "non-nested"
    assert (payload["p_model1_better"] + payload["p_model2_better"]
            == pytest.approx(1.0))
    assert payload["p_model1_better"] < 0.05
    assert payload["p_value_se"] == 0.0
    assert payload["variance_p_value_se"] == _TAIL_EPS


def test_vuong_identical_models_reports_indistinguishable(workdir, capsys):
    code, payload = _run_json(
        ["vuong", "--data", str(workdir / "data.csv"),
         "--fit1", str(workdir / "fit.json"),
         "--config1", str(workdir / "config.json"),
         "--fit2", str(workdir / "fit.json"),
         "--config2", str(workdir / "config.json"),
         "--seed", "7", "--n-sim", "20000"], capsys)
    assert code == 0
    _validate(payload, "vuong")
    assert payload["test"] == "variance"
    assert payload["omega2"] == 0.0
    assert payload["statistic"] == 0.0
    assert "indistinguishable" in payload["note"]


@pytest.mark.parametrize("nested,fit2,config2", [
    (False, "fit_reduced.json", "reduced.json"),
    (True, "fit_reduced.json", "reduced.json"),
    (False, "fit.json", "config.json"),
], ids=["False", "True", "identical"])
def test_vuong_computes_one_hessian_per_model(workdir, capsys, monkeypatch,
                                              nested, fit2, config2):
    # one Hessian sweep per model, which also gives its per-cluster
    # log-likelihood: no other sweep runs, not even on the degenerate path
    seen = []
    original = glmmkit.derivatives._quadrature_sweep

    def counting(beta, lam, data, *args, **kwargs):
        seen.append((beta, kwargs.get("second", False)))
        return original(beta, lam, data, *args, **kwargs)

    monkeypatch.setattr(glmmkit.derivatives, "_quadrature_sweep", counting)
    monkeypatch.setattr(glmmkit.estimation, "_quadrature_sweep", counting)
    argv = ["vuong", "--data", str(workdir / "data.csv"),
            "--fit1", str(workdir / "fit.json"),
            "--config1", str(workdir / "config.json"),
            "--fit2", str(workdir / fit2),
            "--config2", str(workdir / config2),
            "--seed", "7", "--n-sim", "2000"]
    code, payload = _run_json(argv + ["--nested"] * nested, capsys)
    assert code == 0
    identical = fit2 == "fit.json"
    assert payload["test"] == ("variance" if identical
                               else "nested" if nested else "non-nested")
    assert len(seen) == 2
    assert all(second for _, second in seen)
    assert seen[0][0] is not seen[1][0]
    assert [beta.size for beta, _ in seen] == ([2, 2] if identical
                                               else [2, 1])


def test_fit_rejects_responses_outside_the_support(workdir, capsys,
                                                   tmp_path):
    rows = (workdir / "data.csv").read_text().splitlines()
    y, rest = rows[1].split(",", 1)
    assert y in ("0", "1")
    rows[1] = "2," + rest
    bad_path = tmp_path / "bad.csv"
    bad_path.write_text("\n".join(rows) + "\n")
    code, payload = _run_json(
        ["fit", "--data", str(bad_path),
         "--config", str(workdir / "config.json")], capsys)
    assert code == 1
    _validate(payload, "error")
    assert payload["error"]["category"] == "config"
    assert "0/1" in payload["error"]["message"]


def test_missing_data_column_gives_error_json(workdir, capsys, tmp_path):
    bad = dict(json.loads((workdir / "config.json").read_text()))
    bad["response"] = "nope"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code, payload = _run_json(
        ["fit", "--data", str(workdir / "data.csv"),
         "--config", str(bad_path)], capsys)
    assert code == 1
    _validate(payload, "error")
    assert payload["error"]["category"] == "ingestion"
    assert "nope" in payload["error"]["message"]


@pytest.mark.parametrize("change", [
    {"optimizer": {"restarts": "3"}},
    {"optimizer": {"max_fev": "50"}},
    {"optimizer": {"restarts": 1.5}},
    {"optimizer": {"restarts": True}},
    {"optimizer": {"restarts": -1}},
    {"optimizer": {"max_fev": 0}},
    {"optimizer": {"n_points": 2.7}},
    {"optimizer": {"n_points": "x"}},
    {"optimizer": {"restart": 1}},
    {"optimizer": 5},
    {"nagq": "x"},
    {"nagq": 2.7},
    {"seed": "x"},
    {"fixed": 5},
    {"random": "1"},
], ids=json.dumps)
def test_malformed_config_gives_config_error_json(workdir, capsys, tmp_path,
                                                  change):
    config = json.loads((workdir / "config.json").read_text()) | change
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(config))
    code, payload = _run_json(
        ["fit", "--data", str(workdir / "data.csv"),
         "--config", str(bad_path)], capsys)
    assert code == 1
    _validate(payload, "error")
    assert payload["error"]["category"] == "config"
    # the message names the offending field
    (key, value), = change.items()
    if isinstance(value, dict):
        (key, _), = value.items()
    assert key in payload["error"]["message"]


@pytest.mark.parametrize("command", ["hessian", "vuong"])
def test_negative_theta_diagonal_in_a_fit_file_fails_at_load(
        workdir, capsys, tmp_path, command):
    stored = json.loads((workdir / "fit.json").read_text())
    stored["estimate"]["theta"] = [-0.7]
    bad_fit = tmp_path / "negative.json"
    bad_fit.write_text(json.dumps(stored))
    if command == "hessian":
        argv = ["hessian", "--data", str(workdir / "data.csv"),
                "--config", str(workdir / "config.json"),
                "--fit", str(bad_fit)]
    else:
        argv = ["vuong", "--data", str(workdir / "data.csv"),
                "--fit1", str(bad_fit),
                "--config1", str(workdir / "config.json"),
                "--fit2", str(workdir / "fit_reduced.json"),
                "--config2", str(workdir / "reduced.json"), "--nested"]
    code, payload = _run_json(argv, capsys)
    assert code == 1
    _validate(payload, "error")
    assert payload["error"]["category"] == "config"
    assert ("theta must have a nonnegative diagonal"
            in payload["error"]["message"])


@pytest.mark.parametrize("field,value", [("beta", ["x", 1]),
                                         ("theta", ["a"])],
                         ids=["beta", "theta"])
def test_non_numeric_estimates_in_a_fit_file_give_config_error_json(
        workdir, capsys, tmp_path, field, value):
    stored = json.loads((workdir / "fit.json").read_text())
    stored["estimate"][field] = value
    bad_fit = tmp_path / "strings.json"
    bad_fit.write_text(json.dumps(stored))
    code, payload = _run_json(
        ["scores", "--data", str(workdir / "data.csv"),
         "--config", str(workdir / "config.json"),
         "--fit", str(bad_fit)], capsys)
    assert code == 1
    _validate(payload, "error")
    assert payload["error"]["category"] == "config"
    assert f"{field} must hold only numbers" in payload["error"]["message"]


def test_non_utf8_data_gives_error_json(workdir, capsys, tmp_path):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(
        "y,x1,id,age\n1,0.5,café,30\n0,0.2,b,40\n".encode("latin-1"))
    code, payload = _run_json(
        ["fit", "--data", str(latin1),
         "--config", str(workdir / "config.json")], capsys)
    assert code == 1
    _validate(payload, "error")
    assert payload["error"]["category"] == "ingestion"
    assert str(latin1) in payload["error"]["message"]


def test_usage_errors_exit_two(workdir):
    with pytest.raises(SystemExit) as err:
        main(["scores", "--data", str(workdir / "data.csv")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sctest", "--data", "x.csv", "--config", "c.json",
              "--fit", "f.json", "--order-by", "age", "--seed", "1",
              "--functional", "supLM"])
    assert err.value.code == 2


def test_parse_parm():
    assert _parse_parm("0-4") == [0, 1, 2, 3, 4]
    assert _parse_parm("0,2,7") == [0, 2, 7]
    assert _parse_parm("3") == [3]
    assert _parse_parm("1-2,5") == [1, 2, 5]
    with pytest.raises(ConfigError):
        _parse_parm("4-2")
    with pytest.raises(ConfigError):
        _parse_parm("a")
    with pytest.raises(ConfigError):
        _parse_parm(",")
