"""End-to-end command-line pipeline, run in-process via main(argv)."""

import csv
import importlib.resources
import json

import jsonschema
import numpy as np
import pytest

import glmmkit.vuong
from glmmkit import make_glmm_data
from glmmkit.cli import _cluster_level, _parse_parm, main
from glmmkit.exceptions import ConfigError


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


@pytest.mark.parametrize("nested", [False, True])
def test_vuong_computes_one_hessian_per_model(workdir, capsys, monkeypatch,
                                              nested):
    seen = []
    original = glmmkit.vuong.hessian

    def counting(fit, *args, **kwargs):
        seen.append(fit)
        return original(fit, *args, **kwargs)

    monkeypatch.setattr(glmmkit.vuong, "hessian", counting)
    argv = ["vuong", "--data", str(workdir / "data.csv"),
            "--fit1", str(workdir / "fit.json"),
            "--config1", str(workdir / "config.json"),
            "--fit2", str(workdir / "fit_reduced.json"),
            "--config2", str(workdir / "reduced.json"),
            "--seed", "7", "--n-sim", "2000"]
    code, payload = _run_json(argv + ["--nested"] * nested, capsys)
    assert code == 0
    assert payload["test"] == ("nested" if nested else "non-nested")
    assert len(seen) == 2
    assert seen[0] is not seen[1]
    assert [f.beta.size for f in seen] == [2, 1]


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
