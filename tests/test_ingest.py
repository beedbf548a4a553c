"""CSV ingestion and model-config validation."""

import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmmkit import (ConfigError, IngestionError, ModelConfig, ShapeError,
                     ingest, ingest_csv, make_glmm_data)
from glmmkit.cli import main
from test_ingest_paths import _outcome

BASE_CONFIG = {
    "response": "y",
    "fixed": ["1", "x"],
    "random": ["1"],
    "cluster": "id",
    "family": "binomial",
}


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def config(**overrides):
    raw = dict(BASE_CONFIG)
    raw.update(overrides)
    return ModelConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# ModelConfig


def test_config_minimal_roundtrip():
    cfg = config(nagq=9, seed=3, optimizer={"restarts": 2})
    assert cfg.fixed == ("1", "x")
    assert cfg.nagq == 9
    assert cfg.link is None
    assert cfg.structure == "unstructured"


def test_config_missing_and_unknown_keys():
    with pytest.raises(ConfigError, match="missing"):
        ModelConfig.from_dict({"response": "y"})
    with pytest.raises(ConfigError, match="unknown config keys"):
        config(responze="y")


def test_config_value_validation():
    with pytest.raises(ConfigError, match="nagq"):
        config(nagq=0)
    with pytest.raises(ConfigError, match="fixed"):
        config(fixed=[])
    with pytest.raises(ConfigError, match="random"):
        config(random=[])
    # maxiter never existed; xatol and fatol were Nelder-Mead tolerances
    for key in ("maxiter", "xatol", "fatol"):
        with pytest.raises(ConfigError, match="unknown optimizer settings"):
            config(optimizer={key: 10})


def test_config_from_json_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"response": "y", "fixed": ["1"], "random": ["1"], '
                    '"cluster": "id", "family": "poisson"}')
    cfg = ModelConfig.from_json_file(path)
    assert cfg.family == "poisson"
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ModelConfig.from_json_file(bad)
    arr = tmp_path / "array.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must be an object"):
        ModelConfig.from_json_file(arr)


def test_term_syntax_validation():
    with pytest.raises(ConfigError, match="pairwise"):
        ingest_config = config(fixed=["1", "a*b*c"])
        ingest_config.term_columns()
    with pytest.raises(ConfigError, match="malformed"):
        config(fixed=["1", "x*"]).term_columns()


# ---------------------------------------------------------------------------
# CSV structure errors


def test_empty_file_and_duplicate_header(tmp_path):
    with pytest.raises(IngestionError, match="empty"):
        ingest_csv(write_csv(tmp_path, ""), config())
    with pytest.raises(IngestionError, match="duplicate"):
        ingest_csv(write_csv(tmp_path, "y,x,x,id\n1,2,3,a\n"), config())


def test_ragged_row_reports_line_number(tmp_path):
    path = write_csv(tmp_path, "y,x,id\n1,0.5,a\n0,0.1\n1,0.2,b\n")
    with pytest.raises(IngestionError, match="line 3"):
        ingest_csv(path, config())


def test_unknown_column_lists_available(tmp_path):
    path = write_csv(tmp_path, "y,x,id\n1,0.5,a\n")
    with pytest.raises(IngestionError, match="'weight' not found"):
        ingest_csv(path, config(fixed=["1", "weight"]))


def test_cluster_cannot_be_a_term(tmp_path):
    path = write_csv(tmp_path, "y,x,id\n1,0.5,a\n")
    with pytest.raises(IngestionError, match="cannot double"):
        ingest_csv(path, config(fixed=["1", "id"]))


def test_mixed_type_column_reports_lines(tmp_path):
    path = write_csv(tmp_path,
                     "y,x,id\n1,0.5,a\n0,oops,a\n1,0.2,b\n0,bad,b\n")
    with pytest.raises(IngestionError, match=r"line\(s\) 3, 5"):
        ingest_csv(path, config())


def test_response_must_be_numeric(tmp_path):
    path = write_csv(tmp_path, "y,x,id\nyes,0.5,a\nno,0.2,b\n")
    with pytest.raises(IngestionError, match="must be numeric"):
        ingest_csv(path, config())


def test_random_column_must_be_numeric(tmp_path):
    path = write_csv(tmp_path, "y,x,g,id\n1,0.5,u,a\n0,0.2,v,b\n")
    with pytest.raises(IngestionError, match="random-effect"):
        ingest_csv(path, config(random=["1", "g"]))


def test_all_rows_missing(tmp_path):
    path = write_csv(tmp_path, "y,x,id\nNA,0.5,a\n1,,b\n")
    with pytest.raises(IngestionError, match="no rows left"):
        ingest_csv(path, config())


# ---------------------------------------------------------------------------
# row dropping and coding


def test_missing_rows_dropped_with_file_line_numbers(tmp_path):
    text = ("y,x,id\n"         # line 1
            "1,0.5,a\n"        # line 2
            "0,NA,a\n"         # line 3: dropped
            "1,0.3,b\n"        # line 4
            ",0.1,b\n"         # line 5: dropped
            "0,0.9,b\n")       # line 6
    result = ingest_csv(write_csv(tmp_path, text), config())
    assert result.n_dropped == 2
    assert result.dropped_lines == (3, 5)
    assert result.data.n_obs == 3
    np.testing.assert_allclose(result.data.y, [1.0, 1.0, 0.0])


def test_reference_coding_with_intercept(tmp_path):
    text = ("y,g,id\n"
            "1,low,a\n0,high,a\n1,mid,b\n0,low,b\n")
    result = ingest_csv(write_csv(tmp_path, text),
                        config(fixed=["1", "g"]))
    # levels sorted: high, low, mid; "high" is the reference
    assert result.data.x_names == ("(Intercept)", "g[low]", "g[mid]")
    np.testing.assert_allclose(result.data.X[:, 1], [1.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(result.data.X[:, 2], [0.0, 0.0, 1.0, 0.0])


def test_full_dummy_coding_without_intercept(tmp_path):
    text = ("y,g,id\n"
            "1,low,a\n0,high,a\n1,mid,b\n0,low,b\n")
    result = ingest_csv(write_csv(tmp_path, text), config(fixed=["g"]))
    assert result.data.x_names == ("g[high]", "g[low]", "g[mid]")
    np.testing.assert_allclose(result.data.X.sum(axis=1), 1.0)


def test_declared_categorical_overrides_numeric_parse(tmp_path):
    text = "y,dose,id\n1,10,a\n0,20,a\n1,10,b\n0,30,b\n"
    result = ingest_csv(write_csv(tmp_path, text),
                        config(fixed=["1", "dose"], categorical=["dose"]))
    assert result.data.x_names == ("(Intercept)", "dose[20]", "dose[30]")


def test_single_level_categorical_rejected(tmp_path):
    text = "y,g,id\n1,only,a\n0,only,b\n"
    with pytest.raises(IngestionError, match="single level"):
        ingest_csv(write_csv(tmp_path, text), config(fixed=["1", "g"]))


def test_interaction_pulls_in_main_effects(tmp_path):
    text = ("y,x,g,id\n"
            "1,2.0,u,a\n0,3.0,v,a\n1,1.0,u,b\n0,4.0,v,b\n")
    result = ingest_csv(write_csv(tmp_path, text),
                        config(fixed=["1", "x*g"]))
    assert result.data.x_names == ("(Intercept)", "x", "g[v]", "x:g[v]")
    np.testing.assert_allclose(result.data.X[:, 3],
                               result.data.X[:, 1] * result.data.X[:, 2])


def test_numeric_interaction_label_and_values(tmp_path):
    text = "y,x,w,id\n1,2.0,0.5,a\n0,3.0,0.25,a\n1,1.0,4.0,b\n0,4.0,2.0,b\n"
    result = ingest_csv(write_csv(tmp_path, text),
                        config(fixed=["1", "x", "w", "x*w"]))
    assert result.data.x_names == ("(Intercept)", "x", "w", "x:w")
    np.testing.assert_allclose(result.data.X[:, 3], [1.0, 0.75, 4.0, 8.0])


def test_random_slope_column(tmp_path):
    text = "y,x,id\n1,0.5,a\n0,0.2,a\n1,0.7,b\n0,0.1,b\n"
    result = ingest_csv(write_csv(tmp_path, text),
                        config(random=["1", "x"]))
    assert result.data.z_names == ("(Intercept)", "x")
    np.testing.assert_allclose(result.data.Z[:, 1], result.data.X[:, 1])


# ---------------------------------------------------------------------------
# extra columns through regrouping


def test_extra_columns_follow_cluster_regrouping(tmp_path):
    # clusters arrive interleaved; from_arrays regroups rows by first
    # appearance, and extras must be permuted identically
    text = ("y,x,age,id\n"
            "1,0.1,30,a\n"
            "0,0.2,41,b\n"
            "1,0.3,32,a\n"
            "0,0.4,43,b\n")
    result = ingest_csv(write_csv(tmp_path, text), config(),
                        extra_columns=("age", "id"))
    np.testing.assert_allclose(result.data.X[:, 1], [0.1, 0.3, 0.2, 0.4])
    np.testing.assert_allclose(result.extra["age"], [30.0, 32.0, 41.0, 43.0])
    assert list(result.extra["id"]) == ["a", "a", "b", "b"]


def test_extra_column_values_respect_row_drops(tmp_path):
    text = ("y,x,age,id\n"
            "1,0.1,30,a\n"
            "0,NA,41,a\n"
            "1,0.3,NA,b\n"
            "0,0.4,43,b\n")
    result = ingest_csv(write_csv(tmp_path, text), config(),
                        extra_columns=("age",))
    # both incomplete rows go: referenced columns include the extras
    assert result.n_dropped == 2
    np.testing.assert_allclose(result.extra["age"], [30.0, 43.0])


def test_bom_header_is_stripped(tmp_path):
    text = "﻿y,x,id\n1,0.5,a\n0,0.2,b\n"
    result = ingest_csv(write_csv(tmp_path, text), config())
    assert result.data.n_obs == 2


# ---------------------------------------------------------------------------
# line numbers after a quoted cell that spans two lines


def test_dropped_lines_count_file_lines_not_rows(tmp_path):
    text = ('y,x,id\n'               # line 1
            '1,0.5,"two\nlines"\n'   # lines 2 and 3
            '0,NA,a\n'               # line 4: dropped
            '1,0.3,a\n'              # line 5
            '0,0.9,"two\nlines"\n')  # lines 6 and 7
    result = ingest_csv(write_csv(tmp_path, text), config())
    assert result.dropped_lines == (4,)
    assert result.data.cluster_ids == ("two\nlines", "a")


def test_mixed_column_names_the_file_line_after_a_spanning_cell(tmp_path):
    text = ('y,x,id\n1,0.5,"two\nlines"\n'   # lines 1 to 3
            '0,0.2,a\n1,0.3,a\n0,oops,b\n')   # lines 4 to 6
    with pytest.raises(IngestionError, match=r"line\(s\) 6$"):
        ingest_csv(write_csv(tmp_path, text), config())


def test_ragged_row_names_the_file_line_after_a_spanning_cell(tmp_path):
    text = 'y,x,id\n1,0.5,"two\nlines"\n0,0.2\n'
    with pytest.raises(IngestionError,
                       match="^line 4: expected 3 fields, found 2$"):
        ingest_csv(write_csv(tmp_path, text), config())


# ---------------------------------------------------------------------------
# block parsing: padding, block boundaries, and NaN or infinite cells that
# are not tokens

PAD_CELLS = {
    "y": st.sampled_from(["0", "1", "1.0", "NA", "", "-nan"]),
    "x": st.one_of(st.floats(-5, 5, allow_nan=False).map(repr),
                   st.sampled_from(["1_0", "inf", "-Infinity", "NAN", "nan",
                                    "null", "oops", "\u0661\u0662"])),
    "g": st.sampled_from(["u", "v", "1", "N/A"]),
    "id": st.sampled_from(["a", "b", "1.0", "NULL"]),
    "w": st.sampled_from(["0.5", "-2", "Infinity", "-nan", "NaN", ""]),
}
# what str.strip removes; float() ignores all but the \x1c-\x1f group
PADDING = st.sampled_from(["", " ", "\t", "\x0b\x0c", "\x1c", "\x1f ",
                           "\xa0", "\u3000"])


@st.composite
def padded_tables(draw):
    """One table as (plain, padded) CSV texts, never quoted."""
    header = list(PAD_CELLS)
    body = [[draw(PAD_CELLS[name]) for name in header]
            for _ in range(draw(st.integers(2, 10)))]
    plain = "\n".join(",".join(row) for row in [header] + body) + "\n"
    padded = "\n".join(
        ",".join(draw(PADDING) + cell + draw(PADDING) for cell in row)
        for row in [header] + body) + "\n"
    return plain, padded


@settings(max_examples=100, deadline=None)
@given(table=padded_tables(),
       fixed=st.sampled_from([["1"], ["1", "x"], ["1", "g"], ["1", "x*g"]]),
       extra=st.sampled_from([(), ("w",), ("w", "id")]))
def test_padding_changes_no_outcome(table, fixed, extra):
    cfg = config(fixed=fixed)
    outcomes = []
    with tempfile.TemporaryDirectory() as root:
        for text in table:
            path = os.path.join(root, "data.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            outcomes.append(_outcome(path, cfg, extra))
    # NaN != NaN, so compare the reprs
    assert repr(outcomes[0]) == repr(outcomes[1])


@settings(max_examples=100, deadline=None)
@given(table=padded_tables(),
       fixed=st.sampled_from([["1", "x"], ["1", "x*g"]]),
       block=st.integers(1, 4))
def test_parse_block_size_changes_no_outcome(table, fixed, block):
    cfg = config(fixed=fixed)
    outcomes = []
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(table[1])
        outcomes.append(_outcome(path, cfg, ("w",)))
        with mock.patch.object(ingest, "_BLOCK", block):
            outcomes.append(_outcome(path, cfg, ("w",)))
    assert repr(outcomes[0]) == repr(outcomes[1])


def test_tokens_and_bad_cells_past_the_first_block(tmp_path):
    rows = ["y,x,w,id"] + [f"{r % 2},0.{r},1,c{r % 7}" for r in range(5000)]
    rows[4000] = "1,NA,1,c0"        # file line 4001
    rows[4500] = "0,0.5,nan,c1"     # file line 4501
    path = write_csv(tmp_path, "\n".join(rows) + "\n")
    result = ingest_csv(path, config(), extra_columns=("w",))
    assert result.dropped_lines == (4001, 4501)
    assert result.data.n_obs == 4998
    rows[4700] = "0,oops,1,c1"      # file line 4701
    path = write_csv(tmp_path, "\n".join(rows) + "\n")
    with pytest.raises(IngestionError, match=r"line\(s\) 4701$"):
        ingest_csv(path, config())


@pytest.mark.parametrize("x, w", [("inf", "0"), ("1e200", "1e200")])
def test_non_finite_interaction_is_a_typed_error_without_a_warning(
        tmp_path, x, w):
    # the suite turns RuntimeWarning into an error, so a warning from the
    # product would surface here instead of the ShapeError
    text = f"y,x,w,id\n1,0.5,1,a\n0,{x},{w},a\n1,0.3,2,b\n0,0.1,3,b\n"
    with pytest.raises(ShapeError, match="design matrices must be finite"):
        ingest_csv(write_csv(tmp_path, text), config(fixed=["1", "x*w"]))


def test_nan_and_inf_cells_that_are_not_tokens_are_kept(tmp_path):
    text = ("y,x,w,id\n"
            "1,0.5,NAN,a\n"
            "0,0.2,-nan,a\n"
            "1,0.3,inf,b\n"
            "0,0.1,-Infinity,b\n"
            "1,0.4,NA,b\n")     # line 6: the only missing-value token
    result = ingest_csv(write_csv(tmp_path, text), config(),
                        extra_columns=("w",))
    assert result.dropped_lines == (6,)
    w = result.extra["w"]
    assert np.isnan(w[:2]).all()
    assert w[2:].tolist() == [np.inf, -np.inf]


@pytest.mark.parametrize("cell", ["NAN", "-nan", "inf", "Infinity"])
def test_nan_or_inf_in_a_term_reaches_the_finiteness_check(tmp_path, cell):
    text = f"y,x,id\n1,0.5,a\n0,{cell},a\n1,0.3,b\n0,0.1,b\n"
    with pytest.raises(ShapeError, match="design matrices must be finite"):
        ingest_csv(write_csv(tmp_path, text), config())


# ---------------------------------------------------------------------------
# one read per CLI call


def test_vuong_reads_the_data_file_once(tmp_path, capsys):
    sim = make_glmm_data("binomial", beta=(0.3, 0.8), n_clusters=25,
                         cluster_size=5, seed=12)
    d = sim.data
    lines = ["y,x,id"] + [f"{d.y[r]:.17g},{d.X[r, 1]:.17g},c{d.cluster_index[r]}"
                          for r in range(d.n_obs)]
    data = write_csv(tmp_path, "\n".join(lines) + "\n")
    argv = ["vuong", "--data", str(data), "--nested", "--seed", "1"]
    for k, fixed, beta in ((1, ["1", "x"], sim.beta), (2, ["1"], sim.beta[:1])):
        (tmp_path / f"config{k}.json").write_text(json.dumps(
            dict(BASE_CONFIG, fixed=fixed)))
        (tmp_path / f"fit{k}.json").write_text(json.dumps({
            "estimate": {"beta": beta.tolist(), "theta": sim.theta.tolist()},
            "model": {"family": "binomial", "link": "logit",
                      "structure": "unstructured"}}))
        argv += [f"--config{k}", str(tmp_path / f"config{k}.json"),
                 f"--fit{k}", str(tmp_path / f"fit{k}.json")]
    with mock.patch.object(ingest, "_read_table",
                           wraps=ingest._read_table) as read:
        assert main(argv) == 0
    assert read.call_count == 1
    assert json.loads(capsys.readouterr().out)["test"] == "nested"


def test_vuong_parses_each_shared_column_once(tmp_path, capsys):
    # the two models share y and x; with z only in the first, three
    # columns are parsed, not five
    sim = make_glmm_data("binomial", beta=(0.3, 0.8), n_clusters=25,
                         cluster_size=5, seed=12)
    d = sim.data
    z = np.random.default_rng(99).standard_normal(d.n_obs)
    lines = ["y,x,z,id"] + [f"{d.y[r]:.17g},{d.X[r, 1]:.17g},{z[r]:.17g},"
                            f"c{d.cluster_index[r]}" for r in range(d.n_obs)]
    data = write_csv(tmp_path, "\n".join(lines) + "\n")
    argv = ["vuong", "--data", str(data), "--nested", "--seed", "1"]
    for k, fixed, beta in ((1, ["1", "x", "z"], [*sim.beta, 0.0]),
                           (2, ["1", "x"], list(sim.beta))):
        (tmp_path / f"config{k}.json").write_text(json.dumps(
            dict(BASE_CONFIG, fixed=fixed)))
        (tmp_path / f"fit{k}.json").write_text(json.dumps({
            "estimate": {"beta": beta, "theta": sim.theta.tolist()},
            "model": {"family": "binomial", "link": "logit",
                      "structure": "unstructured"}}))
        argv += [f"--config{k}", str(tmp_path / f"config{k}.json"),
                 f"--fit{k}", str(tmp_path / f"fit{k}.json")]
    with mock.patch.object(ingest, "_scan", wraps=ingest._scan) as scan:
        assert main(argv) == 0
    assert scan.call_count == 3
    assert json.loads(capsys.readouterr().out)["test"] == "nested"
