"""The demo scripts run, and the identities they print hold."""

import pathlib
import runpy

import numpy as np

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_fit_and_casewise_scores_demo(capsys):
    env = runpy.run_path(str(DEMOS / "fit_and_casewise_scores.py"))
    fitted = env["fitted"]
    # the demo states that the rows of llcont sum to the fit's loglik
    np.testing.assert_allclose(env["contributions"].sum(), fitted.loglik,
                               rtol=1e-12)
    assert f"sum {fitted.loglik:.6f}" in capsys.readouterr().out
