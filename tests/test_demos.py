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


def test_two_stage_slope_fit_demo(capsys):
    env = runpy.run_path(str(DEMOS / "two_stage_slope_fit.py"))
    laplace, refit = env["laplace"], env["refit"]
    # the refit's rows of llcont sum to its loglik, and from the Laplace
    # estimates it needs fewer evaluations than the Laplace fit took
    np.testing.assert_allclose(env["contributions"].sum(), refit.loglik,
                               rtol=1e-12)
    assert refit.m_used == 7 and refit.converged
    assert refit.n_fev < laplace.n_fev
    out = capsys.readouterr().out
    assert f"{refit.n_fev:>11d}  {refit.loglik:>14.6f}" in out
    assert f"{laplace.n_fev:>11d}  {laplace.loglik:>14.6f}" in out
