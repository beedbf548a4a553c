"""Fit a clustered binary-response model and inspect casewise derivatives.

The library's central objects are per-cluster quantities: each cluster
contributes one marginal log-likelihood value (llcont) and one row of
score vectors (estfun).  Everything downstream (robust covariance,
stability tests, model comparison) is built from these rows.  This
script fits a random-intercept logistic model to simulated data and
verifies the two identities that make the rows trustworthy: the rows of
llcont sum to the fit's total log-likelihood, and the columns of estfun
sum to (numerically) zero at the maximizer.
"""

import numpy as np

from glmmkit import FitControl, estfun, fit, llcont, make_glmm_data

sim = make_glmm_data("binomial", n_clusters=60, cluster_size=8,
                     beta=(0.5, -0.8), theta=(0.7,), seed=20)
print(f"simulated: {sim.data.n_obs} observations in "
      f"{sim.data.n_clusters} clusters, true beta {sim.beta}, "
      f"true factor {sim.theta}")

fitted = fit(sim.data, "binomial", control=FitControl(restarts=2))
print(f"\nconverged: {fitted.converged} "
      f"(adaptive quadrature, {fitted.m_used} points)")
for label, value in zip(fitted.data.x_names, fitted.beta):
    print(f"  {label:>12s}  {value:+.4f}")
print(f"  {'factor':>12s}  {fitted.theta[0]:+.4f}  "
      f"(true {sim.theta[0]:.1f})")

# derivatives default to 5 points; the fit's own count reproduces its loglik
contributions = llcont(fitted, fitted.m_used)
print(f"\nper-cluster log-likelihoods: shape {contributions.shape}, "
      f"sum {contributions.sum():.6f}")
print(f"fit.loglik:                  {fitted.loglik:.6f}")

scores = estfun(fitted, parameterization="var", n_points=fitted.m_used)
print(f"\nscore matrix: shape {scores.values.shape}, "
      f"columns {scores.labels}")
print("column sums at the maximizer (should be ~0):")
print(" ", np.array2string(scores.values.sum(axis=0), precision=2))

worst = np.argmin(contributions)
print(f"\nleast well explained cluster: {fitted.data.cluster_ids[worst]} "
      f"(loglik {contributions[worst]:.3f})")
print("its score row (direction the parameters would move for it alone):")
print(" ", np.array2string(scores.values[worst], precision=3))
