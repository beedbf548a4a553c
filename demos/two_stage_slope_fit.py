"""Fit a random-slope model in two stages, as lme4's glmer does.

The first stage maximizes the Laplace approximation (one quadrature
point per dimension), which is cheap but biased for binary responses.
The second refits on a 7 x 7 adaptive Gauss-Hermite rule, started from
the first stage's estimates.  Like every fit on two or more points per
dimension, the refit first takes Newton steps on the Hessian that its
own quadrature sweep returns; from such a start it needs only a few, and
the point where they converge is the fit.  This script
prints each stage's evaluation count and log-likelihood, and checks that
the refit's per-cluster log-likelihoods (llcont) sum to its total.
"""

import numpy as np

from glmmkit import FitControl, fit, llcont, make_glmm_data

sim = make_glmm_data("binomial", beta=(0.2, 0.8), random="slope",
                     theta=(1.0, 0.0, 1.0), n_clusters=40, cluster_size=10,
                     seed=11)
data = sim.data
print(f"simulated: {data.n_obs} observations in {data.n_clusters} "
      f"clusters, random intercept and slope on {data.z_names[1]}")

laplace = fit(data, "binomial")
refit = fit(data, "binomial",
            control=FitControl(n_points=7, beta_start=laplace.beta,
                               theta_start=laplace.theta))

print(f"\n{'stage':>22s}  {'evaluations':>11s}  {'loglik':>14s}")
for name, stage in (("Laplace (M = 1)", laplace),
                    ("refit (M = 7 per dim)", refit)):
    print(f"{name:>22s}  {stage.n_fev:>11d}  {stage.loglik:>14.6f}")

print("\nestimates  beta:", np.array2string(refit.beta, precision=4),
      " theta:", np.array2string(refit.theta, precision=4))

contributions = llcont(refit, refit.m_used)
print(f"\nper-cluster log-likelihoods at M = 7 sum to "
      f"{contributions.sum():.6f}; the refit's loglik is {refit.loglik:.6f}")
