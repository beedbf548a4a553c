"""Relative covariance factor and parameterization maps.

Random effects enter the model as ``b = Lambda u`` with ``u ~ N(0, I_q)``,
so ``G = Lambda Lambda'`` is the random-effect covariance matrix and
``Lambda`` (lower triangular, nonnegative diagonal) is its Cholesky-style
relative covariance factor.  Scores are computed natively with respect to
the free entries of ``Lambda`` ("theta" scale) and mapped to the unique
entries of ``G`` ("var" scale) or to standard deviations and correlations
("sd" scale) via the chain-rule Jacobians implemented here.

Orderings are fixed and documented once:

* theta: column-major down the lower triangle, e.g. for q=2 the order is
  (1,1), (2,1), (2,2) in 1-based matrix positions.
* var: variances first (the diagonal of G), then covariances column-major,
  e.g. for q=2: var_1, var_2, cov_21.
* sd: standard deviations first, then correlations in the covariance order.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError, DomainError, ShapeError, SingularityError

__all__ = [
    "PARAMETERIZATIONS",
    "theta_length",
    "theta_to_lambda",
    "lambda_to_G",
]

PARAMETERIZATIONS = ("theta", "var", "sd")


def validate_parameterization(tag: str) -> str:
    if tag not in PARAMETERIZATIONS:
        raise ConfigError(
            f"unknown parameterization {tag!r}; expected one of {PARAMETERIZATIONS}"
        )
    return tag


def theta_length(q: int, structure: str = "unstructured") -> int:
    """Number of free parameters in the relative covariance factor."""
    return len(free_positions(q, structure))


def free_positions(q: int, structure: str = "unstructured") -> list[tuple[int, int]]:
    """0-based (row, col) positions of the free entries of Lambda,
    column-major down the lower triangle."""
    if structure == "diagonal":
        return [(i, i) for i in range(q)]
    if structure == "unstructured":
        return [(i, j) for j in range(q) for i in range(j, q)]
    raise ConfigError(f"unknown covariance structure {structure!r}")


def var_positions(q: int, structure: str = "unstructured") -> list[tuple[int, int]]:
    """0-based positions of the unique entries of G in var-scale order:
    diagonal first, then below-diagonal column-major."""
    # theta's order with the diagonal moved to the front (a stable sort)
    return sorted(free_positions(q, structure), key=lambda ij: ij[0] != ij[1])


def theta_to_lambda(theta, q: int, structure: str = "unstructured") -> np.ndarray:
    """Materialize the lower-triangular factor from its free parameters."""
    theta = np.asarray(theta, dtype=float).ravel()
    k = theta_length(q, structure)
    if theta.size != k:
        raise ShapeError(
            f"theta has length {theta.size}, expected {k} for q={q} {structure}"
        )
    lam = np.zeros((q, q))
    for value, (i, j) in zip(theta, free_positions(q, structure)):
        lam[i, j] = value
    return lam


def _nonnegative_factor(theta, q: int, structure: str,
                        name: str = "theta") -> np.ndarray:
    """The factor of ``theta``; a ``DomainError`` naming ``name`` if an
    entry is not finite or a diagonal entry is negative."""
    lam = theta_to_lambda(theta, q, structure)
    if not np.all(np.isfinite(lam)):
        raise DomainError(f"{name} must be finite")
    if np.any(np.diag(lam) < 0.0):
        raise DomainError(f"{name} must have a nonnegative diagonal")
    return lam


def labels(q: int, structure: str, z_names, target: str = "theta") -> list[str]:
    """Labels of the random-effect parameters on the ``target`` scale, in
    its order, for random-effect columns named ``z_names``."""
    validate_parameterization(target)
    if target == "theta":
        return [f"chol[{z_names[i]},{z_names[j]}]"
                for i, j in free_positions(q, structure)]
    diagonal, off = ("var", "cov") if target == "var" else ("sd", "cor")
    return [f"{diagonal}[{z_names[i]}]" if i == j
            else f"{off}[{z_names[i]},{z_names[j]}]"
            for i, j in var_positions(q, structure)]


def lambda_to_G(lam) -> np.ndarray:
    """The covariance matrix G = Lambda Lambda'."""
    lam = np.asarray(lam, dtype=float)
    return lam @ lam.T


def dG_dtheta_jacobian(lam: np.ndarray, structure: str = "unstructured") -> np.ndarray:
    """Jacobian J[r, c] = d(vech G)_r / d theta_c with rows in var-scale
    order and columns in theta order."""
    lam = np.asarray(lam, dtype=float)
    q = lam.shape[0]
    rows = var_positions(q, structure)
    cols = free_positions(q, structure)
    jac = np.empty((len(rows), len(cols)))
    for c, (li, lj) in enumerate(cols):
        # dG/dLambda_ij = Lambda J_ji + J_ij Lambda', J_ij the single-entry
        # matrix: Lambda[:, j] into column i and into row i
        dG = np.zeros((q, q))
        dG[:, li] += lam[:, lj]
        dG[li, :] += lam[:, lj]
        for r, (gi, gj) in enumerate(rows):
            jac[r, c] = dG[gi, gj]
    return jac


def theta_chain(lam, target: str, structure: str = "unstructured"):
    """First and second derivatives of theta in the target parameters.

    Returns ``jac`` (k, k) with ``jac[t, s] = d theta_t / d v_s`` and
    ``second`` (k, k, k) with ``second[t, s, r] = d^2 theta_t / d v_s d
    v_r``, v the parameters on the ``target`` scale in var-scale order.
    Scores map as ``s_v = s_theta jac`` and a Hessian as ``H_v = jac' H_theta
    jac + sum_t s_theta_t second[t]``.

    On the var scale theta = F^-1(g) with g = vech(Lambda Lambda') = F(theta)
    quadratic, so differentiating F(theta(g)) = g twice gives d^2 theta /
    dg_s dg_r = -F'^-1 vech(D_s D_r' + D_r D_s'), D_s the factor direction
    of column s of ``jac``.  On the sd scale g is itself a function of the
    standard deviations and correlations, G_ii = sigma_i^2 and G_ij = rho_ij
    sigma_i sigma_j, and the chain rule composes.

    Raises
    ------
    SingularityError
        If a diagonal entry of the factor is not positive; the map has no
        derivative there.
    """
    validate_parameterization(target)
    lam = np.asarray(lam, dtype=float)
    q = lam.shape[0]
    k = theta_length(q, structure)
    if target == "theta":
        return np.eye(k), np.zeros((k, k, k))
    bad = np.flatnonzero(np.diag(lam) <= 0.0)
    if bad.size:
        raise SingularityError(
            "relative covariance factor has zero diagonal entry "
            f"Lambda[{bad[0]},{bad[0]}]; var/sd scores are undefined there"
        )
    try:
        jac = np.linalg.inv(dG_dtheta_jacobian(lam, structure))
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"singular reparameterization Jacobian: {exc}") from exc
    rows = var_positions(q, structure)
    directions = np.zeros((k, q, q))
    for t, (i, j) in enumerate(free_positions(q, structure)):
        directions[:, i, j] = jac[t]
    products = np.einsum("sab,rcb->srac", directions, directions)
    products += np.swapaxes(products, 0, 1)
    row_i, row_j = (list(axis) for axis in zip(*rows))
    second = -np.einsum("tu,sru->tsr", jac, products[:, :, row_i, row_j])
    if target == "var":
        return jac, second
    G = lambda_to_G(lam)
    sd = np.sqrt(np.diag(G))
    at = {pos: r for r, pos in enumerate(rows)}
    dg = np.zeros((k, k))       # dg[r, s] = d g_r / d v_s
    g2 = np.zeros((k, k, k))    # g2[r, s, u] = d^2 g_r / d v_s d v_u
    for r, (i, j) in enumerate(rows):
        if i == j:
            dg[r, r] = 2.0 * sd[i]
            g2[r, r, r] = 2.0
            continue
        a, b = at[(i, i)], at[(j, j)]
        rho = G[i, j] / (sd[i] * sd[j])
        dg[r, [a, b, r]] = rho * sd[j], rho * sd[i], sd[i] * sd[j]
        g2[r, a, b] = g2[r, b, a] = rho
        g2[r, a, r] = g2[r, r, a] = sd[j]
        g2[r, b, r] = g2[r, r, b] = sd[i]
    return jac @ dg, (np.einsum("as,tab,br->tsr", dg, second, dg)
                      + np.einsum("tu,usr->tsr", jac, g2))
