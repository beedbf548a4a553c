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

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DomainError, ShapeError, SingularityError

__all__ = [
    "RelCovFactor",
    "PARAMETERIZATIONS",
    "theta_length",
    "theta_to_lambda",
    "lambda_to_G",
    "dG_dlambda_entry",
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
    if structure == "unstructured":
        return q * (q + 1) // 2
    if structure == "diagonal":
        return q
    raise ConfigError(f"unknown covariance structure {structure!r}")


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
    diag = [(i, i) for i in range(q)]
    if structure == "diagonal":
        return diag
    off = [(i, j) for j in range(q) for i in range(j + 1, q)]
    return diag + off


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
    """The factor of ``theta``; a ``DomainError`` naming ``name`` if its
    diagonal has a negative entry."""
    lam = theta_to_lambda(theta, q, structure)
    if np.any(np.diag(lam) < 0.0):
        raise DomainError(f"{name} must have a nonnegative diagonal")
    return lam


def lambda_to_G(lam) -> np.ndarray:
    """The covariance matrix G = Lambda Lambda'."""
    lam = np.asarray(lam, dtype=float)
    return lam @ lam.T


def dG_dlambda_entry(lam, i: int, j: int) -> np.ndarray:
    """Derivative of G with respect to a single entry of Lambda.

    Uses the product rule on G = Lambda Lambda':

        dG/dLambda_ij = Lambda J_ji + J_ij Lambda'

    where J_ij is the single-entry matrix.  ``i`` and ``j`` are 0-based;
    only lower-triangular positions (i >= j) are admissible.
    """
    lam = np.asarray(lam, dtype=float)
    q = lam.shape[0]
    if not (0 <= j <= i < q):
        raise DomainError(f"({i},{j}) is not a lower-triangular position for q={q}")
    out = np.zeros((q, q))
    # Lambda J_ji contributes Lambda[:, j] into column i; J_ij Lambda' is its
    # transpose contribution.
    out[:, i] += lam[:, j]
    out[i, :] += lam[:, j]
    return out


def dG_dtheta_jacobian(lam: np.ndarray, structure: str = "unstructured") -> np.ndarray:
    """Jacobian J[r, c] = d(vech G)_r / d theta_c with rows in var-scale
    order and columns in theta order."""
    lam = np.asarray(lam, dtype=float)
    q = lam.shape[0]
    rows = var_positions(q, structure)
    cols = free_positions(q, structure)
    jac = np.empty((len(rows), len(cols)))
    for c, (li, lj) in enumerate(cols):
        dG = dG_dlambda_entry(lam, li, lj)
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


@dataclass(frozen=True)
class RelCovFactor:
    """Relative covariance factor: structure, free parameters, materialized
    lower-triangular matrix."""

    q: int
    theta: np.ndarray
    structure: str = "unstructured"
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float).ravel()
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "matrix",
                           _nonnegative_factor(theta, self.q, self.structure))

    def labels(self, z_names: list[str], target: str = "theta") -> list[str]:
        """Score column labels on the requested scale."""
        validate_parameterization(target)
        if target == "theta":
            return [f"chol[{z_names[i]},{z_names[j]}]"
                    for i, j in free_positions(self.q, self.structure)]
        out = []
        for i, j in var_positions(self.q, self.structure):
            if i == j:
                out.append((f"var[{z_names[i]}]" if target == "var"
                            else f"sd[{z_names[i]}]"))
            else:
                out.append((f"cov[{z_names[i]},{z_names[j]}]" if target == "var"
                            else f"cor[{z_names[i]},{z_names[j]}]"))
        return out
