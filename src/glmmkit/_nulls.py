"""Exact null distributions of the post-estimation tests.

The Vuong statistics are read against weighted chi-square tails, computed
by Laplace inversion.  The sctest functionals are read against a Brownian
bridge on the test's own grid, ties included: DM and the max-LM pair as
the chance that the bridge, or its norm, stays inside a band at every
point (a chain of transition kernels on Gauss-Legendre nodes, one kernel
per run of one transition, whole matrices on coarse grids and ragged
bands on fine ones), CvM as a chi-square tail whose weights come from the
bridge's covariance.  Nothing here draws random numbers.

The max-LM chain's radial kernel is a scaled Bessel function of order
dim/2 - 1 (see _radial_kernel).  Its odd orders have closed forms in
exp(-2z); below z = 2 dim the ascending series gives every order from dim
5 to 40, and above it an upward recurrence does.  The even bases come
from Hankel's expansion from z = 32 and from ``i0e`` and ``i1e`` below
it; ``ive`` remains only below 2 dim for dims above 40.  At dims 1 to 8,
12, 15, 20 and 40 the kernel is within 4.9e-14 of ``ive``, and most of
that is ``ive``'s own error: against 40-digit values the forms are within
7.3e-15 (the recurrence at dim 40; the series within 3.3e-15), ``ive``
within 3.9e-14.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import (chdtrc, chdtri, gammaln, i0e, i1e, ive, kolmogi,
                           kolmogorov)

from .exceptions import EstimationError

# Absolute error bound of _chisq_mixture_tail.  The integral it sums is
# accurate to about 1e-13 in practice; the bound leaves room for that.
_TAIL_EPS = 1e-9

# A mixture with no weights is a point mass at zero; statistics up to this
# size count as reaching it.
_POINT_MASS_TOL = 1e-10

# Successive trapezoid sums of the tail integral must agree this closely.
_TRAPEZOID_TOL = 1e-12

# Entries of the tail integrand's (nodes x weights) array built at once,
# at most (1 MB of complex doubles).
_TAIL_BLOCK = 2 ** 16


def _convex_root(slope, curvature, lo, hi):
    """Root of an increasing ``slope`` on (lo, hi), which it crosses once.

    Newton steps from the midpoint, kept inside a bracket that shrinks
    with every evaluation.  ``hi`` is finite; an infinite ``lo`` is
    replaced by doubling out from -1 until the slope turns negative.  The
    callers only need a point near the root (any point gives a valid
    bound or contour), so 40 iterations or a relative step of 1e-12 end
    the search.
    """
    if math.isinf(lo):
        lo = -1.0
        while slope(lo) > 0.0:
            lo *= 2.0
    t = 0.5 * (lo + hi)
    for _ in range(40):
        g = slope(t)
        if g > 0.0:
            hi = t
        else:
            lo = t
        d = curvature(t)
        # a curvature that underflowed to zero leaves only the bisection
        new = t - g / d if d > 0.0 else 0.5 * (lo + hi)
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - t) <= 1e-12 * abs(t):
            return new
        t = new
    return t


def _chisq_mixture_tail(weights, x, multiplicity=1) -> float:
    """P(sum_i weights[i] * chi2(multiplicity[i]) >= x), independent terms.

    ``multiplicity`` (a scalar or one count per weight) is the number of
    squared standard normals each weight multiplies.  Exact to an absolute
    error of ``_TAIL_EPS`` for nonzero weights of either sign.  With no
    weights the sum is a point mass at zero, reached by any
    ``x <= _POINT_MASS_TOL``.

    The upper tail is Laplace's inversion integral
    ``(1 / 2 pi i) int M(s) exp(-s x) ds / s`` of the moment generating
    function ``M(s) = prod_i (1 - 2 s w_i)^(-m_i/2)``, taken along the
    hyperbola ``s = c + a (cosh v - 1) + i a sinh v`` instead of the
    vertical line through ``c``: the real saddle point ``c`` of the
    integrand's log-modulus, on the side of the pole at 0 where the
    Chernoff point lies, and ``a`` the integrand's width there.  The
    hyperbola meets the real axis only at ``c``, so it crosses neither
    the branch cuts of ``M`` nor the pole (left of 0, the integral is the
    tail minus one).  Along it the integrand falls at least like
    ``exp(-k v / 2)``, with ``k = sum_i m_i``, and, for ``x > 0``, like
    ``exp(-x a cosh v)``, so the trapezoid rule converges geometrically in
    the step, whatever the weights (Imhof's real-line integrand falls only
    like ``u^(-1-k/2)``, which for one or two weights needs millions of
    terms).  The sum stops where a bound on the integrand's modulus,
    ``(sqrt 2 / pi) coth v prod_i (2 |w_i| a sinh v)^(-m_i/2)
    exp(-x Re s)``, taken in logs because for many weights it overflows
    near the real axis, leaves less than 1e-15 behind; the step is halved
    until two sums agree to ``_TRAPEZOID_TOL``.  When a Chernoff bound on
    either tail is already below ``_TAIL_EPS``, that tail is returned as 0
    (or 1) without the integral.  A negative ``x`` is the complement of
    the reflected mixture.  The result is clipped to [0, 1].
    """
    lam = np.asarray(weights, dtype=float)
    mult = np.broadcast_to(np.asarray(multiplicity, dtype=float), lam.shape)
    x = float(x)
    if lam.size == 0:
        return 1.0 if x <= _POINT_MASS_TOL else 0.0
    if x < 0.0:
        return min(1.0, max(0.0, 1.0 - _chisq_mixture_tail(-lam, -x, mult)))
    l_max, l_min = float(lam.max()), float(lam.min())
    if l_max <= 0.0:
        return 0.0                      # the sum is negative almost surely
    t_hi = 0.5 / l_max
    t_lo = 0.5 / l_min if l_min < 0.0 else -math.inf
    terms = list(zip(lam.tolist(), mult.tolist()))

    def cgf_slope(t):
        return sum(m * w / (1.0 - 2.0 * t * w) for w, m in terms)

    def cgf_curvature(t):
        return sum(2.0 * m * (w / (1.0 - 2.0 * t * w)) ** 2 for w, m in terms)

    def cgf(t):
        return -0.5 * sum(m * math.log1p(-2.0 * t * w) for w, m in terms)

    # Chernoff: P(Q >= x) <= exp(K(t) - t x) for t > 0, and
    # P(Q <= x) <= exp(K(t) - t x) for t < 0; K'(t) = x gives the best t.
    upper = x > cgf_slope(0.0)
    if not upper and math.isinf(t_lo) and x == 0.0:
        return 1.0                      # positive weights only: Q > 0
    t_chernoff = _convex_root(lambda t: cgf_slope(t) - x, cgf_curvature,
                              0.0 if upper else t_lo,
                              t_hi if upper else 0.0)
    if cgf(t_chernoff) - t_chernoff * x <= math.log(_TAIL_EPS):
        return 0.0 if upper else 1.0

    # the saddle point of K(s) - s x - log|s| on the Chernoff side
    c = _convex_root(lambda t: cgf_slope(t) - x - 1.0 / t,
                     lambda t: cgf_curvature(t) + 1.0 / (t * t),
                     0.0 if upper else t_lo, t_hi if upper else 0.0)
    a = 1.0 / math.sqrt(cgf_curvature(c) + 1.0 / (c * c))
    offset = 0.0 if upper else 1.0      # residue of the pole at 0

    rows = max(1, _TAIL_BLOCK // lam.size)

    def integrand(v):
        sinh, cosh = np.sinh(v), np.cosh(v)
        s = (c + a * (cosh - 1.0)) + 1j * (a * sinh)
        # log M(s), for a block of rows of s at a time
        log_m = -0.5 * np.concatenate([
            np.log(1.0 - 2.0 * np.multiply.outer(s[i:i + rows], lam)) @ mult
            for i in range(0, s.size, rows)])
        # (1 / 2 pi i) * ds / s, with ds = a (sinh v + i cosh v) dv
        return (np.exp(log_m - s * x) * (a * (cosh - 1j * sinh)) / s).real

    # truncation: the bound falls at rate >= k/2 beyond v = 1, so the
    # integral and the trapezoid sum past v hold at most bound * (2/k + h)
    h = 0.25
    k = float(mult.sum())
    log_scale = (math.log(math.sqrt(2.0) / math.pi)
                 - 0.5 * float(mult @ np.log(2.0 * a * np.abs(lam))))
    log_slack = math.log(1e-15 / (2.0 / k + h))
    v_end = 8.0
    while True:
        v = np.arange(h, v_end, h)
        sinh, cosh = np.sinh(v), np.cosh(v)
        log_bound = (log_scale + np.log(cosh / sinh) - 0.5 * k * np.log(sinh)
                     - x * (c + a * (cosh - 1.0)))
        small = np.flatnonzero((v >= 1.0) & (log_bound < log_slack))
        if small.size:
            v_end = float(v[small[0]])
            break
        v_end *= 2.0
    # f is even in v, so the integral over the real line is twice (0, inf)
    values = integrand(np.arange(0.0, v_end + 0.5 * h, h))
    total = values.sum() - 0.5 * values[0]
    previous = h / math.pi * total
    for _ in range(12):
        total += integrand(np.arange(0.5 * h, v_end, h)).sum()
        h *= 0.5
        current = h / math.pi * total
        if abs(current - previous) <= _TRAPEZOID_TOL:
            return min(1.0, max(0.0, current + offset))
        previous = current
    raise EstimationError(
        f"the chi-square mixture tail at {x!r} did not converge for "
        f"weights {lam.tolist()}")


# Error bounds of a stay probability: one DM coordinate's (so the DM
# p-value is within dim * _DM_TOL) and the max-LM one's.  The node rule
# keeps both near 1e-12: fourfold nodes moved the DM probability by at
# most 2.1e-12 on a 5,000-point grid (bands 0.9 to 3), and on 20- to
# 300-point grids (dim 1, 3, 5; c from 1 to 60) the max-LM count met
# 1e-12 against three times as many nodes.
_DM_TOL = 1e-10
_LM_TOL = 1e-10

# Gauss-Legendre nodes per band half-width in units of the smallest step's
# standard deviation, plus a floor; the count is rounded up to a multiple
# of 8 so nearby bands share one cached rule.
_NODES_PER_SD = 2.2
_NODES_FLOOR = 12

# A transition repeated more than this many times the node count is
# eigendecomposed; rarer ones are applied one product at a time.
_EIGH_AFTER = 4

# A step reaches only the nodes within the radius a dim-dimensional
# Gaussian step exceeds with this probability; J steps drop J times it.
_LM_REACH_TAIL = 1e-16

# Kernel entries built per batch of transitions, at most (1 MB of
# doubles).  A transition with more nodes^2 entries than this takes the
# ragged side alone, in slices of target rows.
_LM_BATCH = 2 ** 17

# A batch whose reach cut keeps at least this share of its nodes^2 entries
# per transition builds them all, as dense matrices applied by
# matrix-vector products; below it the ragged build costs less.  On max-LM
# chains of 40 to 330 points in the window (0.1, 0.9), dense and ragged
# took equal times at a share of 0.75 at dim 1, 0.71 at dim 3 and 0.75 at
# dim 5.
_DENSE_SHARE = 0.75

# The radial kernel's series: the ascending one serves z < 2 dim up to
# this dim, Hankel's this many terms from this z on (see _base_ratio).
_ASCENDING_MAX_DIM = 40
_HANKEL_FROM = 32.0
_HANKEL_TERMS = 15

# Critical values: the secant's step tolerance, Siegmund's correction
# 0.5826 sqrt(dt) of the continuous Kolmogorov quantile toward the
# discrete grid's (the DM first guess), the grids kept, and the level.
_CRITICAL_TOL = 1e-11
_SIEGMUND = 0.5826
_CRITICAL_CACHE_SIZE = 32
_LEVEL = 0.95


@functools.lru_cache(maxsize=16)
def _legendre_rule(n):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Nodes come from the Golub-Welsch eigenvalues; one Newton step in
    extended precision then corrects each node and gives its weight from
    P_n'.  NumPy's float64 weights carry errors near 1e-13 that the DM
    recursion multiplies by the number of grid steps.
    """
    k = np.arange(1.0, n)
    half = eigvalsh_tridiagonal(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0))
    x = half[n // 2:].astype(np.longdouble)        # the nonnegative half
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n * (p_prev - x * p) / (1 - x * x)
    step = p / dp
    dp -= step * (2 * x * dp - n * (n + 1) * p) / (1 - x * x)
    x -= step
    weight = 2 / ((1 - x * x) * dp * dp)
    x, weight = x.astype(float), weight.astype(float)
    mirror = slice(None, 0, -1) if n % 2 else slice(None, None, -1)
    nodes = np.concatenate((-x[mirror], x))     # the middle node once
    weights = np.concatenate((weight[mirror], weight))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _node_count(band, steps):
    """Nodes a chain uses on [0, band] for these steps."""
    count = _NODES_PER_SD * band / math.sqrt(steps.min()) + _NODES_FLOOR
    return 8 * math.ceil(count / 8)


def _secant(log_tail, guess, log_target, tol, what):
    """The c with log_tail(c) = log_target, by secant steps from ``guess``
    and ``1.001 * guess``, each kept within a factor 1.5 of the last point,
    until ``|log_tail(c) - log_target| <= tol`` or c moves by less than
    _CRITICAL_TOL.  ``log_tail`` is the log of a tail probability, or of
    minus the log of a stay probability: near the level both are close to
    linear in c.
    """
    c0, c1 = guess, 1.001 * guess
    f0, f1 = log_tail(c0) - log_target, log_tail(c1) - log_target
    for _ in range(30):
        if abs(f1) <= tol or abs(c1 - c0) <= _CRITICAL_TOL or f1 == f0:
            return c1
        step = f1 * (c1 - c0) / (f1 - f0)
        c0, f0 = c1, f1
        c1 = min(1.5 * c1, max(0.5 * c1, c1 - step))
        f1 = log_tail(c1) - log_target
    raise EstimationError(f"the {what} critical value did not converge")


def _radial_kernel(dim, r, r_next):
    """The radial density of a dim-dimensional Brownian step of unit
    variance, p(r_next | r) = phi(r - r_next) (r_next / r)^((dim - 1) / 2)
    S_dim(r r_next), less the constant 1 / sqrt(2 pi) and the power of the
    radii, which the chain carries on its nodes.

    S_k(z) = sqrt(2 pi z) exp(-z) I_{k/2 - 1}(z).  _base_ratio gives
    S_1 to S_4.  For dim >= 5:

    - z < 2 dim, up to dim _ASCENDING_MAX_DIM: the ascending series (see
      _ascending_ratio); above that dim, ``ive``.
    - z >= 2 dim: S_{k+2} = S_{k-2} - (k - 2) S_k / z, upward from S_1
      and S_3 or S_2 and S_4.  Below 2 dim the recurrence loses accuracy
      (it grows without bound as z falls); up to dim 40 it stays within
      3e-14 of ``ive`` above it, and within 7.3e-15 of 40-digit values.
    """
    z = r * r_next
    if dim <= 4:
        ratio = _base_ratio(dim, z)
    else:
        ratio = np.empty_like(z)
        near = z < 2.0 * dim
        if dim <= _ASCENDING_MAX_DIM:
            ratio[near] = _ascending_ratio(dim, z[near])
        else:
            ratio[near] = np.sqrt(2.0 * math.pi * z[near]) * ive(
                0.5 * dim - 1.0, z[near])
        far = z[~near]
        top = 4 - dim % 2                    # the highest base order
        lower, upper = _base_ratio(top - 2, far), _base_ratio(top, far)
        for k in range(top, dim, 2):
            lower, upper = upper, lower - (k - 2) / far * upper
        ratio[~near] = upper
    return np.exp(-0.5 * np.square(r - r_next)) * ratio


def _base_ratio(k, z):
    """S_k(z) of _radial_kernel for k = 1, 2, 3, 4.

    S_1 = 1 + exp(-2z) (the folded Gaussian) and S_3 = 1 - exp(-2z) (the
    image kernel).  S_2 and S_4 come from the scaled Bessel functions of
    order 0 and 1 below _HANKEL_FROM and from Hankel's expansion (DLMF
    10.40.1) above it: _HANKEL_TERMS terms in 1/z, whose first omitted
    term is below 2^-54 there.  The expansion's exponentially small part,
    exp(-2z) relative, is below 1e-27 there.  Above _HANKEL_FROM it is
    within 8.9e-16 of ``i0e`` and ``i1e``; against 40-digit values it is
    within 2.2e-16, they within 4.4e-16.
    """
    if k == 1:
        return 1.0 + np.exp(-2.0 * z)
    if k == 3:
        return -np.expm1(-2.0 * z)
    ratio = np.empty_like(z)
    far = z >= _HANKEL_FROM
    ratio[far] = _horner(_hankel_coefficients(k), 1.0 / z[far])
    near = z[~far]
    ratio[~far] = np.sqrt(2.0 * math.pi * near) * (i0e if k == 2 else i1e)(
        near)
    return ratio


@functools.lru_cache(maxsize=None)
def _hankel_coefficients(k):
    """The coefficients (-1)^m a_m(nu) of Hankel's expansion of S_k,
    nu = k/2 - 1, highest power first: a_0 = 1 and a_m = a_{m-1}
    (4 nu^2 - (2m - 1)^2) / (8m)."""
    mu = (k - 2.0) ** 2                       # 4 nu^2
    coefficients = [1.0]
    for m in range(1, _HANKEL_TERMS):
        coefficients.append(-coefficients[-1] * (mu - (2 * m - 1) ** 2)
                            / (8.0 * m))
    return tuple(reversed(coefficients))


def _ascending_ratio(dim, z):
    """S_dim(z) for 0 <= z < 2 dim from the ascending series of I_nu
    (DLMF 10.25.2), nu = dim/2 - 1:

        S_dim(z) = C z^(nu + 1/2) exp(-z) sum_m x^m / (m! (nu + 1)_m),

    x = z^2 / 4 and C = sqrt(2 pi) 2^-nu / Gamma(nu + 1).  Every term is
    positive, and the term count, fixed by z = 2 dim, leaves a tail below
    2^-54 of the sum there (23 terms at dim 5, 74 at dim 40).  The
    leading factor is the product of C, z^(nu + 1/2) and exp(-z), each
    rounded once, and is 0 at z = 0.  Up to dim _ASCENDING_MAX_DIM none
    of them overflows or underflows above z = 1e-4.  The series is within
    1.2e-14 of ``ive`` at dim 5 and 4.9e-14 at dim 40, mostly ``ive``'s
    error: against 40-digit values it is within 3.3e-15 at dims 5 to 40,
    ``ive`` within 3.9e-14.  Past about dim 60 its last coefficients
    underflow.
    """
    constant, coefficients = _ascending_coefficients(dim)
    return (constant * np.power(z, 0.5 * dim - 0.5) * np.exp(-z)
            * _horner(coefficients, 0.25 * z * z))


@functools.lru_cache(maxsize=None)
def _ascending_coefficients(dim):
    """C and the coefficients of _ascending_ratio, highest power first."""
    nu = 0.5 * dim - 1.0
    x = float(dim * dim)                      # x at z = 2 dim
    coefficients, term, total = [1.0], 1.0, 1.0
    while True:
        m = len(coefficients)
        ratio = x / (m * (m + nu))            # term m over term m - 1
        # the terms fall at least geometrically from here on
        if ratio < 1.0 and term * ratio / (1.0 - ratio) <= 2.0 ** -54 * total:
            break
        coefficients.append(coefficients[-1] / (m * (m + nu)))
        term *= ratio
        total += term
    constant = math.exp(0.5 * math.log(2.0 * math.pi) - nu * math.log(2.0)
                        - gammaln(nu + 1.0))
    return constant, tuple(reversed(coefficients))


def _horner(coefficients, x):
    """The polynomial with these coefficients, highest power first, at
    x."""
    value = np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        value *= x
        value += c
    return value


def _stay_probability(bands, steps, dim, nodes=None):
    """P(|B(s_j)| <= bands[j] at every point s_j) for a dim-dimensional
    Brownian bridge B on [0, 1] whose J points cut [0, 1] into the J + 1
    ``steps``, using at least ``nodes`` quadrature nodes per point
    (_node_count by default).

    The norm of the bridge is Markov, so the probability is a chain over
    the points: grid points without a band impose nothing, and their steps
    merge.  Its first factor is the density of |W(s_1)| for an unpinned
    Brownian motion W (a scaled chi density), each step the radial kernel
    of its length, and its last factor phi_dim(r; 1 - s_J) / phi_dim(0; 1),
    the density of returning to the origin at t = 1.  Each point's band
    carries a Gauss-Legendre rule; the chain carries density * weight /
    r^((dim - 1) / 2) on its nodes.

    - A run of one transition (step and bands) builds its kernel once and
      applies it at every step of the run.  A target node sums only the
      source nodes within the radius a Gaussian step exceeds with
      probability _LM_REACH_TAIL.  Where that cut keeps at least
      _DENSE_SHARE of a batch's nodes^2 entries per transition (dense and
      ragged broke even at 0.71 to 0.75 at dims 1, 3 and 5), the batch's
      kernels are built whole in one call and applied as matrices.  On a
      fine grid, whose step is a small part of the band, each kernel is a
      ragged band instead, built for the batch in one call and applied by
      ``np.add.reduceat``.  Batches hold at most _LM_BATCH entries; a
      transition of more nodes^2 entries than that is ragged whatever its
      share, and builds its target rows in slices of at most _LM_BATCH
      entries, anew at every step of its run.
    - A run longer than _EIGH_AFTER times the node count has its kernel
      eigendecomposed instead, once, and applied as V diag(lambda^r) V'.
      A top eigenvalue above 1 + 1e-12 means too few nodes, and the count
      doubles.
    - Steps and bands symmetric about t = 1/2 (to rounding) are their own
      time reversal.  The reversed bridge's chain from t = 1 back to the
      middle point m is then this chain from t = 0 to m's mirror m', and
      only that half is run: with C = 2^(dim/2 - 1) Gamma(dim/2), the
      halves meet as P = C sum_b u_m[b] u_m'[b] / w_m[b].
    """
    if nodes is None:
        nodes = _node_count(float(bands.max()), steps)
    inner = steps[1:-1]
    # np.allclose's tests, without its overhead; a NaN fails them
    symmetric = (np.abs(steps - steps[::-1]).max() <= 1e-15
                 and (np.abs(bands - bands[::-1])
                      <= 1e-14 * np.abs(bands[::-1])).all())
    middle = bands.size // 2 if symmetric else bands.size - 1
    # runs of one transition: equal step, band and next band
    same = ((inner[1:middle] == inner[:middle - 1])
            & (bands[1:middle] == bands[:middle - 1])
            & (bands[2:middle + 1] == bands[1:middle]))
    runs = np.flatnonzero(np.concatenate(([True], ~same)))[:middle]
    lengths = np.diff(np.append(runs, middle))
    log_chi = (0.5 * dim - 1.0) * math.log(2.0) + gammaln(0.5 * dim)
    reach = math.sqrt(chdtri(dim, _LM_REACH_TAIL))
    root_steps = np.sqrt(inner)
    # target weights: the rule's, times the step's normal constant
    scale = bands[1:] / np.sqrt(2.0 * math.pi * inner)
    while True:
        z, w = _legendre_rule(nodes)
        x = 0.5 * (z + 1.0)
        half_w = 0.5 * w
        first = bands[0] * x
        u = bands[0] * half_w * first ** (0.5 * (dim - 1)) * np.exp(
            -0.5 * first ** 2 / steps[0] - log_chi
            - 0.5 * dim * math.log(steps[0]))
        previous, done = u, 0

        def banded(u, previous, stop):
            # the runs from point done up to point stop, one kernel each
            first, last = np.searchsorted(runs, (done, stop))
            per_batch = max(1, _LM_BATCH // nodes ** 2)
            for head in range(first, last, per_batch):
                starts = runs[head:min(head + per_batch, last)]
                repeats = lengths[head:head + starts.size].tolist()
                weights = [scale[start] * half_w for start in starts]
                # target radii in units of the step's standard deviation
                target = np.multiply.outer(bands[1:][starts]
                                           / root_steps[starts], x)
                to_r = bands[:-1][starts] / root_steps[starts]
                to_x = (root_steps[starts] / bands[:-1][starts])[:, None]
                # each target's source nodes [lo, lo + count), at least one
                lo = np.minimum(np.searchsorted(x, (target - reach) * to_x),
                                nodes - 1)
                count = np.maximum(np.searchsorted(
                    x, (target + reach) * to_x) - lo, 1).ravel()
                ends = np.cumsum(count)
                if (count.size * nodes <= _LM_BATCH
                        and ends[-1] >= _DENSE_SHARE * count.size * nodes):
                    kernels = _radial_kernel(dim, np.multiply.outer(
                        to_r, x)[:, None, :], target[:, :, None])
                    for kernel, weight, length in zip(kernels, weights,
                                                      repeats):
                        for _ in range(length):
                            previous = u
                            u = weight * (kernel @ u)
                    continue
                begins = ends - count
                offset = lo.ravel() - begins
                source_r = np.repeat(to_r, nodes)
                target_r = target.ravel()

                def entries(a, b):
                    # target rows a to b: their kernel entries and the
                    # source node of each
                    local = np.arange(begins[a], ends[b - 1]) + np.repeat(
                        offset[a:b], count[a:b])
                    return local, _radial_kernel(
                        dim, x[local] * np.repeat(source_r[a:b], count[a:b]),
                        np.repeat(target_r[a:b], count[a:b]))

                if ends[-1] <= _LM_BATCH:
                    local, kernel = entries(0, count.size)
                    for i, (begin, end) in enumerate(zip(
                            begins[::nodes], ends[nodes - 1::nodes])):
                        rows = begins[i * nodes:(i + 1) * nodes] - begin
                        for _ in range(repeats[i]):
                            previous = u
                            u = weights[i] * np.add.reduceat(
                                kernel[begin:end] * u[local[begin:end]], rows)
                    continue
                # one transition of more entries than that: its target rows
                # in slices of at most _LM_BATCH entries, each built anew at
                # every step of the run
                cuts = [0]
                while cuts[-1] < nodes:
                    a = cuts[-1]
                    cuts.append(max(a + 1, int(np.searchsorted(
                        ends, begins[a] + _LM_BATCH, "right"))))
                for _ in range(repeats[0]):
                    step = np.empty(nodes)
                    for a, b in zip(cuts[:-1], cuts[1:]):
                        local, kernel = entries(a, b)
                        step[a:b] = np.add.reduceat(kernel * u[local],
                                                    begins[a:b] - begins[a])
                    previous, u = u, weights[0] * step
            return u, previous

        for start, length in zip(runs, lengths):
            if length <= _EIGH_AFTER * nodes:
                continue
            u, previous = banded(u, previous, start)
            radii = x * (bands[start] / root_steps[start])
            root_w = np.sqrt(scale[start] * half_w)
            lam, vec = np.linalg.eigh(root_w[:, None] * _radial_kernel(
                dim, radii[:, None], radii) * root_w)
            if lam[-1] > 1.0 + 1e-12:
                break
            projected = (u / root_w) @ vec
            previous = root_w * (vec @ (lam ** int(length - 1) * projected))
            u = root_w * (vec @ (lam ** int(length) * projected))
            done = start + length
        else:
            u, previous = banded(u, previous, middle)
            break
        nodes *= 2
    if symmetric:
        mirror = u if bands.size % 2 else previous
        return math.exp(log_chi) * float(
            np.sum(u * mirror / (bands[middle] * half_w)))
    last = bands[-1] * x
    return float(u @ (last ** (0.5 * (dim - 1)) * np.exp(
        -0.5 * last ** 2 / steps[-1]) / steps[-1] ** (0.5 * dim)))


def _dm_p_value(statistic, steps, dim):
    """Exact P(DM >= statistic) on the grid of ``steps``: the coordinates
    are independent bridges, so p = 1 - P(stay)^dim."""
    if statistic <= 0.0:
        return 1.0
    # the continuous bridge's maximum dominates the grid's
    if kolmogorov(statistic) <= _DM_TOL:
        return 0.0
    stay = _stay_probability(np.full(steps.size - 1, statistic), steps, 1)
    if stay <= 0.0:
        return 1.0
    return min(1.0, max(0.0, -math.expm1(dim * math.log(stay))))


def _lm_stay_probability(c, t, dim):
    """P(|B(t_j)|^2 <= c t_j (1 - t_j) at every t_j in ``t``) for a
    dim-dimensional Brownian bridge; ``t`` is increasing and inside
    (0, 1)."""
    return _stay_probability(np.sqrt(c * t * (1.0 - t)), np.diff(
        t, prepend=0.0, append=1.0), dim)


def _lm_p_value(statistic, t, dim):
    """Exact P(max_j |B(t_j)|^2 / (t_j (1 - t_j)) >= statistic) over the
    points ``t``."""
    if statistic <= 0.0:
        return 1.0
    # a union bound over the points: each term is chi-square(dim)
    if t.size * chdtrc(dim, statistic) <= _LM_TOL:
        return 0.0
    return min(1.0, max(0.0, 1.0 - _lm_stay_probability(statistic, t, dim)))


def _cvm_weights(steps):
    """Weights of n times the CvM null as a chi-square mixture, each
    carried by every coordinate: 1 / mu_k for the eigenvalues mu_k of the
    precision of one bridge coordinate at the grid points below t = 1,
    tridiagonal with diagonal 1/dt_j + 1/dt_{j+1} and off-diagonal
    -1/dt_{j+1}."""
    inverse = 1.0 / steps
    return 1.0 / eigvalsh_tridiagonal(inverse[:-1] + inverse[1:],
                                      -inverse[1:-1])


def _cvm_p_value(statistic, steps, n_clusters, dim):
    """Exact P(CvM >= statistic) on the grid of ``steps``."""
    return _chisq_mixture_tail(_cvm_weights(steps), n_clusters * statistic,
                               dim)


@functools.lru_cache(maxsize=_CRITICAL_CACHE_SIZE)
def _critical_value(functional, grid, dim):
    """The 5% critical value of a functional on one grid, kept for the
    last _CRITICAL_CACHE_SIZE grids.

    ``grid`` holds the bytes of a float64 array: the steps of the whole
    grid for "DM" and "CvM", the points the max-LM maximum runs over for
    "maxLM" (maxLM-ordinal is maxLM over every point below t = 1).  For
    CvM the value is that of n times the statistic, which the grid alone
    fixes; the caller divides it by the cluster count n.  The secant steps
    (see _secant) start from the two-moment scaled chi-square quantile for
    CvM and stop once its tail is within _TAIL_EPS / 10 of 0.05.  For DM
    they start from the Siegmund-corrected Kolmogorov quantile, for maxLM
    from the chi-square quantile at 0.05 / sqrt(J), between the one-point
    and the union bound's; both stop once log P(stay) is within
    _DM_TOL / 10 = _LM_TOL / 10 of log 0.95.
    """
    values = np.frombuffer(grid)
    alpha = 1.0 - _LEVEL
    if functional == "CvM":
        weights = _cvm_weights(values)
        mean = dim * float(weights.sum())
        variance = 2.0 * dim * float(np.square(weights).sum())
        guess = variance / (2.0 * mean) * float(
            chdtri(2.0 * mean * mean / variance, alpha))
        return _secant(
            lambda c: math.log(_chisq_mixture_tail(weights, c, dim)), guess,
            math.log(alpha), _TAIL_EPS / (10.0 * alpha), functional)
    if functional == "DM":
        def stay(band):
            return _stay_probability(np.full(values.size - 1, band), values,
                                     1) ** dim

        guess = float(kolmogi(-math.expm1(math.log(_LEVEL) / dim))) - (
            _SIEGMUND * math.sqrt(float(values.mean())))
    else:
        def stay(c):
            return _lm_stay_probability(c, values, dim)

        guess = float(chdtri(dim, alpha / math.sqrt(values.size)))
    return _secant(lambda c: math.log(-math.log(stay(c))), guess,
                   math.log(-math.log(_LEVEL)),
                   _DM_TOL / (10.0 * -math.log(_LEVEL)), functional)
