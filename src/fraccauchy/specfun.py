"""Two-parameter Mittag-Leffler function E_{alpha,beta} on the real line.

The evaluator switches between three algorithms:

* Taylor series  sum_k z^k / Gamma(alpha*k + beta)  for small |z|,
* the large-argument expansion (algebraic series plus, where it belongs,
  the exponential branch term z^{(1-beta)/alpha} * exp(z^{1/alpha}) / alpha
  or the conjugate pair of such terms for negative arguments),
* a real-axis integral representation as a safety net for negative
  arguments when the truncated expansion cannot reach the target accuracy.

Every evaluation carries a conservative absolute error estimate so that
downstream code can reason about amplification factors honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, rgamma

__all__ = [
    "MLResult",
    "ml",
    "ml_values",
    "ml_kernel",
    "ml_reciprocal_bound",
]

_SERIES_RADIUS = 5.0
_SERIES_KMAX = 800
# alternating series whose largest term exceeds this are rerouted to the
# integral representation (cancellation would eat too many digits)
_SERIES_CANCEL_LIMIT = 1e4
_ASYM_TARGET = 1e-10
_EXP_ARG_LIMIT = 705.0

_BRANCH_NAMES = ("series", "asymptotic", "integral")


@dataclass
class MLResult:
    """Value of E_{alpha,beta}(z) with a conservative error bound."""

    value: float
    est_abs_err: float
    branch: str


def _check_params(alpha: float, beta: float) -> None:
    if not (0.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    if not (beta > 0.0) or not math.isfinite(beta):
        raise ValueError(f"beta must be positive and finite, got {beta}")


def _series(alpha: float, beta: float, z: np.ndarray):
    """Vectorised Taylor series. Returns (value, est, max_term)."""
    val = np.full(z.shape, rgamma(beta))
    term = np.ones_like(z)
    max_term = np.abs(val).copy()
    est = np.zeros_like(z)
    active = np.ones(z.shape, dtype=bool)
    for k in range(1, _SERIES_KMAX):
        term = term * z
        coef = rgamma(alpha * k + beta)
        contrib = term * coef
        val = np.where(active, val + contrib, val)
        mag = np.abs(contrib)
        max_term = np.maximum(max_term, np.where(active, mag, 0.0))
        done = active & (mag <= 1e-18 * (1.0 + np.abs(val))) & (k * alpha + beta > 2.0)
        est = np.where(done & (est == 0.0), mag, est)
        active &= ~done
        if not active.any():
            break
    # unfinished points keep the last term magnitude as (large) estimate
    if active.any():
        est = np.where(active, np.abs(term) * abs(rgamma(alpha * _SERIES_KMAX + beta)) + 1.0, est)
    # 2e-14 * largest term covers accumulated cancellation; the second piece
    # covers the loss from computing the gamma argument alpha*k + beta in
    # double precision, which is amplified by psi(alpha*k) near convergence
    with np.errstate(over="ignore"):
        xr = np.minimum(np.abs(z) ** (1.0 / alpha), 750.0)
    est = est + 2e-14 * max_term + np.abs(val) * 1e-16 * (2.0 + xr * np.log1p(xr))
    return val, est, max_term


def _algebraic_tail(alpha: float, beta: float, z: np.ndarray):
    """Optimally truncated sum -sum_{k>=1} z^{-k}/Gamma(beta - alpha k).

    The term magnitudes follow the envelope |z|^{-k} Gamma(1 + alpha k - beta)
    (the sine factor from the reflection formula only creates spurious dips),
    so the truncation index is chosen from the envelope minimum instead of
    comparing consecutive terms.  Returns (value, error_estimate).
    """
    az = np.abs(z)
    # envelope minimum: d/dk [-k ln|z| + lnGamma(1 + alpha k - beta)] = 0
    kopt = np.clip((az ** (1.0 / alpha) + beta - 1.0) / alpha, 1.0, 199.0)
    kend = np.floor(kopt)
    ln_est = -kopt * np.log(az) + gammaln(np.maximum(1.0 + alpha * kopt - beta, 0.5)) - math.log(math.pi)
    # factor 4: several near-minimal terms contribute to the truncation error
    est = 4.0 * np.exp(np.minimum(ln_est, 700.0))

    val = np.zeros_like(z)
    zinv = 1.0 / z
    power = np.ones_like(z)
    first_mag = np.zeros_like(z)
    kmax = int(np.max(kend))
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        for k in range(1, kmax + 1):
            power = power * zinv
            coef = rgamma(beta - alpha * k)
            contrib = power * coef
            good = (k <= kend) & np.isfinite(contrib) & (np.abs(power) > 1e-290)
            val = np.where(good, val - contrib, val)
            first_mag = np.maximum(first_mag, np.where(good, np.abs(contrib), 0.0))
            if not np.any(good & (k < kend)):
                break
    est = est + 1e-14 * first_mag
    return val, est


def _exp_branch_positive(alpha: float, beta: float, z: np.ndarray):
    """Dominant term z^{(1-beta)/alpha} exp(z^{1/alpha}) / alpha for z > 0.

    Returns (value, rounding_estimate); the relative error is set by the
    float64 evaluation of the (possibly huge) exponent.
    """
    w = z ** (1.0 / alpha)
    logmag = w + (1.0 - beta) / alpha * np.log(z) - math.log(alpha)
    if np.any(logmag > _EXP_ARG_LIMIT):
        raise OverflowError(
            "Mittag-Leffler value exceeds double range for alpha=%g beta=%g" % (alpha, beta)
        )
    vals = np.exp(logmag)
    return vals, vals * (1e-15 + 3e-16 * np.abs(logmag))


def _exp_branch_negative(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Conjugate-pair exponential contribution on the negative axis.

    For 1 < alpha <= 2 the pair of branch points w = |z|^{1/alpha} e^{+-i pi/alpha}
    lies inside the principal sector and always contributes
    (2/alpha) Re[w^{1-beta} e^w] (purely oscillatory at alpha = 2, where it
    reproduces the cos/sin closed forms exactly).  For alpha <= 1 the pair
    sits outside the sector |arg z| <= pi*alpha: adding it with a naive
    Stokes multiplier was checked against high-precision references and
    makes things worse, so nothing is added and its envelope magnitude is
    charged to the error budget instead (where it decays at all).

    Returns (value, error_estimate).
    """
    if alpha <= 1.0:
        zz = np.zeros_like(z)
        if alpha <= 2.0 / 3.0 or math.cos(math.pi / alpha) >= 0.0:
            return zz, zz
        r = np.abs(z) ** (1.0 / alpha)
        scale = (2.0 / alpha) * r ** (1.0 - beta) * np.exp(r * math.cos(math.pi / alpha))
        return zz, scale
    ang = math.pi / alpha
    r = np.abs(z) ** (1.0 / alpha)
    w = r * complex(math.cos(ang), math.sin(ang))
    vals = (2.0 / alpha) * (w ** (1.0 - beta) * np.exp(w)).real
    # argument-reduction loss in exp(i Im w) at large |w|
    scale = (2.0 / alpha) * r ** (1.0 - beta) * np.exp(r * math.cos(ang))
    return vals, scale * (2.0 + r) * 1e-16


def _integral_negative(alpha: float, beta: float, z: float):
    """Real-axis integral representation for 0 < alpha < 1, z < 0.

    After substituting u = chi^{1/alpha} the representation reads

      E = (1/pi) int_0^inf u^{alpha-beta} e^{-u}
              [u^alpha s1 - z s2] / (u^{2 alpha} - 2 u^alpha z c + z^2) du

    with s1 = sin(pi(1-beta)), s2 = sin(pi(1-beta+alpha)), c = cos(pi alpha),
    valid for beta < 1 + alpha.  Larger beta is reduced with the exact
    recursion E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z.
    """
    if beta >= 1.0 + alpha:
        inner, err = _integral_negative(alpha, beta - alpha, z)
        return (inner - rgamma(beta - alpha)) / z, abs(err / z) + 1e-16
    s1 = math.sin(math.pi * (1.0 - beta))
    s2 = math.sin(math.pi * (1.0 - beta + alpha))
    c = math.cos(math.pi * alpha)

    def integrand(u):
        ua = u ** alpha
        den = ua * ua - 2.0 * ua * z * c + z * z
        return u ** (alpha - beta) * math.exp(-u) * (ua * s1 - z * s2) / den / math.pi

    pts = []
    if c < 0.0:
        pts.append((abs(z) * abs(c)) ** (1.0 / alpha))
    upper = 120.0
    pts = sorted(p for p in pts if 0.0 < p < upper)
    val1, err1 = quad(integrand, 0.0, upper, points=pts or None, limit=200)
    tail = math.exp(-upper) * (1.0 + abs(upper ** (alpha - beta)))
    return val1, err1 + tail


def ml_values(alpha: float, beta: float, z) -> np.ndarray:
    """Vectorised values of E_{alpha,beta} over a real array of any shape
    (values only, in the shape of ``z``; a scalar gives shape (1,))."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    vals, _, _ = _ml_array(alpha, beta, z.ravel())
    return vals.reshape(z.shape)


def _ml_array(alpha: float, beta: float, z: np.ndarray):
    _check_params(alpha, beta)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    vals = np.empty_like(z)
    ests = np.empty_like(z)
    branch = np.zeros(z.shape, dtype=np.int8)

    # The series converges around index k_conv ~ |z|^(1/alpha)/alpha; it is
    # float64-feasible only if the bare powers z^k stay below overflow that
    # long (the summed terms z^k/Gamma(..) peak much earlier).  Points that
    # fail this go to the large-argument expansion, which is excellent there
    # because |z|^(1/alpha) is necessarily large.
    with np.errstate(over="ignore"):
        xroot = np.abs(z) ** (1.0 / alpha)
    k_conv = (xroot + 10.0 * np.sqrt(xroot) + 40.0) / alpha
    lnz = np.log(np.maximum(np.abs(z), 1.0))
    float_ok = np.isfinite(xroot) & (k_conv * lnz <= 690.0) & (k_conv <= _SERIES_KMAX - 20)

    # On the negative axis the series loses ~e^{xroot} digits to cancellation.
    # For alpha < 1 hand over to the integral representation early; for
    # alpha >= 1 (no integral available) keep the series up to the crossover
    # with the large-argument expansion, which sits near xroot ~ 17 in
    # general and much earlier when the algebraic tail vanishes identically
    # (reciprocal gamma hits poles for every k, e.g. cos/sin closed forms).
    if alpha >= 1.0:
        alg_void = (
            beta - alpha <= 0.0
            and rgamma(beta - alpha) == 0.0
            and rgamma(beta - 2.0 * alpha) == 0.0
        )
        cancel_cap = 9.0 if alg_void else 17.0
    else:
        cancel_cap = 8.0
    small = float_ok & ((z >= 0.0) | (xroot <= cancel_cap))
    need_integral = np.zeros(z.shape, dtype=bool)

    if small.any():
        sv, se, smax = _series(alpha, beta, z[small])
        vals[small] = sv
        ests[small] = se
        # belt and braces: reroute any unexpectedly cancelled alternating
        # series to the integral representation
        bad = (z[small] < 0) & (smax > _SERIES_CANCEL_LIMIT)
        idx = np.where(small)[0]
        if alpha < 1.0:
            need_integral[idx[bad]] = True

    big_pos = (~small) & (z > 0)
    if big_pos.any():
        zp = z[big_pos]
        alg, alg_est = _algebraic_tail(alpha, beta, zp)
        if alpha == 1.0 and beta == 1.0:
            vals[big_pos] = np.exp(zp)
            ests[big_pos] = np.abs(vals[big_pos]) * (1e-15 + 1.5e-16 * zp)
        else:
            lead, lead_est = _exp_branch_positive(alpha, beta, zp)
            vals[big_pos] = lead + alg
            ests[big_pos] = alg_est + lead_est
        ests[big_pos] += 1e-16 * (1.0 + np.abs(vals[big_pos]))
        branch[big_pos] = 1

    big_neg = (~small) & (z < 0)
    if big_neg.any():
        zn = z[big_neg]
        alg, alg_est = _algebraic_tail(alpha, beta, zn)
        if alpha == 1.0:
            if beta == 1.0:
                vals[big_neg] = np.exp(zn)
                ests[big_neg] = np.abs(vals[big_neg]) * 1e-15
            else:
                # the two branch points merge on the axis at alpha = 1: a
                # single copy of Re[z^{1-beta}] e^z remains
                expo = np.abs(zn) ** (1.0 - beta) * math.cos(math.pi * (1.0 - beta)) * np.exp(zn)
                vals[big_neg] = expo + alg
                ests[big_neg] = alg_est + np.abs(expo) * 1e-12 + np.exp(zn) * 1e-12
        else:
            pair, pair_est = _exp_branch_negative(alpha, beta, zn)
            vals[big_neg] = alg + pair
            ests[big_neg] = alg_est + pair_est
        ests[big_neg] += 1e-16 * (1.0 + np.abs(vals[big_neg]))
        branch[big_neg] = 1
        idx = np.where(big_neg)[0]
        weak = ests[big_neg] > _ASYM_TARGET * np.maximum(1.0, np.abs(vals[big_neg]))
        if alpha < 1.0:
            need_integral[idx[weak]] = True

    for i in np.where(need_integral)[0]:
        if alpha >= 1.0:
            continue  # no integral representation; keep expansion result
        v, e = _integral_negative(alpha, beta, float(z[i]))
        vals[i] = v
        ests[i] = e + 1e-14 * (1.0 + abs(v))
        branch[i] = 2

    return vals, ests, branch


def ml(alpha: float, beta: float, z: float) -> MLResult:
    """Evaluate E_{alpha,beta}(z) for real z, 0 < alpha <= 2, beta > 0."""
    vals, ests, branch = _ml_array(alpha, beta, np.asarray([z], dtype=float))
    return MLResult(float(vals[0]), float(ests[0]), _BRANCH_NAMES[int(branch[0])])


def ml_kernel(alpha: float, beta: float, lam: float, t: float) -> float:
    """Evaluation kernel t^{beta-1} E_{alpha,beta}(-lam t^alpha), t >= 0.

    At t = 0 the kernel has the removable value 1 for beta = 1 and 0 for
    beta > 1; beta < 1 diverges there and is rejected.
    """
    _check_params(alpha, beta)
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        if beta == 1.0:
            return 1.0
        if beta > 1.0:
            return 0.0
        raise ValueError("kernel diverges at t = 0 for beta < 1")
    return t ** (beta - 1.0) * ml(alpha, beta, -lam * t ** alpha).value


def ml_reciprocal_bound(alpha: float, lam: float, y: float) -> float:
    """Stability majorant 1 + Gamma(1-alpha) lam y^alpha for 1/E_{alpha,1}(-lam y^alpha).

    Requires 0 < alpha < 1 (the bound degenerates as alpha -> 1 where
    Gamma(1-alpha) blows up, but remains a valid upper bound).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("bound holds for 0 < alpha < 1")
    if lam < 0.0 or y < 0.0:
        raise ValueError("lam and y must be nonnegative")
    return 1.0 + math.gamma(1.0 - alpha) * lam * y ** alpha
