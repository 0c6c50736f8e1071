"""Two-parameter Mittag-Leffler function E_{alpha,beta} on the real line.

The evaluator switches between three algorithms:

* Taylor series  sum_k z^k / Gamma(alpha*k + beta)  for small |z|,
* the large-argument expansion (algebraic series plus, where it belongs,
  the exponential branch term z^{(1-beta)/alpha} * exp(z^{1/alpha}) / alpha
  or the conjugate pair of such terms for negative arguments),
* for 0 < alpha < 1 and negative arguments where the series cancels or the
  truncated expansion misses 1e-10, a real-axis integral representation,
  evaluated for all such points of a call at once by one graded composite
  Gauss-Legendre rule (see ``_integral_negative``).

The series and the algebraic series of the expansion walk their terms in
chunks, one (terms x points) array per chunk with the powers and partial
sums accumulated sequentially along the term axis, so every value is the
float a one-term-at-a-time loop gives.  A point leaves the active set once
its sum is final: the Taylor series at its stopping rule, the algebraic
series at its truncation index or once the envelope of its remaining terms
is below half an ulp of its partial sum, where adding them changes no bit.

Every evaluation carries a conservative absolute error estimate so that
downstream code can reason about amplification factors honestly.  A NaN
argument gives NaN with an infinite estimate, and so does z = -inf at
alpha = 2, where the function oscillates; for alpha < 2 the limit there is
0.  A value beyond the double range raises OverflowError at every order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad  # noqa: F401  not called; bench/tracing.py wraps specfun.quad
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

# "none": a NaN argument, which no branch evaluates
_BRANCH_NAMES = ("series", "asymptotic", "integral", "none")

# series and algebraic tail: terms summed per (terms x points) chunk, and the
# fraction of its partial sum below which the tail's envelope retires a point
# (half an ulp is at least 2^-54 of a float64; the factor 2 covers rounding
# in the computed terms and in the envelope)
_SERIES_CHUNK = 12
_TAIL_CHUNK = 16
_TAIL_CUT = 2.0 ** -55

# integral branch: points evaluated per (points x nodes) block, and the
# composite Gauss-Legendre rule on the unit interval, graded geometrically
# (ratio _PANEL_RATIO) towards both ends from the midpoint
_BLOCK = 32
_GL_NODES = 16
_PANEL_RATIO = 0.25
_PANELS_LOW = 14
_PANELS_HIGH = 10


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
    """Taylor series sum_k z^k / Gamma(alpha k + beta) over a 1-D array z.

    The terms are walked _SERIES_CHUNK at a time as one (terms x points)
    array: the powers z^k come from np.multiply.accumulate and the partial
    sums from np.add.accumulate along the term axis.  Both run sequentially,
    so every partial sum is the float a one-term-at-a-time loop gives.  A
    point stops at the first term k with |term| <= 1e-18 (1 + |partial sum|)
    and alpha k + beta > 2, which is its truncation estimate, and leaves the
    active set, so later chunks carry only the points still summing.  Points
    still summing at _SERIES_KMAX keep the magnitude of the next term plus
    one as their (large) estimate.  Returns (value, est, max_term).
    """
    val = np.full(z.shape, rgamma(beta))
    max_term = np.abs(val)
    est = np.zeros_like(z)
    # the points still summing: their index, last power, partial sum and largest term
    act = np.arange(z.size)
    power, part, big = np.ones_like(z), val.copy(), max_term.copy()
    for k0 in range(1, _SERIES_KMAX, _SERIES_CHUNK):
        ks = np.arange(k0, min(k0 + _SERIES_CHUNK, _SERIES_KMAX), dtype=float)
        powers = np.empty((ks.size, act.size))
        powers[:] = z[act]
        powers[0] *= power
        powers = np.multiply.accumulate(powers, axis=0)
        contrib = powers * rgamma(alpha * ks + beta)[:, None]
        sums = contrib.copy()
        sums[0] += part
        sums = np.add.accumulate(sums, axis=0)
        mag = np.abs(contrib)
        done = (mag <= 1e-18 * (1.0 + np.abs(sums))) & (ks * alpha + beta > 2.0)[:, None]
        fin = done.any(axis=0)
        # the row each point stops at: its first done row, else the chunk's last
        stop = np.where(fin, np.argmax(done, axis=0), ks.size - 1)
        cols = np.arange(act.size)
        part = sums[stop, cols]
        big = np.maximum(big, np.max(np.where(np.arange(ks.size)[:, None] <= stop, mag, 0.0), axis=0))
        power = powers[-1]
        out = act[fin]
        val[out], est[out], max_term[out] = part[fin], mag[stop, cols][fin], big[fin]
        keep = ~fin
        act, power, part, big = act[keep], power[keep], part[keep], big[keep]
        if not act.size:
            break
    else:
        # unfinished points keep the next term magnitude as (large) estimate
        val[act], max_term[act] = part, big
        est[act] = np.abs(power) * abs(rgamma(alpha * _SERIES_KMAX + beta)) + 1.0
    # 2e-14 * largest term covers accumulated cancellation; the second piece
    # covers the loss from computing the gamma argument alpha*k + beta in
    # double precision, which is amplified by psi(alpha*k) near convergence
    with np.errstate(over="ignore"):
        xr = np.minimum(np.abs(z) ** (1.0 / alpha), 750.0)
    est = est + 2e-14 * max_term + np.abs(val) * 1e-16 * (2.0 + xr * np.log1p(xr))
    return val, est, max_term


def _algebraic_tail(alpha: float, beta: float, z):
    """Optimally truncated sum -sum_{k>=1} z^{-k}/Gamma(beta - alpha k).

    The term magnitudes follow the envelope |z|^{-k} Gamma(1 + alpha k - beta)/pi
    (the sine factor from the reflection formula only creates spurious dips),
    so the truncation index kend is chosen from the envelope minimum instead
    of comparing consecutive terms.

    The terms are walked _TAIL_CHUNK at a time as one (terms x points) array,
    powers by np.multiply.accumulate and partial sums by np.subtract.accumulate
    along the term axis, so every partial sum is the float a one-term-at-a-time
    loop gives.  A point leaves the active set at kend, or earlier once the
    envelope at the chunk's last term falls below _TAIL_CUT of its partial
    sum: the envelope decreases up to kend (which lies below its minimum)
    and so bounds every later term, and a term below half an ulp of a float64 sum (at least 2^-54 of it)
    leaves the sum unchanged, so the cut gives the same float as summing on
    to kend.  ``z`` may be an array of any shape or a scalar.  Returns
    (value, error_estimate) in the shape of ``z``.
    """
    z = np.asarray(z, dtype=float)
    shape = z.shape
    z = z.ravel()
    az = np.abs(z)
    # envelope minimum: d/dk [-k ln|z| + lnGamma(1 + alpha k - beta)] = 0
    kopt = np.clip((az ** (1.0 / alpha) + beta - 1.0) / alpha, 1.0, 199.0)
    kend = np.floor(kopt)
    lnz = np.log(az)
    ln_est = -kopt * lnz + gammaln(np.maximum(1.0 + alpha * kopt - beta, 0.5)) - math.log(math.pi)
    # factor 4: several near-minimal terms contribute to the truncation error
    est = 4.0 * np.exp(np.minimum(ln_est, 700.0))

    val = np.zeros_like(z)
    first_mag = np.zeros_like(z)
    zinv = 1.0 / z
    # the points still summing: their index, last power, partial sum and largest term
    act = np.arange(z.size)
    power, part, big = np.ones_like(z), np.zeros_like(z), np.zeros_like(z)
    k0 = 1
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        while act.size:
            ks = np.arange(k0, k0 + _TAIL_CHUNK, dtype=float)
            powers = np.empty((ks.size, act.size))
            powers[:] = zinv[act]
            powers[0] *= power
            powers = np.multiply.accumulate(powers, axis=0)
            contrib = powers * rgamma(beta - alpha * ks)[:, None]
            good = (ks[:, None] <= kend[act]) & np.isfinite(contrib) & (np.abs(powers) > 1e-290)
            steps = np.where(good, contrib, 0.0)
            steps[0] = part - steps[0]
            part = np.subtract.accumulate(steps, axis=0)[-1]
            big = np.maximum(big, np.max(np.where(good, np.abs(contrib), 0.0), axis=0))
            power = powers[-1]
            k = ks[-1]
            # written so that a NaN z, whose kend is NaN, retires at once
            fin = ~(kend[act] > k)
            # the envelope is convex in k only where the gamma argument is positive
            if 1.0 + alpha * k - beta > 0.0:
                env = np.exp(gammaln(1.0 + alpha * k - beta) - k * lnz[act]) / math.pi
                fin |= env < _TAIL_CUT * np.abs(part)
            out = act[fin]
            val[out], first_mag[out] = part[fin], big[fin]
            keep = ~fin
            act, power, part, big = act[keep], power[keep], part[keep], big[keep]
            k0 += _TAIL_CHUNK
    est = est + 1e-14 * first_mag
    return val.reshape(shape), est.reshape(shape)


def _exp_branch_positive(alpha: float, beta: float, z: np.ndarray):
    """Dominant term z^{(1-beta)/alpha} exp(z^{1/alpha}) / alpha for z > 0.

    Returns (value, rounding_estimate); the relative error is set by the
    float64 evaluation of the (possibly huge) exponent.
    """
    w = z ** (1.0 / alpha)
    # z = +inf gives logmag = inf - inf or 0 * inf = nan, which must raise too
    with np.errstate(invalid="ignore"):
        logmag = w + (1.0 - beta) / alpha * np.log(z) - math.log(alpha)
    _check_exp_range(alpha, beta, logmag)
    vals = np.exp(logmag)
    return vals, vals * (1e-15 + 3e-16 * np.abs(logmag))


def _check_exp_range(alpha: float, beta: float, logmag: np.ndarray) -> None:
    """Raise OverflowError unless every log-magnitude (NaN included) is at
    most _EXP_ARG_LIMIT."""
    if not np.all(logmag <= _EXP_ARG_LIMIT):
        raise OverflowError(
            "Mittag-Leffler value exceeds double range for alpha=%g beta=%g" % (alpha, beta)
        )


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


def _unit_rule(n):
    """Graded composite n-point Gauss-Legendre rule on (0, 1).

    Returns (s, 1 - s, weights); each panel's nodes are placed from its own
    end of the interval, so both s and 1 - s keep full relative accuracy.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, mirrored, weights = [], [], []
    for count, flip in ((_PANELS_LOW, False), (_PANELS_HIGH, True)):
        edges = np.concatenate(([0.0], 0.5 * _PANEL_RATIO ** np.arange(count)[::-1]))
        a, b = edges[:-1, None], edges[1:, None]
        d = (a + 0.5 * (b - a) * (x + 1.0)).ravel()
        nodes.append(1.0 - d if flip else d)
        mirrored.append(d if flip else 1.0 - d)
        weights.append((0.5 * (b - a) * w).ravel())
    return np.concatenate(nodes), np.concatenate(mirrored), np.concatenate(weights)


# the n- and 2n-point rules side by side; the first _N_LOW nodes are the n-point rule
_UNIT_RULES = [np.concatenate(parts)
               for parts in zip(_unit_rule(_GL_NODES), _unit_rule(2 * _GL_NODES))]
_N_LOW = (_PANELS_LOW + _PANELS_HIGH) * _GL_NODES


def _integral_negative(alpha: float, beta: float, z: np.ndarray):
    """Integral representation for 0 < alpha < 1 and z < 0, vectorised over z.

    For beta <= 1 the representation in chi = u^alpha reads

      E = 1/(pi alpha) int_0^inf chi^p e^{-chi^{1/alpha}} (chi s1 - z s2)
                                / ((chi - z c)^2 + z^2 sin^2(pi alpha)) dchi

    with p = (1 - beta)/alpha in [0, 1/alpha), s1 = sin(pi(1-beta)),
    s2 = sin(pi(1-beta+alpha)) and c = cos(pi alpha).  The factor after
    e^{-chi^{1/alpha}} is a Lorentzian centred at z c with half-width
    |z| sin(pi alpha), narrow as alpha -> 1.  The substitution
    chi = z c + |z| sin(pi alpha) tan(theta) flattens it exactly; with
    t = theta - theta(chi=0) in (0, pi alpha) it becomes
    chi = |z| sin(t) / sin(pi alpha - t), and

      E = |z|^p / (pi alpha sin(pi alpha))
            int_0^{pi alpha} e^{-|z|^{1/alpha} r^{1/alpha}} r^p (r s1 + s2) dt,
      r = sin(t) / sin(pi alpha - t).

    The nodes do not depend on z, so every point of a call shares them and a
    block of points is one (points x nodes) array.  The interval is covered by
    _PANELS_LOW panels graded geometrically (ratio _PANEL_RATIO) towards
    t = 0, where chi^p is not smooth and chi grows like |z| t / sin(pi alpha),
    and _PANELS_HIGH towards t = pi alpha, where e^{-chi^{1/alpha}} vanishes.
    The value comes from the 2n-point rule on each panel; its error estimate
    is the difference from the n-point rule (n = _GL_NODES).  Points are
    evaluated _BLOCK at a time to bound the size of the arrays.

    beta > 1 is reduced to beta - k alpha <= 1 with the exact recursion
    E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z, which keeps chi^p bounded
    at chi = 0.  Returns (values, error_estimates).
    """
    z = np.asarray(z, dtype=float)
    betas = [beta]
    while betas[-1] > 1.0:
        betas.append(betas[-1] - alpha)
    b = betas[-1]
    p = (1.0 - b) / alpha
    s1 = math.sin(math.pi * (1.0 - b))
    s2 = math.sin(math.pi * (1.0 - b + alpha))
    span = math.pi * alpha
    s, s_up, w = _UNIT_RULES
    r = np.sin(span * s) / np.sin(span * s_up)
    with np.errstate(over="ignore"):
        decay = -(r ** (1.0 / alpha))
        weight = span * w * (r * s1 + s2) * r ** p
    # r^p overflows only where r^(1/alpha) > r^p does too, and e^(-chi^(1/alpha)) is 0
    weight[~np.isfinite(weight)] = 0.0
    az = np.abs(z)
    scale = az ** (1.0 / alpha)
    coarse = np.empty_like(az)
    fine = np.empty_like(az)
    with np.errstate(over="ignore"):
        for i in range(0, az.size, _BLOCK):
            terms = np.exp(scale[i:i + _BLOCK, None] * decay) * weight
            coarse[i:i + _BLOCK] = np.sum(terms[:, :_N_LOW], axis=-1)
            fine[i:i + _BLOCK] = np.sum(terms[:, _N_LOW:], axis=-1)
    pre = az ** p / (span * math.sin(span))
    vals = pre * fine
    ests = pre * np.abs(fine - coarse)
    for bj in betas[-2::-1]:
        vals = (vals - rgamma(bj - alpha)) / z
        ests = ests / az + 1e-16
    return vals, ests + 1e-14 * (1.0 + np.abs(vals))


def ml_values(alpha: float, beta: float, z) -> np.ndarray:
    """Vectorised values of E_{alpha,beta} over a real array of any shape
    (values only, in the shape of ``z``; a scalar gives shape (1,))."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    vals, _, _ = _ml_array(alpha, beta, z.ravel())
    return vals.reshape(z.shape)


def _ml_array(alpha: float, beta: float, z: np.ndarray):
    _check_params(alpha, beta)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    # a point no branch claims (z is NaN) stays NaN with an infinite estimate
    vals = np.full_like(z, np.nan)
    ests = np.full_like(z, np.inf)
    branch = np.full(z.shape, _BRANCH_NAMES.index("none"), dtype=np.int8)

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
        branch[small] = 0
        # belt and braces: reroute any unexpectedly cancelled alternating
        # series to the integral representation
        bad = (z[small] < 0) & (smax > _SERIES_CANCEL_LIMIT)
        idx = np.where(small)[0]
        if alpha < 1.0:
            need_integral[idx[bad]] = True

    # E_{1,1} = exp: the algebraic tail vanishes term by term (1/Gamma(1 - k)
    # = 0), so neither large-argument branch computes it
    is_exp = alpha == 1.0 and beta == 1.0
    big_pos = (~small) & (z > 0)
    if big_pos.any():
        zp = z[big_pos]
        if is_exp:
            _check_exp_range(alpha, beta, zp)
            vals[big_pos] = np.exp(zp)
            ests[big_pos] = np.abs(vals[big_pos]) * (1e-15 + 1.5e-16 * zp)
        else:
            alg, alg_est = _algebraic_tail(alpha, beta, zp)
            lead, lead_est = _exp_branch_positive(alpha, beta, zp)
            vals[big_pos] = lead + alg
            ests[big_pos] = alg_est + lead_est
        ests[big_pos] += 1e-16 * (1.0 + np.abs(vals[big_pos]))
        branch[big_pos] = 1

    # E_{alpha,beta}(-x) -> 0 as x -> inf for alpha < 2, where the expansion
    # below would meet inf * 0; at alpha = 2 it oscillates (cos x, sin(x)/x),
    # so -inf keeps the NaN value and infinite estimate of an unclaimed point
    at_neg_inf = z == -np.inf
    if alpha < 2.0 and at_neg_inf.any():
        vals[at_neg_inf] = 0.0
        ests[at_neg_inf] = 1e-16
        branch[at_neg_inf] = 1
    big_neg = (~small) & (z < 0) & ~at_neg_inf
    if big_neg.any():
        zn = z[big_neg]
        if is_exp:
            vals[big_neg] = np.exp(zn)
            ests[big_neg] = np.abs(vals[big_neg]) * 1e-15
        elif alpha == 1.0:
            # the two branch points merge on the axis at alpha = 1: a
            # single copy of Re[z^{1-beta}] e^z remains
            alg, alg_est = _algebraic_tail(alpha, beta, zn)
            expo = np.abs(zn) ** (1.0 - beta) * math.cos(math.pi * (1.0 - beta)) * np.exp(zn)
            vals[big_neg] = expo + alg
            ests[big_neg] = alg_est + np.abs(expo) * 1e-12 + np.exp(zn) * 1e-12
        else:
            alg, alg_est = _algebraic_tail(alpha, beta, zn)
            pair, pair_est = _exp_branch_negative(alpha, beta, zn)
            vals[big_neg] = alg + pair
            ests[big_neg] = alg_est + pair_est
        ests[big_neg] += 1e-16 * (1.0 + np.abs(vals[big_neg]))
        branch[big_neg] = 1
        idx = np.where(big_neg)[0]
        weak = ests[big_neg] > _ASYM_TARGET * np.maximum(1.0, np.abs(vals[big_neg]))
        if alpha < 1.0:
            need_integral[idx[weak]] = True

    if need_integral.any():
        vals[need_integral], ests[need_integral] = _integral_negative(alpha, beta, z[need_integral])
        branch[need_integral] = 2

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
