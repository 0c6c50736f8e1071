"""References computed apart from fraccauchy.

Nothing here imports the package: the truth values the benchmark checks
against come from closed forms, from high-precision series and from SciPy
special functions, never from a stored copy of an earlier run.
"""

import math

import mpmath as mp
import numpy as np


def trap_weights(n):
    """Trapezoid weights of the closed uniform grid with n points on [0, 1]."""
    w = np.full(n, 1.0 / (n - 1))
    w[0] = w[-1] = 0.5 / (n - 1)
    return w


def rel_l2(values, truth, w):
    """Relative weighted L2 distance of values from truth."""
    return math.sqrt(float(np.sum(w * (values - truth) ** 2)) / float(np.sum(w * truth ** 2)))


def add_relative_noise(v, delta, rng, w, sine=False):
    """v plus random-sign multisine noise of relative weighted-L2 size delta.

    Every cosine cos(j pi x / L), j = 0..n-1, of the grid (every sine, j =
    1..n-2, for Dirichlet sides) gets the same amplitude and the seed picks
    the signs.  These families are exactly orthogonal under the trapezoid
    rule, so the noise spreads evenly over the modes, as Gaussian grid noise
    does on average, but no mode can draw an unusually large or small share:
    the accuracy figures follow the noise level more than the draw.
    """
    n = v.size
    t = np.linspace(0.0, math.pi, n)
    j = np.arange(1, n - 1) if sine else np.arange(n)
    modes = np.sin(np.outer(j, t)) if sine else np.cos(np.outer(j, t))
    norms = np.sqrt((modes * modes * w).sum(axis=1))
    e = (rng.choice((-1.0, 1.0), size=j.size) / norms) @ modes
    return v + e * (delta * math.sqrt(float(np.sum(w * v * v)) / float(np.sum(w * e * e))))


# ----------------------------------------------------------------------
# closed-form separable harmonic fields


def robin_wavenumbers(sigma, length, count):
    """Roots k_j of (sigma^2 - k^2) sin(kL) + 2 sigma k cos(kL) = 0, one in
    each interval ((j-1) pi/L, j pi/L), by plain bisection."""
    lo = np.arange(count) * math.pi / length + 1e-12
    hi = np.arange(1, count + 1) * math.pi / length

    def char(k):
        return (sigma - k) * (sigma + k) * np.sin(k * length) + 2.0 * sigma * k * np.cos(k * length)

    flo = char(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = char(mid)
        left = np.sign(fm) == np.sign(flo)
        lo = np.where(left, mid, lo)
        flo = np.where(left, fm, flo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


# impedance of Robin sides: the default of spectral.LateralBC
ROBIN_SIGMA = 1.0


def lateral_modes(kind, x, count):
    """Wavenumbers and unnormalised eigenfunctions of -d^2/dx^2 on (0, L)
    under Dirichlet, Neumann or Robin (impedance ROBIN_SIGMA) sides."""
    length = float(x[-1])
    if kind == "dirichlet":
        k = np.arange(1, count + 1) * math.pi / length
        return k, np.sin(np.outer(k, x))
    if kind == "neumann":
        k = np.arange(count) * math.pi / length
        return k, np.cos(np.outer(k, x))
    k = robin_wavenumbers(ROBIN_SIGMA, length, count)
    return k, np.cos(np.outer(k, x)) + (ROBIN_SIGMA / k)[:, None] * np.sin(np.outer(k, x))


class SeparableField:
    """u(x, y) = sum_m c_m phi_m(x) P_m(y) with P_m(y) = cosh(k_m y)
    - s sinh(k_m y) (1 - s y for k_m = 0): harmonic, and satisfying the
    lateral condition of its modes exactly."""

    c = np.array([1.0, 0.5, 0.25])
    s = 0.3

    def __init__(self, kind, x):
        self.k, self.phi = lateral_modes(kind, x, self.c.size)

    def _profile(self, y, deriv):
        k, s = self.k, self.s
        if deriv == 0:
            p = np.cosh(k * y) - s * np.sinh(k * y)
            return np.where(k > 0.0, p, 1.0 - s * y)
        p = k * (np.sinh(k * y) - s * np.cosh(k * y))
        return np.where(k > 0.0, p, -s)

    def value(self, y):
        return (self.c * self._profile(y, 0)) @ self.phi

    def flux(self, y):
        return (self.c * self._profile(y, 1)) @ self.phi


# ----------------------------------------------------------------------
# Mittag-Leffler references


def _series_cost(alpha, z):
    """Rough (terms, extra digits) the defining series needs at z."""
    az = abs(z)
    if az <= 1e-12:
        return 10, 10
    xs = math.exp(max(math.log(az) / alpha, 0.0))
    k = xs / alpha
    ln_max = k * math.log(az) - (xs * math.log(max(xs, 1.5)) - xs)
    return int(4 * k + 400), max(int(1.1 * ln_max / math.log(10)), 0) + 40


def ml_mpmath(alpha, beta, z):
    """E_{alpha,beta}(z) from its defining series in high-precision
    arithmetic, or None where the series is too costly.

    The gamma arguments are formed in mpmath: alpha*k + beta rounded to
    double would be amplified by the digamma of huge terms."""
    kmax, extra = _series_cost(alpha, z)
    if kmax > 40000 or kmax * (60 + extra) > 1.2e6:
        return None
    with mp.workdps(60 + extra):
        aa, bb, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        total = mp.mpf(0)
        power = mp.mpf(1)
        tiny = mp.mpf(10) ** (-35)
        for k in range(kmax):
            total += power / mp.gamma(aa * k + bb)
            power *= zz
            if k > 5 and abs(power) / abs(mp.gamma(aa * k + bb + aa)) < tiny:
                return float(total)
    return None
