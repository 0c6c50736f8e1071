"""Continuation of harmonic Cauchy data from the bottom edge of a strip.

Given traces ``u(x,0) = f`` and ``u_y(x,0) = g`` with homogeneous lateral
conditions, the modal coefficients of ``u(.,y)`` follow from the eigen
expansion of the transverse operator.  The exact formula amplifies mode j by
``exp(sqrt(lambda_j) y)`` and is therefore useless on noisy data; this module
provides it alongside three stabilised variants that replace the second
y-derivative by a fractional one of order ``2 alpha < 2``:

* ``left_dc`` / ``right_dc`` -- Mittag-Leffler propagators with the fractional
  derivative acting from the data side resp. the far side,
* ``fac_lap`` -- factor the operator, damp the decaying component exactly and
  push the growing component through ``1/E_{alpha,1}(-sqrt(lambda) y^alpha)``,
  whose amplification is only algebraic in ``lambda``.

Every scheme takes the height ``y`` as a scalar or a 1-D grid and continues
all heights in one call: the modal coefficients are computed once, each
Mittag-Leffler kernel is looked up over the whole (height x mode) grid, and
one synthesis returns the traces.  A scalar height is the 0-d case of the
same code.

The kernels depend on the eigenvalues, the heights and the order, never on
the Cauchy data, so `_kernel` keeps the values of each request, the
geometry and the entries a scheme asks for, as one read-only vector: a
first call evaluates them in one batched call per kernel, and a later call
with the same request evaluates nothing.  The vectors together hold at most
_KERNEL_TABLE_BYTES; the least recently used go first.

``split_frequency_continue`` assigns a per-band order by a discrepancy rule,
and ``landweber_smooth`` implements a spectral pre-smoothing iteration that
callers may apply before continuing the unstable component.

`ContinuationScheme` is the one place that knows the schemes by name: it
checks the parameters of its kind when built and runs itself through
``continue_data``, which calls the ``continue_*`` functions through this
module's globals, so callers pass a scheme on without branching on its kind.
"""

import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .specfun import _algebraic_tail, ml_values
from .spectral import SpectralCoeffs, analyze

__all__ = [
    "CauchyData",
    "Slice",
    "ContinuationScheme",
    "continue_exact",
    "continue_left_dc",
    "continue_right_dc",
    "continue_fac_lap",
    "continue_banded",
    "split_data",
    "split_frequency_continue",
    "landweber_smooth",
]

# mode-wise amplification cap: coefficients blown up beyond this are zeroed
# and counted so that the unstable schemes stay runnable for comparisons
AMP_LIMIT = 1e12
_LOG_AMP_LIMIT = math.log(AMP_LIMIT)

# search grid of fractional half-orders for the band-wise discrepancy rule
ALPHA_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0)
# safety factor on the noise level of that rule
_NOISE_SAFETY = 1.5
# stopping constant of the Landweber pre-smoothing
_LANDWEBER_C = 1.0

# kernel values by request, least recently used first (see _kernel), the
# cap on their bytes, and the lock that makes each lookup, evaluation and
# insert one step for concurrent callers
_KERNEL_TABLES = OrderedDict()
_KERNEL_TABLE_BYTES = 8 << 20
_KERNEL_LOCK = threading.Lock()


@dataclass
class CauchyData:
    """Bottom-edge traces sampled on ``basis.grid``."""

    f: np.ndarray
    g: np.ndarray
    delta: float
    basis: object

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        n = self.basis.N
        if self.f.shape != (n,) or self.g.shape != (n,):
            raise ValueError("traces must be sampled on the basis grid")
        if not (np.all(np.isfinite(self.f)) and np.all(np.isfinite(self.g))):
            raise ValueError("traces must be finite")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("relative noise level must lie in [0, 1)")

    def coeffs(self):
        return analyze(self.f, self.basis).c, analyze(self.g, self.basis).c


@dataclass
class Slice:
    """Continued traces at the heights ``y`` (scalar or 1-D) a scheme took.

    ``values`` has shape ``(N,) + y.shape``: column k is the trace at
    ``y[k]``.  ``zeroed_modes`` has shape ``y.shape`` and counts, per height,
    the modes a guard zeroed; ``overflow`` is true if any height leaves the
    double-precision exponential range.
    """

    values: np.ndarray
    overflow: bool
    zeroed_modes: np.ndarray


_KINDS = ("exact", "left_dc", "right_dc", "fac_lap", "fac_lap_split")
_KINDS_WITH_ALPHA = ("left_dc", "right_dc", "fac_lap")


@dataclass(frozen=True)
class ContinuationScheme:
    """A continuation scheme with its parameters; `continue_data` runs it.

    ``kind`` is one of ``exact``, ``left_dc``, ``right_dc``, ``fac_lap`` and
    ``fac_lap_split``.  ``alpha`` is the fractional half-order (the
    propagator order is ``2 alpha``): ``left_dc``, ``right_dc`` and
    ``fac_lap`` need it, and the other kinds refuse it; it lies in (0, 1],
    and in [0.5, 1] for the two ``_dc`` kinds.  ``fac_lap_split`` picks its
    bands by `split_frequency_continue`; fixed bands run through
    `continue_banded`.  The record is checked when it is built, so a scheme
    that exists can run.
    """

    kind: str
    alpha: float = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown continuation scheme %r" % (self.kind,))
        if self.kind in _KINDS_WITH_ALPHA and self.alpha is None:
            raise ValueError("scheme %r needs the half-order alpha" % (self.kind,))
        if self.kind not in _KINDS_WITH_ALPHA and self.alpha is not None:
            raise ValueError("scheme %r takes no half-order alpha" % (self.kind,))
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise ValueError("fractional half-order must lie in (0, 1]")
        if self.kind in ("left_dc", "right_dc") and self.alpha < 0.5:
            raise ValueError("scheme %r needs alpha in [0.5, 1]" % (self.kind,))

    def continue_data(self, data, y):
        """Continue ``data`` to the heights ``y`` by this scheme.

        Returns the `Slice` and, for ``fac_lap_split``, the list of bands
        ``(end_index, alpha)`` it used; None for the other kinds.
        """
        if self.kind == "exact":
            return continue_exact(data, y), None
        if self.kind == "fac_lap_split":
            return split_frequency_continue(data, y)
        if self.kind == "fac_lap":
            return continue_fac_lap(data, self.alpha, y), None
        dc = continue_left_dc if self.kind == "left_dc" else continue_right_dc
        return dc(data, 2.0 * self.alpha, y), None


# Powers of the heights use np.float_power, which rounds like Python's float
# pow (libm); NumPy's SIMD power loop can differ in the last bit, and the
# direct right_dc denominator, a difference of two ~exp(2 xi) terms,
# amplifies that bit to ~1e-11 of the field.
def _check_height(y):
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y) & (y >= 0.0)):
        raise ValueError("continuation height must be finite and >= 0")
    return y


def _kernel(kind, alpha, beta, c, t, want):
    """Values of a data-independent kernel at z = c_j t_k on the entries
    ``want`` (a mask of shape ``t.shape + c.shape``), in the order ``z[want]``.

    ``kind`` is ``"ml"`` for E_{alpha,beta}(z) by ``ml_values``, or
    ``"tail"`` for the algebraic tail of E_{alpha,beta} at
    (z^(1/alpha))^alpha, the argument `_right_dc_ratio_large` takes.  The
    values are kept per request (kind, alpha, beta, c, t, want) as one
    read-only vector: a request seen before returns that vector itself, and
    a new one is evaluated in one call, through this module's globals.  A
    new vector evicts the least recently used ones while all of them would
    hold more than _KERNEL_TABLE_BYTES; one larger than that is not kept.
    """
    t = np.ravel(t)
    want = np.reshape(want, (t.size, c.size))
    key = (kind, alpha, beta, c.tobytes(), t.tobytes(), want.tobytes())
    with _KERNEL_LOCK:
        vals = _KERNEL_TABLES.get(key)
        if vals is not None:
            _KERNEL_TABLES.move_to_end(key)
            return vals
        k, j = np.nonzero(want)
        z = c[j] * t[k]
        if kind == "ml":
            vals = ml_values(alpha, beta, z)
        else:
            vals = _algebraic_tail(alpha, beta, (z ** (1.0 / alpha)) ** alpha)[0]
        vals.flags.writeable = False
        if vals.nbytes <= _KERNEL_TABLE_BYTES:
            used = vals.nbytes + sum(v.nbytes for v in _KERNEL_TABLES.values())
            while used > _KERNEL_TABLE_BYTES:
                used -= _KERNEL_TABLES.popitem(last=False)[1].nbytes
            _KERNEL_TABLES[key] = vals
        return vals


def _slice(data, a, zeroed, overflow=False):
    """Slice from modal coefficients ``a`` of shape ``y.shape + (J,)``;
    ``zeroed`` counts the guarded modes per height."""
    return Slice(np.tensordot(data.basis.modes, a, axes=(0, -1)), overflow, zeroed)


def continue_exact(data, y):
    """Exact modal continuation; unstable for noisy data and flagged when the
    top mode leaves the double-precision exponential range."""
    y = _check_height(y)
    fc, gc = data.coeffs()
    s = np.sqrt(data.basis.lambdas)
    yy = y[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.where(
            s > 0.0,
            fc * np.cosh(s * yy) + gc * np.sinh(s * yy) / np.where(s > 0.0, s, 1.0),
            fc + gc * yy,
        )
    overflow = bool(np.any(s[-1] * y > 700.0))
    return _slice(data, a, np.zeros(y.shape, dtype=int), overflow)


def _check_order2(alpha2):
    alpha2 = float(alpha2)
    if not 1.0 <= alpha2 <= 2.0:
        raise ValueError("propagator order 2*alpha must lie in [1, 2]")
    return alpha2


def continue_left_dc(data, alpha2, y):
    """Fractional propagator with both Mittag-Leffler kernels on positive
    arguments.  Amplifies mode j like exp(lambda_j^(1/(2 alpha)) y), which is
    faster than the exact formula for 2 alpha < 2; the amplification guard
    zeroes modes beyond AMP_LIMIT."""
    alpha2 = _check_order2(alpha2)
    y = _check_height(y)
    lam = data.basis.lambdas
    t = np.float_power(y, alpha2)
    fc, gc, yy = np.broadcast_arrays(*data.coeffs(), y[..., None])
    keep = lam ** (1.0 / alpha2) * yy <= _LOG_AMP_LIMIT
    a = np.zeros(keep.shape)
    if np.any(keep):
        a[keep] = (fc[keep] * _kernel("ml", alpha2, 1.0, lam, t, keep)
                   + gc[keep] * yy[keep] * _kernel("ml", alpha2, 2.0, lam, t, keep))
    return _slice(data, a, np.count_nonzero(~keep, axis=-1))


def _xi_switch(alpha2):
    """Value of xi = (lam y^a2)^(1/a2) beyond which right_dc evaluates its
    denominator from the cancelled large-argument form.

    The direct form E1^2 - z E3 E2 is a difference of two terms near
    e^{2 xi}, so its error grows with xi; the cancelled form's error, from
    truncating the algebraic tails, falls with xi.  Measured against
    90-digit references (fc = gc = 1, y = 0.7) for orders a2 in
    [1.05, 1.995] and xi in [4, 30], the two errors cross between xi = 14
    and 18.5; this fit keeps the error of the chosen form within 6x the
    better one's on that grid.
    """
    return min(14.25 + 5.0 * (alpha2 - 1.0), 17.5)


def _right_dc_ratio_large(alpha2, xi, fc, gc, y, tails):
    """Modal coefficients of right_dc for large xi, from the cancelled form.

    On the positive axis the Mittag-Leffler asymptotics carry a single
    exponential, and the exp(2 xi) parts of E1^2 - z E3 E2 cancel exactly;
    float64 evaluation of the difference is catastrophic there, so the
    cancelled expression (algebraic tails only) is used instead.  ``tails``
    are the algebraic tails at x = xi^alpha2 for beta = 1, alpha2 and 2.
    """
    c = 1.0 / alpha2
    x = xi ** alpha2
    a1, a2, a3 = tails
    small = np.where(xi < 700.0, np.exp(-xi), 0.0)
    num = c * (fc + gc * y / xi) + small * (fc * a1 + gc * y * a3)
    den = c * (2.0 * a1 - xi * a3 - xi ** (alpha2 - 1.0) * a2) + small * (
        a1 * a1 - x * a2 * a3
    )
    return num, den


def _guarded_ratio(num, den, ref):
    """num/den with the spec'd near-zero-denominator and amplification guards;
    returns (values, number of zeroed modes along the last axis)."""
    vals = np.zeros_like(num)
    bad = np.abs(den) < 1e-12 * np.abs(num)
    ok = ~bad
    with np.errstate(over="ignore"):
        vals[ok] = num[ok] / den[ok]
    amp_bad = ~np.isfinite(vals) | (np.abs(vals) > AMP_LIMIT * np.maximum(np.abs(ref), 1e-300))
    vals[amp_bad] = 0.0
    return vals, np.count_nonzero(bad | amp_bad, axis=-1)


def continue_right_dc(data, alpha2, y):
    """Fractional propagator normalised to have value 1 at the data edge in
    each mode; its amplification is only algebraic in lambda, but the
    denominator can vanish (near-zero modes are zeroed and counted)."""
    alpha2 = _check_order2(alpha2)
    y = _check_height(y)
    if alpha2 == 2.0:
        # denominator is cosh^2 - sinh^2 = 1 identically
        return continue_exact(data, y)
    lam = data.basis.lambdas
    t = np.float_power(y, alpha2)
    fc, gc, yy = np.broadcast_arrays(*data.coeffs(), y[..., None])
    z = lam * t[..., None]
    num = np.zeros(z.shape)
    den = np.ones(z.shape)
    xi = z ** (1.0 / alpha2)
    direct = xi <= _xi_switch(alpha2)
    if np.any(direct):
        e1, e2, e3 = (_kernel("ml", alpha2, beta, lam, t, direct) for beta in (1.0, 2.0, alpha2))
        num[direct] = fc[direct] * e1 + gc[direct] * yy[direct] * e2
        den[direct] = e1 * e1 - z[direct] * e3 * e2
    large = ~direct
    if np.any(large):
        tails = [_kernel("tail", alpha2, beta, lam, t, large) for beta in (1.0, alpha2, 2.0)]
        num[large], den[large] = _right_dc_ratio_large(
            alpha2, xi[large], fc[large], gc[large], yy[large], tails
        )
    a, zeroed = _guarded_ratio(num, den, np.hypot(fc, gc))
    return _slice(data, a, zeroed)


def _split_coeffs(fc, gc, lam):
    """Growing and decaying modal parts (fc +- gc/sqrt(lam))/2; a zero
    eigenvalue contributes no flux to either."""
    s = np.sqrt(lam)
    zero = s == 0.0
    ginv = np.where(zero, 0.0, gc / np.where(zero, 1.0, s))
    return 0.5 * (fc + ginv), 0.5 * (fc - ginv)


def split_data(data):
    """Split the Cauchy pair into the growing and decaying boundary
    components u_{+-}(x,0) = (f -+ ... )/2 with modal flux weights 1/sqrt(lambda).

    A zero eigenvalue (first Neumann mode) has no flux weight; its flux
    contribution is omitted from both parts (their sum still reproduces f)
    and a warning is issued.
    """
    lam = data.basis.lambdas
    if np.any(lam == 0.0):
        warnings.warn(
            "zero-eigenvalue mode: flux component omitted in split", stacklevel=2
        )
    up, um = _split_coeffs(*data.coeffs(), lam)
    return SpectralCoeffs(data.basis, up), SpectralCoeffs(data.basis, um)


def continue_fac_lap(data, alpha, y):
    """Factored-operator continuation: decaying component propagated exactly,
    growing component amplified through the reciprocal Mittag-Leffler factor
    (bounded by 1 + Gamma(1-alpha) sqrt(lambda) y^alpha).  At alpha = 1 this
    is the exact formula.  This is `continue_banded` with a single band."""
    return continue_banded(data, [(data.basis.J, alpha)], y)


def continue_banded(data, bands, y):
    """Factored continuation with a piecewise-constant half-order.

    ``bands`` is a sequence of ``(end_index, alpha)`` pairs with strictly
    increasing end indices covering all modes (the last end equals basis.J).
    Each band reads its kernels 1/E_{alpha,1}(-sqrt(lambda_j) y_k^alpha)
    through `_kernel`, keyed on the band's request: alpha, the eigenvalues,
    the heights y^alpha and the band's positive-eigenvalue modes.  Every
    call with that request shares its values, whatever its data.  A band
    not asked for before evaluates all of its modes at every height in one
    Mittag-Leffler call, even where another band of that order already
    covers some of them; a band asked for before evaluates nothing.
    """
    y = _check_height(y)
    J = data.basis.J
    bands = [(int(e), float(a)) for e, a in bands]
    ends = [e for e, _ in bands]
    if not bands or ends[-1] != J or any(e2 <= e1 for e1, e2 in zip([0] + ends, ends)):
        raise ValueError("bands must cover modes 1..J with increasing ends")
    if any(not 0.0 < a <= 1.0 for _, a in bands):
        raise ValueError("band half-orders must lie in (0, 1]")
    fc, gc = data.coeffs()
    lam = data.basis.lambdas
    up, um = _split_coeffs(fc, gc, lam)
    s = np.sqrt(lam)
    yy = y[..., None]
    amp = np.ones(y.shape + (J,))
    start = 0
    for end, alpha_b in bands:
        band = np.zeros(J, dtype=bool)
        band[start:end] = s[start:end] > 0.0
        band = np.broadcast_to(band, amp.shape)
        amp[band] = 1.0 / _kernel("ml", alpha_b, 1.0, -s, np.float_power(y, alpha_b), band)
        start = end
    # zero eigenvalue: both kernels equal 1, recover the linear-in-y limit
    a = np.where(s > 0.0, up * amp + um * np.exp(-s * yy), fc + gc * yy)
    big = np.abs(amp) > AMP_LIMIT
    a[big] = 0.0
    return _slice(data, a, np.count_nonzero(big, axis=-1))


def split_frequency_continue(data, y_grid):
    """Continue with a band-wise fractional order chosen mode by mode.

    Each mode's order minimizes an estimated error at the deepest requested
    level: the consistency defect of the factored scheme times the mode's
    coefficient (signal distortion) plus the scheme's growth factor times an
    estimated per-mode noise level tau * delta * rms(coefficients), where
    tau = 1.5 (_NOISE_SAFETY).  Exact
    continuation (order 1) has zero defect, so noise-free data is continued
    exactly, while strongly amplified noise modes fall to low orders; the
    rule acts like a soft spectral cutoff at shallow depth and as genuinely
    fractional damping at depth.  Runs of equal order merge into bands, and
    one `continue_banded` call continues the whole grid.  Returns the
    continued `Slice` and the list of bands ``(end_index, alpha)``.

    The heights are checked first, so a refused grid evaluates nothing.
    The kernel rows at ``ystar`` are one `_kernel` request per order, keyed
    on (alpha, the eigenvalues, ystar^alpha, the positive-eigenvalue modes):
    a cold call evaluates those modes once per order of ALPHA_GRID, and a
    later call with the same basis and deepest level evaluates none.
    """
    y_grid = np.atleast_1d(_check_height(y_grid))
    lam = data.basis.lambdas
    up, _ = _split_coeffs(*data.coeffs(), lam)
    J = lam.size
    ystar = float(np.max(y_grid))
    s = np.sqrt(lam)
    pos = s > 0.0
    # growth factor 1/e of each order, and the consistency defect |1 - q| with
    # q = exp(-s ystar)/e the go-up-then-come-down factor at depth ystar; q
    # tends to 1 as alpha -> 1 for fixed frequency, and the scheme can over-
    # as well as under-amplify (q on either side of 1)
    growth = np.ones((len(ALPHA_GRID), J))
    defects = np.zeros((len(ALPHA_GRID), J))
    for i, a in enumerate(ALPHA_GRID):
        e = _kernel("ml", a, 1.0, -s, ystar ** a, pos)
        growth[i, pos] = 1.0 / e
        defects[i, pos] = np.abs(1.0 - np.exp(-s[pos] * ystar) / e)
    d = np.abs(up)
    # white-noise model: the data error spreads evenly over the modes the
    # scheme actually amplifies (zero modes are continued exactly)
    sigma = 0.0
    if np.any(pos):
        sigma = _NOISE_SAFETY * data.delta * math.sqrt(float(np.mean(d[pos] ** 2)))
    cost = defects * d[None, :] + sigma * growth
    # ties (zero modes, noise-free data) resolve toward the exact order
    pick = (len(ALPHA_GRID) - 1) - np.argmin(cost[::-1, :], axis=0)
    mode_alpha = np.asarray(ALPHA_GRID)[pick]

    breaks = np.flatnonzero(mode_alpha[1:] != mode_alpha[:-1]) + 1
    bands = [(int(e), float(mode_alpha[e - 1])) for e in (*breaks, J)]
    return continue_banded(data, bands, y_grid), bands


def landweber_smooth(u0_noisy, sigma_t, mu, l, delta, norm_at_l):
    """Landweber iteration v <- v - mu (-Lap)^(-sigma_t) (v - u) started at 0,
    run for ceil(C l^-2 log(norm_at_l / delta)) steps, C = 1 (_LANDWEBER_C).

    The smoothing operator must be a contraction (mu lambda^-sigma_t <= 1 for
    every mode) and needs strictly positive eigenvalues.
    """
    sigma_t = float(sigma_t)
    mu = float(mu)
    if sigma_t < 1.0:
        raise ValueError("smoothing exponent must be >= 1")
    if not (delta > 0.0 and norm_at_l > 0.0 and l > 0.0):
        raise ValueError("delta, norm_at_l and l must be positive")
    lam = u0_noisy.basis.lambdas
    if np.any(lam <= 0.0):
        raise ValueError("smoothing operator undefined for zero eigenvalues")
    step = mu * lam ** (-sigma_t)
    if np.max(step) > 1.0:
        raise ValueError("mu violates the contraction bound mu*lambda^-sigma_t <= 1")
    i_star = max(1, math.ceil(_LANDWEBER_C * l ** (-2.0) * math.log(norm_at_l / delta)))
    # the iterates sum to v_i = (1 - (1 - step)^i) c; expm1/log1p keep the digits
    # that form cancels for small steps (step = 1: log1p = -inf, v = c)
    with np.errstate(divide="ignore"):
        v = -np.expm1(i_star * np.log1p(-step)) * u0_noisy.c
    return SpectralCoeffs(u0_noisy.basis, v)
