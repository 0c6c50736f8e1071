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
Mittag-Leffler kernel is evaluated over the whole (height x mode) grid, and
one synthesis returns the traces.  A scalar height is the 0-d case of the
same code.

The kernels depend on the eigenvalues, the heights and the order, never on
the Cauchy data.  `_plan` keeps, per request of a scheme on a geometry, one
read-only *plan*: the tuple of every data-independent array the request
needs (kernel values, masks, decay factors, denominators).  A first call
fills the plan with one batched call per kernel; a later call with the same
request makes one lookup and only the arithmetic on the data.  The plans are
one per band of `continue_banded` (which ``fac_lap`` and the split rule's
bands share), one per deepest level of the split rule, and one per
``right_dc`` or ``left_dc`` request; together they hold at most _PLAN_BYTES,
and the least recently used go first.

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

# plans by request, least recently used first (see _plan), the cap on
# their bytes, and the lock that makes each lookup, fill and insert one step
# for concurrent callers
_PLANS = OrderedDict()
_PLAN_BYTES = 8 << 20
_PLAN_LOCK = threading.Lock()
# running count of the kernel points each thread has evaluated
_EVALUATED = threading.local()


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
    double-precision exponential range.  ``kernel_points`` counts the
    Mittag-Leffler and tail points the call evaluated: 0 when the plans of
    its requests were kept from an earlier call.
    """

    values: np.ndarray
    overflow: bool
    zeroed_modes: np.ndarray
    kernel_points: int = 0


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


def _kernel_values(kind, alpha, beta, c, t, want):
    """Values of a data-independent kernel at z = c_j t_k on the entries
    ``want`` (a mask of shape ``t.shape + c.shape``), in the order ``z[want]``.

    ``kind`` is ``"ml"`` for E_{alpha,beta}(z) by ``ml_values``, or
    ``"tail"`` for the algebraic tail of E_{alpha,beta} at
    (z^(1/alpha))^alpha, the argument `_right_dc_large_den` takes.  One
    call, through this module's globals; the points are added to this
    thread's `_kernel_points`.
    """
    t = np.ravel(t)
    k, j = np.nonzero(np.reshape(want, (t.size, c.size)))
    z = c[j] * t[k]
    _EVALUATED.points = _kernel_points() + z.size
    if kind == "ml":
        return ml_values(alpha, beta, z)
    return _algebraic_tail(alpha, beta, (z ** (1.0 / alpha)) ** alpha)[0]


def _kernel_points():
    """Mittag-Leffler and tail points this thread has evaluated so far."""
    return getattr(_EVALUATED, "points", 0)


def _plan_bytes(plan):
    return sum(arr.nbytes for arr in plan)


def _plan(key, fill, *args):
    """The plan of request ``key``: the tuple of read-only arrays that
    ``fill(*args)`` returns, filled on the first request only.

    A request seen before returns its tuple itself.  A new plan evicts the
    least recently used ones while all of them would hold more than
    _PLAN_BYTES; one larger than that is not kept.  The lookup, the fill and
    the insert hold _PLAN_LOCK, so concurrent callers of one request wait
    for a single fill.
    """
    with _PLAN_LOCK:
        plan = _PLANS.get(key)
        if plan is not None:
            _PLANS.move_to_end(key)
            return plan
        plan = fill(*args)
        for arr in plan:
            arr.flags.writeable = False
        size = _plan_bytes(plan)
        if size <= _PLAN_BYTES:
            used = size + sum(_plan_bytes(p) for p in _PLANS.values())
            while used > _PLAN_BYTES:
                used -= _plan_bytes(_PLANS.popitem(last=False)[1])
            _PLANS[key] = plan
        return plan


def _geometry(lam, y):
    """The key part of a request's geometry: eigenvalues and heights."""
    return lam.tobytes(), y.shape, y.tobytes()


def _slice(data, a, zeroed, points=0, overflow=False):
    """Slice from modal coefficients ``a`` of shape ``y.shape + (J,)``;
    ``zeroed`` counts the guarded modes per height, ``points`` the kernel
    points the call evaluated."""
    return Slice(np.tensordot(data.basis.modes, a, axes=(0, -1)), overflow, zeroed, points)


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
    return _slice(data, a, np.zeros(y.shape, dtype=int), overflow=overflow)


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
    since = _kernel_points()
    lam = data.basis.lambdas
    keep, j, yk, e1, e2 = _plan(("left_dc", alpha2) + _geometry(lam, y),
                                _left_dc_plan, alpha2, lam, y)
    fc, gc = data.coeffs()
    a = np.zeros(keep.shape)
    a[keep] = fc[j] * e1 + gc[j] * yk * e2
    return _slice(data, a, np.count_nonzero(~keep, axis=-1), _kernel_points() - since)


def _entries(mask, y):
    """Mode index and height of each entry of a (height x mode) mask, in
    the order ``mask`` picks them."""
    return (np.broadcast_to(np.arange(mask.shape[-1]), mask.shape)[mask],
            np.broadcast_to(y[..., None], mask.shape)[mask])


def _left_dc_plan(alpha2, lam, y):
    """Plan of `continue_left_dc`: the entries the guard keeps, with their
    mode index and height, and E_{a2,1}, E_{a2,2} at lam y^a2 there."""
    keep = lam ** (1.0 / alpha2) * y[..., None] <= _LOG_AMP_LIMIT
    e1 = e2 = np.empty(0)
    if np.any(keep):
        t = np.float_power(y, alpha2)
        e1, e2 = (_kernel_values("ml", alpha2, beta, lam, t, keep) for beta in (1.0, 2.0))
    return (keep,) + _entries(keep, y) + (e1, e2)


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


def _right_dc_large_den(alpha2, xi, tails):
    """Denominator of right_dc for large xi, from the cancelled form, and
    the factor exp(-xi) (0 past xi = 700) its numerator also takes.

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
    den = c * (2.0 * a1 - xi * a3 - xi ** (alpha2 - 1.0) * a2) + small * (
        a1 * a1 - x * a2 * a3
    )
    return small, den


def _right_dc_large_num(alpha2, xi, small, a1, a3, fc, gc, y):
    """Numerator of right_dc for large xi, from the cancelled form: ``small``
    as `_right_dc_large_den` returns it, ``a1`` and ``a3`` the algebraic
    tails for beta = 1 and 2."""
    c = 1.0 / alpha2
    return c * (fc + gc * y / xi) + small * (fc * a1 + gc * y * a3)


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
    since = _kernel_points()
    lam = data.basis.lambdas
    direct, jd, yd, e1, e2, large, jl, yl, xi, small, a1, a3, den = _plan(
        ("right_dc", alpha2) + _geometry(lam, y), _right_dc_plan, alpha2, lam, y)
    fc, gc = data.coeffs()
    num = np.zeros(den.shape)
    num[direct] = fc[jd] * e1 + gc[jd] * yd * e2
    num[large] = _right_dc_large_num(alpha2, xi, small, a1, a3, fc[jl], gc[jl], yl)
    a, zeroed = _guarded_ratio(num, den, np.hypot(fc, gc))
    return _slice(data, a, zeroed, _kernel_points() - since)


def _right_dc_plan(alpha2, lam, y):
    """Plan of `continue_right_dc`: the entries of the direct form, with
    their mode index and height, and E_{a2,1} and E_{a2,2} there; the
    entries of the cancelled form, with their mode index and height, and
    xi, exp(-xi) and the tails for beta = 1 and 2 there; and the denominator
    of both forms on the whole grid."""
    t = np.float_power(y, alpha2)
    z = lam * t[..., None]
    den = np.ones(z.shape)
    xi = z ** (1.0 / alpha2)
    direct = xi <= _xi_switch(alpha2)
    e1 = e2 = np.empty(0)
    if np.any(direct):
        e1, e2, e3 = (_kernel_values("ml", alpha2, beta, lam, t, direct)
                      for beta in (1.0, 2.0, alpha2))
        den[direct] = e1 * e1 - z[direct] * e3 * e2
    large = ~direct
    xi_large = small = a1 = a3 = np.empty(0)
    if np.any(large):
        tails = [_kernel_values("tail", alpha2, beta, lam, t, large) for beta in (1.0, alpha2, 2.0)]
        xi_large = xi[large]
        small, den[large] = _right_dc_large_den(alpha2, xi_large, tails)
        a1, _, a3 = tails
    return ((direct,) + _entries(direct, y) + (e1, e2, large) + _entries(large, y)
            + (xi_large, small, a1, a3, den))


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
    Each band reads its kernels 1/E_{alpha,1}(-sqrt(lambda_j) y_k^alpha),
    their guard mask and the decay factors exp(-sqrt(lambda_j) y_k) from
    one `_plan`, keyed on the band's request: alpha, its first and end
    index, the eigenvalues and the heights.  Every call with that request
    shares the plan, whatever its data or its other bands.  A band not
    asked for before evaluates its positive-eigenvalue modes at every height
    in one Mittag-Leffler call, even where another band of that order
    already covers some of them; a band asked for before evaluates nothing.
    """
    y = _check_height(y)
    J = data.basis.J
    bands = [(int(e), float(a)) for e, a in bands]
    ends = [e for e, _ in bands]
    if not bands or ends[-1] != J or any(e2 <= e1 for e1, e2 in zip([0] + ends, ends)):
        raise ValueError("bands must cover modes 1..J with increasing ends")
    if any(not 0.0 < a <= 1.0 for _, a in bands):
        raise ValueError("band half-orders must lie in (0, 1]")
    since = _kernel_points()
    fc, gc = data.coeffs()
    lam = data.basis.lambdas
    up, um = _split_coeffs(fc, gc, lam)
    s = np.sqrt(lam)
    geometry = _geometry(lam, y)
    plans = [_plan(("band", alpha_b, start, end) + geometry, _band_plan, alpha_b, s[start:end], y)
             for start, (end, alpha_b) in zip([0] + ends, bands)]
    amp, decay, big = (np.concatenate(part, axis=-1) for part in zip(*plans))
    # zero eigenvalue: both kernels equal 1, recover the linear-in-y limit
    a = np.where(s > 0.0, up * amp + um * decay, fc + gc * y[..., None])
    a[big] = 0.0
    return _slice(data, a, np.count_nonzero(big, axis=-1), _kernel_points() - since)


def _band_plan(alpha, s, y):
    """Plan of one band of `continue_banded` with modes ``s = sqrt(lambda)``:
    1/E_{alpha,1}(-s_j y_k^alpha) (1 where s_j = 0), exp(-s_j y_k), and
    where the first exceeds AMP_LIMIT."""
    want = np.broadcast_to(s > 0.0, y.shape + s.shape)
    amp = np.ones(want.shape)
    amp[want] = 1.0 / _kernel_values("ml", alpha, 1.0, -s, np.float_power(y, alpha), want)
    return amp, np.exp(-s * y[..., None]), np.abs(amp) > AMP_LIMIT


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
    The growth and defect rows of every order of ALPHA_GRID at ``ystar`` are
    one `_plan`, keyed on the eigenvalues and ystar: a cold call evaluates
    the positive-eigenvalue modes once per order, and a later call with the
    same basis and deepest level evaluates none.  The bands then share the
    band plans of `continue_banded`.
    """
    y_grid = np.atleast_1d(_check_height(y_grid))
    since = _kernel_points()
    lam = data.basis.lambdas
    up, _ = _split_coeffs(*data.coeffs(), lam)
    J = lam.size
    ystar = float(np.max(y_grid))
    pos, growth, defects = _plan(("split", ystar, lam.tobytes()), _split_plan, lam, ystar)
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
    cont = continue_banded(data, bands, y_grid)
    cont.kernel_points = _kernel_points() - since
    return cont, bands


def _split_plan(lam, ystar):
    """Plan of `split_frequency_continue` at the deepest level ``ystar``:
    the positive-eigenvalue modes, and per order of ALPHA_GRID the growth
    factor 1/e and the consistency defect |1 - q| with e = E_{a,1}(-s ystar^a).

    q = exp(-s ystar)/e is the go-up-then-come-down factor at depth ystar;
    it tends to 1 as alpha -> 1 for fixed frequency, and the scheme can
    over- as well as under-amplify (q on either side of 1)."""
    s = np.sqrt(lam)
    pos = s > 0.0
    growth = np.ones((len(ALPHA_GRID), lam.size))
    defects = np.zeros((len(ALPHA_GRID), lam.size))
    for i, a in enumerate(ALPHA_GRID):
        e = _kernel_values("ml", a, 1.0, -s, ystar ** a, pos)
        growth[i, pos] = 1.0 / e
        defects[i, pos] = np.abs(1.0 - np.exp(-s[pos] * ystar) / e)
    return pos, growth, defects


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
