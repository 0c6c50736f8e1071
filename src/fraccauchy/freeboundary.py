"""Newton-type recovery of a free interface curve from lower-boundary Cauchy data.

The unknown is a curve y = ell(x) bounding a strip from above.  The field u is
harmonic below the curve, carries Dirichlet data f at y = 0, homogeneous
lateral conditions, and satisfies a homogeneous condition on the curve itself
(Dirichlet, Neumann, or impedance).  The measured flux g at y = 0 enters
through the hold-all continuation `zbar`, which is computed once from (f, g)
and frozen.  One Newton sweep serves all three kinds; each step

    1. linearizes the interface condition around the current curve,
    2. solves the linearized equation for the curve update,
    3. smooths the update (low cosine modes), safeguards it, applies it.

The residual each step drives to zero is that of the frozen zbar, so the
sweep's fixed point is set by zbar alone.  Every step linearizes that
residual on zbar's own traces along the curve (zbar and its y-derivatives
from one spline of zbar, built on zbar's first trace and kept on the field
for every later sweep; x-derivatives by the same differences the residual
takes, once per iterate), so each is Newton's method on the residual and no
step solves a forward problem.

Only the interface residual of zbar and the linearization differ per kind
(Z, Z_y, Z_yy are zbar and its y-derivatives on the curve, D the
difference `elliptic._first_diff` along it: centered inside, second-order
one-sided at the ends, with np.gradient(., h, edge_order=2)'s arithmetic):

* Dirichlet: residual Z; pointwise update delta = -Z / Z_y.
* Neumann: residual the conormal derivative of zbar on the curve; delta by
  regularized least squares from  D[delta * zbar_x(x, ell)] = residual,
  with an H1-type smoothness weight (1/rho1) and an endpoint penalty rho2.
* Impedance: residual R = (1 + ell'^2) Z_y - ell' DZ + sqrt(1 + ell'^2)
  gamma Z, whose exact discrete derivative in ell is
      dR[delta] = c1 D delta + c0 delta - ell' D(Z_y delta),
      c1 = 2 ell' Z_y - DZ + ell' gamma Z / sqrt(1 + ell'^2),
      c0 = (1 + ell'^2) Z_yy + sqrt(1 + ell'^2) gamma Z_y;
  delta by the Neumann step's regularized least squares from
  -dR[delta] = R, without the endpoint penalty.

Every update is projected onto a few low cosine modes (mild ill-posedness of
the curve problem), halved until it is small against the current curve height
(keeps ell > 0), and clamped into the corridor (0.01 olell, olell).
"""

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbsv

from .elliptic import (Curve, _conormal, _curve_sampler, _first_diff, _samples_on_grid, assemble,
                       bottom_flux, interface_traces)
from .spectral import _cos_projection, _cos_rows, _trapezoid_weights

__all__ = [
    "NewtonConfig",
    "RecoveryTrace",
    "newton_dirichlet",
    "newton_neumann",
    "newton_impedance",
    "linearized_flux",
    "project_cosine",
]

# point-degeneracy floor of the Dirichlet step, relative to the trace scale
_FLUX_FLOOR = 1e-8
# fraction of interface points with vanishing tangential derivative that
# triggers the nonuniqueness warning
_DEGENERATE_FRACTION = 0.6
_DEGENERATE_TOL = 1e-4
# Neumann and impedance steps: H1 smoothness weight 1/_RHO1; Neumann
# endpoint penalty _RHO2
_RHO1 = 1e3
_RHO2 = 1e6
# cosine modes kept of every curve update
_SMOOTH_MODES = 8
# the pairs (p, q), p <= q, of a row's three weights, in `_gram_bands`' order
_PAIRS = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
_PQ = np.array(_PAIRS).T
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class NewtonConfig:
    """Knobs shared by the three curve solvers.

    Fixed: the iterates stay in the corridor (0.01 * olell, olell) of the
    starting curve (`_corridor`), updates keep 8 cosine modes
    (_SMOOTH_MODES), the Neumann and impedance steps use rho1 = 1e3 (_RHO1)
    and the Neumann step rho2 = 1e6 (_RHO2).
    """

    max_iter: int = 10
    stop_tol: float = 1e-4

    def __post_init__(self):
        try:
            max_iter = operator.index(self.max_iter)
        except TypeError:
            raise ValueError("max_iter must be an integer") from None
        if max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")


@dataclass
class RecoveryTrace:
    """Log of one Newton sweep.

    iterates[0] is the starting curve and iterates[k] the curve after step k.
    residual_norms[k] is the weighted-L2 interface residual of zbar on
    iterates[k] and rel_errors[k] its relative error against the truth
    (rel_errors is None when no truth curve was supplied; a truth is a
    Curve, samples on the solver grid, a scalar or a callable of x).
    step_residuals[k] is the misfit of step k's smoothed update in the
    linearized interface equation, before trust-region safeguarding.  flags
    holds "iter k: ..." notes.  stop says why the sweep ended:
    "step_below_tol" (the relative step fell below stop_tol),
    "pinned_to_corridor" (it did, but only because the corridor clamp cut
    the last update) or "max_iter".  converged is true on "step_below_tol"
    with the final residual not above the starting one.
    """

    iterates: list
    residual_norms: list
    step_residuals: list
    rel_errors: list
    flags: list
    converged: bool
    stop: str


def _wnorm(v, w):
    return math.sqrt((w * v * v).sum())


def project_cosine(values, L, modes):
    """Project grid samples on [0, L] onto span{cos(k pi x / L), k < modes}."""
    values = np.asarray(values, dtype=float)
    return _cosine_projector(values.size, L, modes)(values)


def _cosine_projector(n, L, modes):
    """`project_cosine` of n samples: `_cos_projection` on `_cos_rows`,
    built once for any number of calls."""
    x = np.linspace(0.0, L, n)
    ph = _cos_rows(x, L, modes)
    coeffs = _cos_projection(ph, _trapezoid_weights(n, x[1] - x[0]))
    return lambda values: coeffs(values) @ ph


def _corridor(curve0, zbar):
    """Iterate bounds (lo, hi) = (0.01 * olell, olell), checked against the
    frozen field: zbar's traces take their x-spacing from its own grid, and
    above its top level its spline in height extrapolates."""
    olell, top = curve0.olell, zbar.curve
    lo, hi = 0.01 * olell, olell
    if not curve0.same_grid(top):
        raise ValueError("hold-all field must be sampled on the curve's x-grid")
    if float(np.min(top.ell)) * (1 + 1e-12) < hi:
        raise ValueError("hold-all field stops below the corridor's upper bound")
    return lo, hi


def _trust_clamp(ell, dl, lo, hi):
    """Halve dl until it is small against the current curve, then clamp.
    Returns the new curve and whether the clamp cut the update."""
    cap = 0.5 * float(ell.min())
    for _ in range(64):
        if float(abs(dl).max()) <= cap:
            break
        dl = 0.5 * dl
    new = ell + dl
    return np.minimum(np.maximum(new, lo), hi), bool(((new < lo) | (new > hi)).any())


def _sweep(curve0, zbar, cfg, truth, residual, step, orders=(0, 1)):
    """The Newton sweep shared by the three interface kinds.

    Pass k traces zbar on iterate k once, by `_conormal` through zbar's kept
    `_curve_sampler` (its spline is built on zbar's first trace, by this
    sweep or an earlier one): traces holds zbar's y-derivatives of the given
    orders on the curve (zl, zy, ...), dzl is d/dx zl and dnu the conormal
    derivative.  residual(curve, zl, dnu) is the interface misfit of zbar on
    the curve.  step(curve, traces, dzl, r, flag) linearizes about the
    current curve and returns the raw update and the linear operator op it
    inverts, op(update) ~ r; flag(text) records a flag of the current
    iteration.  Every step reads its linearization from these traces and
    solves no forward problem.
    Pass k measures the residual at iterate k and, below max_iter and until
    the step rule fires, takes one step, so the last residual needs no step.
    """
    n, L, olell = curve0.N, curve0.L, curve0.olell
    w = _trapezoid_weights(n, curve0.h)
    lo, hi = _corridor(curve0, zbar)
    if truth is not None:
        truth = _samples_on_grid(truth.ell if isinstance(truth, Curve) else truth, curve0.x, "truth")
    sample = _curve_sampler(zbar)
    smooth = _cosine_projector(n, L, _SMOOTH_MODES)

    def relerr(ell):
        return _wnorm(ell - truth, w) / _wnorm(truth, w)

    iterates, residual_norms, step_residuals, flags = [curve0], [], [], []
    rel_errors = None if truth is None else [relerr(curve0.ell)]
    stop = None
    for k in range(cfg.max_iter + 1):
        curve = iterates[-1]
        traces, dzl, dnu = _conormal(sample, curve, orders)
        r = residual(curve, traces[0], dnu)
        residual_norms.append(_wnorm(r, w))
        if stop is not None:
            break
        if k == cfg.max_iter:
            stop = "max_iter"
            break
        dl, op = step(curve, traces, dzl, r,
                      lambda text: flags.append("iter %d: %s" % (k, text)))
        dl_sm = smooth(dl)
        step_residuals.append(_wnorm(op(dl_sm) - r, w))
        ell, pinned = _trust_clamp(curve.ell, dl_sm, lo, hi)
        iterates.append(Curve(ell, L, olell))
        if rel_errors is not None:
            rel_errors.append(relerr(ell))
        denom = max(_wnorm(curve.ell, w), np.finfo(float).tiny)
        if _wnorm(ell - curve.ell, w) / denom < cfg.stop_tol:
            stop = "pinned_to_corridor" if pinned else "step_below_tol"
    converged = stop == "step_below_tol" and residual_norms[-1] <= residual_norms[0]
    return RecoveryTrace(iterates, residual_norms, step_residuals, rel_errors,
                         flags, converged, stop)


def newton_dirichlet(curve0, zbar, lateral, f, cfg, truth=None):
    """Recover the curve under a homogeneous Dirichlet interface condition.

    Each step is -zbar / zbar_y on the curve.  f is still checked as a
    scalar, a callable or grid samples; neither it nor lateral enters the
    step."""
    _samples_on_grid(f, curve0.x, "f")

    def step(curve, traces, dzl, r, flag):
        zl, uy = traces
        size = np.abs(uy)
        ok = size > _FLUX_FLOOR * max(1.0, float(size.max()))
        if not ok.all():
            flag("normal flux below floor at %d points, update damped there"
                 % int(curve.N - ok.sum()))
        return np.where(ok, -zl / np.where(ok, uy, 1.0), 0.0), lambda d: -uy * d

    return _sweep(curve0, zbar, cfg, truth, lambda curve, zl, dnu: zl, step)


def _warn_degenerate(scale, u_x_curve, flag):
    frac = float(np.mean(np.abs(u_x_curve) < _DEGENERATE_TOL * scale))
    if frac >= _DEGENERATE_FRACTION:
        flag("tangential derivative degenerate on %.0f%% of the interface"
             % (100 * frac))
        warnings.warn(
            "tangential derivative of the field nearly vanishes on %.0f%% of "
            "the interface: the curve update is nonunique there (constant "
            "curve shifts are indistinguishable)" % (100 * frac))
        return True
    return False


def _gradient_rows(n, h):
    """The rows of the difference `_first_diff` on n samples at spacing h as
    (cols, vals), each of shape (n, 3): row i weighs samples cols[i] by
    vals[i]."""
    cols = np.clip(np.arange(n), 1, n - 2)[:, None] + np.arange(-1, 2)
    vals = np.tile([-1.0, 0.0, 1.0], (n, 1))
    vals[0] = [-3.0, 4.0, -1.0]
    vals[-1] = [1.0, -4.0, 3.0]
    return cols, vals / (2.0 * h)


def _gram_bands(vals, w):
    """Upper bands of R^T diag(w) R for rows vals on the column pattern of
    `_gradient_rows` (n >= 4 rows), as LAPACK's upper banded Cholesky
    (dpbsv) stores them: entry (b - d, b) of the pentadiagonal product sits
    at [2 - d, b].

    Row i (0 < i < n - 1) weighs columns i - 1, i, i + 1, and rows 0 and
    n - 1 repeat the columns of rows 1 and n - 2, so the scatter is a fixed
    set of slices: each entry sums the products w vals[:, p] vals[:, q]
    (p <= q) of one (p, q) first, rows in order, then those sums into zeros
    in the order of (p, q), as one `np.bincount` per (p, q) would."""
    n = vals.shape[0]
    v = (w[:, None] * vals)[:, _PQ[0]] * vals[:, _PQ[1]]
    v[1] = v[0] + v[1]
    v[-2] = v[-2] + v[-1]
    v = v[1:-1]
    ab = np.zeros((3, n))
    for j, (p, q) in enumerate(_PAIRS):
        ab[2 - q + p, q:n - 2 + q] += v[:, j]
    return ab


def _band_matvec(ab, x):
    """K @ x for the symmetric pentadiagonal K whose upper bands are ``ab``."""
    y = ab[2] * x
    y[:-1] += ab[1, 1:] * x[1:]
    y[1:] += ab[1, 1:] * x[:-1]
    y[:-2] += ab[0, 2:] * x[2:]
    y[2:] += ab[0, 2:] * x[:-2]
    return y


def _regularized_solver(n, h):
    """The least-squares update of the Neumann and impedance steps on n
    samples at spacing h.  Returns (cols, grad, solve): the rows of the
    difference D = `_first_diff` as `_gradient_rows` gives them, and
    solve(rows, r, flag, pin=None), the d minimizing
    |op(d) - r|_w^2 + (1/_RHO1) |Dd|_w^2 (trapezoid weights w) for the
    operator whose row i weighs d[cols[i]] by rows[i].  pin = (t0, tL) adds
    _RHO2 ((d0 - t0)^2 + (dL - tL)^2); pin = None adds no endpoint penalty.

    The normal equations are pentadiagonal, laid out by `_gram_bands`, and
    solved by LAPACK's banded Cholesky dpbsv, called directly.
    A solve whose factorisation breaks down (info > 0), or whose result is
    not finite or has a normwise backward error not below 1e-8, is retried
    with the smoothing weight raised tenfold, at most three times; an
    illegal argument (info < 0) raises."""
    w = _trapezoid_weights(n, h)
    cols, grad = _gradient_rows(n, h)
    reg = _gram_bands(grad, w)

    def solve(rows, r, flag, pin=None):
        base = _gram_bands(rows, w)
        rhs = np.bincount(cols.ravel(), (rows * (w * r)[:, None]).ravel(), minlength=n)
        if pin is not None:
            rhs[0] += _RHO2 * pin[0]
            rhs[-1] += _RHO2 * pin[1]
        rho1 = _RHO1
        for _ in range(4):
            K = base + (1.0 / rho1) * reg
            if pin is not None:
                K[2, 0] += _RHO2
                K[2, -1] += _RHO2
            _, cand, info = dpbsv(K, rhs)
            if info < 0:
                raise ValueError("illegal value in argument %d of dpbsv" % -info)
            if info == 0 and np.isfinite(cand).all():
                # 2-norms as np.linalg.norm takes them, sqrt(x . x)
                fro = math.sqrt((K[2] * K[2]).sum() + 2.0 * (K[:2] * K[:2]).sum())
                res = _band_matvec(K, cand) - rhs
                back = math.sqrt(res @ res) / (
                    fro * math.sqrt(cand @ cand) + math.sqrt(rhs @ rhs) + _TINY)
                if back < 1e-8:
                    return cand
            rho1 /= 10.0
            flag("near-singular least-squares system, smoothing weight raised "
                 "to 1/%.3g" % rho1)
        raise RuntimeError("curve-update least-squares system stayed "
                           "near-singular after 3 retries")

    return cols, grad, solve


def newton_neumann(curve0, zbar, lateral, f, cfg, truth=None,
                   endpoint_values=None):
    """Recover the curve under a homogeneous Neumann interface condition.

    The update minimizes the weighted least-squares misfit of the linearized
    interface equation plus (1/_RHO1) |delta'|^2 and an endpoint penalty _RHO2
    (`_regularized_solver`).  When endpoint_values = (v0, vL) is given, the
    penalty pulls the curve endpoints toward these known heights; otherwise
    it pins the endpoint updates to zero (the starting endpoints are
    trusted).  The penalty also removes the constants, the only null space of
    d/dx.  u_x is zbar's x-derivative on the curve.  f is still checked as a
    scalar, a callable or grid samples; neither it nor lateral enters the
    step.
    """
    _samples_on_grid(f, curve0.x, "f")
    cols, grad, solve = _regularized_solver(curve0.N, curve0.h)
    scale = max(1.0, float(np.max(np.abs(zbar.values))) / zbar.curve.L)
    warned = False

    def step(curve, traces, dzl, dnu, flag):
        nonlocal warned
        zl, zy = traces
        ux = dzl - curve.dell() * zy
        warned = warned or _warn_degenerate(scale, ux, flag)
        rows = grad * ux[cols]  # d/dx [u_x delta], the linearized operator
        pin = (0.0, 0.0) if endpoint_values is None else (
            endpoint_values[0] - curve.ell[0], endpoint_values[1] - curve.ell[-1])
        return solve(rows, dnu, flag, pin), lambda d: _first_diff(ux * d, curve.h)

    return _sweep(curve0, zbar, cfg, truth, lambda curve, zl, dnu: dnu, step)


def newton_impedance(curve0, gamma, zbar, lateral, f, cfg, truth=None):
    """Recover the curve under an impedance interface condition with known
    (raw, per-arclength) coefficient gamma.

    Each step is Newton's method on the residual R of zbar: the update
    minimizes the weighted least-squares misfit of -dR[delta] = R, with dR
    the exact derivative of the discrete residual in ell (module docstring),
    plus (1/_RHO1) |delta'|^2 and no endpoint penalty (`_regularized_solver`).
    f is still checked as a scalar, a callable or grid samples; neither it
    nor lateral enters the step."""
    n, h = curve0.N, curve0.h
    gam = _samples_on_grid(gamma, curve0.x, "gamma")
    if np.any(gam <= 0):
        raise ValueError("impedance coefficient must be positive")
    _samples_on_grid(f, curve0.x, "f")
    cols, grad, solve = _regularized_solver(n, h)
    diag = cols == np.arange(n)[:, None]

    def residual(curve, zl, dnu):
        # combined_impedance(gam, curve) * zl on the samples gam already holds
        return dnu + np.sqrt(1.0 + curve.dell() ** 2) * gam * zl

    def step(curve, traces, dzl, r, flag):
        zl, zy, zyy = traces
        dl = curve.dell()
        sq = np.sqrt(1.0 + dl * dl)
        c1 = 2.0 * dl * zy - dzl + dl * gam * zl / sq
        c0 = (1.0 + dl * dl) * zyy + sq * gam * zy
        # -dR: row i weighs delta[cols[i]]
        rows = grad * (dl[:, None] * zy[cols] - c1[:, None]) - diag * c0[:, None]

        def op(d):
            return dl * _first_diff(zy * d, h) - c1 * _first_diff(d, h) - c0 * d

        return solve(rows, r, flag), op

    return _sweep(curve0, zbar, cfg, truth, residual, step, (0, 1, 2))


def linearized_flux(curve, lateral, interface, f, dl):
    """Bottom-flux trace of the linearized interface problem.

    Solves the field perturbation v induced by a curve perturbation dl about
    `curve` (harmonic, v = 0 at the bottom, homogeneous lateral conditions,
    and the linearized interface condition of the given kind as inhomogeneity)
    and returns d_y v at y = 0.  This is the directional derivative of the
    data-side flux map and is checked against finite differences in the tests.
    """
    x = curve.x
    h = curve.h
    fv = _samples_on_grid(f, x, "f")
    dl = np.asarray(dl, dtype=float)
    if dl.shape != x.shape:
        raise ValueError("dl must be sampled on the curve grid")
    op = assemble(curve, lateral, interface)
    tr = interface_traces(op.solve(fv))
    if interface.kind == "D":
        rhs = -tr.u_y * dl
    elif interface.kind == "N":
        rhs = _first_diff(dl * tr.u_x, h)
    else:
        dl_c = curve.dell()
        sq = np.sqrt(1.0 + dl_c ** 2)
        gam = _samples_on_grid(interface.gamma, x, "gamma")
        if interface.combined:
            gam = gam / sq
        # shape derivative of the impedance condition in primitive form:
        # dl' * (u_x - ell'/sq * gamma * u) - dl * (u_yy - ell' u_xy + sq gamma u_y)
        alpha = tr.u_x - dl_c / sq * gam * tr.u
        ddl = _first_diff(dl, h)
        rhs = ddl * alpha - dl * (tr.u_yy - dl_c * tr.u_xy + sq * gam * tr.u_y)
    return bottom_flux(op.solve(np.zeros_like(fv), interface_rhs=rhs))
