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
sweep's fixed point is set by zbar alone.  The Dirichlet and Neumann steps
linearize on zbar's own traces along the curve (zbar_y, and zbar_x as the
difference of zbar along the curve less ell' zbar_y), so they are Newton's
method on that residual and make no forward solve.  The impedance step linearizes about a forward field instead:
its ODE below assumes that u meets the impedance condition on the current
curve, which a forward field does and zbar does not.  That field is solved on
a coarse depth grid (17 levels on the curve's own x-grid, against 65 for a
square 129-point mesh); an inexact linearization changes at most the rate at
which the sweep gets to its fixed point (Dembo, Eisenstat & Steihaug, SIAM J.
Numer. Anal. 19 (1982) 400-408).

Only the interface residual of zbar and the linearization differ per kind:

* Dirichlet: residual zbar(x, ell); pointwise update delta = -zbar / zbar_y.
* Neumann: residual the conormal derivative of zbar on the curve; delta by
  regularized least squares from  d/dx [delta * zbar_x(x, ell)] = residual,
  with an H1-type smoothness weight (1/rho1) and an endpoint penalty rho2.
* Impedance: residual b = conormal + sqrt(1 + ell'^2) gamma zbar; a
  first-order linear ODE for phi = alpha * delta,
      phi' + (beta/alpha) phi = b,
  integrated by the integrating-factor formula with trapezoid quadrature;
  the degenerate endpoint (alpha -> 0 under lateral Neumann conditions) is
  handled by the l'Hospital limit delta(0) = b(0) / (alpha'(0) + beta(0)).

Every update is projected onto a few low cosine modes (mild ill-posedness of
the curve problem), halved until it is small against the current curve height
(keeps ell > 0), and clamped into the corridor (0.01 olell, olell).
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import solveh_banded

from .elliptic import (Curve, InterfaceBC, _conormal, _curve_sampler, _samples_on_grid, assemble,
                       bottom_flux, combined_impedance, interface_traces, solve_forward)
from .spectral import _cos_coeffs, _cos_tables, _trapezoid_weights

__all__ = [
    "NewtonConfig",
    "RecoveryTrace",
    "newton_dirichlet",
    "newton_neumann",
    "newton_impedance",
    "linearized_flux",
    "project_cosine",
]

# point-degeneracy floors, relative to the trace scale
_FLUX_FLOOR = 1e-8
_ALPHA_FLOOR = 1e-8
# |ell'| below this uses the straight-interface branch of the impedance
# linearization coefficient
_SLOPE_TOL = 1e-6
# fraction of interface points with vanishing tangential derivative that
# triggers the nonuniqueness warning
_DEGENERATE_FRACTION = 0.6
_DEGENERATE_TOL = 1e-4
# exponent range allowed in the integrating factor before the step is
# declared overflowing
_EXP_RANGE = 300.0
# depth levels of the forward solve that linearizes each impedance step
# (the x-grid is the curve's own; the Dirichlet and Neumann steps solve
# none); the residual, and so the fixed point, is measured on zbar, and 17
# levels left every step count and stop code of the tests and benchmark
# inputs as on the square 65-level mesh, where 9 levels changed one
_SWEEP_LEVELS = 17
# Neumann step: H1 smoothness weight 1/_RHO1, endpoint penalty _RHO2
_RHO1 = 1e3
_RHO2 = 1e6
# cosine modes kept of every curve update
_SMOOTH_MODES = 8


@dataclass(frozen=True)
class NewtonConfig:
    """Knobs shared by the three curve solvers.

    Fixed: the iterates stay in the corridor (0.01 * olell, olell) of the
    starting curve (`_corridor`), updates keep 8 cosine modes
    (_SMOOTH_MODES), and the Neumann step uses rho1 = 1e3 (_RHO1) and
    rho2 = 1e6 (_RHO2).
    """

    max_iter: int = 10
    stop_tol: float = 1e-4

    def __post_init__(self):
        if int(self.max_iter) < 1:
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
    return float(np.sqrt(np.sum(w * v * v)))


def project_cosine(values, L, modes):
    """Project grid samples on [0, L] onto span{cos(k pi x / L), k < modes}."""
    values = np.asarray(values, dtype=float)
    x = np.linspace(0.0, L, values.size)
    ph, _ = _cos_tables(x, L, modes)
    return _cos_coeffs(values, ph, _trapezoid_weights(x.size, x[1] - x[0])) @ ph


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
    cap = 0.5 * float(np.min(ell))
    for _ in range(64):
        if float(np.max(np.abs(dl))) <= cap:
            break
        dl = 0.5 * dl
    new = ell + dl
    return np.clip(new, lo, hi), bool(np.any((new < lo) | (new > hi)))


def _sweep(curve0, zbar, cfg, truth, residual, step):
    """The Newton sweep shared by the three interface kinds.

    residual(curve, zl, dnu) is the interface misfit of zbar on the curve,
    given its trace zl and conormal derivative dnu.  step(curve, sample, zl,
    r, flag) linearizes about the current curve and returns the raw update
    and the linear operator op it inverts, op(update) ~ r; sample is zbar's
    `_curve_sampler`, built once for the whole sweep, and flag(text) records
    a flag of the current iteration.  The Dirichlet and Neumann steps read
    their linearization from sample; only the impedance step solves forward.
    Pass k measures the residual at iterate k and, below max_iter and until
    the step rule fires, takes one step, so the last residual needs no step.
    """
    n, L, olell = curve0.N, curve0.L, curve0.olell
    w = _trapezoid_weights(n, curve0.h)
    lo, hi = _corridor(curve0, zbar)
    if truth is not None:
        truth = _samples_on_grid(truth.ell if isinstance(truth, Curve) else truth, curve0.x, "truth")
    sample = _curve_sampler(zbar)

    def relerr(ell):
        return _wnorm(ell - truth, w) / _wnorm(truth, w)

    iterates, residual_norms, step_residuals, flags = [curve0], [], [], []
    rel_errors = None if truth is None else [relerr(curve0.ell)]
    stop = None
    for k in range(cfg.max_iter + 1):
        curve = iterates[-1]
        zl, dnu = _conormal(sample, zbar.curve.h, curve.ell)
        r = residual(curve, zl, dnu)
        residual_norms.append(_wnorm(r, w))
        if stop is not None:
            break
        if k == cfg.max_iter:
            stop = "max_iter"
            break
        dl, op = step(curve, sample, zl, r, lambda text: flags.append("iter %d: %s" % (k, text)))
        dl_sm = project_cosine(dl, L, _SMOOTH_MODES)
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

    def step(curve, sample, zl, r, flag):
        uy = sample(curve.ell, 1)
        floor = _FLUX_FLOOR * max(1.0, float(np.max(np.abs(uy))))
        ok = np.abs(uy) > floor
        if not ok.all():
            flag("normal flux below floor at %d points, update damped there"
                 % int(curve.N - ok.sum()))
        return np.where(ok, -zl / np.where(ok, uy, 1.0), 0.0), lambda d: -uy * d

    return _sweep(curve0, zbar, cfg, truth, lambda curve, zl, dnu: zl, step)


def _warn_degenerate(zbar, u_x_curve, flag):
    scale = max(1.0, float(np.max(np.abs(zbar.values))) / zbar.curve.L)
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
    """The rows of np.gradient(., h, edge_order=2) on n samples as (cols,
    vals), each of shape (n, 3): row i weighs samples cols[i] by vals[i]."""
    cols = np.clip(np.arange(n), 1, n - 2)[:, None] + np.arange(-1, 2)
    vals = np.tile([-1.0, 0.0, 1.0], (n, 1))
    vals[0] = [-3.0, 4.0, -1.0]
    vals[-1] = [1.0, -4.0, 3.0]
    return cols, vals / (2.0 * h)


def _gram_bands(cols, vals, w):
    """Upper bands of R^T diag(w) R for the rows (cols, vals) of
    `_gradient_rows`, in the layout of `solveh_banded`: entry (b - d, b) of
    the pentadiagonal product sits at [2 - d, b]."""
    n = cols.shape[0]
    ab = np.zeros(3 * n)
    for p in range(3):
        for q in range(p, 3):
            ab += np.bincount((2 - q + p) * n + cols[:, q], w * vals[:, p] * vals[:, q],
                              minlength=3 * n)
    return ab.reshape(3, n)


def _band_matvec(ab, x):
    """K @ x for the symmetric pentadiagonal K whose upper bands are ``ab``."""
    y = ab[2] * x
    y[:-1] += ab[1, 1:] * x[1:]
    y[1:] += ab[1, 1:] * x[:-1]
    y[:-2] += ab[0, 2:] * x[2:]
    y[2:] += ab[0, 2:] * x[:-2]
    return y


def newton_neumann(curve0, zbar, lateral, f, cfg, truth=None,
                   endpoint_values=None):
    """Recover the curve under a homogeneous Neumann interface condition.

    The update minimizes the weighted least-squares misfit of the linearized
    interface equation plus (1/_RHO1) |delta'|^2 and an endpoint penalty _RHO2.
    When endpoint_values = (v0, vL) is given, the penalty pulls the curve
    endpoints toward these known heights; otherwise it pins the endpoint
    updates to zero (the starting endpoints are trusted).  The normal
    equations are pentadiagonal, and positive definite: the endpoint penalty
    removes the constants, the only null space of d/dx.  They are built as
    bands and solved by banded Cholesky, which treats a failure like a
    singular matrix.  u_x is zbar's x-derivative on the curve.  f is still
    checked as a scalar, a callable or grid samples; neither it nor lateral
    enters the step.
    """
    _samples_on_grid(f, curve0.x, "f")
    w = _trapezoid_weights(curve0.N, curve0.h)
    cols, grad = _gradient_rows(curve0.N, curve0.h)
    reg = _gram_bands(cols, grad, w)
    warned = False

    def step(curve, sample, zl, dnu, flag):
        nonlocal warned
        ux = np.gradient(zl, curve.h, edge_order=2) - curve.dell() * sample(curve.ell, 1)
        warned = warned or _warn_degenerate(zbar, ux, flag)
        rows = grad * ux[cols]  # d/dx [u_x delta], the linearized operator
        base = _gram_bands(cols, rows, w)
        rhs0 = np.bincount(cols.ravel(), (rows * (w * dnu)[:, None]).ravel(),
                           minlength=curve.N)
        rho1 = _RHO1
        for _ in range(4):
            K = base + (1.0 / rho1) * reg
            K[2, 0] += _RHO2
            K[2, -1] += _RHO2
            rhs = rhs0.copy()
            if endpoint_values is not None:
                rhs[0] += _RHO2 * (endpoint_values[0] - curve.ell[0])
                rhs[-1] += _RHO2 * (endpoint_values[1] - curve.ell[-1])
            try:
                cand = solveh_banded(K, rhs, check_finite=False)
            except np.linalg.LinAlgError:
                cand = None
            if cand is not None and np.all(np.isfinite(cand)):
                # normwise backward error of the solve
                fro = np.sqrt(np.sum(K[2] ** 2) + 2.0 * np.sum(K[:2] ** 2))
                back = np.linalg.norm(_band_matvec(K, cand) - rhs) / (
                    fro * np.linalg.norm(cand) + np.linalg.norm(rhs) + np.finfo(float).tiny)
                if back < 1e-8:
                    return cand, lambda d: np.gradient(ux * d, curve.h, edge_order=2)
            rho1 /= 10.0
            flag("near-singular least-squares system, smoothing weight raised "
                 "to 1/%.3g" % rho1)
        raise RuntimeError("curve-update least-squares system stayed "
                           "near-singular after 3 retries")

    return _sweep(curve0, zbar, cfg, truth, lambda curve, zl, dnu: dnu, step)


def _raw_gamma(gamma, curve):
    """Impedance samples and their x-derivative on the curve grid."""
    g = _samples_on_grid(gamma, curve.x, "gamma")
    if np.any(g <= 0):
        raise ValueError("impedance coefficient must be positive")
    return g, np.gradient(g, curve.h, edge_order=2)


def _impedance_coeffs(curve, gam, dgam, tr):
    """Coefficients (alpha, beta) of the linearized impedance condition
    d/dx[alpha * delta] + beta * delta = b.

    alpha uses the slope-quotient form with a straight-interface branch
    alpha = u_x wherever |ell'| is tiny.  The algebraically equivalent smooth
    form u_x - ell'/sq*gam*u is deliberately NOT used here: it vanishes
    exactly at lateral-Neumann endpoints (u_x = 0 on the wall, ell' = 0
    there), which makes the recovery ODE singular and the division by alpha
    blow up; the quotient keeps a nonzero discrete value at those nodes.
    """
    dl = curve.dell()
    d2l = curve.d2ell()
    sq = np.sqrt(1.0 + dl * dl)
    steep = np.abs(dl) > _SLOPE_TOL
    alpha = np.where(steep,
                     (gam / sq * tr.u + tr.u_y) / np.where(steep, dl, 1.0),
                     tr.u_x)
    beta = (d2l / sq ** 3 * gam + dl / sq * dgam + gam * gam) * tr.u
    return alpha, beta


def newton_impedance(curve0, gamma, zbar, lateral, f, cfg, truth=None):
    """Recover the curve under an impedance interface condition with known
    (raw, per-arclength) coefficient gamma."""
    x, h = curve0.x, curve0.h
    gam, dgam = _raw_gamma(gamma, curve0)
    interface = InterfaceBC("I", gamma=gam, combined=False)
    fv = _samples_on_grid(f, x, "f")

    def residual(curve, zl, dnu):
        return dnu + combined_impedance(gam, curve) * zl

    def step(curve, sample, zl, b, flag):
        tr = interface_traces(solve_forward(curve, lateral, interface, fv, M=_SWEEP_LEVELS))
        alpha, beta = _impedance_coeffs(curve, gam, dgam, tr)
        floor = _ALPHA_FLOOR * max(1.0, float(np.max(np.abs(alpha))))
        ok = np.abs(alpha) > floor
        a = np.where(ok, beta / np.where(ok, alpha, 1.0), 0.0)
        A = cumulative_trapezoid(a, x, initial=0.0)
        A -= A.min()
        overflow = bool(A.max() > _EXP_RANGE)
        if overflow:
            A = np.clip(A, 0.0, _EXP_RANGE)
            flag("integrating factor overflowed, update halved")
        grow = np.exp(A)
        phi = (1.0 / grow) * cumulative_trapezoid(b * grow, x, initial=0.0)
        dl = np.where(ok, phi / np.where(ok, alpha, 1.0), 0.0)
        if not ok[0]:
            # degenerate left endpoint (lateral Neumann): l'Hospital limit
            dalpha = np.gradient(alpha, h, edge_order=2)
            den = dalpha[0] + beta[0]
            dl[0] = b[0] / den if abs(den) > floor else 0.0
        dl[~np.isfinite(dl)] = 0.0
        if not ok.all():
            flag("linearization coefficient below floor at %d points, update "
                 "damped there" % int(curve.N - ok.sum()))
        if overflow:
            dl = 0.5 * dl
        return dl, lambda d: np.gradient(alpha * d, h, edge_order=2) + beta * d

    return _sweep(curve0, zbar, cfg, truth, residual, step)


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
        rhs = np.gradient(dl * tr.u_x, h, edge_order=2)
    else:
        dl_c = curve.dell()
        sq = np.sqrt(1.0 + dl_c ** 2)
        gam = _samples_on_grid(interface.gamma, x, "gamma")
        if interface.combined:
            gam = gam / sq
        # shape derivative of the impedance condition in primitive form:
        # dl' * (u_x - ell'/sq * gamma * u) - dl * (u_yy - ell' u_xy + sq gamma u_y)
        alpha = tr.u_x - dl_c / sq * gam * tr.u
        ddl = np.gradient(dl, h, edge_order=2)
        rhs = ddl * alpha - dl * (tr.u_yy - dl_c * tr.u_xy + sq * gam * tr.u_y)
    return bottom_flux(op.solve(np.zeros_like(fv), interface_rhs=rhs))
