"""Newton-type recovery of a free interface curve from lower-boundary Cauchy data.

The unknown is a curve y = ell(x) bounding a strip from above.  The field u is
harmonic below the curve, carries Dirichlet data f at y = 0, homogeneous
lateral conditions, and satisfies a homogeneous condition on the curve itself
(Dirichlet, Neumann, or impedance).  The measured flux g at y = 0 enters
through the hold-all continuation `zbar`, which is computed once from (f, g)
and frozen; each Newton sweep then alternates

    1. solve the well-posed mixed problem at the current curve,
    2. linearize the interface condition around the current curve,
    3. solve the linearized equation for the curve update,
    4. smooth the update (low cosine modes), safeguard it, apply it.

The linearized equations differ per interface kind:

* Dirichlet: pointwise update  delta = -zbar(x, ell) / u_y(x, ell).
* Neumann: regularized least squares for delta from
      d/dx [delta * u_x(x, ell)] = conormal derivative of zbar on the curve,
  with an H1-type smoothness weight (1/rho1) and an endpoint penalty rho2.
* Impedance: a first-order linear ODE for phi = alpha * delta,
      phi' + (beta/alpha) phi = b,
  integrated by the integrating-factor formula with trapezoid quadrature;
  the degenerate endpoint (alpha -> 0 under lateral Neumann conditions) is
  handled by the l'Hospital limit delta(0) = b(0) / (alpha'(0) + beta(0)).

Every update is projected onto a few low cosine modes (mild ill-posedness of
the curve problem), halved until it is small against the current curve height
(keeps ell > 0), and clamped into a configured corridor.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .elliptic import (Curve, InterfaceBC, _samples_on_grid, bottom_flux,
                       eval_on_curve, interface_traces, solve_forward)
from .spectral import _trapezoid_weights

__all__ = [
    "NewtonConfig",
    "RecoveryTrace",
    "newton_dirichlet",
    "newton_neumann",
    "newton_impedance",
    "linearized_flux",
    "curve_conormal",
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


@dataclass(frozen=True)
class NewtonConfig:
    """Knobs shared by the three curve solvers.

    clamp is the admissible corridor (ell_min, ell_max) for the iterates; when
    None it defaults to (0.01 * olell, olell) of the starting curve.  rho1
    weighs the H1 smoothness term 1/rho1 * int |delta'|^2 of the Neumann
    least-squares step, rho2 the endpoint penalty.  Updates are projected onto
    the first smooth_modes cosine modes before being applied.
    """

    max_iter: int = 10
    rho1: float = 1e3
    rho2: float = 1e6
    stop_tol: float = 1e-4
    clamp: tuple = None
    smooth_modes: int = 8

    def __post_init__(self):
        if int(self.max_iter) < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.rho1 > 0:
            raise ValueError("rho1 must be positive")
        if self.rho2 < 0:
            raise ValueError("rho2 must be nonnegative")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")
        if int(self.smooth_modes) < 1:
            raise ValueError("smooth_modes must be at least 1")
        if self.clamp is not None:
            lo, hi = self.clamp
            if not (0.0 < lo < hi):
                raise ValueError("clamp must satisfy 0 < ell_min < ell_max")


@dataclass
class RecoveryTrace:
    """Log of one Newton sweep.

    iterates[0] is the starting curve; residual_norms and rel_errors line up
    with iterates, step_residuals has one entry per executed step (the
    weighted-L2 misfit of the smoothed update in the linearized interface
    equation, before trust-region safeguarding).  rel_errors is None when no
    truth curve was supplied.
    """

    iterates: list
    residual_norms: list
    step_residuals: list
    rel_errors: list
    flags: list
    converged: bool

    def rows(self):
        """(iter, residual, relerr) tuples for CSV dumps; relerr is nan
        when no truth was supplied."""
        out = []
        for k in range(len(self.iterates)):
            re = self.rel_errors[k] if self.rel_errors is not None else float("nan")
            out.append((k, self.residual_norms[k], re))
        return out


def _wnorm(v, w):
    return float(np.sqrt(np.sum(w * v * v)))


def _cos_tables(x, L, modes):
    """Rows k < modes of cos(k pi x / L) and their exact derivatives."""
    k = np.arange(int(modes)) * np.pi / L
    ph = np.cos(np.outer(k, x))
    dph = -k[:, None] * np.sin(np.outer(k, x))
    return ph, dph


def _cos_coeffs(values, x, L, modes):
    """Trapezoid-weighted least-squares cosine coefficients of grid samples."""
    ph, _ = _cos_tables(x, L, modes)
    w = _trapezoid_weights(x.size, x[1] - x[0])
    return (ph * (w * values)).sum(axis=1) / (ph * ph * w).sum(axis=1)


def project_cosine(values, L, modes):
    """Project grid samples on [0, L] onto span{cos(k pi x / L), k < modes}."""
    values = np.asarray(values, dtype=float)
    x = np.linspace(0.0, L, values.size)
    return _cos_coeffs(values, x, L, modes) @ _cos_tables(x, L, modes)[0]


def _gradient_matrix(n, h):
    """Dense d/dx matrix: centered interior, one-sided second-order ends."""
    G = np.zeros((n, n))
    idx = np.arange(1, n - 1)
    G[idx, idx - 1] = -0.5 / h
    G[idx, idx + 1] = 0.5 / h
    G[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    G[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    return G


def curve_conormal(zbar, ell):
    """Trace of zbar and its conormal derivative along y = ell(x).

    Returns (on_curve, conormal) where conormal = (1 + ell'^2) d_y zbar
    - ell' * d/dx [zbar(x, ell(x))]; this equals the (unnormalized) normal
    derivative zbar_y - ell' zbar_x on the curve.
    """
    ell = np.asarray(ell, dtype=float)
    h = zbar.curve.h
    zl = eval_on_curve(zbar, ell)
    zy = eval_on_curve(zbar, ell, dy=1)
    dl = np.gradient(ell, h, edge_order=2)
    dzl = np.gradient(zl, h, edge_order=2)
    return zl, (1.0 + dl * dl) * zy - dl * dzl


def _clamp_bounds(cfg, olell):
    if cfg.clamp is None:
        return 0.01 * olell, olell
    lo, hi = float(cfg.clamp[0]), float(cfg.clamp[1])
    if hi > olell * (1 + 1e-12):
        raise ValueError("clamp upper bound exceeds the hold-all height")
    return lo, hi


def _truth_samples(truth, n):
    if truth is None:
        return None
    if isinstance(truth, Curve):
        truth = truth.ell
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (n,):
        raise ValueError("truth curve must be sampled on the solver grid")
    return truth


def _trust_clamp(ell, dl, lo, hi):
    """Halve dl until it is small against the current curve, then clamp."""
    cap = 0.5 * float(np.min(ell))
    nh = 0
    while float(np.max(np.abs(dl))) > cap and nh < 64:
        dl = 0.5 * dl
        nh += 1
    return np.clip(ell + dl, lo, hi), nh


class _SweepLog:
    """Accumulates the per-iteration bookkeeping shared by the solvers."""

    def __init__(self, curve0, w, truth):
        self.w = w
        self.truth = truth
        self.iterates = [curve0]
        self.residual_norms = []
        self.step_residuals = []
        self.rel_errors = None if truth is None else [self._relerr(curve0.ell)]
        self.flags = []
        self.converged = False

    def _relerr(self, ell):
        return _wnorm(ell - self.truth, self.w) / _wnorm(self.truth, self.w)

    def accept(self, curve, step_residual):
        prev = self.iterates[-1].ell
        self.iterates.append(curve)
        self.step_residuals.append(step_residual)
        if self.rel_errors is not None:
            self.rel_errors.append(self._relerr(curve.ell))
        denom = max(_wnorm(prev, self.w), np.finfo(float).tiny)
        return _wnorm(curve.ell - prev, self.w) / denom

    def trace(self):
        return RecoveryTrace(self.iterates, self.residual_norms,
                             self.step_residuals, self.rel_errors,
                             self.flags, self.converged)


def newton_dirichlet(curve0, zbar, lateral, f, cfg, truth=None):
    """Recover the curve under a homogeneous Dirichlet interface condition."""
    n, h, L = curve0.N, curve0.h, curve0.L
    x = curve0.x
    w = _trapezoid_weights(n, h)
    fv = _samples_on_grid(f, x, "f")
    lo, hi = _clamp_bounds(cfg, curve0.olell)
    log = _SweepLog(curve0, w, _truth_samples(truth, n))

    ell = curve0.ell.copy()
    for k in range(cfg.max_iter):
        curve = Curve(ell, L, curve0.olell)
        u = solve_forward(curve, lateral, InterfaceBC("D"), fv)
        tr = interface_traces(u)
        zl, _ = curve_conormal(zbar, ell)
        log.residual_norms.append(_wnorm(zl, w))

        uy = tr.u_y
        floor = _FLUX_FLOOR * max(1.0, float(np.max(np.abs(uy))))
        ok = np.abs(uy) > floor
        if not ok.all():
            log.flags.append("iter %d: normal flux below floor at %d points, "
                             "update damped there" % (k, int(n - ok.sum())))
        dl = np.where(ok, -zl / np.where(ok, uy, 1.0), 0.0)
        dl_sm = project_cosine(dl, L, cfg.smooth_modes)
        step_res = _wnorm(zl + dl_sm * uy, w)
        ell, _ = _trust_clamp(ell, dl_sm, lo, hi)
        relstep = log.accept(Curve(ell, L, curve0.olell), step_res)
        if relstep < cfg.stop_tol:
            log.converged = True
            break

    zl, _ = curve_conormal(zbar, ell)
    log.residual_norms.append(_wnorm(zl, w))
    return log.trace()


def _warn_degenerate(u_field, u_x_curve, log, k):
    scale = max(1.0, float(np.max(np.abs(u_field.values))) / u_field.curve.L)
    frac = float(np.mean(np.abs(u_x_curve) < _DEGENERATE_TOL * scale))
    if frac >= _DEGENERATE_FRACTION:
        log.flags.append("iter %d: tangential derivative degenerate on %.0f%% "
                         "of the interface" % (k, 100 * frac))
        warnings.warn(
            "tangential derivative of the field nearly vanishes on %.0f%% of "
            "the interface: the curve update is nonunique there (constant "
            "curve shifts are indistinguishable)" % (100 * frac))
        return True
    return False


def newton_neumann(curve0, zbar, lateral, f, cfg, truth=None,
                   endpoint_values=None):
    """Recover the curve under a homogeneous Neumann interface condition.

    The update minimizes the weighted least-squares misfit of the linearized
    interface equation plus (1/rho1) |delta'|^2 and an endpoint penalty rho2.
    When endpoint_values = (v0, vL) is given, the penalty pulls the curve
    endpoints toward these known heights; otherwise it pins the endpoint
    updates to zero (the starting endpoints are trusted).
    """
    n, h, L = curve0.N, curve0.h, curve0.L
    x = curve0.x
    w = _trapezoid_weights(n, h)
    fv = _samples_on_grid(f, x, "f")
    lo, hi = _clamp_bounds(cfg, curve0.olell)
    log = _SweepLog(curve0, w, _truth_samples(truth, n))
    G = _gradient_matrix(n, h)
    reg = G.T @ (w[:, None] * G)
    warned = False

    ell = curve0.ell.copy()
    for k in range(cfg.max_iter):
        curve = Curve(ell, L, curve0.olell)
        u = solve_forward(curve, lateral, InterfaceBC("N"), fv)
        tr = interface_traces(u)
        zl, dnu = curve_conormal(zbar, ell)
        log.residual_norms.append(_wnorm(dnu, w))
        if not warned:
            warned = _warn_degenerate(u, tr.u_x, log, k)

        M = G * tr.u_x[None, :]
        base = M.T @ (w[:, None] * M)
        rhs0 = M.T @ (w * dnu)
        dl = None
        rho1 = cfg.rho1
        for attempt in range(4):
            K = base + (1.0 / rho1) * reg
            rhs = rhs0.copy()
            if cfg.rho2 > 0:
                K = K.copy()
                K[0, 0] += cfg.rho2
                K[-1, -1] += cfg.rho2
                if endpoint_values is not None:
                    rhs[0] += cfg.rho2 * (endpoint_values[0] - ell[0])
                    rhs[-1] += cfg.rho2 * (endpoint_values[1] - ell[-1])
            try:
                cand = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                cand = None
            if cand is not None and np.all(np.isfinite(cand)):
                # normwise backward error of the solve
                back = np.linalg.norm(K @ cand - rhs) / (
                    np.linalg.norm(K, ord="fro") * np.linalg.norm(cand)
                    + np.linalg.norm(rhs) + np.finfo(float).tiny)
                if back < 1e-8:
                    dl = cand
                    break
            rho1 /= 10.0
            log.flags.append("iter %d: near-singular least-squares system, "
                             "smoothing weight raised to 1/%.3g" % (k, rho1))
        if dl is None:
            raise RuntimeError("curve-update least-squares system stayed "
                               "near-singular after 3 retries")

        dl_sm = project_cosine(dl, L, cfg.smooth_modes)
        step_res = _wnorm(dnu - M @ dl_sm, w)
        ell, _ = _trust_clamp(ell, dl_sm, lo, hi)
        relstep = log.accept(Curve(ell, L, curve0.olell), step_res)
        if relstep < cfg.stop_tol:
            log.converged = True
            break

    _, dnu = curve_conormal(zbar, ell)
    log.residual_norms.append(_wnorm(dnu, w))
    return log.trace()


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
    n, h, L = curve0.N, curve0.h, curve0.L
    x = curve0.x
    w = _trapezoid_weights(n, h)
    fv = _samples_on_grid(f, x, "f")
    lo, hi = _clamp_bounds(cfg, curve0.olell)
    log = _SweepLog(curve0, w, _truth_samples(truth, n))

    ell = curve0.ell.copy()
    for k in range(cfg.max_iter):
        curve = Curve(ell, L, curve0.olell)
        gam, dgam = _raw_gamma(gamma, curve)
        u = solve_forward(curve, lateral,
                          InterfaceBC("I", gamma=gam, combined=False), fv)
        tr = interface_traces(u)
        zl, dnu = curve_conormal(zbar, ell)
        dl_c = curve.dell()
        sq = np.sqrt(1.0 + dl_c * dl_c)
        b = dnu + sq * gam * zl
        log.residual_norms.append(_wnorm(b, w))

        alpha, beta = _impedance_coeffs(curve, gam, dgam, tr)
        floor = _ALPHA_FLOOR * max(1.0, float(np.max(np.abs(alpha))))
        ok = np.abs(alpha) > floor
        a = np.where(ok, beta / np.where(ok, alpha, 1.0), 0.0)
        A = cumulative_trapezoid(a, x, initial=0.0)
        A -= A.min()
        overflow = bool(A.max() > _EXP_RANGE)
        if overflow:
            A = np.clip(A, 0.0, _EXP_RANGE)
            log.flags.append("iter %d: integrating factor overflowed, "
                             "update halved" % k)
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
            log.flags.append("iter %d: linearization coefficient below floor "
                             "at %d points, update damped there"
                             % (k, int(n - ok.sum())))

        dl_sm = project_cosine(dl, L, cfg.smooth_modes)
        if overflow:
            dl_sm = 0.5 * dl_sm
        dl_grad = np.gradient(alpha * dl_sm, h, edge_order=2)
        step_res = _wnorm(dl_grad + beta * dl_sm - b, w)
        ell, _ = _trust_clamp(ell, dl_sm, lo, hi)
        relstep = log.accept(Curve(ell, L, curve0.olell), step_res)
        if relstep < cfg.stop_tol:
            log.converged = True
            break

    curve = Curve(ell, L, curve0.olell)
    gam, _ = _raw_gamma(gamma, curve)
    zl, dnu = curve_conormal(zbar, ell)
    dl_c = curve.dell()
    log.residual_norms.append(_wnorm(dnu + np.sqrt(1.0 + dl_c ** 2) * gam * zl, w))
    return log.trace()


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
    u = solve_forward(curve, lateral, interface, fv)
    tr = interface_traces(u)
    zero = np.zeros_like(fv)
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
    v = solve_forward(curve, lateral, interface, zero, interface_rhs=rhs)
    return bottom_flux(v)
