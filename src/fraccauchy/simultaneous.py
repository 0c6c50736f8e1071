"""Joint recovery of the interface curve and its impedance coefficient from
two Cauchy pairs.

A single excitation cannot separate the curve y = ell(x) from the impedance
gamma(x) on it: both enter the interface condition

    B u = u_y - ell' u_x + gamma u = 0     on y = ell(x),

where gamma is the combined coefficient sqrt(1 + ell'^2) * (raw impedance).
Two independently excited fields u_1, u_2 do separate them wherever their
trace Wronskian u1_x u2 - u2_x u1 does not vanish.  This module provides

  * ``frozen_newton`` -- the reconstruction: a regularized Newton iteration
    on the aggregate residual (bottom data fit and interface condition) with
    the Jacobian assembled once at the starting state, a geometric
    regularization schedule stopped by the discrepancy rule, and a penalty
    enforcing that the two impedance copies agree and that the curve
    endpoint matches its known value;
  * ``joint_newton_step`` -- one linearized step on given fields: the shape
    derivative of the interface condition for both fields is collocated on
    the curve and solved for the pair (curve increment, impedance increment)
    in a regularized least-squares sense over low cosine modes;
  * ``wronskian`` / ``range_invariance_residual`` / ``stacked_singular_values``
    -- diagnostics for the solvability assumptions behind the iteration.

Fields are represented separably: u = sum_i (a_i P+_i(y) + b_i P-_i(y))
phi_i(x) over the lateral eigenbasis, with growing/decaying profile pairs.
Such fields satisfy the interior equation and the lateral condition exactly,
so the Newton residual reduces to the bottom-data misfit and the interface
condition.  The factored fractional scheme (``fac_lap``) may replace the
growing profile by the reciprocal Mittag-Leffler kernel, evaluated in one
batched call per order over the whole (mode x height) grid.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .elliptic import (
    Curve,
    InterfaceTraces,
    MeshField,
    _curve_sampler,
    _samples_on_grid,
    interface_traces,
)
from .freeboundary import _cos_coeffs, _cos_tables, curve_conormal
from .specfun import ml_values
from .spectral import _trapezoid_weights, analyze

__all__ = [
    "JointState",
    "PenaltyOp",
    "FrozenNewtonConfig",
    "JointTrace",
    "wronskian",
    "joint_newton_step",
    "range_invariance_residual",
    "frozen_newton",
    "stacked_singular_values",
]

# relative floor below which the two excitations no longer separate curve
# and impedance (their trace Wronskian has cancelled to roundoff)
_W_FLOOR = 1e-8
_DEN_FLOOR = 1e-8
_EXP_RANGE = 300.0
_DIVERGENCE_FACTOR = 10.0


def _mode_derivatives(basis):
    """Exact x-derivatives of the basis rows.

    The stored modes are (re)normalized combinations of the closed-form
    eigenfamily for their boundary condition; the combination is refitted
    here and differentiated analytically, which stays accurate for high
    modes where divided differences would not.
    """
    k = np.sqrt(basis.lambdas)
    x = basis.grid
    kind = basis.bc.kind
    kx = np.outer(k, x)
    if kind == "dirichlet":
        raw = np.sin(kx)
        draw = k[:, None] * np.cos(kx)
    elif kind == "neumann":
        raw = np.cos(kx)
        draw = -k[:, None] * np.sin(kx)
    else:
        sig = basis.bc.robin_coeff
        raw = np.cos(kx) + (sig / k)[:, None] * np.sin(kx)
        draw = -k[:, None] * np.sin(kx) + sig * np.cos(kx)
    w = basis.weights
    gram = (raw * w) @ raw.T
    mix = np.linalg.solve(gram, (raw * w) @ basis.modes.T).T
    if float(np.max(np.abs(mix @ raw - basis.modes))) > 1e-8:
        raise RuntimeError("basis rows do not span the closed-form eigenfamily")
    return mix @ draw


# ----------------------------------------------------------------------
# state containers


@dataclass
class JointState:
    """Two fields, one curve, and one impedance copy per field.

    The impedance entries hold the combined coefficient (arc-length factor
    folded in) sampled on the curve's x-grid; scalars and callables are
    broadcast.  The two copies coincide for reduced states and are tied
    together by the penalty in the aggregate iteration.
    """

    u1: MeshField
    u2: MeshField
    ell: Curve
    gam1: np.ndarray
    gam2: np.ndarray

    def __post_init__(self):
        x = self.ell.x
        self.gam1 = _samples_on_grid(self.gam1, x, "gam1")
        self.gam2 = _samples_on_grid(self.gam2, x, "gam2")
        for name, g in (("gam1", self.gam1), ("gam2", self.gam2)):
            if np.any(~np.isfinite(g)) or np.any(g <= 0.0):
                raise ValueError("%s must be positive and finite" % name)
        if np.any(self.ell.ell >= self.ell.olell):
            raise ValueError("curve must stay strictly below the hold-all height")
        for name, u in (("u1", self.u1), ("u2", self.u2)):
            if u.curve.N != self.ell.N or abs(u.curve.L - self.ell.L) > 1e-12 * self.ell.L:
                raise ValueError("%s does not share the curve's x-grid" % name)


@dataclass(frozen=True)
class PenaltyOp:
    """Penalized quantities: the gap between the two impedance copies and
    the mismatch of the curve's left endpoint against its known value."""

    ell0_endpoint: float

    def __post_init__(self):
        if not math.isfinite(self.ell0_endpoint):
            raise ValueError("known endpoint value must be finite")


@dataclass(frozen=True)
class FrozenNewtonConfig:
    """Knobs of the aggregate Newton iteration.

    ``alpha0`` and ``theta`` define the geometric regularization schedule
    alpha_n = alpha0 * theta^n; the iteration stops at the first n >= 1 with
    alpha_n <= (tau * delta)^2 (delta = relative data noise) or at
    ``max_iter``.  ``weights`` scales the three blocks of the state norm
    (field coefficients, curve, impedance).  ``modes_ell`` / ``modes_gam``
    are the cosine-mode counts of the curve and impedance unknowns.
    ``scheme`` optionally replaces the growing field profile and the
    bottom-data coupling by their fractional-continuation counterparts.
    """

    alpha0: float = 1e-2
    theta: float = 0.6
    tau: float = 1.5
    max_iter: int = 25
    weights: tuple = (1.0, 1.0, 1.0)
    modes_ell: int = 8
    modes_gam: int = 8
    scheme: object = None

    def __post_init__(self):
        if not (self.alpha0 > 0.0 and math.isfinite(self.alpha0)):
            raise ValueError("alpha0 must be positive")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not self.tau > 1.0:
            raise ValueError("tau must exceed 1")
        if int(self.max_iter) < 1:
            raise ValueError("max_iter must be at least 1")
        if len(self.weights) != 3 or any(not w > 0.0 for w in self.weights):
            raise ValueError("weights must be three positive numbers")
        if int(self.modes_ell) < 1 or int(self.modes_gam) < 1:
            raise ValueError("mode counts must be at least 1")
        if self.scheme is not None and self.scheme.kind != "fac_lap":
            raise ValueError("only the factored fractional scheme can replace the data-side operator")


@dataclass
class JointTrace:
    """Per-iteration bookkeeping of ``frozen_newton``.

    Row n describes the iterate after n steps; ``alphas[n]`` is the
    regularization weight used for the step leaving that iterate (the last
    entry is the weight the next step would have used).  Relative errors are
    NaN when no truth was supplied.  ``gam_gap`` tracks how far apart the
    two impedance copies have drifted.
    """

    ns: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    rel_ell: list = field(default_factory=list)
    rel_gam: list = field(default_factory=list)
    gam_gap: list = field(default_factory=list)
    flags: list = field(default_factory=list)


# ----------------------------------------------------------------------
# curve traces


def _traces_on(fld, curve):
    """First- and second-order physical traces of a field along a curve.

    Fields fitted to the very curve are traced with the one-sided mesh
    stencils; covering fields (hold-all continuations) are interpolated with
    the column splines and differentiated along the curve by the chain rule.
    """
    if fld.curve.N == curve.N and np.allclose(fld.curve.ell, curve.ell, rtol=1e-12, atol=1e-14):
        return interface_traces(fld)
    ell = curve.ell
    if np.any(ell > fld.curve.ell * (1.0 + 1e-12)):
        raise ValueError("curve leaves the field's mesh; trace it on a covering field")
    sample = _curve_sampler(fld)
    u = sample(ell)
    uy = sample(ell, dy=1)
    uyy = sample(ell, dy=2)
    h = curve.h
    dl = curve.dell()
    ux = np.gradient(u, h, edge_order=2) - dl * uy
    uxy = np.gradient(uy, h, edge_order=2) - dl * uyy
    return InterfaceTraces(x=curve.x, u=u, u_x=ux, u_y=uy, u_yy=uyy, u_xy=uxy)


def wronskian(u1, u2, curve):
    """Pointwise trace Wronskian u1_x u2 - u2_x u1 along the curve.

    Both parameters of the interface condition are recoverable only where
    this does not vanish; the recovery drivers check min |W| before trusting
    a joint step.
    """
    t1 = _traces_on(u1, curve)
    t2 = _traces_on(u2, curve)
    return t1.u_x * t2.u - t2.u_x * t1.u


def _degenerate_interval(w, scale, x):
    """Longest x-interval where |w| sits below the cancellation floor, if it
    covers most of the domain; None otherwise."""
    mask = np.abs(w) <= _W_FLOOR * max(scale, 1e-300)
    if mask.mean() <= 0.5:
        return None
    runs = np.flatnonzero(np.diff(np.concatenate(([0], mask.view(np.int8), [0]))))
    starts, ends = runs[::2], runs[1::2]
    i = int(np.argmax(ends - starts))
    return x[starts[i]], x[ends[i] - 1]


# ----------------------------------------------------------------------
# per-step linearized system


def _shape_term(tr, dl, gam):
    """Coefficient of the curve increment in the linearized interface
    condition: u_yy - ell' u_xy + gam u_y on the curve."""
    return tr.u_yy - dl * tr.u_xy + gam * tr.u_y


def _interface_rhs(state, zbar, gam):
    """Interface residual B zbar = conormal + gam * trace of a continued
    field along the current curve."""
    zl, dn = curve_conormal(zbar, state.ell.ell)
    return dn + gam * zl


def joint_newton_step(state, zbar1, zbar2, reg=None, modes_ell=8, modes_gam=8):
    """One linearized step for the pair (curve, impedance).

    The shape derivative of the interface condition for both fields is
    collocated on the curve grid and solved for the increments in a
    Tikhonov-regularized least-squares sense, the curve increment expanded
    in ``modes_ell`` cosine modes (differentiated exactly) and the impedance
    increment in ``modes_gam`` modes.  ``reg`` defaults to 1e-6 times the
    norm of the normal matrix.  Both increments are additive.

    Raises ValueError when the two excitations are degenerate (their trace
    Wronskian cancels over most of the interval), since the system then no
    longer determines the impedance direction.
    """
    x = state.ell.x
    L = state.ell.L
    dl_c = state.ell.dell()
    tr1 = _traces_on(state.u1, state.ell)
    tr2 = _traces_on(state.u2, state.ell)

    w = tr1.u_x * tr2.u - tr2.u_x * tr1.u
    scale = float(np.max(np.abs(tr1.u_x * tr2.u)) + np.max(np.abs(tr2.u_x * tr1.u)))
    bad = _degenerate_interval(w, scale, x)
    if bad is not None:
        raise ValueError(
            "excitation pair is degenerate on [%.4f, %.4f]: the trace "
            "Wronskian vanishes, so curve and impedance cannot be separated" % bad
        )

    ph_l, dph_l = _cos_tables(x, L, modes_ell)
    ph_g, _ = _cos_tables(x, L, modes_gam)
    wq = np.sqrt(_trapezoid_weights(x.size, x[1] - x[0]))

    blocks = []
    rhs = []
    for tr, gam, zbar in ((tr1, state.gam1, zbar1), (tr2, state.gam2, zbar2)):
        q = _shape_term(tr, dl_c, gam)
        cols_l = -q[None, :] * ph_l + tr.u_x[None, :] * dph_l
        cols_g = -tr.u[None, :] * ph_g
        blocks.append(wq[None, :] * np.vstack([cols_l, cols_g]))
        rhs.append(wq * _interface_rhs(state, zbar, gam))
    A = np.vstack([b.T for b in blocks])
    b = np.concatenate(rhs)

    M = A.T @ A
    if reg is None:
        reg = 1e-6 * float(np.linalg.norm(M, 2))
    coef = np.linalg.solve(M + reg * np.eye(M.shape[0]), A.T @ b)
    return coef[:modes_ell] @ ph_l, coef[modes_ell:] @ ph_g


# ----------------------------------------------------------------------
# range-invariance diagnostic


def range_invariance_residual(xi, xi0):
    """Norm of the defect between the state transporter and the shifted
    identity.

    The aggregate-residual linearization admits a transported state r(xi)
    with F(xi) - F(xi0) = F'(xi0) r(xi); its field and curve components are
    plain shifts, and the impedance components differ from shifts by a
    quadratic remainder.  This evaluates that remainder's L2 norm, so for
    xi -> xi0 along a smooth path the value decays quadratically -- the
    empirical check behind freezing the Jacobian at xi0.

    The fields of ``xi`` must cover both curves (hold-all meshes in
    practice) and the reference traces must stay away from zero.
    """
    if xi.ell.N != xi0.ell.N or abs(xi.ell.L - xi0.ell.L) > 1e-12 * xi0.ell.L:
        raise ValueError("states live on different grids")
    x = xi0.ell.x
    w = _trapezoid_weights(x.size, x[1] - x[0])
    dl = xi.ell.ell - xi0.ell.ell
    ddl = xi.ell.dell() - xi0.ell.dell()
    dl0_c = xi0.ell.dell()
    dl_c = xi.ell.dell()

    total = 0.0
    pairs = (
        (xi.u1, xi.gam1, xi0.u1, xi0.gam1),
        (xi.u2, xi.gam2, xi0.u2, xi0.gam2),
    )
    for u, gam, u0, gam0 in pairs:
        t0 = _traces_on(u0, xi0.ell)
        den = t0.u
        if np.any(np.abs(den) < _DEN_FLOOR * max(1.0, float(np.max(np.abs(den))))):
            raise ValueError("reference trace passes through zero; transporter undefined")
        tn = _traces_on(u, xi.ell)
        tb = _traces_on(u, xi0.ell)
        q0 = _shape_term(t0, dl0_c, gam0)
        bracket = (tn.u_y - dl_c * tn.u_x + gam * tn.u) - (
            tb.u_y - dl0_c * tb.u_x + gam0 * tb.u
        )
        r_gam = (-q0 * dl + ddl * t0.u_x + bracket) / den
        defect = r_gam - (gam - gam0)
        total += float(np.sum(w * defect ** 2))
    return math.sqrt(total)


# ----------------------------------------------------------------------
# separable field representation for the aggregate iteration


class _SpanBasis:
    """Separable harmonic fields over the lateral eigenbasis.

    u = sum_i (a_i P+_i(y) + b_i P-_i(y)) phi_i(x) with P± = exp(±k_i y)
    (for k_i = 0: 1 ± y), or, under a fractional scheme, the growing profile
    replaced by the reciprocal Mittag-Leffler continuation kernel.  Every
    member satisfies the interior equation and the lateral condition
    exactly, so only bottom and interface residuals remain.
    """

    def __init__(self, basis, olell, scheme=None):
        self.basis = basis
        self.olell = float(olell)
        self.k = np.sqrt(basis.lambdas)
        self.keff = np.where(self.k > 0.0, self.k, 1.0)
        self.dmodes = _mode_derivatives(basis)
        self.scheme = scheme
        if float(np.max(self.k)) * self.olell > _EXP_RANGE:
            raise ValueError("mode growth exceeds the floating range; reduce the basis size")

    @property
    def J(self):
        return self.basis.J

    def _frac_plus(self, y, order):
        """Fractional growing profile 1 / E_{a,1}(-k y^a) on the (mode x
        height) grid and, for ``order`` >= 1, its y-derivative."""
        alpha = self.scheme.alpha
        if order >= 1 and np.any(y <= 0.0):
            raise ValueError("fractional profile derivatives need y > 0")
        z = -np.outer(self.k, np.maximum(y, 0.0) ** alpha)
        e1 = ml_values(alpha, 1.0, z)
        dpp = None
        if order >= 1:
            ea = ml_values(alpha, alpha, z)
            dpp = self.k[:, None] * y ** (alpha - 1.0) * ea / e1 ** 2
        return 1.0 / e1, dpp

    def profiles(self, y, order=0):
        """Profile values (and y-derivatives up to ``order``) at heights y.

        Returns (pp, pm, dpp, dpm, d2pp, d2pm), entries beyond ``order``
        None; shapes (J, y.size).
        """
        y = np.atleast_1d(np.asarray(y, dtype=float))
        grow = np.exp(np.outer(self.k, y))
        pm = 1.0 / grow
        dpm = d2pm = dpp = d2pp = None
        zero = self.k == 0.0
        if self.scheme is None:
            pp = grow.copy()
            if order >= 1:
                dpp = self.k[:, None] * grow
                dpm = -self.k[:, None] * pm
            if order >= 2:
                d2pp = self.k[:, None] ** 2 * grow
                d2pm = self.k[:, None] ** 2 * pm
        else:
            pp, dpp = self._frac_plus(y, order)
            if order >= 1:
                dpm = -self.k[:, None] * pm
            if order >= 2:
                # second derivative of the fractional profile by a central
                # difference; only Jacobian shape terms need it
                if float(np.min(y)) <= 0.0:
                    raise ValueError("fractional profile curvature needs y > 0")
                step = min(1e-4 * self.olell, 0.45 * float(np.min(y)))
                up, _ = self._frac_plus(y + step, 0)
                dn, _ = self._frac_plus(y - step, 0)
                d2pp = (up - 2.0 * pp + dn) / step ** 2
                d2pm = self.k[:, None] ** 2 * pm
        if zero.any():
            pp[zero] = 1.0 + y
            pm[zero] = 1.0 - y
            if order >= 1:
                dpp[zero] = 1.0
                dpm[zero] = -1.0
            if order >= 2:
                d2pp[zero] = 0.0
                d2pm[zero] = 0.0
        return pp, pm, dpp, dpm, d2pp, d2pm

    def traces(self, a, b, ell, dell, order=2):
        """Physical traces of the represented field along y = ell(x)."""
        pp, pm, dpp, dpm, d2pp, d2pm = self.profiles(ell, order=order)
        cy = a[:, None] * pp + b[:, None] * pm
        cdy = a[:, None] * dpp + b[:, None] * dpm
        ph = self.basis.modes
        dph = self.dmodes
        uyy = uxy = None
        if order >= 2:
            cd2y = a[:, None] * d2pp + b[:, None] * d2pm
            uyy = (cd2y * ph).sum(axis=0)
            uxy = (cdy * dph).sum(axis=0)
        return InterfaceTraces(
            x=self.basis.grid,
            u=(cy * ph).sum(axis=0),
            u_x=(cy * dph).sum(axis=0),
            u_y=(cdy * ph).sum(axis=0),
            u_yy=uyy,
            u_xy=uxy,
        )

    def bottom(self, a, b):
        """Bottom value and flux traces (classical profiles only)."""
        ph = self.basis.modes
        return ((a + b)[:, None] * ph).sum(axis=0), (
            (self.keff * (a - b))[:, None] * ph
        ).sum(axis=0)

    def field(self, a, b, lateral, levels=81):
        """Materialize the representation as a hold-all mesh field."""
        y = np.linspace(0.0, self.olell, levels)
        pp, pm, _, _, _, _ = self.profiles(y)
        vals = np.einsum("jm,jn->nm", a[:, None] * pp + b[:, None] * pm, self.basis.modes)
        curve = Curve(np.full(self.basis.N, self.olell), self.basis.L, self.olell)
        return MeshField(vals, curve, lateral, None, y / self.olell,
                         meta={"rep": "separable", "modes": self.J})

    def project(self, fld):
        """Span coefficients (a, b) fitted to a mesh field over flat levels.

        Matching only the bottom value/flux pair would copy any rough
        high-mode content of the flux straight into the growing
        coefficients, which then explode at the interface height; fitting
        the whole field keeps the coefficients at the size the field itself
        supports.
        """
        levels = np.linspace(0.0, float(np.min(fld.curve.ell)), 12)
        C = np.empty((self.J, levels.size))
        sample = _curve_sampler(fld)
        for m, yy in enumerate(levels):
            tracev = sample(np.full(self.basis.N, yy))
            C[:, m] = analyze(tracev, self.basis).c
        pp, pm = self.profiles(levels)[:2]
        a = np.empty(self.J)
        b = np.empty(self.J)
        for j in range(self.J):
            sol = np.linalg.lstsq(np.column_stack([pp[j], pm[j]]), C[j], rcond=None)[0]
            a[j], b[j] = sol
        return a, b


# ----------------------------------------------------------------------
# aggregate (all-at-once) frozen Newton iteration


class _FrozenSystem:
    """Discretized aggregate residual, its frozen Jacobian, and the norms."""

    def __init__(self, data, xi0, penalty, cfg):
        d1, d2 = data
        if d1.basis is not d2.basis and not (
            d1.basis.N == d2.basis.N and np.allclose(d1.basis.grid, d2.basis.grid)
        ):
            raise ValueError("the two data sets must share one basis")
        self.basis = d1.basis
        self.cfg = cfg
        self.penalty = penalty
        self.olell = xi0.ell.olell
        self.span = _SpanBasis(self.basis, self.olell, cfg.scheme)
        x = self.basis.grid
        self.x = x
        self.L = self.basis.L
        self.wq = _trapezoid_weights(x.size, x[1] - x[0])
        self.ph_l, self.dph_l = _cos_tables(x, self.L, cfg.modes_ell)
        self.ph_g, _ = _cos_tables(x, self.L, cfg.modes_gam)
        self.nl = cfg.modes_ell
        self.ng = cfg.modes_gam
        J = self.span.J
        self.nu = 2 * J
        self.npar = 4 * J + self.nl + 2 * self.ng
        self.slices = {
            "u1": slice(0, 2 * J),
            "u2": slice(2 * J, 4 * J),
            "ell": slice(4 * J, 4 * J + self.nl),
            "g1": slice(4 * J + self.nl, 4 * J + self.nl + self.ng),
            "g2": slice(4 * J + self.nl + self.ng, self.npar),
        }
        self.data = (d1, d2)
        if cfg.scheme is None:
            self.targets = [(d.f, d.g) for d in self.data]
        else:
            self.targets = []
            for d in self.data:
                fh, gh = d.coeffs()
                self.targets.append(
                    (0.5 * (fh + gh / self.span.keff), 0.5 * (fh - gh / self.span.keff))
                )
        self.xw = self._state_weights()

    # --- parameter vector helpers

    def pack(self, xi0):
        a1, b1 = self.span.project(xi0.u1)
        a2, b2 = self.span.project(xi0.u2)
        lh = _cos_coeffs(xi0.ell.ell, self.x, self.L, self.nl)
        g1 = _cos_coeffs(xi0.gam1, self.x, self.L, self.ng)
        g2 = _cos_coeffs(xi0.gam2, self.x, self.L, self.ng)
        return np.concatenate([a1, b1, a2, b2, lh, g1, g2])

    def unpack(self, v):
        J = self.span.J
        s = self.slices
        ab1 = v[s["u1"]]
        ab2 = v[s["u2"]]
        return (
            (ab1[:J], ab1[J:]),
            (ab2[:J], ab2[J:]),
            v[s["ell"]],
            v[s["g1"]],
            v[s["g2"]],
        )

    def curve_of(self, lh):
        ell = np.clip(lh @ self.ph_l, 1e-3 * self.olell, (1.0 - 1e-3) * self.olell)
        return ell, lh @ self.dph_l

    def _state_weights(self):
        cfg = self.cfg
        J = self.span.J
        wu = cfg.weights[0] * (1.0 + self.basis.lambdas) ** 1.5
        k_l = np.arange(self.nl) * math.pi / self.L
        mass = np.where(np.arange(self.nl) == 0, self.L, 0.5 * self.L)
        wl = cfg.weights[1] * (mass + k_l ** 2 * 0.5 * self.L * (np.arange(self.nl) > 0))
        wg = cfg.weights[2] * np.where(np.arange(self.ng) == 0, self.L, 0.5 * self.L)
        return np.concatenate([wu, wu, wu, wu, wl, wg, wg])

    # --- residual and Jacobian

    def residual(self, v):
        """Aggregate residual (data misfit first, interface last) and the
        row weights of the observation norm."""
        (a1, b1), (a2, b2), lh, g1h, g2h = self.unpack(v)
        ell, dell = self.curve_of(lh)
        res = []
        roww = []
        for (a, b), (tf, tg), gh in (((a1, b1), self.targets[0], g1h),
                                     ((a2, b2), self.targets[1], g2h)):
            if self.cfg.scheme is None:
                bv, bf = self.span.bottom(a, b)
                res.extend([tf - bv, tg - bf])
                roww.extend([self.wq, self.wq])
            else:
                res.extend([tf - a, tg - b])
                roww.extend([np.ones(a.size), np.ones(b.size)])
            tr = self.span.traces(a, b, ell, dell, order=1)
            gam = gh @ self.ph_g
            res.append(-(tr.u_y - dell * tr.u_x + gam * tr.u))
            roww.append(self.wq)
        return np.concatenate(res), np.concatenate(roww)

    def penalty_parts(self, v):
        """Linear penalty matrix rows, their weights, and current values."""
        _, _, lh, g1h, g2h = self.unpack(v)
        rows = np.zeros((self.x.size + 1, self.npar))
        s = self.slices
        rows[: self.x.size, s["g1"]] = self.ph_g.T
        rows[: self.x.size, s["g2"]] = -self.ph_g.T
        rows[-1, s["ell"]] = self.ph_l[:, 0]
        vals = np.concatenate([
            (g1h - g2h) @ self.ph_g,
            [lh @ self.ph_l[:, 0] - self.penalty.ell0_endpoint],
        ])
        pw = np.concatenate([self.wq, [1.0]])
        return rows, pw, vals

    def jacobian(self, v0):
        """Jacobian of the aggregate residual, frozen at the packed state v0."""
        (a1, b1), (a2, b2), lh, g1h, g2h = self.unpack(v0)
        ell, dell = self.curve_of(lh)
        J = self.span.J
        n = self.x.size
        pp, pm, dpp, dpm, _, _ = self.span.profiles(ell, order=1)
        ph = self.basis.modes
        dph = self.span.dmodes
        rows_per = (2 * n if self.cfg.scheme is None else 2 * J) + n
        K = np.zeros((2 * rows_per, self.npar))
        s = self.slices
        for blk, ((a, b), gh, su, sg) in enumerate(
            (((a1, b1), g1h, s["u1"], s["g1"]), ((a2, b2), g2h, s["u2"], s["g2"]))
        ):
            r0 = blk * rows_per
            gam = gh @ self.ph_g
            # data rows
            if self.cfg.scheme is None:
                K[r0 : r0 + n, su.start : su.start + J] = ph.T
                K[r0 : r0 + n, su.start + J : su.stop] = ph.T
                K[r0 + n : r0 + 2 * n, su.start : su.start + J] = (self.span.keff[:, None] * ph).T
                K[r0 + n : r0 + 2 * n, su.start + J : su.stop] = (
                    -self.span.keff[:, None] * ph
                ).T
                rb = r0 + 2 * n
            else:
                K[r0 : r0 + J, su.start : su.start + J] = np.eye(J)
                K[r0 + J : r0 + 2 * J, su.start + J : su.stop] = np.eye(J)
                rb = r0 + 2 * J
            # interface rows: directional derivative in the field ...
            K[rb : rb + n, su.start : su.start + J] = (
                dpp * ph - dell[None, :] * pp * dph + gam[None, :] * pp * ph
            ).T
            K[rb : rb + n, su.start + J : su.stop] = (
                dpm * ph - dell[None, :] * pm * dph + gam[None, :] * pm * ph
            ).T
            # ... in the curve and in the impedance
            tr = self.span.traces(a, b, ell, dell)
            q = _shape_term(tr, dell, gam)
            K[rb : rb + n, s["ell"]] = (q[None, :] * self.ph_l - tr.u_x[None, :] * self.dph_l).T
            K[rb : rb + n, sg] = (tr.u[None, :] * self.ph_g).T
        return K


def _relerr(v, target, w):
    num = float(np.sum(w * (v - target) ** 2))
    den = float(np.sum(w * target ** 2))
    return math.sqrt(num / den) if den > 0.0 else math.sqrt(num)


def frozen_newton(data, xi0, penalty, cfg=None, truth=None):
    """Aggregate Newton iteration with a frozen Jacobian and penalties.

    ``data`` is the pair of Cauchy data sets, ``xi0`` the starting state
    (typically forward solves at constant starting guesses built from the
    known boundary values), ``penalty`` the equality/endpoint penalty and
    ``cfg`` the schedule.  Each step solves the regularized normal system

        (K'K + P'P + alpha_n I) step = K'(residual) - P'P(state) +
                                       alpha_n (start - state)

    in the weighted state norm, with K assembled once at the start.  Stops
    at the first n >= 1 with alpha_n <= (tau * delta)^2, at ``max_iter``,
    or early (with a warning and a trace flag) when the residual grows
    tenfold above its initial value.

    ``truth`` may hold (curve samples, impedance samples) for error
    tracking.  Returns (final state, stopping index, trace); the final
    state's impedance copies are reported separately, their average is what
    the error column tracks.
    """
    cfg = FrozenNewtonConfig() if cfg is None else cfg
    sys = _FrozenSystem(data, xi0, penalty, cfg)
    delta = max(data[0].delta, data[1].delta)
    v0 = sys.pack(xi0)
    v = v0.copy()
    K = sys.jacobian(v0)
    prow, pw, _ = sys.penalty_parts(v0)

    trace = JointTrace()
    wx = sys.xw
    truth_l = truth_g = None
    if truth is not None:
        truth_l = _samples_on_grid(truth[0], sys.x, "truth[0]")
        truth_g = _samples_on_grid(truth[1], sys.x, "truth[1]")

    def log(n, alpha_n, resid):
        _, _, lh, g1h, g2h = sys.unpack(v)
        ell, _ = sys.curve_of(lh)
        gam = 0.5 * (g1h + g2h) @ sys.ph_g
        gap = _relerr(g1h @ sys.ph_g, g2h @ sys.ph_g, sys.wq)
        trace.ns.append(n)
        trace.alphas.append(alpha_n)
        trace.residuals.append(resid)
        trace.rel_ell.append(np.nan if truth_l is None else _relerr(ell, truth_l, sys.wq))
        trace.rel_gam.append(np.nan if truth_g is None else _relerr(gam, truth_g, sys.wq))
        trace.gam_gap.append(gap)

    r, rw = sys.residual(v)
    res0 = math.sqrt(float(np.sum(rw * r ** 2)))
    log(0, cfg.alpha0, res0)

    n_star = cfg.max_iter
    stop_tag = "max_iter"
    for n in range(cfg.max_iter):
        alpha_n = cfg.alpha0 * cfg.theta ** n
        if n >= 1 and delta > 0.0 and alpha_n <= (cfg.tau * delta) ** 2:
            n_star = n
            stop_tag = "discrepancy"
            break
        _, _, pval = sys.penalty_parts(v)
        M = (K.T * rw) @ K + (prow.T * pw) @ prow + alpha_n * np.diag(wx)
        rhs = (K.T * rw) @ r - (prow.T * pw) @ pval + alpha_n * wx * (v0 - v)
        try:
            step = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("normal system solve failed: %s" % (exc,))
        v = v + step
        r, rw = sys.residual(v)
        res_n = math.sqrt(float(np.sum(rw * r ** 2)))
        log(n + 1, cfg.alpha0 * cfg.theta ** (n + 1), res_n)
        if not math.isfinite(res_n) or res_n > _DIVERGENCE_FACTOR * res0:
            trace.flags.append("diverged")
            warnings.warn("joint recovery diverged (residual grew tenfold); aborting")
            n_star = n + 1
            stop_tag = "diverged"
            break

    alpha_ns = cfg.alpha0 * cfg.theta ** n_star
    alpha_prev = cfg.alpha0 * cfg.theta ** max(n_star - 1, 0)
    trace.flags.append(
        "stop=%s alpha_nstar=%.3e delta^2/alpha_prev=%.3e"
        % (stop_tag, alpha_ns, (delta ** 2 / alpha_prev) if alpha_prev > 0 else math.inf)
    )

    (a1, b1), (a2, b2), lh, g1h, g2h = sys.unpack(v)
    ell, _ = sys.curve_of(lh)
    lateral = sys.basis.bc
    gam1 = g1h @ sys.ph_g
    gam2 = g2h @ sys.ph_g
    floor = 1e-6 * max(1.0, float(np.max(np.abs(gam1))), float(np.max(np.abs(gam2))))
    if np.any(gam1 < floor) or np.any(gam2 < floor):
        trace.flags.append("impedance-clipped")
        gam1 = np.maximum(gam1, floor)
        gam2 = np.maximum(gam2, floor)
    xi = JointState(
        u1=sys.span.field(a1, b1, lateral),
        u2=sys.span.field(a2, b2, lateral),
        ell=Curve(ell, sys.L, sys.olell),
        gam1=gam1,
        gam2=gam2,
    )
    return xi, n_star, trace


def stacked_singular_values(data, xi0, penalty, cfg=None):
    """Extreme singular values of the stacked (Jacobian; penalty) matrix in
    the weighted norms.

    The joint recovery is well-posed at the linearized level only when the
    stacked operator has trivial nullspace; the smallest singular value
    quantifies that margin and the ratio to the largest one is the
    conditioning the regularization has to overcome.
    """
    cfg = FrozenNewtonConfig() if cfg is None else cfg
    sys = _FrozenSystem(data, xi0, penalty, cfg)
    v0 = sys.pack(xi0)
    K = sys.jacobian(v0)
    _, rw = sys.residual(v0)
    prow, pw, _ = sys.penalty_parts(v0)
    scaled = np.vstack([
        np.sqrt(rw)[:, None] * K,
        np.sqrt(pw)[:, None] * prow,
    ]) / np.sqrt(sys.xw)[None, :]
    sv = np.linalg.svd(scaled, compute_uv=False)
    return float(sv[-1]), float(sv[0])
