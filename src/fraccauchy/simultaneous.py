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

Mesh fields are traced along curves by `elliptic` (``interface_traces``,
``curve_conormal``), and the curve and impedance unknowns are expanded in
the low cosine tables of `spectral`.  The aggregate iteration represents its
fields separably: u = sum_i (a_i P+_i(y) + b_i P-_i(y)) phi_i(x) over the
lateral eigenbasis, with growing/decaying profile pairs.  Such fields
satisfy the interior equation and the lateral condition exactly, so the
Newton residual reduces to the bottom-data misfit and the interface
condition.  The factored fractional scheme (``fac_lap``) may replace the
growing profile by the reciprocal Mittag-Leffler kernel, evaluated in one
batched call per order over the whole (mode x height) grid.
"""

import math
import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .elliptic import (
    Curve,
    InterfaceTraces,
    MeshField,
    _curve_sampler,
    _samples_on_grid,
    curve_conormal,
    interface_traces,
)
from .specfun import ml_values
from .spectral import _cos_projection, _cos_tables, _trapezoid_weights, analyze

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
# cosine modes of each curve and impedance unknown (one table serves both)
_COS_MODES = 8
# `joint_newton_step`'s Tikhonov weight, relative to the normal matrix's norm
_STEP_REG = 1e-6
# depth levels of the mesh field a separable representation materializes as
_FIELD_LEVELS = 81


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
            if not self.ell.same_grid(u.curve):
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

    ``scheme`` optionally replaces the growing field profile and the
    bottom-data coupling by their fractional-continuation counterparts.
    Fixed: the geometric regularization schedule alpha_n = alpha0 * theta^n
    (class constants, readable on every instance) stops at the first n >= 1
    with alpha_n <= (tau * delta)^2 (delta = relative data noise) or at
    ``max_iter``; the curve and impedance unknowns keep 8 cosine modes
    (_COS_MODES), and the state norm's block weights are those of
    `_FrozenSystem._state_weights`.
    """

    alpha0: ClassVar[float] = 1e-2
    theta: ClassVar[float] = 0.6
    tau: ClassVar[float] = 1.5
    max_iter: ClassVar[int] = 25
    scheme: object = None

    def __post_init__(self):
        if self.scheme is not None and self.scheme.kind != "fac_lap":
            raise ValueError("only the factored fractional scheme can replace the data-side operator")


@dataclass
class JointTrace:
    """Per-iteration bookkeeping of ``frozen_newton``.

    Row n describes the iterate after n steps; ``alphas[n]`` is the
    regularization weight used for the step leaving that iterate (the last
    entry is the weight the next step would have used).  Relative errors are
    NaN when no truth was supplied.  ``gam_gap`` tracks how far apart the
    two impedance copies have drifted.  ``flags`` may hold "diverged" and
    "impedance-clipped"; its last entry is always the "stop=..." reason.
    ``stop`` is that reason alone: "discrepancy", "max_iter" or "diverged".
    """

    ns: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    rel_ell: list = field(default_factory=list)
    rel_gam: list = field(default_factory=list)
    gam_gap: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    stop: str = None


# ----------------------------------------------------------------------
# trace diagnostics


def wronskian(u1, u2, curve):
    """Pointwise trace Wronskian u1_x u2 - u2_x u1 along the curve.

    Both parameters of the interface condition are recoverable only where
    this does not vanish; the recovery drivers check min |W| before trusting
    a joint step.
    """
    t1 = interface_traces(u1, curve)
    t2 = interface_traces(u2, curve)
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


def joint_newton_step(state, zbar1, zbar2):
    """One linearized step for the pair (curve, impedance).

    The shape derivative of the interface condition for both fields is
    collocated on the curve grid and solved for the increments in a
    Tikhonov-regularized least-squares sense, both increments expanded in
    8 cosine modes (_COS_MODES; the curve's differentiated exactly), with
    weight 1e-6 (_STEP_REG) times the norm of the normal matrix.  Both
    increments are additive.

    Raises ValueError when the two excitations are degenerate (their trace
    Wronskian cancels over most of the interval), since the system then no
    longer determines the impedance direction.
    """
    x = state.ell.x
    L = state.ell.L
    dl_c = state.ell.dell()
    tr1 = interface_traces(state.u1, state.ell)
    tr2 = interface_traces(state.u2, state.ell)

    w = tr1.u_x * tr2.u - tr2.u_x * tr1.u
    scale = float(np.max(np.abs(tr1.u_x * tr2.u)) + np.max(np.abs(tr2.u_x * tr1.u)))
    bad = _degenerate_interval(w, scale, x)
    if bad is not None:
        raise ValueError(
            "excitation pair is degenerate on [%.4f, %.4f]: the trace "
            "Wronskian vanishes, so curve and impedance cannot be separated" % bad
        )

    ph, dph = _cos_tables(x, L, _COS_MODES)
    wq = np.sqrt(_trapezoid_weights(x.size, x[1] - x[0]))

    blocks = []
    rhs = []
    for tr, gam, zbar in ((tr1, state.gam1, zbar1), (tr2, state.gam2, zbar2)):
        q = _shape_term(tr, dl_c, gam)
        cols_l = -q[None, :] * ph + tr.u_x[None, :] * dph
        cols_g = -tr.u[None, :] * ph
        blocks.append(wq[None, :] * np.vstack([cols_l, cols_g]))
        # interface residual B zbar of the continued field on the curve
        zl, dn = curve_conormal(zbar, state.ell)
        rhs.append(wq * (dn + gam * zl))
    A = np.vstack([b.T for b in blocks])
    b = np.concatenate(rhs)

    M = A.T @ A
    reg = _STEP_REG * float(np.linalg.norm(M, 2))
    coef = np.linalg.solve(M + reg * np.eye(M.shape[0]), A.T @ b)
    return coef[:_COS_MODES] @ ph, coef[_COS_MODES:] @ ph


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
    if not xi0.ell.same_grid(xi.ell):
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
        t0 = interface_traces(u0, xi0.ell)
        den = t0.u
        if np.any(np.abs(den) < _DEN_FLOOR * max(1.0, float(np.max(np.abs(den))))):
            raise ValueError("reference trace passes through zero; transporter undefined")
        tn = interface_traces(u, xi.ell)
        tb = interface_traces(u, xi0.ell)
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
    exactly, so only data and interface residuals remain; x-derivatives come
    from the basis's exact mode derivatives.
    """

    def __init__(self, basis, olell, scheme=None):
        self.basis = basis
        self.olell = float(olell)
        self.k = np.sqrt(basis.lambdas)
        self.keff = np.where(self.k > 0.0, self.k, 1.0)
        self.scheme = scheme
        if float(np.max(self.k)) * self.olell > _EXP_RANGE:
            raise ValueError("mode growth exceeds the floating range; reduce the basis size")
        # (heights key, order, plus, minus) of the last `profiles` evaluation
        self._last = None

    @property
    def J(self):
        return self.basis.J

    def _frac_plus(self, y, order):
        """Fractional growing profile 1 / E_{a,1}(-k y^a) on the (mode x
        height) grid and its y-derivatives up to ``order``, as a list; the
        second derivative, which only Jacobian shape terms need, by a central
        difference whose heights y +- step share one E_{a,1} call with y."""
        alpha = self.scheme.alpha
        if order >= 1 and np.any(y <= 0.0):
            raise ValueError("fractional profile derivatives need y > 0")
        ys = y[None, :]
        if order >= 2:
            step = min(1e-4 * self.olell, 0.45 * float(np.min(y)))
            ys = np.stack([y, y + step, y - step])
        z = -self.k[:, None] * np.maximum(ys, 0.0)[:, None, :] ** alpha
        e1 = ml_values(alpha, 1.0, z)
        plus = [1.0 / e1[0]]
        if order >= 1:
            ea = ml_values(alpha, alpha, z[0])
            plus.append(self.k[:, None] * y ** (alpha - 1.0) * ea / e1[0] ** 2)
        if order >= 2:
            plus.append((1.0 / e1[1] - 2.0 * plus[0] + 1.0 / e1[2]) / step ** 2)
        return plus

    def profiles(self, y, order=0):
        """Growing and decaying profiles at heights y with their
        y-derivatives up to ``order`` (0, 1 or 2).

        Returns (plus, minus), each the list [P, P', ...] of (J, y.size)
        arrays.  The profiles of the last heights asked for are kept, keyed
        on the heights' exact values and the order evaluated: asking again
        at the same heights for the same or a lower order evaluates nothing
        and returns the kept arrays, which are therefore read-only.
        """
        if order not in (0, 1, 2):
            raise ValueError("profile order must be 0, 1 or 2, got %r" % (order,))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        key = (y.shape, y.tobytes())
        if self._last is None or self._last[0] != key or self._last[1] < order:
            self._last = (key, order) + self._evaluate(y, order)
        _, _, plus, minus = self._last
        return plus[: order + 1], minus[: order + 1]

    def _evaluate(self, y, order):
        """`profiles` without the cache, as read-only arrays."""
        k = self.k[:, None]
        grow = np.exp(k * y)
        pm = 1.0 / grow
        minus = [(-k) ** n * pm for n in range(order + 1)]
        if self.scheme is None:
            plus = [k ** n * grow for n in range(order + 1)]
        else:
            plus = self._frac_plus(y, order)
        zero = self.k == 0.0
        if zero.any():
            for p, m, (vp, vm) in zip(plus, minus, ((1.0 + y, 1.0 - y), (1.0, -1.0), (0.0, 0.0))):
                p[zero] = vp
                m[zero] = vm
        for arr in plus + minus:
            arr.flags.writeable = False
        return plus, minus

    def traces(self, a, b, ell, order=2):
        """Physical traces of the represented field along y = ell(x)."""
        plus, minus = self.profiles(ell, order=order)
        c = [a[:, None] * p + b[:, None] * m for p, m in zip(plus, minus)]
        ph, dph = self.basis.modes, self.basis.dmodes
        uyy = uxy = None
        if order >= 2:
            uyy = (c[2] * ph).sum(axis=0)
            uxy = (c[1] * dph).sum(axis=0)
        return InterfaceTraces(
            u=(c[0] * ph).sum(axis=0),
            u_x=(c[0] * dph).sum(axis=0),
            u_y=(c[1] * ph).sum(axis=0),
            u_yy=uyy,
            u_xy=uxy,
        )

    def field(self, a, b):
        """Materialize the representation as a hold-all mesh field."""
        y = np.linspace(0.0, self.olell, _FIELD_LEVELS)
        (pp,), (pm,) = self.profiles(y)
        vals = np.einsum("jm,jn->nm", a[:, None] * pp + b[:, None] * pm, self.basis.modes)
        curve = Curve(np.full(self.basis.N, self.olell), self.basis.L, self.olell)
        return MeshField(vals, curve, y / self.olell)

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
        traces = _curve_sampler(fld)(np.repeat(levels[:, None], self.basis.N, axis=1))
        for m, tracev in enumerate(traces):
            C[:, m] = analyze(tracev, self.basis).c
        (pp,), (pm,) = self.profiles(levels)
        a = np.empty(self.J)
        b = np.empty(self.J)
        for j in range(self.J):
            sol = np.linalg.lstsq(np.column_stack([pp[j], pm[j]]), C[j], rcond=None)[0]
            a[j], b[j] = sol
        return a, b


# ----------------------------------------------------------------------
# aggregate (all-at-once) frozen Newton iteration


class _FrozenSystem:
    """Discretized aggregate residual and its norms, frozen at the start.

    Per field the residual stacks the data misfit t - D (a, b) over the
    interface condition.  The linear data map ``D`` and the targets t are
    built once: bottom value and flux rows [[Phi', Phi'], [k Phi', -k Phi']]
    against (f, g) classically, and under a fractional scheme the identity
    against the data's split coefficients.  ``rw`` are the residual's row
    weights (trapezoid for rows on the grid, unit for coefficient rows).
    ``v0`` is the packed start state and ``K`` the Jacobian there; ``prow``
    and ``pw`` are the penalty's matrix rows and their weights, which no
    iterate changes.
    """

    def __init__(self, data, xi0, penalty, cfg):
        d1, d2 = data
        b1, b2 = d1.basis, d2.basis
        if b1 is not b2 and not (
            (b1.bc, b1.J, b1.N) == (b2.bc, b2.J, b2.N)
            and abs(b1.L - b2.L) <= 1e-12 * b1.L and np.allclose(b1.grid, b2.grid)
        ):
            raise ValueError("the two data sets must share one basis "
                             "(lateral condition, J, L and grid)")
        self.basis = b1
        self.penalty = penalty
        self.olell = xi0.ell.olell
        self.span = _SpanBasis(self.basis, self.olell, cfg.scheme)
        x = self.basis.grid
        self.x = x
        self.L = self.basis.L
        w = self.basis.weights
        self.ph, self.dph = _cos_tables(x, self.L, _COS_MODES)
        J, m = self.span.J, _COS_MODES
        self.npar = 4 * J + 3 * m
        s = self.slices = {
            "u1": slice(0, 2 * J),
            "u2": slice(2 * J, 4 * J),
            "ell": slice(4 * J, 4 * J + m),
            "g1": slice(4 * J + m, 4 * J + 2 * m),
            "g2": slice(4 * J + 2 * m, self.npar),
        }
        keff = self.span.keff
        if cfg.scheme is None:
            phT, kphT = self.basis.modes.T, (keff[:, None] * self.basis.modes).T
            self.D = np.block([[phT, phT], [kphT, -kphT]])
            self.targets = [np.concatenate([d.f, d.g]) for d in data]
            dw = np.concatenate([w, w])
        else:
            self.D = np.eye(2 * J)
            self.targets = [np.concatenate([0.5 * (fh + gh / keff), 0.5 * (fh - gh / keff)])
                            for fh, gh in (d.coeffs() for d in data)]
            dw = np.ones(2 * J)
        self.rw = np.concatenate([dw, w, dw, w])
        self.xw = self._state_weights()
        self.prow = np.zeros((x.size + 1, self.npar))
        self.prow[: x.size, s["g1"]] = self.ph.T
        self.prow[: x.size, s["g2"]] = -self.ph.T
        self.prow[-1, s["ell"]] = self.ph[:, 0]
        self.pw = np.concatenate([w, [1.0]])
        self.v0 = self.pack(xi0)
        self.K = self.jacobian(self.v0)

    # --- parameter vector helpers

    def pack(self, xi0):
        a1, b1 = self.span.project(xi0.u1)
        a2, b2 = self.span.project(xi0.u2)
        coeffs = _cos_projection(self.ph, self.basis.weights)
        lh, g1, g2 = (coeffs(v) for v in (xi0.ell.ell, xi0.gam1, xi0.gam2))
        return np.concatenate([a1, b1, a2, b2, lh, g1, g2])

    def unpack(self, v):
        J, s = self.span.J, self.slices
        ab1, ab2 = v[s["u1"]], v[s["u2"]]
        return (ab1[:J], ab1[J:]), (ab2[:J], ab2[J:]), v[s["ell"]], v[s["g1"]], v[s["g2"]]

    def curve_of(self, lh):
        ell = np.clip(lh @ self.ph, 1e-3 * self.olell, (1.0 - 1e-3) * self.olell)
        return ell, lh @ self.dph

    def _state_weights(self):
        m = np.arange(_COS_MODES)
        wu = (1.0 + self.basis.lambdas) ** 1.5
        k = m * math.pi / self.L
        mass = np.where(m == 0, self.L, 0.5 * self.L)
        wl = mass + k ** 2 * 0.5 * self.L * (m > 0)
        return np.concatenate([wu, wu, wu, wu, wl, mass, mass])

    # --- residual and Jacobian

    def residual(self, v):
        """Aggregate residual, per field the data misfit t - D (a, b) and
        then the interface condition; its row weights are ``rw``."""
        (a1, b1), (a2, b2), lh, g1h, g2h = self.unpack(v)
        ell, dell = self.curve_of(lh)
        res = []
        for (a, b), t, gh in zip(((a1, b1), (a2, b2)), self.targets, (g1h, g2h)):
            tr = self.span.traces(a, b, ell, order=1)
            gam = gh @ self.ph
            res.extend([t - self.D @ np.concatenate([a, b]), -(tr.u_y - dell * tr.u_x + gam * tr.u)])
        return np.concatenate(res)

    def penalty_values(self, v):
        """Values at v of the penalized quantities, one per row of prow."""
        _, _, lh, g1h, g2h = self.unpack(v)
        return np.concatenate([
            (g1h - g2h) @ self.ph,
            [lh @ self.ph[:, 0] - self.penalty.ell0_endpoint],
        ])

    def jacobian(self, v0):
        """Jacobian of the aggregate residual, frozen at the packed state v0."""
        (a1, b1), (a2, b2), lh, g1h, g2h = self.unpack(v0)
        ell, dell = self.curve_of(lh)
        J = self.span.J
        n = self.x.size
        # order 2, which the shape terms' traces below read again
        plus, minus = self.span.profiles(ell, order=2)
        (pp, dpp), (pm, dpm) = plus[:2], minus[:2]
        ph, dph = self.basis.modes, self.basis.dmodes
        nd = self.D.shape[0]
        K = np.zeros((2 * (nd + n), self.npar))
        s = self.slices
        for blk, ((a, b), gh, su, sg) in enumerate(
            (((a1, b1), g1h, s["u1"], s["g1"]), ((a2, b2), g2h, s["u2"], s["g2"]))
        ):
            r0 = blk * (nd + n)
            rb = r0 + nd
            gam = gh @ self.ph
            K[r0:rb, su] = self.D
            # interface rows: directional derivative in the field ...
            K[rb : rb + n, su.start : su.start + J] = (
                dpp * ph - dell[None, :] * pp * dph + gam[None, :] * pp * ph
            ).T
            K[rb : rb + n, su.start + J : su.stop] = (
                dpm * ph - dell[None, :] * pm * dph + gam[None, :] * pm * ph
            ).T
            # ... in the curve and in the impedance
            tr = self.span.traces(a, b, ell)
            q = _shape_term(tr, dell, gam)
            K[rb : rb + n, s["ell"]] = (q[None, :] * self.ph - tr.u_x[None, :] * self.dph).T
            K[rb : rb + n, sg] = (tr.u[None, :] * self.ph).T
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
    v0, K, rw, prow, pw = sys.v0, sys.K, sys.rw, sys.prow, sys.pw
    v = v0.copy()

    trace = JointTrace()
    wx, w = sys.xw, sys.basis.weights
    truth_l = truth_g = None
    if truth is not None:
        truth_l = _samples_on_grid(truth[0], sys.x, "truth[0]")
        truth_g = _samples_on_grid(truth[1], sys.x, "truth[1]")

    def log(n, alpha_n, resid):
        _, _, lh, g1h, g2h = sys.unpack(v)
        ell, _ = sys.curve_of(lh)
        gam = 0.5 * (g1h + g2h) @ sys.ph
        gap = _relerr(g1h @ sys.ph, g2h @ sys.ph, w)
        trace.ns.append(n)
        trace.alphas.append(alpha_n)
        trace.residuals.append(resid)
        trace.rel_ell.append(np.nan if truth_l is None else _relerr(ell, truth_l, w))
        trace.rel_gam.append(np.nan if truth_g is None else _relerr(gam, truth_g, w))
        trace.gam_gap.append(gap)

    r = sys.residual(v)
    res0 = math.sqrt(float(np.sum(rw * r ** 2)))
    log(0, cfg.alpha0, res0)

    # K and the penalty rows stay frozen, so their weighted normal matrix
    # is formed once
    KTw, PTw = K.T * rw, prow.T * pw
    KK = KTw @ K + PTw @ prow
    n_star = cfg.max_iter
    stop_tag = "max_iter"
    for n in range(cfg.max_iter):
        alpha_n = cfg.alpha0 * cfg.theta ** n
        if n >= 1 and delta > 0.0 and alpha_n <= (cfg.tau * delta) ** 2:
            n_star = n
            stop_tag = "discrepancy"
            break
        pval = sys.penalty_values(v)
        M = KK + alpha_n * np.diag(wx)
        rhs = KTw @ r - PTw @ pval + alpha_n * wx * (v0 - v)
        try:
            step = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("normal system solve failed: %s" % (exc,))
        v = v + step
        r = sys.residual(v)
        res_n = math.sqrt(float(np.sum(rw * r ** 2)))
        log(n + 1, cfg.alpha0 * cfg.theta ** (n + 1), res_n)
        if not math.isfinite(res_n) or res_n > _DIVERGENCE_FACTOR * res0:
            trace.flags.append("diverged")
            warnings.warn("joint recovery diverged (residual grew tenfold); aborting")
            n_star = n + 1
            stop_tag = "diverged"
            break

    (a1, b1), (a2, b2), lh, g1h, g2h = sys.unpack(v)
    ell, _ = sys.curve_of(lh)
    gam1 = g1h @ sys.ph
    gam2 = g2h @ sys.ph
    floor = 1e-6 * max(1.0, float(np.max(np.abs(gam1))), float(np.max(np.abs(gam2))))
    if np.any(gam1 < floor) or np.any(gam2 < floor):
        trace.flags.append("impedance-clipped")
        gam1 = np.maximum(gam1, floor)
        gam2 = np.maximum(gam2, floor)
    trace.stop = stop_tag
    alpha_ns = cfg.alpha0 * cfg.theta ** n_star
    alpha_prev = cfg.alpha0 * cfg.theta ** max(n_star - 1, 0)
    trace.flags.append(
        "stop=%s alpha_nstar=%.3e delta^2/alpha_prev=%.3e"
        % (stop_tag, alpha_ns, (delta ** 2 / alpha_prev) if alpha_prev > 0 else math.inf)
    )
    xi = JointState(
        u1=sys.span.field(a1, b1),
        u2=sys.span.field(a2, b2),
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
    scaled = np.vstack([
        np.sqrt(sys.rw)[:, None] * sys.K,
        np.sqrt(sys.pw)[:, None] * sys.prow,
    ]) / np.sqrt(sys.xw)[None, :]
    sv = np.linalg.svd(scaled, compute_uv=False)
    return float(sv[-1]), float(sv[0])
