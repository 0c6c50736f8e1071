"""Finite-difference solver for the mixed problem on a strip bounded above
by a curve y = ell(x).

The domain {0 < x < L, 0 < y < ell(x)} is mapped onto a fixed rectangle by
y = eta * ell(x), eta in [0, 1].  In mapped variables the Laplacian becomes
an anisotropic operator with a cross term and a drift,

    u_xx + u_yy = U_xx - 2 a U_xeta + (a^2 + 1/ell^2) U_etaeta - b U_eta,
    a = eta ell'/ell,   b = eta (ell''/ell - 2 (ell'/ell)^2),

discretised with central differences (a nine-point stencil).  `assemble`
factorises the sparse matrix once per curve; each right-hand side (the
bottom trace, plus any verification data) is then a back-solve.  The curve
enters only through coefficient arrays, so outer Newton loops can move it
without remeshing.

The factor is of the row-equilibrated matrix (each row divided by its
largest entry) in a geometric nested-dissection order of the grid (A.
George, SIAM J. Numer. Anal. 10 (1973) 345-363), with threshold partial
pivoting.  The scaling is what lets the order survive the pivoting:
unscaled, the unit Dirichlet rows sit far below the 1/(ell h)^2
coefficients of their columns, any nonzero threshold pivots away from the
order, and the fill exceeds that of SuperLU's default ordering.  Scaled,
all but a few diagonal pivots are accepted and the fill at 129 x 65 drops
by about 40%.  The threshold guards against pivot growth where the rows
are far from diagonally dominant: the one-sided lateral and interface
rows, and the cross terms of thin or steep curves.  The residual gate of
every solve checks the unscaled matrix.

Boundary rows: the bottom edge carries a Dirichlet trace, the lateral edges
the same condition family as the eigenbasis of module `spectral`, and the
top edge one of u = 0, a vanishing co-normal derivative, or the impedance
condition.  The impedance coefficient enters only as the combined quantity
sqrt(1 + ell'^2) * gamma, matching the weak form in which the arc-length
factor and the raw impedance never appear separately.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

__all__ = [
    "Curve",
    "InterfaceBC",
    "MeshField",
    "InterfaceTraces",
    "combined_impedance",
    "ForwardOperator",
    "assemble",
    "solve_forward",
    "bottom_flux",
    "interface_traces",
    "solve_cauchy_holdall",
    "eval_on_curve",
    "save_grid",
    "load_grid",
]

_INTERFACE_KINDS = ("N", "D", "I")


def _second_diff(v, h):
    """Second derivative of samples: centered inside, second-order one-sided
    at the ends."""
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2
    d[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h ** 2
    d[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h ** 2
    return d


@dataclass
class Curve:
    """Top boundary y = ell(x) sampled on the uniform x-grid, confined to the
    hold-all strip of height olell."""

    ell: np.ndarray
    L: float
    olell: float

    def __post_init__(self):
        self.ell = np.asarray(self.ell, dtype=float)
        if self.ell.ndim != 1 or self.ell.size < 4:
            raise ValueError("need at least 4 curve samples")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError("L must be positive and finite")
        if not (self.olell > 0.0 and math.isfinite(self.olell)):
            raise ValueError("hold-all height must be positive and finite")
        if np.any(~np.isfinite(self.ell)) or np.any(self.ell <= 0.0):
            raise ValueError("curve must be finite and strictly positive")
        if np.any(self.ell > self.olell * (1.0 + 1e-12)):
            raise ValueError("curve exceeds the hold-all height")

    @property
    def N(self):
        return self.ell.size

    @property
    def h(self):
        return self.L / (self.ell.size - 1)

    @property
    def x(self):
        return np.linspace(0.0, self.L, self.ell.size)

    def dell(self):
        """Slope samples: centered differences, one-sided at the ends."""
        return np.gradient(self.ell, self.h, edge_order=2)

    def d2ell(self):
        return _second_diff(self.ell, self.h)


@dataclass(frozen=True)
class InterfaceBC:
    """Condition on the upper curve: "N" (insulating), "D" (grounded), or
    "I" (impedance).

    For "I", ``gamma`` holds the combined coefficient sqrt(1+ell'^2)*gamma
    when ``combined`` is true (the default, and the form every reconstruction
    works with); with ``combined=False`` it holds the raw impedance and the
    arc-length factor is folded in by the solver.  ``gamma`` may be a scalar,
    an array on the x-grid, or a callable of x.
    """

    kind: str
    gamma: object = None
    combined: bool = True

    def __post_init__(self):
        if self.kind not in _INTERFACE_KINDS:
            raise ValueError("interface kind must be one of %r" % (_INTERFACE_KINDS,))
        if self.kind == "I" and self.gamma is None:
            raise ValueError("impedance interface needs a gamma coefficient")


def _samples_on_grid(fn_or_values, coords, name):
    v = fn_or_values(coords) if callable(fn_or_values) else fn_or_values
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        v = np.full(coords.shape, float(v))
    if v.shape != coords.shape:
        raise ValueError("%s must be a scalar, a callable, or grid samples" % name)
    return v


def combined_impedance(gamma, curve):
    """Fold the arc-length factor into the impedance: sqrt(1+ell'^2)*gamma."""
    g = _samples_on_grid(gamma, curve.x, "gamma")
    return np.sqrt(1.0 + curve.dell() ** 2) * g


@dataclass
class MeshField:
    """Discrete field on the mapped rectangle; values[i, j] lives at the
    physical point (x_i, eta_j * ell(x_i))."""

    values: np.ndarray
    curve: Curve
    lateral: object
    interface: object
    eta: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def x(self):
        return self.curve.x

    @property
    def y(self):
        """Physical node heights, shape (N, M)."""
        return self.curve.ell[:, None] * self.eta[None, :]


@dataclass
class InterfaceTraces:
    """Physical value and derivatives of a field along the upper curve."""

    x: np.ndarray
    u: np.ndarray
    u_x: np.ndarray
    u_y: np.ndarray
    u_yy: np.ndarray
    u_xy: np.ndarray


def _corner_compat_warning(curve, lateral, f):
    """Warn (only) when the bottom trace visibly violates the lateral
    condition at a corner; singular behaviour there is the caller's problem."""
    hx = curve.h
    d0 = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * hx)
    d1 = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * hx)
    scale_v = 1.0 + float(np.max(np.abs(f)))
    scale_d = 1.0 + float(np.max(np.abs(np.gradient(f, hx))))
    # derivative checks carry O(h^2) truncation error of the one-sided stencil
    tol_d = 1e-6 + 10.0 * hx * hx
    if lateral.kind == "dirichlet":
        bad = max(abs(f[0]), abs(f[-1])) > 1e-6 * scale_v
    elif lateral.kind == "neumann":
        bad = max(abs(d0), abs(d1)) > tol_d * scale_d
    else:
        sig = lateral.robin_coeff
        bad = max(abs(-d0 + sig * f[0]), abs(d1 + sig * f[-1])) > tol_d * (
            scale_d + sig * scale_v
        )
    if bad:
        warnings.warn(
            "bottom trace is incompatible with the lateral condition at a "
            "corner; expect reduced accuracy there",
            stacklevel=3,
        )


@dataclass
class ForwardOperator:
    """The discrete mixed problem below one curve, factorised by `assemble`.

    ``A`` is the unscaled matrix; ``lu`` factors it with each row scaled by
    ``rowscale`` and rows and columns permuted by ``perm``."""

    curve: Curve
    lateral: object
    interface: object
    eta: np.ndarray
    A: object
    lu: object
    perm: np.ndarray
    rowscale: np.ndarray

    def solve(self, f, source=None, interface_rhs=None, lateral_rhs=None):
        """Back-solve for the field equal to ``f`` on the bottom edge.

        ``source``, ``interface_rhs`` and ``lateral_rhs`` add a volume source
        and inhomogeneous boundary data to the discrete operator; they exist
        for manufactured-solution verification and stay None in the physical
        problem.  ``lateral_rhs`` is a pair (left, right) of per-level values:
        u on the edge for a Dirichlet side, u_x for a Neumann side, and
        -u_x + sigma*u resp. u_x + sigma*u for a Robin side.
        """
        curve, eta = self.curve, self.eta
        N, M = curve.N, eta.size
        x, ell = curve.x, curve.ell
        f = np.asarray(f, dtype=float)
        if f.shape != (N,):
            raise ValueError("bottom trace must be sampled on the curve's x-grid")
        src = np.zeros((N, M)) if source is None else source
        if callable(src):
            src = src(np.broadcast_to(x[:, None], (N, M)), ell[:, None] * eta[None, :])
        src = np.asarray(src, dtype=float)
        if src.shape != (N, M):
            raise ValueError("source must evaluate to shape (N, M)")
        itf = np.zeros(N)
        if interface_rhs is not None:
            itf = _samples_on_grid(interface_rhs, x, "interface_rhs")
        if lateral_rhs is None:
            _corner_compat_warning(curve, self.lateral, f)
            lateral_rhs = (0.0, 0.0)
        lat_left = _samples_on_grid(lateral_rhs[0], eta * ell[0], "lateral_rhs[0]")
        lat_right = _samples_on_grid(lateral_rhs[1], eta * ell[-1], "lateral_rhs[1]")

        # row k = i * M + j; the bottom owns the corners, the sides the top ones
        rhs = np.zeros((N, M))
        rhs[1:-1, 1:-1] = src[1:-1, 1:-1]
        rhs[:, 0] = f
        rhs[1:-1, -1] = itf[1:-1]
        rhs[0, 1:] = lat_left[1:]
        rhs[-1, 1:] = lat_right[1:]
        rhs = rhs.ravel()
        u = np.empty_like(rhs)
        u[self.perm] = self.lu.solve((self.rowscale * rhs)[self.perm])
        if not np.all(np.isfinite(u)):
            raise RuntimeError("sparse linear solve returned non-finite values")
        resid = float(np.max(np.abs(self.A @ u - rhs)))
        scale = float(np.max(np.abs(self.A) @ np.abs(u))) + float(np.max(np.abs(rhs)))
        if resid > 1e-8 * max(1.0, scale):
            raise RuntimeError("discrete residual too large: %.3g" % resid)
        return MeshField(u.reshape(N, M), curve, self.lateral, self.interface, eta)


@functools.lru_cache(maxsize=None)
def _dissection(N, M):
    """Geometric nested-dissection order of the N x M grid (node i*M + j):
    split the longer side at its middle line, order both halves first and
    the separating line last.  Blocks of at most 16 nodes keep their
    row-major order.  Computed once per grid size and shared read-only."""
    order = []

    def split(block):
        n, m = block.shape
        if n * m <= 16:
            order.append(block.ravel())
        elif n >= m:
            split(block[: n // 2])
            split(block[n // 2 + 1:])
            order.append(block[n // 2])
        else:
            split(block[:, : m // 2])
            split(block[:, m // 2 + 1:])
            order.append(block[:, m // 2])

    split(np.arange(N * M).reshape(N, M))
    perm = np.concatenate(order)
    perm.setflags(write=False)
    return perm


def assemble(curve, lateral, interface, M=None):
    """Build and factorise the discrete mixed problem below the curve.

    The field is to satisfy ``lateral`` on the sides and ``interface`` on
    the upper curve; the returned `ForwardOperator` back-solves for each
    bottom trace.  ``M`` is the number of depth levels (default keeps the
    mapped cells roughly square, 129 x 65 at the standard resolution).

    The operator keeps the unscaled matrix ``A`` for the residual gate and
    factors P D A P^T in its natural order: D scales each row by
    ``rowscale`` = 1/max|row|, P is the symmetric permutation ``perm`` of
    `_dissection`, and a pivot is taken off the diagonal only when it falls
    below a tenth of its column.  Without D that threshold rejects the unit
    diagonal of every Dirichlet row and the fill roughly doubles.
    """
    N = curve.N
    if N < 5:
        raise ValueError("need at least 5 x-samples")
    M = (N - 1) // 2 + 1 if M is None else int(M)
    if M < 5:
        raise ValueError("need at least 5 depth levels")
    if interface.kind not in _INTERFACE_KINDS:
        raise ValueError("unknown interface kind %r" % (interface.kind,))

    hx = curve.h
    eta = np.linspace(0.0, 1.0, M)
    he = 1.0 / (M - 1)
    ell = curve.ell
    dl = curve.dell()
    d2l = curve.d2ell()

    gamc = None
    if interface.kind == "I":
        gamc = (_samples_on_grid(interface.gamma, curve.x, "gamma") if interface.combined
                else combined_impedance(interface.gamma, curve))
        if np.any(gamc <= 0.0):
            raise ValueError("impedance coefficient must be positive")

    rows, cols, vals = [], [], []

    def add(r, c, v):
        r = np.atleast_1d(np.asarray(r, dtype=np.int64)).ravel()
        c = np.atleast_1d(np.asarray(c, dtype=np.int64)).ravel()
        rows.append(r)
        cols.append(c)
        vals.append(np.broadcast_to(np.asarray(v, dtype=float), r.shape).ravel())

    # interior nine-point stencil
    I, J = np.meshgrid(np.arange(1, N - 1), np.arange(1, M - 1), indexing="ij")
    I = I.ravel()
    J = J.ravel()
    k = I * M + J
    slope = dl / ell
    a = eta[J] * slope[I]
    b = eta[J] * (d2l / ell - 2.0 * slope ** 2)[I]
    ce = a * a + (1.0 / ell ** 2)[I]
    cx = 1.0 / hx ** 2
    ie2 = 1.0 / he ** 2
    add(k, k, -2.0 * cx - 2.0 * ce * ie2)
    add(k, k + M, cx)
    add(k, k - M, cx)
    add(k, k + 1, ce * ie2 - b / (2.0 * he))
    add(k, k - 1, ce * ie2 + b / (2.0 * he))
    cc = -a / (2.0 * hx * he)
    add(k, k + M + 1, cc)
    add(k, k - M - 1, cc)
    add(k, k + M - 1, -cc)
    add(k, k - M + 1, -cc)

    # bottom edge: Dirichlet trace (owns the corners)
    kb = np.arange(N) * M
    add(kb, kb, 1.0)

    # top edge, interior columns
    it = np.arange(1, N - 1)
    kt = it * M + (M - 1)
    if interface.kind == "D":
        add(kt, kt, 1.0)
    else:
        # ((1+ell'^2)/ell) U_eta - ell' U_x + gamma_comb U = rhs, with the
        # backward one-sided U_eta; identical to -ell' u_x + u_y + gamma_comb u
        w = (1.0 + dl[it] ** 2) / (2.0 * he * ell[it])
        add(kt, kt, 3.0 * w + (gamc[it] if gamc is not None else 0.0))
        add(kt, kt - 1, -4.0 * w)
        add(kt, kt - 2, w)
        add(kt, kt + M, -dl[it] / (2.0 * hx))
        add(kt, kt - M, dl[it] / (2.0 * hx))

    def lateral_rows(i0, inward, edge_sign):
        """Rows j = 1..M-1 of one lateral edge (the top corner included)."""
        jall = np.arange(1, M)
        kall = i0 * M + jall
        if lateral.kind == "dirichlet":
            add(kall, kall, 1.0)
            return
        if lateral.kind == "neumann":
            cxs, cu = 1.0, 0.0
        else:
            cxs, cu = edge_sign, lateral.robin_coeff
        # row: cxs * (U_x - a U_eta) + cu * U = rhs, one-sided U_x inward
        sgn = float(inward)
        add(kall, kall, cxs * sgn * (-3.0) / (2.0 * hx) + cu)
        add(kall, (i0 + inward) * M + jall, cxs * sgn * 2.0 / hx)
        add(kall, (i0 + 2 * inward) * M + jall, -cxs * sgn / (2.0 * hx))
        aa = -cxs * eta * (dl[i0] / ell[i0])  # weight of U_eta in the row
        jj = np.arange(1, M - 1)
        kk = i0 * M + jj
        add(kk, kk + 1, aa[jj] / (2.0 * he))
        add(kk, kk - 1, -aa[jj] / (2.0 * he))
        ktc = i0 * M + (M - 1)
        add(ktc, ktc, 3.0 * aa[M - 1] / (2.0 * he))
        add(ktc, ktc - 1, -4.0 * aa[M - 1] / (2.0 * he))
        add(ktc, ktc - 2, aa[M - 1] / (2.0 * he))

    lateral_rows(0, +1, -1.0)
    lateral_rows(N - 1, -1, +1.0)

    A = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N * M, N * M),
    ).tocsr()
    rowscale = 1.0 / np.maximum.reduceat(np.abs(A.data), A.indptr[:-1])
    scaled = A.copy()
    scaled.data *= np.repeat(rowscale, np.diff(A.indptr))
    perm = _dissection(N, M)
    try:
        lu = splu(scaled[perm][:, perm].tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.1)
    except RuntimeError as exc:
        raise RuntimeError("sparse factorisation failed: %s" % (exc,))
    return ForwardOperator(curve, lateral, interface, eta, A, lu, perm, rowscale)


def solve_forward(curve, lateral, interface, f, M=None):
    """Solve the mixed boundary-value problem on the curved strip: the field
    is harmonic, equals ``f`` on the bottom edge, satisfies ``lateral`` on the
    sides and ``interface`` on the upper curve.  One-shot form of
    ``assemble(curve, lateral, interface, M).solve(f)``."""
    return assemble(curve, lateral, interface, M).solve(f)


def _uniform_step(eta, what):
    d = np.diff(eta)
    if np.any(d <= 0.0) or not np.allclose(d, d[0], rtol=1e-10, atol=0.0):
        raise ValueError("%s requires a uniform depth grid" % what)
    return float(d[0])


def bottom_flux(field):
    """One-sided second-order d/dy of the field on the bottom edge."""
    U = field.values
    if U.shape[1] < 3:
        raise ValueError("bottom_flux needs at least 3 depth levels")
    he = _uniform_step(field.eta, "bottom_flux")
    due = (-3.0 * U[:, 0] + 4.0 * U[:, 1] - U[:, 2]) / (2.0 * he)
    return due / field.curve.ell


def interface_traces(field):
    """Value and chain-rule-corrected physical derivatives along the top edge
    of the mesh (the curve y = ell(x) for a forward solve); second
    derivatives use one-sided four-point stencils."""
    U = field.values
    if U.shape[1] < 4:
        raise ValueError("interface traces need at least 4 depth levels")
    he = _uniform_step(field.eta, "interface_traces")
    hx = field.curve.h
    ell = field.curve.ell
    dl = field.curve.dell()
    ue = (3.0 * U[:, -1] - 4.0 * U[:, -2] + U[:, -3]) / (2.0 * he)
    uee = (2.0 * U[:, -1] - 5.0 * U[:, -2] + 4.0 * U[:, -3] - U[:, -4]) / he ** 2
    ux = np.gradient(U[:, -1], hx, edge_order=2)
    uxe = np.gradient(ue, hx, edge_order=2)
    s = dl / ell
    return InterfaceTraces(
        x=field.curve.x,
        u=U[:, -1].copy(),
        u_x=ux - s * ue,
        u_y=ue / ell,
        u_yy=uee / ell ** 2,
        u_xy=(uxe - s * uee) / ell - dl * ue / ell ** 2,
    )


def solve_cauchy_holdall(data, lateral, scheme, y_grid):
    """Continue Cauchy data through the hold-all rectangle, with one
    continuation call over the whole height grid.

    ``scheme`` (a `continuation.ContinuationScheme`) runs itself; this
    function checks the grid and wraps the result in a `MeshField`.  By
    uniqueness of harmonic continuation the resulting field agrees (up to
    the scheme's regularisation error) with the Newton-step field on any
    admissible subdomain, so downstream code may trace it along trial curves
    with `eval_on_curve`.  ``meta`` holds the ``scheme`` kind, the
    ``zeroed_modes`` the scheme's guards zeroed at each level, the ``bands``
    of a scheme that has them, and ``overflow``: whether a level leaves the
    double-precision exponential range, which only the exact formula can.
    """
    if lateral != data.basis.bc:
        raise ValueError("lateral condition disagrees with the data's basis")
    y = np.atleast_1d(np.asarray(y_grid, dtype=float))
    if y.size == 0 or np.any(~np.isfinite(y)) or y[0] < 0.0:
        raise ValueError("y_grid must be finite and nonnegative")
    if np.any(np.diff(y) <= 0.0):
        raise ValueError("y_grid must be strictly increasing")

    cont, bands = scheme.continue_data(data, y)
    meta = {"scheme": scheme.kind, "zeroed_modes": cont.zeroed_modes.tolist(),
            "overflow": cont.overflow}
    if bands is not None:
        meta["bands"] = bands

    olell = float(y[-1]) if y[-1] > 0.0 else 1.0
    curve = Curve(np.full(data.basis.N, olell), data.basis.L, olell)
    return MeshField(cont.values, curve, data.basis.bc, None, y / olell, meta=meta)


def _curve_sampler(field):
    """Column splines of ``field`` in height, built once: returns
    ``sample(ell, dy=0)``, the field (or its ``dy``-th y-derivative) along
    the curve y = ell(x), for any number of curves on the field's x-grid.

    One cubic spline in eta serves every column: column i holds the levels
    eta * base_i, with base_i the mesh's top height there, so it is
    evaluated at eta = ell_i / base_i by Horner on its own cubic piece and
    its derivative rescaled by base_i^-dy.  Each derivative's coefficients
    are formed on first use and kept.  Mild extrapolation above the top
    level is allowed."""
    if field.eta.size < 4:
        raise ValueError("need at least 4 depth levels to interpolate")
    base = field.curve.ell
    cols = np.arange(base.size)
    spline = CubicSpline(field.eta, field.values, axis=1)
    pieces = {}

    def sample(ell, dy=0):
        ell = np.asarray(ell, dtype=float)
        if ell.shape != base.shape:
            raise ValueError("curve samples must live on the field's x-grid")
        if dy not in pieces:
            pieces[dy] = spline.derivative(dy)
        pp = pieces[dy]
        t = ell / base
        k = np.clip(np.searchsorted(pp.x, t, side="right") - 1, 0, pp.x.size - 2)
        d = t - pp.x[k]
        # Horner on each column's own cubic piece, highest power first
        c = pp.c[:, k, cols]
        vals = c[0]
        for row in c[1:]:
            vals = vals * d + row
        return vals / base ** dy

    return sample


def eval_on_curve(field, ell, dy=0):
    """Interpolate the field (or its ``dy``-th y-derivative) along the curve
    y = ell(x) with a cubic spline through each x-column's depth levels, as
    `_curve_sampler` does; a caller tracing one field along several curves,
    or several derivatives, builds the sampler once instead."""
    return _curve_sampler(field)(ell, dy)


def save_grid(field, path):
    """Row-major CSV dump of the node values with a mesh-metadata header."""
    c = field.curve
    header = "N=%d M=%d L=%.17g olell=%.17g" % (c.N, field.eta.size, c.L, c.olell)
    np.savetxt(path, field.values, delimiter=",", header=header)


def load_grid(path):
    """Read back a grid dump; returns (values, header dict)."""
    with open(path) as fh:
        first = fh.readline()
    if not first.startswith("#"):
        raise ValueError("missing grid-dump header")
    meta = {}
    for tok in first[1:].split():
        if "=" in tok:
            key, val = tok.split("=", 1)
            meta[key] = int(val) if key in ("N", "M") else float(val)
    values = np.loadtxt(path, delimiter=",", ndmin=2)
    if values.shape != (meta.get("N"), meta.get("M")):
        raise ValueError("grid dump shape disagrees with its header")
    return values, meta
