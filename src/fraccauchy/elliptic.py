"""Finite-difference solver for the mixed problem on a strip bounded above
by a curve y = ell(x).

The domain {0 < x < L, 0 < y < ell(x)} is mapped onto a fixed rectangle by
y = eta * ell(x), eta in [0, 1].  In mapped variables the Laplacian becomes
an anisotropic operator with a cross term and a drift,

    u_xx + u_yy = U_xx - 2 a U_xeta + (a^2 + 1/ell^2) U_etaeta - b U_eta,
    a = eta ell'/ell,   b = eta (ell''/ell - 2 (ell'/ell)^2),

discretised with central differences (a nine-point stencil).  `_stencil`
writes each coefficient once into diagonal storage.  The curve enters only
through coefficient arrays, so outer Newton loops can move it without
remeshing.

The system is solved by one of two methods, chosen from the number M of
depth levels.  Both work on the row-equilibrated matrix (each row divided
by its largest entry).  In row-major node order the matrix is a band matrix
with kl = ku = 2M, since the one-sided lateral rows reach two columns inward.

- Band LU.  Shallow meshes, such as the joint recovery's 17 x 9 start
  fields, get LAPACK's band LU with partial pivoting.
- GMRES.  A deeper mesh is not factored: each right-hand side is solved by
  restarted GMRES, right-preconditioned by a separable approximation of
  the operator that keeps the depth scale 1/ell(x)^2 column by column
  (`_column_preconditioner`), until the row-scaled residual is below 1e-13
  of the row-scaled right-hand side.  If it does not get there within a
  fixed number of iterations, that right-hand side is solved by SuperLU in
  its default ordering instead.

Band LU costs about N M kl (kl + ku) = 8 N M^3 operations.  Each GMRES
iteration costs about 4 N M^2, in the two dense depth transforms of the
preconditioner, so the crossover lies at a fixed M, whatever N (see
`assemble`).

Boundary rows: the bottom edge carries a Dirichlet trace, the lateral edges
the same condition family as the eigenbasis of module `spectral`, and the
top edge one of u = 0, a vanishing co-normal derivative, or the impedance
condition.  The impedance coefficient enters only as the combined quantity
sqrt(1 + ell'^2) * gamma, matching the weak form in which the arc-length
factor and the raw impedance never appear separately.

Both inverse solvers read fields along curves here: `interface_traces`
(value and derivatives) and `curve_conormal` trace a covering (hold-all)
field through the column splines of `_curve_sampler`, which a `MeshField`
builds on its first trace and keeps.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded, solve_triangular
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgtsv
from scipy.sparse import dia_matrix
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
    "curve_conormal",
]

_INTERFACE_KINDS = ("N", "D", "I")


def _first_diff(v, h):
    """First derivative of samples at spacing h: centered inside,
    second-order one-sided at the ends.  The arithmetic of
    np.gradient(v, h, edge_order=2) on 1-D samples, term for term."""
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-1.5 / h) * v[0] + (2.0 / h) * v[1] + (-0.5 / h) * v[2]
    d[-1] = (0.5 / h) * v[-3] + (-2.0 / h) * v[-2] + (1.5 / h) * v[-1]
    return d


def _second_diff(v, h):
    """Second derivative of samples: centered inside, second-order one-sided
    at the ends."""
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2
    d[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h ** 2
    d[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h ** 2
    return d


@dataclass(frozen=True)
class Curve:
    """Top boundary y = ell(x) sampled on the uniform x-grid, confined to the
    hold-all strip of height olell.  ``ell`` is a read-only copy of the
    samples, so the slope can be kept."""

    ell: np.ndarray
    L: float
    olell: float

    def __post_init__(self):
        ell = np.array(self.ell, dtype=float)
        if ell.ndim != 1 or ell.size < 4:
            raise ValueError("need at least 4 curve samples")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError("L must be positive and finite")
        if not (self.olell > 0.0 and math.isfinite(self.olell)):
            raise ValueError("hold-all height must be positive and finite")
        lo, hi = ell.min(), ell.max()  # NaN in either if any sample is NaN
        if not (lo > 0.0 and hi < math.inf):
            raise ValueError("curve must be finite and strictly positive")
        if hi > self.olell * (1.0 + 1e-12):
            raise ValueError("curve exceeds the hold-all height")
        ell.setflags(write=False)
        object.__setattr__(self, "ell", ell)

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
        """Slope samples: centered differences, one-sided at the ends.
        Computed on first use and shared read-only."""
        return self._slope

    @functools.cached_property
    def _slope(self):
        dl = _first_diff(self.ell, self.h)
        dl.setflags(write=False)
        return dl

    def d2ell(self):
        return _second_diff(self.ell, self.h)

    def same_grid(self, other):
        """Whether ``other`` has this x-grid: the same N, L to 1e-12 relative."""
        return self.N == other.N and abs(other.L - self.L) <= 1e-12 * self.L


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


@dataclass(frozen=True)
class MeshField:
    """Discrete field on the mapped rectangle; values[i, j] lives at the
    physical point (x_i, eta_j * ell(x_i)).

    ``values`` and ``eta`` are read-only float views of the arrays given,
    not copies, so the column spline of the field's first trace is kept on
    it (`_curve_sampler`).  The arrays given must not be changed through
    another reference afterwards: the kept spline would no longer match."""

    values: np.ndarray
    curve: Curve
    eta: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("values", "eta"):
            a = np.asarray(getattr(self, name), dtype=float).view()
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __reduce__(self):
        # the kept sampler is a closure, which pickle cannot store: a copy is
        # rebuilt from the fields and builds its own on its first trace
        return MeshField, (self.values, self.curve, self.eta, self.meta)

    @functools.cached_property
    def _sampler(self):
        """`_curve_sampler`'s sampler, built on first use.  It keeps only
        the value table of `_spline_tables`: each call gathers the rows of
        its curve's pieces once and derives each order's rows from them
        (`_derived_rows`)."""
        eta = np.ascontiguousarray(self.eta)
        c = _spline_tables(eta, self.values)
        base = self.curve.ell
        scale = [base ** q for q in range(3)]
        cols = np.arange(base.size)
        last = eta.size - 2

        def sample(ell, dy=0):
            ell = np.asarray(ell, dtype=float)
            if ell.shape[-1:] != base.shape:
                raise ValueError("curve samples must live on the field's x-grid")
            t = ell / base
            k = np.minimum(np.maximum(eta.searchsorted(t, side="right") - 1, 0), last)
            d = t - eta[k]
            orders = dy if isinstance(dy, tuple) else (dy,)
            # each column's own cubic piece, highest power first
            rows = c[:4 - min(orders), k, cols]

            def horner(q):
                vals, *rest = _derived_rows(rows, q)
                for row in rest:
                    vals = vals * d + row
                return vals / scale[q]

            out = tuple(horner(q) for q in orders)
            return out if isinstance(dy, tuple) else out[0]

        return sample

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
            stacklevel=4,
        )


@dataclass
class ForwardOperator:
    """The discrete mixed problem below one curve, prepared by `assemble`
    for any number of right-hand sides.

    ``A`` is the unscaled matrix in DIA form and ``rowscale`` = 1/max|row|
    the row scale D.  Up to _BAND_LEVELS depth levels ``band`` is the
    `_BandLU` factor of D A and ``precond`` is None; on deeper meshes
    ``band`` is None and ``precond`` is the `_column_preconditioner` of the
    curve, with which `solve` runs `_gmres`."""

    curve: Curve
    lateral: object
    eta: np.ndarray
    A: object
    rowscale: np.ndarray
    band: object
    precond: object

    def solve(self, f, source=None, interface_rhs=None, lateral_rhs=None):
        """Solve for the field equal to ``f`` on the bottom edge.

        ``source``, ``interface_rhs`` and ``lateral_rhs`` add a volume source
        and inhomogeneous boundary data to the discrete operator; they exist
        for manufactured-solution verification and stay None in the physical
        problem.  ``lateral_rhs`` is a pair (left, right) of per-level values:
        u on the edge for a Dirichlet side, u_x for a Neumann side, and
        -u_x + sigma*u resp. u_x + sigma*u for a Robin side.

        The field's ``meta["forward"]`` records the ``method`` ("band",
        "gmres", or "superlu" for a right-hand side on which GMRES missed its
        bound), the GMRES ``iterations`` (0 for "band") and the ``residual``
        max|D(Au - b)| / max|Db| of the returned field.
        """
        return self._solve_rhs(_right_hand_side(
            self.curve, self.lateral, self.eta, f, source, interface_rhs, lateral_rhs))

    def _solve_rhs(self, rhs):
        if self.band is not None:
            u, its, method = self.band.solve(self.rowscale * rhs), 0, "band"
        else:
            u, its, res = _gmres(self.A, self.rowscale, self.precond, rhs)
            method = "gmres"
            if res > _GMRES_TOL:
                try:
                    lu = splu(self.A.tocsr().multiply(self.rowscale[:, None]).tocsc())
                except RuntimeError as exc:
                    raise RuntimeError("sparse factorisation failed: %s" % (exc,))
                u, method = lu.solve(self.rowscale * rhs), "superlu"
        return self._gated_field(u, rhs, {"method": method, "iterations": its})

    def _gated_field(self, u, rhs, forward):
        """The field of a solution ``u`` of A u = rhs, once it is finite and
        its residual in the unscaled A passes the gate; ``forward`` gains the
        row-scaled residual and becomes ``meta["forward"]``."""
        if not np.all(np.isfinite(u)):
            raise RuntimeError("sparse linear solve returned non-finite values")
        r = self.A @ u - rhs
        resid = float(np.max(np.abs(r)))
        scale = float(np.max(np.abs(self.A) @ np.abs(u))) + float(np.max(np.abs(rhs)))
        if resid > 1e-8 * max(1.0, scale):
            raise RuntimeError("discrete residual too large: %.3g" % resid)
        b = self.rowscale * rhs
        forward["residual"] = float(np.max(np.abs(self.rowscale * r))) / max(
            float(np.max(np.abs(b))), np.finfo(float).tiny)
        return MeshField(u.reshape(self.curve.N, self.eta.size), self.curve, self.eta,
                         meta={"forward": forward})


def _right_hand_side(curve, lateral, eta, f, source=None, interface_rhs=None, lateral_rhs=None):
    """The right-hand side of `ForwardOperator.solve`, in row order."""
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
        _corner_compat_warning(curve, lateral, f)
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
    return rhs.ravel()


# most depth levels factored by band LU; deeper meshes are solved by GMRES.
# 49 was measured against the nested-dissection SuperLU factor that deep
# meshes used before (see `assemble`); it has not been re-measured against
# GMRES (ROADMAP item 10, step 2)
_BAND_LEVELS = 49


class _BandLU:
    """LAPACK band LU (``dgbtrf``, partial pivoting, in place) of band storage
    ``ab`` with ``kl`` sub- and as many super-diagonals, entry (k, c) at
    ``ab[2 kl + k - c, c]`` and rows 0..kl-1 free for fill; ``solve`` back-solves."""

    def __init__(self, ab, kl):
        self.kl = kl
        self.lu, self.piv, info = dgbtrf(ab, kl, kl, overwrite_ab=1)
        if info != 0:
            raise RuntimeError("sparse factorisation failed: band LU info %d" % info)

    def solve(self, b):
        return dgbtrs(self.lu, self.kl, self.kl, b, self.piv)[0]


def _levels(curve, interface, M):
    """The number of depth levels, checked with the mesh and interface: by
    default the mapped cells are roughly square, 129 x 65 at the standard
    resolution."""
    if curve.N < 5:
        raise ValueError("need at least 5 x-samples")
    M = (curve.N - 1) // 2 + 1 if M is None else int(M)
    if M < 5:
        raise ValueError("need at least 5 depth levels")
    if interface.kind not in _INTERFACE_KINDS:
        raise ValueError("unknown interface kind %r" % (interface.kind,))
    return M


def _impedance(curve, interface):
    """Samples of the combined impedance of an "I" interface; None otherwise."""
    if interface.kind != "I":
        return None
    gamc = (_samples_on_grid(interface.gamma, curve.x, "gamma") if interface.combined
            else combined_impedance(interface.gamma, curve))
    if not np.all(gamc > 0.0):
        raise ValueError("impedance coefficient must be positive")
    return gamc


def _one_sided(lateral, hx, inward, edge_sign):
    """A Neumann or Robin side's row cxs * U_x + cu * U, U_x one-sided
    inward: returns cxs and the weights of U at the edge and one and two
    columns in."""
    if lateral.kind == "neumann":
        cxs, cu = 1.0, 0.0
    else:
        cxs, cu = edge_sign, lateral.robin_coeff
    sgn = float(inward)
    return cxs, (cxs * sgn * (-3.0) / (2.0 * hx) + cu, cxs * sgn * 2.0 / hx,
                 -cxs * sgn / (2.0 * hx))


def _stencil(curve, lateral, interface, M, gamc):
    """Write each coefficient of the discrete problem once into a table of
    the 12 diagonals the stencil reaches, indexed by offset and row.

    Returns the depth grid ``eta``, the ``offsets`` d, the table, whose
    entry [r, k] is entry (k, k + offsets[r]) of row k = i * M + j and zero
    where unwritten, the mask of written entries and ``rowscale`` =
    1/max|row|.  ``gamc`` is `_impedance`'s."""
    N = curve.N
    hx = curve.h
    eta = np.linspace(0.0, 1.0, M)
    he = 1.0 / (M - 1)
    ell = curve.ell
    dl = curve.dell()
    d2l = curve.d2ell()

    # unwritten entries stay NaN until the mask is read off
    offsets = np.array([-2 * M, -M - 1, -M, 1 - M, -2, -1, 0, 1, M - 1, M, M + 1, 2 * M])
    slot = {d: r for r, d in enumerate(offsets.tolist())}
    diags = np.full((offsets.size, N, M), np.nan)

    def put(d, i, j, v):
        diags[slot[d], i, j] = v

    # interior nine-point stencil
    inner = slice(1, -1)
    slope = dl / ell
    a = eta[inner] * slope[inner, None]
    b = eta[inner] * (d2l / ell - 2.0 * slope ** 2)[inner, None]
    ce = a * a + (1.0 / ell ** 2)[inner, None]
    cx = 1.0 / hx ** 2
    ie2 = 1.0 / he ** 2
    put(0, inner, inner, -2.0 * cx - 2.0 * ce * ie2)
    put(M, inner, inner, cx)
    put(-M, inner, inner, cx)
    put(1, inner, inner, ce * ie2 - b / (2.0 * he))
    put(-1, inner, inner, ce * ie2 + b / (2.0 * he))
    cc = -a / (2.0 * hx * he)
    put(M + 1, inner, inner, cc)
    put(-M - 1, inner, inner, cc)
    put(M - 1, inner, inner, -cc)
    put(1 - M, inner, inner, -cc)

    # bottom edge: Dirichlet trace (owns the corners)
    put(0, slice(None), 0, 1.0)

    # top edge, interior columns
    if interface.kind == "D":
        put(0, inner, -1, 1.0)
    else:
        # ((1+ell'^2)/ell) U_eta - ell' U_x + gamma_comb U = rhs, with the
        # backward one-sided U_eta; identical to -ell' u_x + u_y + gamma_comb u
        w = (1.0 + dl[inner] ** 2) / (2.0 * he * ell[inner])
        put(0, inner, -1, 3.0 * w + (gamc[inner] if gamc is not None else 0.0))
        put(-1, inner, -1, -4.0 * w)
        put(-2, inner, -1, w)
        put(M, inner, -1, -dl[inner] / (2.0 * hx))
        put(-M, inner, -1, dl[inner] / (2.0 * hx))

    def lateral_rows(i0, inward, edge_sign):
        """Rows j = 1..M-1 of one lateral edge (the top corner included)."""
        if lateral.kind == "dirichlet":
            put(0, i0, slice(1, None), 1.0)
            return
        # row: cxs * (U_x - a U_eta) + cu * U = rhs, one-sided U_x inward
        cxs, (w0, w1, w2) = _one_sided(lateral, hx, inward, edge_sign)
        put(0, i0, slice(1, None), w0)
        put(inward * M, i0, slice(1, None), w1)
        put(2 * inward * M, i0, slice(1, None), w2)
        aa = -cxs * eta * (dl[i0] / ell[i0])  # weight of U_eta in the row
        put(1, i0, inner, aa[inner] / (2.0 * he))
        put(-1, i0, inner, -aa[inner] / (2.0 * he))
        # the only entry written twice; a two-term sum commutes, so it is
        # bitwise what summing the duplicate of a COO would give
        diags[slot[0], i0, -1] += 3.0 * aa[-1] / (2.0 * he)
        put(-1, i0, -1, -4.0 * aa[-1] / (2.0 * he))
        put(-2, i0, -1, aa[-1] / (2.0 * he))

    lateral_rows(0, +1, -1.0)
    lateral_rows(N - 1, -1, +1.0)

    diags = diags.reshape(offsets.size, N * M)
    written = ~np.isnan(diags)
    diags[~written] = 0.0
    rowscale = 1.0 / np.max(np.abs(diags), axis=0)
    return eta, offsets, diags, written, rowscale


def _column_indexed(offsets, table):
    """A `_stencil` table shifted to column-indexed storage, entry (k, k + d)
    in column k + d: SciPy's DIA layout."""
    n = table.shape[1]
    data = np.zeros_like(table)
    for r, d in enumerate(offsets):
        to, of = slice(max(d, 0), n + min(d, 0)), slice(max(-d, 0), n - max(d, 0))
        data[r, to] = table[r, of]
    return data


def assemble(curve, lateral, interface, M=None):
    """Build the discrete mixed problem below the curve, ready to solve.

    The field is to satisfy ``lateral`` on the sides and ``interface`` on
    the upper curve; the returned `ForwardOperator` solves for each bottom
    trace.  ``M`` is the number of depth levels (default keeps the mapped
    cells roughly square, 129 x 65 at the standard resolution).

    The operator is written by `_stencil`; the table shifted to
    column-indexed storage is the unscaled matrix ``A`` in DIA form, kept
    for the residual gate and the Krylov products.  D scales each row by
    ``rowscale`` = 1/max|row|.  Up to _BAND_LEVELS = 49 depth levels the
    scaled table is the band (kl = ku = 2M) of D A that `_BandLU` factors
    with LAPACK's ``dgbtrf``.  Deeper meshes are not factored: the operator
    holds the curve's `_column_preconditioner`, and each right-hand side is
    a `_gmres` solve of D A u = D b.

    The split was measured on one BLAS thread as one-shot solves, best of 7
    with each path forced, for N = 65, 129 and 257, against the
    nested-dissection SuperLU factor that deep meshes had then: the band
    factor written from the table took 0.91-0.98 of SuperLU's time at M =
    49, and 1.00-1.13 at M = 53 for N = 65 and 129.
    """
    M = _levels(curve, interface, M)
    gamc = _impedance(curve, interface)
    eta, offsets, diags, _, rowscale = _stencil(curve, lateral, interface, M, gamc)
    n = curve.N * M
    A = dia_matrix((_column_indexed(offsets, diags), offsets), shape=(n, n))
    if M > _BAND_LEVELS:
        return ForwardOperator(curve, lateral, eta, A, rowscale, None,
                               _column_preconditioner(curve, lateral, interface, M, gamc))
    # the scaled table fills rows kl..3kl of LAPACK's band storage
    kl = 2 * M
    ab = np.zeros((3 * kl + 1, n), order="F")
    ab[2 * kl - offsets] = _column_indexed(offsets, diags * rowscale)
    return ForwardOperator(curve, lateral, eta, A, rowscale, _BandLU(ab, kl), None)


def _column_preconditioner(curve, lateral, interface, M, gamc):
    """Approximate inverse of the operator that `_stencil` writes below
    ``curve``, for "I" with the combined impedance ``gamc``: returns
    ``solve(r)``, for a right-hand side ``r`` in row order.

    The approximation keeps each column's depth scale 1/ell(x)^2 and drops
    the cross term, the drift, the a^2 part of the eta-coefficient and the
    x-coupling of the top row.  Taking the bottom and Dirichlet values as
    known and eliminating the other side and top rows then leaves
    Tx U + diag(1/ell^2) U Teta^T = R on the interior nodes, Tx and Teta
    tridiagonal, Teta at unit height.  Folding the top row into Teta needs
    its ratio w/t (below) to be one number; "N" and "D" tops have 1/3 and 0
    in every column, and "I" tops take the mean over the interior columns.
    In Teta's eigenbasis each eta-mode k is one tridiagonal system in x,
    Tx + lam_k diag(1/ell^2), and all M - 2 of them are one banded solve:
    Fourier analysis in depth and tridiagonal solves in x (Swarztrauber,
    SIAM Review 19 (1977) 490-501).  On a flat curve with a constant
    impedance it is the exact inverse."""
    N, K = curve.N, M - 2
    hx, he = curve.h, 1.0 / (M - 1)
    ell, dl = curve.ell[1:-1], curve.dell()[1:-1]
    cx, ie2 = 1.0 / hx ** 2, 1.0 / he ** 2
    # a non-Dirichlet top row t U_{M-1} - 4w U_{M-2} + w U_{M-3} = r per
    # interior column (w = 0, t = 1: a Dirichlet top)
    w, t = np.zeros(N - 2), np.ones(N - 2)
    if interface.kind != "D":
        w = (1.0 + dl ** 2) / (2.0 * he * ell)
        t = 3.0 * w + (gamc[1:-1] if gamc is not None else 0.0)
    q = float(np.mean(w / t))
    diag = np.full(K, -2.0 * ie2)
    lower, upper = np.full(K - 1, ie2), np.full(K - 1, ie2)
    diag[-1] += 4.0 * ie2 * q
    lower[-1] -= ie2 * q
    # Teta = Ve diag(lam) Ve^-1, symmetrised by a diagonal similarity
    # (every product lower * upper is positive)
    g = np.concatenate(([1.0], np.cumprod(np.sqrt(lower / upper))))
    lam, Q = eigh_tridiagonal(diag, np.sqrt(lower * upper))
    Ve, Ve_inv = g[:, None] * Q, Q.T / g
    # each side's weights (w0, w1, w2) of U at the edge and one and two
    # columns in; a Dirichlet side is (1, 0, 0), the others are eliminated
    # from Tx on columns 1..N-2
    sides = [(i0, inward, (1.0, 0.0, 0.0) if lateral.kind == "dirichlet"
              else _one_sided(lateral, hx, inward, float(-inward))[1])
             for i0, inward in ((0, 1), (N - 1, -1))]
    # Tx + lam_k diag(1/ell^2) for every mode k in `solve_banded`'s layout:
    # super-, main and sub-diagonal, zero between modes
    ab = np.zeros((3, K, N - 2))
    ab[0, :, 1:] = ab[2, :, :-1] = cx
    ab[1] = -2.0 * cx + lam[:, None] / ell ** 2
    # an eliminated side row moves w1/w0 and w2/w0 of the side's U onto the
    # first two interior columns
    (_, _, (w0, w1, w2)), (_, _, (v0, v1, v2)) = sides
    ab[1, :, 0] -= cx * w1 / w0
    ab[0, :, 1] -= cx * w2 / w0
    ab[1, :, -1] -= cx * v1 / v0
    ab[2, :, -2] -= cx * v2 / v0
    ab = ab.reshape(3, K * (N - 2))
    ceta = ie2 / ell ** 2

    def solve(r):
        r = r.reshape(N, M)
        R = r[1:-1, 1:-1].copy()
        R[:, 0] -= ceta * r[1:-1, 0]
        R[:, -1] -= ceta * r[1:-1, -1] / t
        for i0, inward, (w0, _, _) in sides:
            R[i0 + inward - 1] -= cx * r[i0, 1:-1] / w0
        Uk = solve_banded((1, 1), ab, (R @ Ve_inv.T).T.ravel(), check_finite=False)
        U = Uk.reshape(K, N - 2).T @ Ve.T
        z = np.empty((N, M))
        z[:, 0] = r[:, 0]
        z[1:-1, 1:-1] = U
        z[1:-1, -1] = (r[1:-1, -1] + 4.0 * w * U[:, -1] - w * U[:, -2]) / t
        for i0, inward, (w0, w1, w2) in sides:
            z[i0, 1:] = (r[i0, 1:] - w1 * z[i0 + inward, 1:] - w2 * z[i0 + 2 * inward, 1:]) / w0
        return z.ravel()

    return solve


# GMRES of a deep solve: restart length, number of cycles, and the
# bound on the row-scaled residual max|D(Au - b)| / max|Db|
_GMRES_RESTART = 16
_GMRES_CYCLES = 2
_GMRES_TOL = 1e-13


def _gmres(A, rowscale, precond, rhs):
    """Solve A u = rhs by restarted GMRES on the row-scaled system, D A u =
    D rhs with D = diag(``rowscale``), right-preconditioned by ``precond``,
    an approximate inverse of A.  Starts from ``precond(rhs)`` and, after
    _GMRES_CYCLES cycles of _GMRES_RESTART iterations at most, returns u,
    the number of iterations and the row-scaled residual max|D(Au - rhs)| /
    max|D rhs|, which is at most _GMRES_TOL unless the cycles ran out.

    An iterate is formed once GMRES's estimate of the residual's 2-norm
    meets the bound, and kept if its true max-norm does.  The 2-norm is the
    stricter test: stopped on the max-norm alone, 257 x 129 solves ended
    one or two iterations earlier and up to 1e-10 (relative) away from the
    direct solve, against 6e-12 at most.

    Inner products, norms and combinations of the basis are summed by
    ``np.einsum``, not BLAS: OpenBLAS splits those sums by thread, so their
    last bits, and so the field's, would depend on the thread count."""
    b = rowscale * rhs
    bmax = max(float(np.max(np.abs(b))), np.finfo(float).tiny)
    tol = _GMRES_TOL * bmax
    m = _GMRES_RESTART

    def residual(u):
        return b - rowscale * (A @ u)

    u = precond(rhs)
    r = residual(u)
    its = 0
    for _ in range(_GMRES_CYCLES):
        if np.max(np.abs(r)) <= tol:
            break
        V, Z = np.empty((m + 1, b.size)), np.empty((m, b.size))
        H, g = np.zeros((m + 1, m)), np.zeros(m + 1)
        cs, sn = np.zeros(m), np.zeros(m)
        g[0] = math.sqrt(np.einsum("i,i", r, r))
        V[0] = r / g[0]
        for k in range(m):
            Z[k] = precond(V[k] / rowscale)
            v = rowscale * (A @ Z[k])
            its += 1
            for _ in range(2):  # classical Gram-Schmidt, twice
                h = np.einsum("ij,j", V[:k + 1], v)
                v -= np.einsum("i,ij", h, V[:k + 1])
                H[:k + 1, k] += h
            vnorm = math.sqrt(np.einsum("i,i", v, v))
            V[k + 1] = v / vnorm if vnorm > 0.0 else 0.0
            for i in range(k):  # earlier Givens rotations
                H[i, k], H[i + 1, k] = (cs[i] * H[i, k] + sn[i] * H[i + 1, k],
                                        cs[i] * H[i + 1, k] - sn[i] * H[i, k])
            rho = math.hypot(H[k, k], vnorm)
            cs[k], sn[k] = H[k, k] / rho, vnorm / rho
            H[k, k] = rho
            g[k + 1] = -sn[k] * g[k]
            g[k] *= cs[k]
            last = k == m - 1 or vnorm == 0.0
            if last or abs(g[k + 1]) <= tol:
                y = solve_triangular(H[:k + 1, :k + 1], g[:k + 1], check_finite=False)
                trial = u + np.einsum("i,ij", y, Z[:k + 1])
                r_trial = residual(trial)
                if last or np.max(np.abs(r_trial)) <= tol:
                    u, r = trial, r_trial
                    break
    return u, its, float(np.max(np.abs(r))) / bmax


def solve_forward(curve, lateral, interface, f, M=None):
    """Solve the mixed boundary-value problem on the curved strip: the field
    is harmonic, equals ``f`` on the bottom edge, satisfies ``lateral`` on the
    sides and ``interface`` on the upper curve.

    This is ``assemble(curve, lateral, interface, M).solve(f)``: band LU up
    to _BAND_LEVELS depth levels, GMRES on the curve's
    `_column_preconditioner` on deeper meshes.  The field's
    ``meta["forward"]`` records the method, iterations and residual."""
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


def interface_traces(field, curve=None):
    """Value and physical first and second derivatives of the field along a
    curve.  With no curve, or the field's own, that is the mesh's top edge,
    traced by one-sided depth stencils (four-point for second derivatives)
    and the chain rule.  Any other curve must pass `_check_on_mesh`, as
    every admissible curve does for a hold-all field: u, u_y and u_yy come
    from one call of the field's kept `_curve_sampler`, u_x and u_xy from
    differences of u and u_y along the curve minus ell' times their
    y-derivative."""
    top = field.curve
    if curve is not None and not (
            top.same_grid(curve) and np.allclose(top.ell, curve.ell, rtol=1e-12, atol=1e-14)):
        _check_on_mesh(field, curve)
        sample, h, dl = _curve_sampler(field), curve.h, curve.dell()
        u, uy, uyy = sample(curve.ell, (0, 1, 2))
        return InterfaceTraces(u=u, u_x=_first_diff(u, h) - dl * uy,
                               u_y=uy, u_yy=uyy, u_xy=_first_diff(uy, h) - dl * uyy)
    U = field.values
    if U.shape[1] < 4:
        raise ValueError("interface traces need at least 4 depth levels")
    he = _uniform_step(field.eta, "interface_traces")
    hx = field.curve.h
    ell = field.curve.ell
    dl = field.curve.dell()
    ue = (3.0 * U[:, -1] - 4.0 * U[:, -2] + U[:, -3]) / (2.0 * he)
    uee = (2.0 * U[:, -1] - 5.0 * U[:, -2] + 4.0 * U[:, -3] - U[:, -4]) / he ** 2
    ux = _first_diff(U[:, -1], hx)
    uxe = _first_diff(ue, hx)
    s = dl / ell
    return InterfaceTraces(
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
    admissible subdomain, so callers may trace it along trial curves with
    `interface_traces` and `curve_conormal`; the field keeps the column
    spline of its first trace for every later one.  Its ``values`` are a
    read-only view of the continuation's own array, not a copy.  ``meta``
    holds the ``scheme`` kind, the ``zeroed_modes`` its guards zeroed at
    each level, the ``bands`` of a scheme that has them, ``overflow``:
    whether a level leaves the double-precision exponential range, which
    only the exact formula can, and ``kernel_points``: the Mittag-Leffler
    and tail points this call evaluated.  The continuation keeps its
    data-independent kernels per scheme request and geometry, so
    ``kernel_points`` is 0 when earlier calls on the same basis, heights and
    orders filled them.
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
            "overflow": cont.overflow, "kernel_points": cont.kernel_points}
    if bands is not None:
        meta["bands"] = bands

    olell = float(y[-1]) if y[-1] > 0.0 else 1.0
    curve = Curve(np.full(data.basis.N, olell), data.basis.L, olell)
    return MeshField(cont.values, curve, y / olell, meta=meta)


def _check_on_mesh(field, curve):
    """Raise unless ``curve`` shares the x-grid of ``field`` and stays under
    its top, above which the column splines would extrapolate."""
    if not field.curve.same_grid(curve):
        raise ValueError("curve does not share the field's x-grid")
    if np.any(curve.ell > field.curve.ell * (1.0 + 1e-12)):
        raise ValueError("curve leaves the field's mesh; trace it on a covering field")


def _spline_tables(eta, values):
    """Coefficient table c of the not-a-knot cubic spline in eta through
    every column of values (shape (N, M), M = eta.size levels): c has shape
    (4, M - 1, N), and row r of it multiplies (eta - eta[k]) ** (3 - r) on
    interval k.  `_derived_rows` gives its derivatives' rows.

    This is CubicSpline(eta, values, axis=1).c bit for bit: the same slopes,
    tridiagonal system and right-hand side, one LAPACK dgtsv call over all
    columns and the same Hermite coefficient formulas.  Like CubicSpline,
    refuses non-finite input and eta not strictly increasing; it also
    refuses fewer than 4 levels, where CubicSpline changes its end
    conditions."""
    eta = np.asarray(eta, dtype=float)
    values = np.asarray(values, dtype=float)
    n = eta.size
    if eta.ndim != 1 or values.ndim != 2 or values.shape[1] != n:
        raise ValueError("values must hold one column of eta.size levels per row")
    if n < 4:
        raise ValueError("need at least 4 depth levels to interpolate")
    if not (np.isfinite(eta).all() and np.isfinite(values).all()):
        raise ValueError("spline levels and values must be finite")
    dx = eta[1:] - eta[:-1]
    if not (dx > 0.0).all():
        raise ValueError("spline levels must be strictly increasing")
    y = values.T
    dxr = dx[:, None]
    slope = (y[1:] - y[:-1]) / dxr
    # not-a-knot rows at both ends, the interior rows of C2 continuity
    du = np.concatenate(([eta[2] - eta[0]], dx[:-1]))
    diag = np.concatenate((dx[1:2], 2 * (dx[:-1] + dx[1:]), dx[-2:-1]))
    dl = np.concatenate((dx[1:], [eta[-1] - eta[-3]]))
    b = np.empty(values.shape).T
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = eta[2] - eta[0]
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    d = eta[-1] - eta[-3]
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    *_, s, info = dgtsv(dl, diag, du, b, 1, 1, 1, 1)
    if info != 0:
        raise np.linalg.LinAlgError("singular spline system")
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


# PPoly.derivative's factors on the leading rows of a cubic, per order; the
# factor 1 on the last row of the first derivative is left out
_DERIVATIVE_FACTORS = {0: (), 1: (3.0, 2.0), 2: (6.0, 2.0)}


def _derived_rows(c, q):
    """Rows, highest power first, of the q-th derivative (q = 0, 1, 2) of the
    cubic pieces whose rows are c: CubicSpline.derivative(q).c on c's rows,
    bit for bit."""
    factors = _DERIVATIVE_FACTORS[q]
    return [f * row for f, row in zip(factors, c)] + list(c[len(factors):4 - q])


def _curve_sampler(field):
    """Column splines of ``field`` in height, built on the field's first
    trace and kept on it (`MeshField._sampler`): returns ``sample(ell,
    dy=0)``, the field's ``dy``-th y-derivative (dy = 0, 1, 2) along the
    curve y = ell(x), for any number of curves on the field's x-grid.
    ``ell`` may stack curves along leading axes (shape (..., N)); each
    element is evaluated as it would be alone.  A tuple dy returns one array
    per order, all from one interval search and one gather.

    One cubic spline in eta serves every column (`_spline_tables`): column i
    holds the levels eta * base_i, with base_i the mesh's top height there,
    so it is evaluated at eta = ell_i / base_i by Horner on its own cubic
    piece and its derivative rescaled by base_i^-dy.  Mild extrapolation
    above the top level is allowed."""
    return field._sampler


def curve_conormal(zbar, curve):
    """Trace of zbar and its conormal derivative along the `Curve` y = ell(x).

    Returns (on_curve, conormal) where conormal = (1 + ell'^2) d_y zbar
    - ell' * d/dx [zbar(x, ell(x))]; this equals the (unnormalized) normal
    derivative zbar_y - ell' zbar_x on the curve.  Raises unless the curve
    passes `_check_on_mesh`."""
    _check_on_mesh(zbar, curve)
    (zl, _), _, dnu = _conormal(_curve_sampler(zbar), curve)
    return zl, dnu


def _conormal(sample, curve, orders=(0, 1)):
    """`curve_conormal` through a `_curve_sampler` of zbar, with what it
    traced on the way: (traces, dzl, conormal).  traces is
    sample(curve.ell, orders), zbar's y-derivatives of the given orders on
    the curve (orders starts with 0, 1), and dzl = d/dx [zbar(x, ell(x))]
    by `_first_diff` at the curve's spacing, which its slope `dell()` also
    takes."""
    traces = sample(curve.ell, orders)
    zl, zy = traces[0], traces[1]
    dl = curve.dell()
    dzl = _first_diff(zl, curve.h)
    return traces, dzl, (1.0 + dl * dl) * zy - dl * dzl
