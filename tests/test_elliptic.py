import math
import pickle
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgbtrf
from scipy.sparse.linalg import splu

from fraccauchy.continuation import (
    CauchyData,
    ContinuationScheme,
    continue_banded,
    continue_fac_lap,
    continue_left_dc,
)
from fraccauchy.elliptic import (
    Curve,
    InterfaceBC,
    MeshField,
    _BandLU,
    _column_preconditioner,
    _curve_sampler,
    _derived_rows,
    _first_diff,
    _impedance,
    _spline_tables,
    _stencil,
    assemble,
    bottom_flux,
    combined_impedance,
    curve_conormal,
    interface_traces,
    solve_cauchy_holdall,
    solve_forward,
)
from fraccauchy.spectral import LateralBC, build_basis
from helpers import with_noise


def separable_exact(x, y, L, h):
    return np.sin(np.pi * x / L) * np.sinh(np.pi * (h - y) / L) / math.sinh(np.pi * h / L)


def solve_separable(N, L=1.0, h=0.5):
    x = np.linspace(0.0, L, N)
    curve = Curve(np.full(N, h), L, h + 0.1)
    f = np.sin(np.pi * x / L)
    return x, curve, solve_forward(curve, LateralBC("dirichlet"), InterfaceBC("D"), f)


class TestCurve:
    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            Curve(np.array([0.3, 0.2, -0.1, 0.2, 0.3]), 1.0, 0.5)

    def test_rejects_curve_above_holdall(self):
        with pytest.raises(ValueError):
            Curve(np.full(9, 0.6), 1.0, 0.5)

    NONPOSITIVE = "curve must be finite and strictly positive"
    ABOVE = "curve exceeds the hold-all height"

    @pytest.mark.parametrize("bad, message", [
        ({4: np.nan}, NONPOSITIVE),
        ({0: np.inf}, NONPOSITIVE),
        ({8: -np.inf}, NONPOSITIVE),
        ({3: 0.0}, NONPOSITIVE),
        ({5: -0.1}, NONPOSITIVE),
        ({2: 0.5 * (1.0 + 1e-11)}, ABOVE),
        ({1: 0.6, 6: np.nan}, NONPOSITIVE),
        ({1: 0.6, 6: 0.0}, NONPOSITIVE),
        ({1: np.inf, 6: -1.0}, NONPOSITIVE),
        ({1: 0.6, 7: 0.7}, ABOVE),
    ], ids=["nan", "inf", "-inf", "zero", "negative", "above", "above+nan", "above+zero",
            "inf+negative", "above-twice"])
    def test_refusal_messages(self, bad, message):
        # every refused sample set gives the one message of its first check
        ell = np.full(9, 0.3)
        for i, v in bad.items():
            ell[i] = v
        with pytest.raises(ValueError, match="^%s$" % message):
            Curve(ell, 1.0, 0.5)

    def test_top_within_rounding_of_holdall_accepted(self):
        ell = np.full(9, 0.3)
        ell[4] = 0.5 * (1.0 + 1e-13)
        assert Curve(ell, 1.0, 0.5).ell[4] == ell[4]

    def test_derivatives_exact_on_quadratic(self):
        x = np.linspace(0.0, 1.0, 41)
        c = Curve(0.3 + 0.1 * x ** 2, 1.0, 0.5)
        assert np.max(np.abs(c.dell() - 0.2 * x)) < 1e-12
        assert np.max(np.abs(c.d2ell() - 0.2)) < 1e-10

    def test_samples_and_slope_kept_read_only(self):
        # the curve owns a read-only copy of its samples, so its slope is
        # computed once and every call returns that same array
        x = np.linspace(0.0, 1.0, 41)
        samples = 0.3 + 0.1 * x ** 2
        c = Curve(samples, 1.0, 0.5)
        samples[0] = 0.4
        assert samples.flags.writeable and c.ell[0] == 0.3
        assert c.dell() is c.dell()
        np.testing.assert_array_equal(c.dell(), np.gradient(c.ell, c.h, edge_order=2))
        for a in (c.ell, c.dell()):
            with pytest.raises(ValueError):
                a[1] = 0.0


@pytest.mark.parametrize("n", [4, 5, 17, 129, 257])
@pytest.mark.parametrize("h", [0.7, np.float64(0.7)], ids=["float", "float64"])
def test_first_diff_is_gradient_bit_for_bit(n, h):
    # the spacing is not a power of two, so no division by it is exact
    v = np.random.default_rng(n).standard_normal(n)
    hn = h / (n - 1)
    np.testing.assert_array_equal(_first_diff(v, hn), np.gradient(v, hn, edge_order=2),
                                  strict=True)
    np.testing.assert_array_equal(_first_diff(v[::-1], hn),
                                  np.gradient(v[::-1], hn, edge_order=2), strict=True)


class TestSeparableClosedForm:
    """Constant curve, Dirichlet everywhere: u separates into a single mode."""

    def test_field_matches(self):
        x, curve, fld = solve_separable(129)
        err = np.max(np.abs(fld.values - separable_exact(x[:, None], fld.y, 1.0, 0.5)))
        assert err < 2e-5

    def test_bottom_flux_matches(self):
        x, curve, fld = solve_separable(129)
        exact = -np.pi * np.sin(np.pi * x) * math.cosh(0.5 * np.pi) / math.sinh(0.5 * np.pi)
        assert np.max(np.abs(bottom_flux(fld) - exact)) < 1.5e-3

    def test_interface_traces_match(self):
        x, curve, fld = solve_separable(129)
        tr = interface_traces(fld)
        s = math.sinh(0.5 * np.pi)
        assert np.max(np.abs(tr.u)) < 1e-9  # grounded top
        assert np.max(np.abs(tr.u_y + np.pi * np.sin(np.pi * x) / s)) < 5e-4
        assert np.max(np.abs(tr.u_yy)) < 1.5e-4
        assert np.max(np.abs(tr.u_xy + np.pi ** 2 * np.cos(np.pi * x) / s)) < 2.5e-3

    def test_mesh_doubling_order(self):
        errs_sol, errs_flux = [], []
        for N in (65, 129, 257):
            x, curve, fld = solve_separable(N)
            errs_sol.append(np.max(np.abs(fld.values - separable_exact(x[:, None], fld.y, 1.0, 0.5))))
            exact = -np.pi * np.sin(np.pi * x) * math.cosh(0.5 * np.pi) / math.sinh(0.5 * np.pi)
            errs_flux.append(np.max(np.abs(bottom_flux(fld) - exact)))
        for e in (errs_sol, errs_flux):
            assert math.log2(e[0] / e[1]) > 1.8
            assert math.log2(e[1] / e[2]) > 1.8


def test_constants_survive_all_neumann():
    N = 129
    curve = Curve(np.full(N, 0.4), 1.0, 0.5)
    fld = solve_forward(curve, LateralBC("neumann"), InterfaceBC("N"), np.ones(N))
    assert np.max(np.abs(fld.values - 1.0)) < 1e-8
    assert np.max(np.abs(bottom_flux(fld))) < 1e-6
    tr = interface_traces(fld)
    assert np.max(np.abs(tr.u - 1.0)) < 1e-8
    for d in (tr.u_x, tr.u_y, tr.u_yy, tr.u_xy):
        assert np.max(np.abs(d)) < 1e-6


# manufactured solution cos(K x + PH) exp(Q y) on the curved strip
K, Q, PH = 1.7, 0.6, 0.3


def _mms_errors(N, lat_kind, itf_kind):
    x = np.linspace(0.0, 1.0, N)
    ell = 0.1 * (0.8 + 0.1 * np.cos(2 * np.pi * x))
    dl = -0.02 * np.pi * np.sin(2 * np.pi * x)
    curve = Curve(ell, 1.0, 0.12)
    gam = 1.0 + 0.3 * np.sin(np.pi * x)

    def u(xx, yy):
        return np.cos(K * xx + PH) * np.exp(Q * yy)

    def u_x(xx, yy):
        return -K * np.sin(K * xx + PH) * np.exp(Q * yy)

    f = u(x, 0.0 * x)
    itf_rhs = -dl * u_x(x, ell) + Q * u(x, ell)
    if itf_kind == "I":
        itf_rhs = itf_rhs + gam * u(x, ell)
    M = (N - 1) // 2 + 1
    yl = np.linspace(0.0, 1.0, M) * ell[0]
    yr = np.linspace(0.0, 1.0, M) * ell[-1]
    if lat_kind == "neumann":
        lat = LateralBC("neumann")
        lrhs = (u_x(0.0 * yl, yl), u_x(1.0 + 0.0 * yr, yr))
    else:
        sig = 1.0
        lat = LateralBC("robin", sig)
        lrhs = (
            -u_x(0.0 * yl, yl) + sig * u(0.0 * yl, yl),
            u_x(1.0 + 0.0 * yr, yr) + sig * u(1.0 + 0.0 * yr, yr),
        )
    itf = InterfaceBC(itf_kind, gam if itf_kind == "I" else None)
    fld = assemble(curve, lat, itf).solve(
        f,
        source=lambda X, Y: (Q * Q - K * K) * u(X, Y),
        interface_rhs=itf_rhs,
        lateral_rhs=lrhs,
    )
    X = np.broadcast_to(x[:, None], fld.y.shape)
    tr = interface_traces(fld)
    return np.array(
        [
            np.max(np.abs(fld.values - u(X, fld.y))),
            np.max(np.abs(bottom_flux(fld) - Q * u(x, 0.0 * x))),
            np.max(np.abs(tr.u_x - u_x(x, ell))),
            np.max(np.abs(tr.u_y - Q * u(x, ell))),
            np.max(np.abs(tr.u_yy - Q * Q * u(x, ell))),
            np.max(np.abs(tr.u_xy - Q * u_x(x, ell))),
        ]
    )


@pytest.mark.parametrize(
    "lat_kind,itf_kind,meshes",
    [
        ("neumann", "I", (33, 65, 129, 257)),
        ("neumann", "N", (33, 65, 129)),
        ("robin", "I", (33, 65, 129)),
    ],
)
def test_manufactured_solution_orders(lat_kind, itf_kind, meshes):
    errs = [_mms_errors(N, lat_kind, itf_kind) for N in meshes]
    p = np.log2(errs[-2] / errs[-1])
    # solution, flux and first-derivative traces: second order;
    # one-sided second-derivative traces: reduced but >= 1.5
    assert p[0] > 1.8 and p[1] > 1.8
    assert p[2] > 1.8 and p[3] > 1.8
    assert p[4] > 1.5 and p[5] > 1.5
    assert errs[-1][0] < 1e-5


def test_discrete_maximum_principle():
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 1.0, 129)
    c = rng.standard_normal(4) * 0.5
    f = sum(cm * np.sin((m + 1) * np.pi * x) for m, cm in enumerate(c)) ** 2
    for ell in (np.full(129, 0.4), 0.3 + 0.05 * np.sin(np.pi * x)):
        curve = Curve(ell, 1.0, 0.5)
        fld = solve_forward(curve, LateralBC("dirichlet"), InterfaceBC("D"), f)
        assert fld.values.min() > -1e-9
        assert fld.values.max() < f.max() + 1e-9


def test_impedance_combined_coefficient_invariance():
    N = 97
    x = np.linspace(0.0, 1.0, N)
    curve = Curve(0.3 + 0.05 * np.sin(np.pi * x), 1.0, 0.4)
    gam = 0.8 + 0.4 * x
    f = np.sin(np.pi * x)
    raw = solve_forward(curve, LateralBC("dirichlet"), InterfaceBC("I", gam, combined=False), f)
    pre = solve_forward(
        curve, LateralBC("dirichlet"), InterfaceBC("I", combined_impedance(gam, curve)), f
    )
    assert np.max(np.abs(raw.values - pre.values)) < 1e-13


def test_operator_back_solves_match_one_shot_solves():
    # two right-hand sides on one factor, the first with every verification
    # input, equal solves on fresh operators
    N = 65
    x = np.linspace(0.0, 1.0, N)
    curve = Curve(0.3 + 0.05 * np.cos(2 * np.pi * x), 1.0, 0.4)
    lat, itf = LateralBC("neumann"), InterfaceBC("I", 0.8 + 0.4 * x)
    eta = np.linspace(0.0, 1.0, 33)
    verify = dict(
        source=lambda X, Y: np.sin(3 * X) * np.exp(Y),
        interface_rhs=0.7 * np.cos(2 * x),
        lateral_rhs=(np.sin(eta * curve.ell[0]), 0.5 * np.cos(eta * curve.ell[-1])),
    )
    f = np.cos(np.pi * x)
    op = assemble(curve, lat, itf)
    first, second = op.solve(f, **verify), op.solve(f)
    np.testing.assert_array_equal(
        first.values, assemble(curve, lat, itf).solve(f, **verify).values
    )
    np.testing.assert_array_equal(second.values, solve_forward(curve, lat, itf, f).values)
    assert np.max(np.abs(first.values - second.values)) > 0.1


_THIN_CURVES = {
    "flat": lambda x: np.full(x.size, 0.001),
    "wavy": lambda x: 0.002 + 0.0019 * np.cos(8 * np.pi * x),
}
_INTERFACES = {
    "D": InterfaceBC("D"),
    "N": InterfaceBC("N"),
    "I_stiff": InterfaceBC("I", 1e4, combined=False),
    "I_soft": InterfaceBC("I", 1e-4, combined=False),
}


@pytest.mark.parametrize("itf", sorted(_INTERFACES))
@pytest.mark.parametrize("lat_kind", ["dirichlet", "neumann", "robin"])
@pytest.mark.parametrize("shape", sorted(_THIN_CURVES))
def test_backward_stable_on_thin_curves(shape, lat_kind, itf):
    # curves down to 1% of the hold-all put 1/ell^2 ~ 1e6 against unit
    # Dirichlet rows; the factor must not trade stability for its ordering
    N = 33
    x = np.linspace(0.0, 1.0, N)
    op = assemble(
        Curve(_THIN_CURVES[shape](x), 1.0, 0.1), LateralBC(lat_kind, 100.0), _INTERFACES[itf]
    )
    # one seeded value per row: every edge's data comes from the grid R
    R = np.random.default_rng(5).standard_normal((N, op.eta.size))
    u = op.solve(R[:, 0], source=R, interface_rhs=R[:, -1], lateral_rhs=(R[0], R[-1]))
    u, b = u.values.ravel(), R.ravel()
    back = np.max(np.abs(op.A @ u - b)) / (
        np.max(abs(op.A).sum(axis=1)) * np.max(np.abs(u)) + np.max(np.abs(b))
    )
    assert back <= 1e-13


_SWEEP_INTERFACES = {
    "D": InterfaceBC("D"),
    "N": InterfaceBC("N"),
    "I": InterfaceBC("I", 0.8, combined=False),
}


@pytest.mark.parametrize("itf", sorted(_SWEEP_INTERFACES))
@pytest.mark.parametrize("lat_kind", ["dirichlet", "neumann", "robin"])
def test_band_factor_matches_superlu(lat_kind, itf, monkeypatch):
    # the Newton sweeps' 129 x 17 mesh is band-factored and never reaches
    # SuperLU; its field is the GMRES path's solve of the same matrix
    import fraccauchy.elliptic as el

    def refused(*args, **kwargs):
        raise AssertionError("splu called on a band-factored mesh")

    N, M = 129, 17
    x = np.linspace(0.0, 1.0, N)
    curve = Curve(0.08 + 0.01 * np.cos(2 * np.pi * x), 1.0, 0.1)
    args = (curve, LateralBC(lat_kind, 2.0), _SWEEP_INTERFACES[itf], M)
    with monkeypatch.context() as m:
        m.setattr(el, "splu", refused)
        op = assemble(*args)
        m.setattr(el, "_BAND_LEVELS", 0)
        ref = assemble(*args)
        f = np.sin(np.pi * x) if lat_kind == "dirichlet" else 1.0 + 0.3 * np.cos(np.pi * x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the Robin corners
            u, r = op.solve(f), ref.solve(f)
    assert isinstance(op.band, _BandLU) and ref.band is None
    assert (op.A != ref.A).nnz == 0
    assert u.meta["forward"]["method"] == "band" and r.meta["forward"]["method"] == "gmres"
    assert np.max(np.abs(u.values - r.values)) <= 1e-12 * np.max(np.abs(r.values))


_PATTERN_INTERFACES = {
    "D": InterfaceBC("D"),
    "N": InterfaceBC("N"),
    "I_raw": InterfaceBC("I", 0.8, combined=False),
    "I_combined": InterfaceBC("I", 0.8),
}
_PATTERN_CURVES = {
    "flat": lambda x: np.full(x.size, 0.08),
    "curved": lambda x: 0.08 + 0.01 * np.cos(2 * np.pi * x),
}


@pytest.mark.parametrize("N,M", [(129, 17), (17, 9)])
@pytest.mark.parametrize("shape", sorted(_PATTERN_CURVES))
@pytest.mark.parametrize("itf", sorted(_PATTERN_INTERFACES))
@pytest.mark.parametrize("lat_kind", ["dirichlet", "neumann", "robin"])
def test_band_array_is_the_scaled_matrix(lat_kind, itf, shape, N, M):
    # the band factor is dgbtrf's of the row-scaled A scattered into LAPACK
    # band storage (explicit zeros of A may be dropped: values, not the
    # signs of zeros, are compared)
    x = np.linspace(0.0, 1.0, N)
    op = assemble(Curve(_PATTERN_CURVES[shape](x), 1.0, 0.1), LateralBC(lat_kind, 2.0),
                  _PATTERN_INTERFACES[itf], M)
    assert isinstance(op.band, _BandLU)
    A = op.A.tocsr()
    A.data = A.data * np.repeat(op.rowscale, np.diff(A.indptr))
    kl = 2 * M
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    ab = np.zeros((3 * kl + 1, A.shape[0]), order="F")
    ab[2 * kl + rows - A.indices, A.indices] = A.data
    lu, piv, info = dgbtrf(ab, kl, kl, overwrite_ab=1)
    assert info == 0
    np.testing.assert_array_equal(op.band.lu, lu)
    np.testing.assert_array_equal(op.band.piv, piv)


@pytest.mark.parametrize("shape", sorted(_PATTERN_CURVES))
@pytest.mark.parametrize("itf", sorted(_PATTERN_INTERFACES))
@pytest.mark.parametrize("lat_kind", ["dirichlet", "neumann", "robin"])
def test_superlu_mesh_keeps_stencil_pattern(lat_kind, itf, shape):
    # every stencil entry is written once, the flat curve's zero cross terms
    # included: nine per interior node, one per bottom node, one (Dirichlet)
    # or five per top and lateral row
    N, M = 33, 57
    x = np.linspace(0.0, 1.0, N)
    curve = Curve(_PATTERN_CURVES[shape](x), 1.0, 0.1)
    interface = _PATTERN_INTERFACES[itf]
    written = _stencil(curve, LateralBC(lat_kind, 2.0), interface, M,
                       _impedance(curve, interface))[3]
    top = 1 if itf == "D" else 5
    side = 1 if lat_kind == "dirichlet" else 5
    assert written.sum() == 9 * (N - 2) * (M - 2) + N + top * (N - 2) + side * 2 * (M - 1)


def test_band_lu_reports_singular_matrix():
    with pytest.raises(RuntimeError, match="band LU info"):
        _BandLU(np.zeros((7, 5), order="F"), 2)


def _bump(u):
    u = u.copy()
    u[u.size // 2] += 1e-3 * np.max(np.abs(u))
    return u


@pytest.mark.parametrize(
    "corrupt, message",
    [(_bump, "discrete residual too large"),
     (lambda u: np.full_like(u, np.nan), "non-finite values")],
    ids=["residual", "nan"],
)
@pytest.mark.parametrize("N, M, banded", [(33, 17, True), (129, 65, False)],
                         ids=["band", "superlu"])
def test_forward_solve_gates(corrupt, message, N, M, banded, monkeypatch):
    # the deep case, under its old id, is the GMRES operator
    import fraccauchy.elliptic as el

    x = np.linspace(0.0, 1.0, N)
    op = assemble(Curve(np.full(N, 0.3), 1.0, 0.4), LateralBC("neumann"), InterfaceBC("N"), M=M)
    assert (op.band is not None) is banded
    f = np.cos(np.pi * x)
    op.solve(f)
    if banded:
        band = op.band
        op.band = SimpleNamespace(solve=lambda b: corrupt(band.solve(b)))
    else:
        gmres = el._gmres

        def corrupted(*args):
            u, its, res = gmres(*args)
            return corrupt(u), its, res

        monkeypatch.setattr(el, "_gmres", corrupted)
    with pytest.raises(RuntimeError, match=message):
        op.solve(f)


_DEEP_INTERFACES = {
    "D": InterfaceBC("D"),
    "N": InterfaceBC("N"),
    "I_combined": InterfaceBC("I", lambda x: 0.5 + 0.3 * np.sin(np.pi * x)),
    "I_raw": InterfaceBC("I", lambda x: 0.5 + 0.3 * np.sin(np.pi * x), combined=False),
}


_FLAT_INTERFACES = {
    "D": InterfaceBC("D"),
    "N": InterfaceBC("N"),
    "I_combined": InterfaceBC("I", 0.8),
    "I_raw": InterfaceBC("I", 0.8, combined=False),
}


@pytest.mark.parametrize("itf", sorted(_FLAT_INTERFACES))
@pytest.mark.parametrize("lat_kind", ["dirichlet", "neumann", "robin"])
def test_flat_strip_inverts_the_flat_operator(lat_kind, itf):
    # below a flat curve with a constant impedance the column preconditioner
    # drops nothing: it is the exact inverse of the assembled operator
    N, M = 65, 57
    curve = Curve(np.full(N, 0.08), 1.0, 0.1)
    lat, interface = LateralBC(lat_kind, 2.0), _FLAT_INTERFACES[itf]
    A = assemble(curve, lat, interface, M).A
    precond = _column_preconditioner(curve, lat, interface, M, _impedance(curve, interface))
    u = np.random.default_rng(3).standard_normal(N * M)
    z = precond(A @ u)
    assert np.max(np.abs(z - u)) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize("itf", sorted(_DEEP_INTERFACES))
@pytest.mark.parametrize("lat_kind", ["dirichlet", "neumann", "robin"])
def test_column_preconditioner_apply_matches_gtsv(monkeypatch, lat_kind, itf):
    # the tridiagonal systems are factored once (dgttrf) and each apply is a
    # dgttrs; an apply equals, bit for bit, one that solves the same systems
    # afresh by solve_banded (LAPACK gtsv), as every apply did before
    import fraccauchy.elliptic as el
    from scipy.linalg import solve_banded

    N, M = 65, 57
    x = np.linspace(0.0, 1.0, N)
    curve = Curve(0.08 + 0.015 * np.cos(2.0 * np.pi * x), 1.0, 0.1)
    lat, interface = LateralBC(lat_kind, 2.0), _DEEP_INTERFACES[itf]
    bands = []
    factor = el.dgttrf

    def kept(dl, d, du, **overwrite):
        bands.append(np.array([np.r_[0.0, du], d, np.r_[dl, 0.0]]))
        return factor(dl, d, du, **overwrite)

    monkeypatch.setattr(el, "dgttrf", kept)
    precond = _column_preconditioner(curve, lat, interface, M, _impedance(curve, interface))
    (ab,) = bands
    r = np.random.default_rng(11).standard_normal(N * M)
    z = precond(r)
    monkeypatch.setattr(el, "dgttrs", lambda *lu, overwrite_b: (
        solve_banded((1, 1), ab, lu[-1], check_finite=False), 0))
    np.testing.assert_array_equal(z, precond(r), strict=True)


def test_column_preconditioner_refuses_a_failed_factor(monkeypatch):
    import fraccauchy.elliptic as el

    monkeypatch.setattr(el, "dgttrf", lambda dl, d, du, **overwrite: (
        dl, d, du, d[:-2], np.zeros(d.size, np.int32), 3))
    curve = Curve(np.full(17, 0.08), 1.0, 0.1)
    with pytest.raises(RuntimeError, match="tridiagonal LU info 3"):
        _column_preconditioner(curve, LateralBC("neumann"), InterfaceBC("N"), 57, None)


def _direct_field(op, f):
    """SciPy's SuperLU solve, in its default ordering, of the row-scaled
    matrix of ``op`` for the bottom trace ``f``."""
    rhs = np.zeros((op.curve.N, op.eta.size))
    rhs[:, 0] = f
    scaled = op.A.tocsr().multiply(op.rowscale[:, None]).tocsc()
    return splu(scaled).solve(op.rowscale * rhs.ravel()).reshape(rhs.shape)


def _deep_solves(curve, lat, interface, f, M=None):
    """The one-shot field and the direct solve of the same problem."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the Robin corners
        fld = solve_forward(curve, lat, interface, f, M)
    return fld, _direct_field(assemble(curve, lat, interface, M), f)


def _assert_gmres_agrees(fld, ref, iterations=16):
    meta = fld.meta["forward"]
    assert meta["method"] == "gmres"
    assert 0 < meta["iterations"] <= iterations and 0.0 < meta["residual"] <= 1e-13
    assert np.max(np.abs(fld.values - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("itf", sorted(_DEEP_INTERFACES))
@pytest.mark.parametrize("lat_kind", ["dirichlet", "neumann", "robin"])
def test_deep_one_shot_solve_matches_superlu(lat_kind, itf):
    # a deep one-shot solve runs GMRES on the column preconditioner and
    # reaches the direct solve of the same matrix to rounding
    N = 129
    x = np.linspace(0.0, 1.0, N)
    curve = Curve(0.08 + 0.01 * np.cos(2 * np.pi * x), 1.0, 0.1)
    fld, ref = _deep_solves(curve, LateralBC(lat_kind, 2.0), _DEEP_INTERFACES[itf],
                            1.0 + 0.3 * np.cos(np.pi * x))
    assert fld.values.shape == (N, 65)
    _assert_gmres_agrees(fld, ref)


@pytest.mark.parametrize("kind", ["D", "N", "I"])
def test_benchmark_reference_solve_matches_superlu(kind):
    # the 257 x 129 reference fluxes of the curve-recovery benchmark
    N = 257
    x = np.linspace(0.0, 1.0, N)
    curve = Curve(0.1 * (0.8 + 0.1 * np.cos(2 * np.pi * x)), 1.0, 0.1)
    interface = InterfaceBC("I", 0.1, combined=False) if kind == "I" else InterfaceBC(kind)
    fld, ref = _deep_solves(curve, LateralBC("neumann"), interface, 1.0 + 0.3 * np.cos(np.pi * x))
    _assert_gmres_agrees(fld, ref)


def test_unconverged_gmres_falls_back_to_superlu(monkeypatch):
    # with no preconditioner GMRES cannot reach its bound in 32 iterations;
    # the field is then SuperLU's solve of the row-scaled matrix, bit for bit
    import fraccauchy.elliptic as el

    monkeypatch.setattr(el, "_column_preconditioner", lambda *args: lambda r: r)
    N = 129
    x = np.linspace(0.0, 1.0, N)
    curve = Curve(0.08 + 0.01 * np.cos(2 * np.pi * x), 1.0, 0.1)
    fld, ref = _deep_solves(curve, LateralBC("neumann"), InterfaceBC("N"),
                            1.0 + 0.3 * np.cos(np.pi * x))
    meta = fld.meta["forward"]
    assert meta["method"] == "superlu" and meta["iterations"] == 32
    assert meta["residual"] <= 1e-13
    np.testing.assert_array_equal(fld.values, ref)


@pytest.mark.parametrize("kind", ["D", "N", "I"])
@pytest.mark.parametrize("N", [129, 257])
def test_steep_curve_converges_by_gmres(N, kind):
    # the curve falls from 0.1 to 0.01: the column preconditioner follows
    # the height, so GMRES converges with no fallback, to the direct solve
    x = np.linspace(0.0, 1.0, N)
    curve = Curve(0.055 + 0.045 * np.cos(2 * np.pi * x), 1.0, 0.1)
    interface = InterfaceBC("I", 0.1, combined=False) if kind == "I" else InterfaceBC(kind)
    fld, ref = _deep_solves(curve, LateralBC("neumann"), interface,
                            1.0 + 0.3 * np.cos(np.pi * x))
    _assert_gmres_agrees(fld, ref, iterations=12)


def test_forward_meta_names_each_method(monkeypatch):
    # every solve reports how it was made: band LU on a shallow mesh, GMRES
    # on a deep one, and SuperLU where GMRES misses its bound
    import fraccauchy.elliptic as el

    N = 65
    x = np.linspace(0.0, 1.0, N)
    curve = Curve(0.3 + 0.05 * np.cos(2 * np.pi * x), 1.0, 0.4)
    lat, itf, f = LateralBC("neumann"), InterfaceBC("N"), np.cos(np.pi * x)
    band = assemble(curve, lat, itf, M=17).solve(f).meta["forward"]
    gmres = assemble(curve, lat, itf, M=57).solve(f).meta["forward"]
    monkeypatch.setattr(el, "_column_preconditioner", lambda *args: lambda r: r)
    superlu = assemble(curve, lat, itf, M=57).solve(f).meta["forward"]
    assert [m["method"] for m in (band, gmres, superlu)] == ["band", "gmres", "superlu"]
    assert band["iterations"] == 0
    assert 0 < gmres["iterations"] < superlu["iterations"] == 32
    for m in (band, gmres, superlu):
        assert 0.0 <= m["residual"] <= 1e-13


@pytest.mark.parametrize(
    "corrupt, message",
    [(_bump, "discrete residual too large"),
     (lambda u: np.full_like(u, np.nan), "non-finite values")],
    ids=["residual", "nan"],
)
def test_gmres_result_passes_the_gates(corrupt, message, monkeypatch):
    import fraccauchy.elliptic as el

    gmres = el._gmres

    def corrupted(*args):
        u, its, _ = gmres(*args)
        return corrupt(u), its, 0.0

    monkeypatch.setattr(el, "_gmres", corrupted)
    N = 129
    x = np.linspace(0.0, 1.0, N)
    with pytest.raises(RuntimeError, match=message):
        solve_forward(Curve(np.full(N, 0.3), 1.0, 0.4), LateralBC("neumann"), InterfaceBC("N"),
                      np.cos(np.pi * x))


def test_corner_compatibility_warning():
    N = 65
    x = np.linspace(0.0, 1.0, N)
    curve = Curve(np.full(N, 0.4), 1.0, 0.5)
    with pytest.warns(UserWarning, match="incompatible"):
        solve_forward(curve, LateralBC("dirichlet"), InterfaceBC("D"), np.cos(np.pi * x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_forward(curve, LateralBC("dirichlet"), InterfaceBC("D"), np.sin(np.pi * x))


class TestValidation:
    def test_wrong_trace_length(self):
        curve = Curve(np.full(33, 0.4), 1.0, 0.5)
        with pytest.raises(ValueError):
            solve_forward(curve, LateralBC("dirichlet"), InterfaceBC("D"), np.zeros(32))

    def test_too_few_levels(self):
        curve = Curve(np.full(33, 0.4), 1.0, 0.5)
        with pytest.raises(ValueError):
            solve_forward(curve, LateralBC("dirichlet"), InterfaceBC("D"), np.zeros(33), M=3)

    def test_impedance_needs_gamma(self):
        with pytest.raises(ValueError):
            InterfaceBC("I")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            InterfaceBC("R")

    def test_nonpositive_gamma(self):
        N = 33
        curve = Curve(np.full(N, 0.4), 1.0, 0.5)
        with pytest.raises(ValueError):
            solve_forward(
                curve, LateralBC("dirichlet"), InterfaceBC("I", -1.0), np.zeros(N)
            )

    def test_nan_gamma(self):
        # NaN marks an unwritten matrix entry in `assemble`: no coefficient may be NaN
        curve = Curve(np.full(33, 0.4), 1.0, 0.5)
        with pytest.raises(ValueError, match="positive"):
            assemble(curve, LateralBC("neumann"), InterfaceBC("I", np.nan), M=49)


class TestHoldall:
    L, OLH = 1.0, 0.4

    def _data(self, delta=0.0, rng=None):
        basis = build_basis(self.L, LateralBC("dirichlet"), J=8, N=129)
        x = basis.grid
        f = np.sin(np.pi * x / self.L)
        g = -np.pi / self.L * math.cosh(np.pi * self.OLH / self.L) / math.sinh(
            np.pi * self.OLH / self.L
        ) * f
        data = CauchyData(f, g, 0.0, basis)
        if delta > 0.0:
            data = with_noise(data, delta, rng)
        return basis, x, data

    def test_exact_scheme_reproduces_separable_truth(self):
        basis, x, data = self._data()
        y = np.linspace(0.0, self.OLH, 33)
        fld = solve_cauchy_holdall(data, basis.bc, ContinuationScheme("exact"), y)
        exact = separable_exact(x[:, None], y[None, :], self.L, self.OLH)
        assert np.max(np.abs(fld.values - exact)) < 1e-10
        assert fld.meta["overflow"] is False
        assert np.max(np.abs(bottom_flux(fld) - data.g)) < 5e-3

    def test_single_level_zero_returns_trace(self):
        basis, x, data = self._data()
        fld = solve_cauchy_holdall(data, basis.bc, ContinuationScheme("exact"), [0.0])
        np.testing.assert_allclose(fld.values[:, 0], data.f, atol=1e-14)

    def test_left_dc_dispatch_matches_direct_call(self):
        basis, x, data = self._data(0.01, np.random.default_rng(3))
        y = np.linspace(0.0, self.OLH, 9)
        fld = solve_cauchy_holdall(
            data, basis.bc, ContinuationScheme("left_dc", alpha=0.75), y
        )
        np.testing.assert_array_equal(fld.values, continue_left_dc(data, 1.5, y).values)

    def test_zeroed_modes_per_level(self):
        basis, x, data = self._data(0.01, np.random.default_rng(3))
        y = np.linspace(0.0, 2.0 * self.OLH, 17)
        fld = solve_cauchy_holdall(
            data, basis.bc, ContinuationScheme("left_dc", alpha=0.75), y
        )
        zeroed = fld.meta["zeroed_modes"]
        assert all(type(z) is int for z in zeroed)
        assert zeroed[0] == 0 and zeroed[-1] > 1
        assert all(b >= a for a, b in zip(zeroed, zeroed[1:]))
        assert zeroed == [continue_left_dc(data, 1.5, yy).zeroed_modes for yy in y]

    def test_split_dispatch_reports_bands(self):
        basis, x, data = self._data(0.01, np.random.default_rng(3))
        y = np.linspace(0.0, self.OLH, 9)
        fld = solve_cauchy_holdall(data, basis.bc, ContinuationScheme("fac_lap_split"), y)
        assert np.all(np.isfinite(fld.values))
        bands = fld.meta["bands"]
        assert bands[-1][0] == basis.J
        # the dominant low mode keeps a near-one order, the noise floor does not
        assert bands[0][1] >= 0.95
        assert all(a <= 0.9 for _, a in bands[1:])

    def test_scheme_requires_alpha(self):
        basis, x, data = self._data()
        with pytest.raises(ValueError):
            solve_cauchy_holdall(
                data, basis.bc, ContinuationScheme("fac_lap"), [0.0, 0.1]
            )

    def test_lateral_mismatch_rejected(self):
        basis, x, data = self._data()
        with pytest.raises(ValueError):
            solve_cauchy_holdall(
                data, LateralBC("neumann"), ContinuationScheme("exact"), [0.0, 0.1]
            )

    def test_decreasing_grid_rejected(self):
        basis, x, data = self._data()
        with pytest.raises(ValueError):
            solve_cauchy_holdall(
                data, basis.bc, ContinuationScheme("exact"), [0.2, 0.1]
            )


def test_continue_banded_single_band_equals_fac_lap():
    basis = build_basis(1.0, LateralBC("dirichlet"), J=6, N=64)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(64)
    g = rng.standard_normal(64)
    data = CauchyData(f, g, 0.0, basis)
    a = continue_banded(data, [(6, 0.8)], 0.3)
    b = continue_fac_lap(data, 0.8, 0.3)
    np.testing.assert_allclose(a.values, b.values, atol=1e-13)
    with pytest.raises(ValueError):
        continue_banded(data, [(4, 0.8)], 0.3)  # does not cover all modes
    with pytest.raises(ValueError):
        continue_banded(data, [(4, 0.9), (3, 0.5), (6, 0.5)], 0.3)  # ends decrease
    with pytest.raises(ValueError):
        continue_banded(data, [(6, 1.5)], 0.3)  # order outside (0, 1]


class TestEvalOnCurve:
    """Fields evaluated along curves by the column splines of
    `_curve_sampler`."""

    def _field(self):
        basis = build_basis(1.0, LateralBC("dirichlet"), J=8, N=129)
        x = basis.grid
        f = np.sin(np.pi * x)
        g = -np.pi * math.cosh(0.4 * np.pi) / math.sinh(0.4 * np.pi) * f
        data = CauchyData(f, g, 0.0, basis)
        y = np.linspace(0.0, 0.4, 33)
        return x, solve_cauchy_holdall(data, basis.bc, ContinuationScheme("exact"), y)

    def test_constant_level(self):
        x, fld = self._field()
        lev = np.full(129, 0.237)
        got = _curve_sampler(fld)(lev)
        assert np.max(np.abs(got - separable_exact(x, 0.237, 1.0, 0.4))) < 1e-8

    def test_derivative_level(self):
        x, fld = self._field()
        lev = np.full(129, 0.237)
        got = _curve_sampler(fld)(lev, dy=1)
        exact = -np.pi * np.sin(np.pi * x) * math.cosh(np.pi * (0.4 - 0.237)) / math.sinh(
            0.4 * np.pi
        )
        assert np.max(np.abs(got - exact)) < 1e-5

    def test_varying_level(self):
        x, fld = self._field()
        lev = 0.2 + 0.1 * np.sin(np.pi * x)
        got = _curve_sampler(fld)(lev)
        assert np.max(np.abs(got - separable_exact(x, lev, 1.0, 0.4))) < 1e-6

    @pytest.mark.parametrize("dy", [0, 1, 2])
    def test_matches_per_column_splines(self, dy):
        # reference: a spline through each column's physical levels; the
        # curves reach 1% above the top level, so extrapolation is covered
        _, holdall = self._field()
        N = 33
        x = np.linspace(0.0, 1.0, N)
        curve = Curve(0.1 * (0.8 + 0.1 * np.cos(2 * np.pi * x)), 1.0, 0.12)
        curved = solve_forward(curve, LateralBC("neumann"), InterfaceBC("N"), np.cos(np.pi * x))
        for fld in (holdall, curved):
            base = fld.curve.ell
            t = np.linspace(0.3, 1.01, base.size)
            ell = t * base
            ref = np.array([
                CubicSpline(fld.eta * base[i], fld.values[i])(ell[i], nu=dy)
                for i in range(base.size)
            ])
            got = _curve_sampler(fld)(ell, dy=dy)
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_reused_sampler_equals_fresh_sampler(self):
        # one sampler serves several curves and derivative orders, asked in
        # any order, with exactly the values of a fresh sampler per call
        _, holdall = self._field()
        x = holdall.x
        N = 33
        xc = np.linspace(0.0, 1.0, N)
        curved = solve_forward(Curve(0.1 * (0.8 + 0.1 * np.cos(2 * np.pi * xc)), 1.0, 0.12),
                               LateralBC("neumann"), InterfaceBC("N"), np.cos(np.pi * xc))
        for fld, ells in ((holdall, (0.2 + 0.1 * np.sin(np.pi * x), np.full(x.size, 0.4 * 1.01))),
                          (curved, (0.9 * curved.curve.ell, 0.5 * curved.curve.ell))):
            sample = _curve_sampler(fld)
            for dy in (2, 0, 1):
                for ell in ells:
                    np.testing.assert_array_equal(sample(ell, dy), _curve_sampler(fld)(ell, dy),
                                                  strict=True)
            with pytest.raises(ValueError):
                sample(ells[0][:-1])

    @pytest.mark.parametrize("dy", [0, 1, 2])
    def test_stacked_curves_equal_per_curve_calls(self, dy):
        # heights of shape (L, N) give the L rows of per-curve calls, bit
        # for bit; the last axis must still be the field's x-grid
        _, holdall = self._field()
        x = holdall.x
        heights = np.vstack([np.full(x.size, 0.0), 0.2 + 0.1 * np.sin(np.pi * x),
                             np.full(x.size, 0.237), np.full(x.size, 0.4 * 1.01)])
        sample = _curve_sampler(holdall)
        got = sample(heights, dy)
        assert got.shape == heights.shape
        for row, ell in zip(got, heights):
            np.testing.assert_array_equal(row, _curve_sampler(holdall)(ell, dy), strict=True)
        for bad in (heights[:, :-1], heights.T, np.float64(0.2)):
            with pytest.raises(ValueError):
                sample(bad, dy)

    def test_curved_base_mesh(self):
        # per-column spline path: evaluate a forward solve below its own curve
        errs = _mms_errors(65, "neumann", "I")  # smoke reuse, ensures import shape
        assert np.all(np.isfinite(errs))
        N = 65
        x = np.linspace(0.0, 1.0, N)
        ell = 0.1 * (0.8 + 0.1 * np.cos(2 * np.pi * x))
        curve = Curve(ell, 1.0, 0.12)
        f = np.cos(K * x + PH)
        gam = 1.0 + 0.3 * np.sin(np.pi * x)
        fld = assemble(curve, LateralBC("neumann"), InterfaceBC("I", gam)).solve(
            f,
            source=lambda X, Y: (Q * Q - K * K) * np.cos(K * X + PH) * np.exp(Q * Y),
            interface_rhs=-(-0.02 * np.pi * np.sin(2 * np.pi * x))
            * (-K * np.sin(K * x + PH) * np.exp(Q * ell))
            + Q * np.cos(K * x + PH) * np.exp(Q * ell)
            + gam * np.cos(K * x + PH) * np.exp(Q * ell),
            lateral_rhs=(
                -K * math.sin(PH) * np.exp(Q * np.linspace(0, 1, 33) * ell[0]),
                -K * math.sin(K + PH) * np.exp(Q * np.linspace(0, 1, 33) * ell[-1]),
            ),
        )
        got = _curve_sampler(fld)(0.9 * ell)
        exact = np.cos(K * x + PH) * np.exp(Q * 0.9 * ell)
        assert np.max(np.abs(got - exact)) < 5e-4


@pytest.fixture(scope="module")
def spline_fields():
    """Fields the column splines are built on: an 81-level hold-all field
    (the benchmark's depth), a 9-level forward field, a hold-all field on a
    non-uniform height grid and one of exactly 4 levels."""
    basis = build_basis(1.0, LateralBC("neumann"), J=8, N=129)
    x = basis.grid
    data = CauchyData(1.0 + 0.3 * np.cos(np.pi * x), 0.2 * np.cos(2 * np.pi * x), 0.0, basis)

    def holdall(y):
        return solve_cauchy_holdall(data, basis.bc, ContinuationScheme("exact"), y)

    xf = np.linspace(0.0, 1.0, 17)
    forward = solve_forward(Curve(0.3 + 0.02 * np.cos(np.pi * xf), 1.0, 0.3 * 1.07),
                            LateralBC("neumann"), InterfaceBC("I", 1.0), np.cos(np.pi * xf), M=9)
    return {"holdall81": holdall(np.linspace(0.0, 0.1, 81)), "forward9": forward,
            "nonuniform": holdall(0.4 * np.linspace(0.0, 1.0, 21) ** 1.5),
            "levels4": holdall(np.array([0.0, 0.05, 0.2, 0.4]))}


@pytest.mark.parametrize("name", ["holdall81", "forward9", "nonuniform", "levels4"])
def test_spline_tables_are_cubicspline_coefficients(spline_fields, name):
    # the sampler's own spline build against SciPy's, bit for bit, for the
    # values and, through the rows the sampler derives, both derivative
    # orders
    fld = spline_fields[name]
    assert fld.values.shape[1] == {"holdall81": 81, "forward9": 9,
                                   "nonuniform": 21, "levels4": 4}[name]
    c = _spline_tables(fld.eta, fld.values)
    ref = CubicSpline(fld.eta, fld.values, axis=1)
    np.testing.assert_array_equal(c, ref.c, strict=True)
    np.testing.assert_array_equal(np.stack(_derived_rows(c, 0)), ref.c, strict=True)
    for q in (1, 2):
        np.testing.assert_array_equal(np.stack(_derived_rows(c, q)), ref.derivative(q).c,
                                      strict=True)


def test_spline_refusals(spline_fields):
    # CubicSpline's refusals are kept: non-finite values and levels that do
    # not increase; and the sampler needs 4 levels
    fld = spline_fields["forward9"]
    nan, inf = fld.values.copy(), fld.values.copy()
    nan[3, 4], inf[5, 0] = np.nan, -np.inf
    for values, eta, match in ((nan, fld.eta, "finite"), (inf, fld.eta, "finite"),
                               (fld.values[:, :3], fld.eta[:3], "4 depth levels"),
                               (fld.values, fld.eta[::-1].copy(), "increasing")):
        with pytest.raises(ValueError, match=match):
            _curve_sampler(MeshField(values, fld.curve, eta))


@pytest.mark.parametrize("name", ["holdall81", "nonuniform"])
def test_order_tuple_equals_single_orders(spline_fields, name):
    # one call for orders (0, 1, 2) gives the three single-order calls bit
    # for bit, on stacked heights and on heights above the top level
    fld = spline_fields[name]
    x, top = fld.x, fld.curve.ell
    heights = np.stack([0.3 * top * (1.0 + 0.2 * np.sin(np.pi * x)), 0.77 * top,
                        1.01 * top, 1.05 * top])
    sample = _curve_sampler(fld)
    for ell in (heights, heights[1:3][None], heights[2], heights[3]):
        got = sample(ell, (0, 1, 2))
        assert isinstance(got, tuple) and len(got) == 3
        for dy, g in enumerate(got):
            np.testing.assert_array_equal(g, sample(ell, dy), strict=True)
        np.testing.assert_array_equal(sample(ell, (2, 0))[0], got[2], strict=True)


def test_field_arrays_read_only_views(spline_fields):
    # a field views its float64 arrays read-only without copying them, so
    # the spline of its first trace can be kept; the caller's arrays keep
    # their own flags, and other input is converted to float
    fld = spline_fields["forward9"]
    values, eta = fld.values.copy(), fld.eta.copy()
    kept = MeshField(values, fld.curve, eta)
    assert np.shares_memory(kept.values, values) and np.shares_memory(kept.eta, eta)
    assert values.flags.writeable and eta.flags.writeable
    for a in (kept.values, kept.eta):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    with pytest.raises(AttributeError):
        kept.values = values
    ints = MeshField(np.ones((fld.curve.N, 4), dtype=int), fld.curve, [0, 1, 2, 3])
    assert ints.values.dtype == ints.eta.dtype == np.float64
    assert not (ints.values.flags.writeable or ints.eta.flags.writeable)


def test_sampler_kept_on_field(spline_fields, monkeypatch):
    # the sampler is built on the first trace, once, and is the same object
    # on every later one
    import fraccauchy.elliptic as el

    built = []
    spline_tables = el._spline_tables

    def counted(eta, values):
        built.append(values)
        return spline_tables(eta, values)

    monkeypatch.setattr(el, "_spline_tables", counted)
    ref = spline_fields["holdall81"]
    fld = MeshField(ref.values, ref.curve, ref.eta)
    assert built == []
    assert _curve_sampler(fld) is _curve_sampler(fld)
    curve = Curve(0.5 * fld.curve.ell, 1.0, fld.curve.olell)
    tr = interface_traces(fld, curve)
    assert len(built) == 1 and built[0] is fld.values
    # a traced field still pickles; the copy builds its own spline
    copy = pickle.loads(pickle.dumps(fld))
    assert not copy.values.flags.writeable and "_sampler" not in vars(copy)
    np.testing.assert_array_equal(interface_traces(copy, curve).u_yy, tr.u_yy, strict=True)
    assert len(built) == 2


class TestTraceRefusals:
    """A covering field is traced only along curves on its own x-grid and
    under its top (17-point exact hold-all fields of height 0.2)."""

    N = 17
    TOP = 0.2

    def _field(self, L):
        basis = build_basis(L, LateralBC("neumann"), 4, self.N)
        data = CauchyData(np.cos(np.pi * basis.grid / L), np.zeros(self.N), 0.0, basis)
        levels = np.linspace(0.0, self.TOP, 17)
        return solve_cauchy_holdall(data, basis.bc, ContinuationScheme("exact"), levels)

    def _curve(self, scale=1.0, n=N):
        x = np.linspace(0.0, 1.0, n)
        return Curve(scale * (0.1 + 0.02 * np.cos(np.pi * x)), 1.0, 0.3)

    @pytest.mark.parametrize("trace", [interface_traces, curve_conormal],
                             ids=["interface_traces", "curve_conormal"])
    @pytest.mark.parametrize("L, n", [(2.0, N), (1.0, 33)], ids=["length", "size"])
    def test_curve_on_another_grid(self, trace, L, n):
        # on L = 2 the field's samples sit at other x than the curve's, and
        # with another N their count differs
        with pytest.raises(ValueError, match="x-grid"):
            trace(self._field(L), self._curve(n=n))

    @pytest.mark.parametrize("trace", [interface_traces, curve_conormal],
                             ids=["interface_traces", "curve_conormal"])
    def test_curve_above_the_top(self, trace):
        # the curve reaches 1.47 times the field's top of 0.2
        with pytest.raises(ValueError, match="leaves the field's mesh"):
            trace(self._field(1.0), self._curve(scale=2.45))
