import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import splu

from fraccauchy.continuation import (
    CauchyData,
    ContinuationScheme,
    continue_banded,
    continue_fac_lap,
    continue_left_dc,
    with_noise,
)
from fraccauchy.elliptic import (
    Curve,
    InterfaceBC,
    _curve_sampler,
    _dissection,
    assemble,
    bottom_flux,
    combined_impedance,
    eval_on_curve,
    interface_traces,
    load_grid,
    save_grid,
    solve_cauchy_holdall,
    solve_forward,
)
from fraccauchy.spectral import LateralBC, build_basis


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

    def test_derivatives_exact_on_quadratic(self):
        x = np.linspace(0.0, 1.0, 41)
        c = Curve(0.3 + 0.1 * x ** 2, 1.0, 0.5)
        assert np.max(np.abs(c.dell() - 0.2 * x)) < 1e-12
        assert np.max(np.abs(c.d2ell() - 0.2)) < 1e-10


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


@pytest.mark.parametrize("N,M", [(5, 5), (33, 17), (128, 64), (129, 65), (257, 129)])
def test_dissection_is_a_permutation(N, M):
    np.testing.assert_array_equal(np.sort(_dissection(N, M)), np.arange(N * M))


def test_dissection_cached_read_only():
    # one order per grid size, shared by every assemble on that grid
    first = _dissection(33, 17)
    again = _dissection(33, 17)
    assert again is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1
    np.testing.assert_array_equal(np.sort(again), np.arange(33 * 17))
    assert _dissection(33, 9) is not first


def test_dissection_order_cuts_fill():
    N = 129
    x = np.linspace(0.0, 1.0, N)
    op = assemble(Curve(0.08 + 0.01 * np.cos(2 * np.pi * x), 1.0, 0.1),
                  LateralBC("neumann"), InterfaceBC("N"))
    assert op.lu.nnz <= 0.75 * splu(op.A.tocsc()).nnz


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

    def test_preset_bands_dispatch(self):
        basis, x, data = self._data(0.01, np.random.default_rng(5))
        y = np.linspace(0.0, self.OLH, 5)
        bands = ((4, 0.7), (8, 0.95))
        fld = solve_cauchy_holdall(
            data, basis.bc, ContinuationScheme("fac_lap_split", bands=bands), y
        )
        np.testing.assert_array_equal(fld.values, continue_banded(data, bands, y).values)

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


class TestEvalOnCurve:
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
        got = eval_on_curve(fld, lev)
        assert np.max(np.abs(got - separable_exact(x, 0.237, 1.0, 0.4))) < 1e-8

    def test_derivative_level(self):
        x, fld = self._field()
        lev = np.full(129, 0.237)
        got = eval_on_curve(fld, lev, dy=1)
        exact = -np.pi * np.sin(np.pi * x) * math.cosh(np.pi * (0.4 - 0.237)) / math.sinh(
            0.4 * np.pi
        )
        assert np.max(np.abs(got - exact)) < 1e-5

    def test_varying_level(self):
        x, fld = self._field()
        lev = 0.2 + 0.1 * np.sin(np.pi * x)
        got = eval_on_curve(fld, lev)
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
            got = eval_on_curve(fld, ell, dy=dy)
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_sampler_bitwise_equal_to_eval_on_curve(self):
        # one sampler serves several curves and derivative orders, asked in
        # any order, with exactly the values of a fresh spline per call
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
                    np.testing.assert_array_equal(sample(ell, dy), eval_on_curve(fld, ell, dy=dy),
                                                  strict=True)
            with pytest.raises(ValueError):
                sample(ells[0][:-1])

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
        got = eval_on_curve(fld, 0.9 * ell)
        exact = np.cos(K * x + PH) * np.exp(Q * 0.9 * ell)
        assert np.max(np.abs(got - exact)) < 5e-4


def test_grid_dump_roundtrip(tmp_path):
    x, curve, fld = solve_separable(33)
    path = tmp_path / "field.csv"
    save_grid(fld, path)
    values, meta = load_grid(path)
    np.testing.assert_allclose(values, fld.values, rtol=1e-12)
    assert meta["N"] == 33 and meta["M"] == 17
    assert meta["L"] == 1.0 and meta["olell"] == 0.6
