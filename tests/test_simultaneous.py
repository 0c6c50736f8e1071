"""Joint curve-and-impedance recovery on a small two-excitation problem.

The setting is the benchmark's joint recovery without its noise draw:
Neumann sides, truth curve 0.2 + 0.02 cos(pi x) and impedance
1 + 0.3 cos(pi x), bottom fluxes synthesized on a twice-finer mesh and
labelled with delta = 1%, started from the flat curve 0.2 and impedance 1
under a hold-all height of 0.3.
"""

import numpy as np
import pytest

from fraccauchy.continuation import CauchyData, ContinuationScheme
from fraccauchy.elliptic import (
    Curve,
    InterfaceBC,
    bottom_flux,
    interface_traces,
    solve_cauchy_holdall,
    solve_forward,
)
from fraccauchy.simultaneous import (
    FrozenNewtonConfig,
    JointState,
    PenaltyOp,
    _FrozenSystem,
    _SpanBasis,
    frozen_newton,
    joint_newton_step,
    range_invariance_residual,
    stacked_singular_values,
    wronskian,
)
from fraccauchy.spectral import LateralBC, build_basis

L = 1.0
N = 17
J = 4
OLELL = 0.3
DELTA = 0.01
LATERAL = LateralBC("neumann")
X = np.linspace(0.0, L, N)
START_ELL = 0.2
START_GAM = 1.0

SCHEMES = {
    "classical": None,
    "fac_lap": ContinuationScheme("fac_lap", alpha=0.9),
}

# final (curve, impedance) relative errors of frozen_newton in this setting
GOLDEN = {
    "classical": (0.015861276833811222, 0.018176634894791304),
    "fac_lap": (0.06771595323540655, 0.038074621698495945),
}


def truth_curve(x):
    return 0.2 + 0.02 * np.cos(np.pi * x)


def truth_gamma(x):
    return 1.0 + 0.3 * np.cos(np.pi * x)


EXCITATIONS = (
    lambda x: 1.0 + 0.3 * np.cos(np.pi * x),
    lambda x: np.cos(np.pi * x) + 0.5 * np.cos(2.0 * np.pi * x) + 0.2,
)


def build_problem(n, modes):
    """The setting on n grid points with a basis of the given size."""
    basis = build_basis(L, LATERAL, modes, n)
    x = basis.grid
    xf = np.linspace(0.0, L, 2 * n - 1)
    truth_fine = Curve(truth_curve(xf), L, OLELL)
    data = []
    for f in EXCITATIONS:
        fld = solve_forward(truth_fine, LATERAL, InterfaceBC("I", gamma=truth_gamma(xf)), f(xf))
        data.append(CauchyData(f(x), bottom_flux(fld)[::2], DELTA, basis))
    curve0 = Curve(np.full(n, START_ELL), L, OLELL)
    start = InterfaceBC("I", gamma=START_GAM)
    u1, u2 = (solve_forward(curve0, LATERAL, start, f(x)) for f in EXCITATIONS)
    return {
        "data": tuple(data),
        "xi0": JointState(u1, u2, curve0, START_GAM, START_GAM),
        "penalty": PenaltyOp(float(truth_curve(0.0))),
    }


@pytest.fixture(scope="module")
def problem():
    return build_problem(N, J)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_jacobian_matches_central_differences(problem, name):
    cfg = FrozenNewtonConfig(scheme=SCHEMES[name])
    system = _FrozenSystem(problem["data"], problem["xi0"], problem["penalty"], cfg)
    v0 = system.pack(problem["xi0"])
    d = np.random.default_rng(0).standard_normal(v0.size)
    h = 1e-6
    # the residual is data minus model, so the Jacobian is its negative slope
    fd = -(system.residual(v0 + h * d) - system.residual(v0 - h * d)) / (2.0 * h)
    jd = system.jacobian(v0) @ d
    assert np.linalg.norm(jd - fd) <= 1e-6 * np.linalg.norm(fd)


def _separable_trace_errors(bc, scheme, n):
    """Relative gaps between the separable traces of a J=4 field along the
    truth curve and the traces of its materialized mesh field."""
    basis = build_basis(L, bc, J, n)
    span = _SpanBasis(basis, OLELL, scheme)
    j = np.arange(J)
    a, b = 1.0 / (1.0 + j), (-0.5) ** j
    ell = truth_curve(basis.grid)
    got = span.traces(a, b, ell)
    ref = interface_traces(span.field(a, b), Curve(ell, L, OLELL))
    return {k: np.max(np.abs(getattr(got, k) - getattr(ref, k))) / np.max(np.abs(getattr(got, k)))
            for k in ("u", "u_x", "u_y", "u_yy", "u_xy")}


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("bc", [LateralBC("dirichlet"), LATERAL, LateralBC("robin", 1.0)],
                         ids=["dirichlet", "neumann", "robin"])
def test_separable_traces_match_mesh_traces(name, bc):
    # the mesh path splines 81 depth levels, which bounds the y-traces at
    # any h (measured: u 6.1e-9, u_y 6.1e-7, u_yy 1.2e-4), and differences
    # along x, whose O(h^2) error (u_x 2.4e-3, u_xy 2.7e-3) falls 4x per
    # halved h; the separable traces use the exact mode derivatives
    coarse = _separable_trace_errors(bc, SCHEMES[name], 129)
    fine = _separable_trace_errors(bc, SCHEMES[name], 257)
    bounds = {"u": 1e-8, "u_y": 1e-6, "u_yy": 2e-4, "u_x": 4e-3, "u_xy": 4e-3}
    for k, bound in bounds.items():
        assert coarse[k] <= bound, k
    for k in ("u_x", "u_xy"):
        assert fine[k] < coarse[k] / 3.0, k


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_frozen_newton_golden(problem, name):
    cfg = FrozenNewtonConfig(scheme=SCHEMES[name])
    xi, n_star, trace = frozen_newton(
        problem["data"], problem["xi0"], problem["penalty"], cfg,
        truth=(truth_curve, truth_gamma),
    )
    assert n_star == 8
    assert trace.flags[-1].startswith("stop=discrepancy")
    assert trace.stop == "discrepancy"
    assert trace.ns == list(range(n_star + 1))
    rel_ell, rel_gam = GOLDEN[name]
    assert trace.rel_ell[-1] == pytest.approx(rel_ell, rel=1e-8)
    assert trace.rel_gam[-1] == pytest.approx(rel_gam, rel=1e-8)
    # both errors fall below the start's (0.0705 / 0.208)
    assert trace.rel_ell[-1] < trace.rel_ell[0]
    assert trace.rel_gam[-1] < trace.rel_gam[0]
    assert np.all(np.isfinite(xi.ell.ell)) and np.all(xi.gam1 > 0.0)


@pytest.mark.parametrize("modes", [
    4,
    pytest.param(8, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 5: at J >= 8 the first classical step takes the "
        "curve error from 0.0705 to 0.115, and the recovery ends at 0.0828")),
])
def test_classical_curve_error_falls_at_n33(modes):
    # the joint recovery must end below its start's curve error (0.0705)
    # whatever the basis size; at N=33 it ends at 0.0169 for J=4
    p = build_problem(33, modes)
    _, _, trace = frozen_newton(p["data"], p["xi0"], p["penalty"],
                                truth=(truth_curve, truth_gamma))
    assert trace.rel_ell[-1] < trace.rel_ell[0]


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("other", [(LateralBC("robin", 2.0), J), (LATERAL, J - 1)],
                         ids=["robin_sides", "fewer_modes"])
def test_data_on_different_bases_rejected(problem, name, other):
    lateral, modes = other
    d1, d2 = problem["data"]
    moved = CauchyData(d2.f, d2.g, d2.delta, build_basis(L, lateral, modes, N))
    with pytest.raises(ValueError, match="share one basis"):
        frozen_newton((d1, moved), problem["xi0"], problem["penalty"],
                      FrozenNewtonConfig(scheme=SCHEMES[name]))


def test_degenerate_excitations(problem):
    xi0 = problem["xi0"]
    w = wronskian(xi0.u1, xi0.u2, xi0.ell)
    scale = float(np.max(np.abs(w)))
    # Neumann walls make u_x vanish there, and with it the Wronskian
    assert scale > 1.0
    assert abs(w[0]) <= 1e-12 * scale and abs(w[-1]) <= 1e-12 * scale
    assert np.count_nonzero(np.abs(w[1:-1]) > 1e-3 * scale) == N - 2

    same = JointState(xi0.u1, xi0.u1, xi0.ell, START_GAM, START_GAM)
    w_same = wronskian(same.u1, same.u2, same.ell)
    assert np.max(np.abs(w_same)) <= 1e-12 * scale
    zbar = np.zeros(N)
    with pytest.raises(ValueError, match="degenerate"):
        joint_newton_step(same, zbar, zbar)


def test_joint_step_refuses_fields_on_another_grid(problem):
    # an exact hold-all field on L = 2 has the curve's N but not its x-grid
    d1, d2 = problem["data"]
    basis = build_basis(2.0 * L, LATERAL, J, N)
    levels = np.linspace(0.0, OLELL, 41)
    z1, z2 = (solve_cauchy_holdall(CauchyData(d.f, d.g, d.delta, basis), LATERAL,
                                   ContinuationScheme("exact"), levels) for d in (d1, d2))
    with pytest.raises(ValueError, match="x-grid"):
        joint_newton_step(problem["xi0"], z1, z2)


def test_joint_step_reduces_both_errors(problem):
    # the start fields against exact hold-all continuations of the data:
    # one step takes the curve error from 0.0705 to 0.0131 and the
    # impedance error from 0.208 to 0.0139
    levels = np.linspace(0.0, OLELL, 41)
    exact = ContinuationScheme("exact")
    z1, z2 = (solve_cauchy_holdall(d, LATERAL, exact, levels) for d in problem["data"])
    xi0 = problem["xi0"]
    dl, dg = joint_newton_step(xi0, z1, z2)
    assert np.all(np.isfinite(dl)) and np.all(np.isfinite(dg))
    # trapezoid weights; the mesh step cancels in the relative error
    w = np.r_[0.5, np.ones(N - 2), 0.5]

    def rel(v, target):
        return np.sqrt(np.sum(w * (v - target) ** 2) / np.sum(w * target ** 2))

    gam0 = np.full(N, START_GAM)
    for start, inc, target in ((xi0.ell.ell, dl, truth_curve(X)), (gam0, dg, truth_gamma(X))):
        assert rel(start + inc, target) < 0.5 * rel(start, target)


def test_range_invariance_decays_quadratically(problem):
    levels = np.linspace(0.0, OLELL, 41)
    exact = ContinuationScheme("exact")
    z1, z2 = (solve_cauchy_holdall(d, LATERAL, exact, levels) for d in problem["data"])
    ell0 = np.full(N, START_ELL)
    gam0 = np.full(N, START_GAM)
    base = JointState(z1, z2, Curve(ell0, L, OLELL), gam0, gam0)
    # a straight path from the start state toward the truth
    dl = truth_curve(X) - ell0
    dg = truth_gamma(X) - gam0
    res = []
    for t in (0.1, 0.05, 0.025, 0.0125):
        gam = gam0 + t * dg
        moved = JointState(z1, z2, Curve(ell0 + t * dl, L, OLELL), gam, gam)
        res.append(range_invariance_residual(moved, base))
    assert all(np.isfinite(res)) and res[0] > 0.0
    for coarse, fine in zip(res, res[1:]):
        assert coarse >= 3.0 * fine


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_stacked_singular_values(problem, name):
    cfg = FrozenNewtonConfig(scheme=SCHEMES[name])
    s_min, s_max = stacked_singular_values(
        problem["data"], problem["xi0"], problem["penalty"], cfg
    )
    assert np.isfinite(s_min) and np.isfinite(s_max)
    assert 0.0 < s_min < s_max


def test_divergence_stops_with_reason_last(problem):
    # negated fluxes drive the iteration away from any consistent state: it
    # aborts, clips the impedance copies, and still ends its flags with the
    # stop reason
    data = tuple(CauchyData(d.f, -d.g, d.delta, d.basis) for d in problem["data"])
    with pytest.warns(UserWarning, match="diverged"):
        xi, n_star, trace = frozen_newton(data, problem["xi0"], problem["penalty"])
    assert n_star == 6
    assert "diverged" in trace.flags and "impedance-clipped" in trace.flags
    assert trace.flags[-1].startswith("stop=diverged")
    assert trace.stop == "diverged"
    for gam in (xi.gam1, xi.gam2):
        assert np.min(gam) >= 1e-6 * max(1.0, float(np.max(gam)))


def test_one_spline_per_traced_field(problem, monkeypatch):
    # a covering field is traced through one sampler for all three
    # derivative orders, and projected through one for all twelve levels,
    # with the values of a fresh spline per evaluation; the spline is built
    # once per field, on its first trace, and kept across joint steps
    import fraccauchy.elliptic as el
    import fraccauchy.simultaneous as sim

    levels = np.linspace(0.0, OLELL, 41)
    z1, z2 = (solve_cauchy_holdall(d, LATERAL, ContinuationScheme("exact"), levels)
              for d in problem["data"])
    curve = Curve(truth_curve(X), L, OLELL)
    built, tables = [], []

    def counted(fld):
        built.append(fld)
        return sampler(fld)

    def counted_tables(eta, values):
        tables.append(values)
        return spline_tables(eta, values)

    sampler, spline_tables = sim._curve_sampler, el._spline_tables
    monkeypatch.setattr(sim, "_curve_sampler", counted)
    monkeypatch.setattr(el, "_curve_sampler", counted)
    monkeypatch.setattr(el, "_spline_tables", counted_tables)
    tr = interface_traces(z1, curve)
    assert built == [z1]
    for got, dy in ((tr.u, 0), (tr.u_y, 1), (tr.u_yy, 2)):
        np.testing.assert_array_equal(got, sampler(z1)(curve.ell, dy=dy), strict=True)
    _SpanBasis(build_basis(L, LATERAL, J, N), OLELL).project(z1)
    assert built == [z1, z1]
    assert len(tables) == 1 and tables[0] is z1.values
    steps = [joint_newton_step(problem["xi0"], z1, z2) for _ in range(2)]
    assert len(tables) == 2 and tables[1] is z2.values
    for a, b in zip(*steps):
        np.testing.assert_array_equal(a, b, strict=True)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_profile_order_outside_range_refused(name):
    span = _SpanBasis(build_basis(L, LATERAL, J, N), OLELL, SCHEMES[name])
    for order in (-1, 3):
        with pytest.raises(ValueError):
            span.profiles(truth_curve(X), order)


def test_ml_values_calls_per_frozen_newton(problem, monkeypatch):
    # per fractional run: 2 calls (E_{a,1} and E_{a,a}) per residual away
    # from the start, whose order-1 profiles are the first two of the
    # Jacobian's order-2 ones; 2 for the Jacobian, the central difference
    # sharing the E_{a,1} call; 1 per projected set of heights, and 1 for
    # both final fields
    import fraccauchy.simultaneous as sim

    ml_values, residual = sim.ml_values, _FrozenSystem.residual
    calls = []
    residuals = []

    def counted_ml(alpha, beta, z):
        calls.append(beta)
        return ml_values(alpha, beta, z)

    def counted_residual(self, v):
        residuals.append(len(calls))
        return residual(self, v)

    monkeypatch.setattr(sim, "ml_values", counted_ml)
    monkeypatch.setattr(_FrozenSystem, "residual", counted_residual)
    xi0 = problem["xi0"]
    cfg = FrozenNewtonConfig(scheme=SCHEMES["fac_lap"])
    _, n_star, _ = frozen_newton(problem["data"], xi0, problem["penalty"], cfg)
    height_sets = len({float(np.min(u.curve.ell)) for u in (xi0.u1, xi0.u2)})
    assert len(residuals) == n_star + 1
    assert residuals[0] == height_sets + 2
    assert len(calls) == 2 * n_star + 2 + height_sets + 1
    assert all(isinstance(beta, float) for beta in calls)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_warm_profiles_equal_fresh_and_read_only(name, monkeypatch):
    import fraccauchy.simultaneous as sim

    basis = build_basis(L, LATERAL, J, N)
    ell = truth_curve(X)
    span = _SpanBasis(basis, OLELL, SCHEMES[name])
    span.profiles(ell, 2)
    calls = []
    ml_values = sim.ml_values
    monkeypatch.setattr(sim, "ml_values", lambda *args: calls.append(args) or ml_values(*args))
    for order in (2, 0, 1):
        before = len(calls)
        warm = span.profiles(ell, order)
        assert len(calls) == before
        fresh = _SpanBasis(basis, OLELL, SCHEMES[name]).profiles(ell.copy(), order)
        for got, ref in zip(warm, fresh):
            assert len(got) == len(ref) == order + 1
            for g, r in zip(got, ref):
                np.testing.assert_array_equal(g, r, strict=True)
                with pytest.raises(ValueError):
                    g[0, 0] = 1.0


# (alpha, beta, number of points) of every ml_values call of a cold
# split_frequency_continue, continue_fac_lap(alpha = 0.9) and
# continue_right_dc(2 alpha = 1.8) on 24 Neumann modes over 81 levels to
# depth 0.2 (the benchmark's hold-all grid), then of one fractional
# frozen_newton in this file's setting.  The benchmark's Mittag-Leffler
# oracle samples these calls, so a change that moves them moves its sample
# and its peak memory.
ML_CALL_LOG = (
    [(a, 1.0, 23) for a in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0)]
    + [(1.0, 1.0, 486), (0.5, 1.0, 1377), (0.9, 1.0, 1863),
       (1.8, 1.0, 1876), (1.8, 2.0, 1876), (1.8, 1.8, 1876)]
    + [(0.9, 1.0, 48), (0.9, 1.0, 204)]
    + [(0.9, 0.9, 68), (0.9, 1.0, 68)] * 8
    + [(0.9, 0.9, 68), (0.9, 1.0, 324)]
)


def test_ml_call_log_is_pinned(problem, monkeypatch):
    import fraccauchy.continuation as continuation
    import fraccauchy.simultaneous as sim
    from fraccauchy.continuation import (continue_fac_lap, continue_right_dc,
                                         split_frequency_continue)
    from fraccauchy.spectral import SpectralCoeffs, synthesize

    monkeypatch.setattr(continuation, "_PLANS", type(continuation._PLANS)())
    log = []
    for module in (continuation, sim):
        def logged(alpha, beta, z, evaluate=module.ml_values):
            log.append((alpha, beta, int(np.size(z))))
            return evaluate(alpha, beta, z)

        monkeypatch.setattr(module, "ml_values", logged)
    basis = build_basis(L, LATERAL, 24, 129)
    j = np.arange(24)
    c = np.exp(-0.3 * j)
    data = CauchyData(synthesize(SpectralCoeffs(basis, c)),
                      synthesize(SpectralCoeffs(basis, 0.5 * np.cos(j) * c)), DELTA, basis)
    y = np.linspace(0.0, 0.2, 81)
    _, bands = split_frequency_continue(data, y)
    assert bands == [(7, 1.0), (24, 0.5)]
    continue_fac_lap(data, 0.9, y)
    continue_right_dc(data, 1.8, y)
    cfg = FrozenNewtonConfig(scheme=SCHEMES["fac_lap"])
    frozen_newton(problem["data"], problem["xi0"], problem["penalty"], cfg)
    assert log == ML_CALL_LOG
