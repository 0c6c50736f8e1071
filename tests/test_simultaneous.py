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
    eval_on_curve,
    solve_cauchy_holdall,
    solve_forward,
)
from fraccauchy.simultaneous import (
    FrozenNewtonConfig,
    JointState,
    PenaltyOp,
    _FrozenSystem,
    _SpanBasis,
    _traces_on,
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


@pytest.fixture(scope="module")
def problem():
    basis = build_basis(L, LATERAL, J, N)
    xf = np.linspace(0.0, L, 2 * N - 1)
    truth_fine = Curve(truth_curve(xf), L, OLELL)
    data = []
    for f in EXCITATIONS:
        fld = solve_forward(truth_fine, LATERAL, InterfaceBC("I", gamma=truth_gamma(xf)), f(xf))
        data.append(CauchyData(f(X), bottom_flux(fld)[::2], DELTA, basis))
    curve0 = Curve(np.full(N, START_ELL), L, OLELL)
    start = InterfaceBC("I", gamma=START_GAM)
    u1, u2 = (solve_forward(curve0, LATERAL, start, f(X)) for f in EXCITATIONS)
    return {
        "data": tuple(data),
        "xi0": JointState(u1, u2, curve0, START_GAM, START_GAM),
        "penalty": PenaltyOp(float(truth_curve(0.0))),
    }


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_jacobian_matches_central_differences(problem, name):
    cfg = FrozenNewtonConfig(scheme=SCHEMES[name])
    system = _FrozenSystem(problem["data"], problem["xi0"], problem["penalty"], cfg)
    v0 = system.pack(problem["xi0"])
    d = np.random.default_rng(0).standard_normal(v0.size)
    h = 1e-6
    # the residual is data minus model, so the Jacobian is its negative slope
    fd = -(system.residual(v0 + h * d)[0] - system.residual(v0 - h * d)[0]) / (2.0 * h)
    jd = system.jacobian(v0) @ d
    assert np.linalg.norm(jd - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_frozen_newton_golden(problem, name):
    cfg = FrozenNewtonConfig(scheme=SCHEMES[name])
    xi, n_star, trace = frozen_newton(
        problem["data"], problem["xi0"], problem["penalty"], cfg,
        truth=(truth_curve, truth_gamma),
    )
    assert n_star == 8
    assert trace.flags[-1].startswith("stop=discrepancy")
    assert trace.ns == list(range(n_star + 1))
    rel_ell, rel_gam = GOLDEN[name]
    assert trace.rel_ell[-1] == pytest.approx(rel_ell, rel=1e-8)
    assert trace.rel_gam[-1] == pytest.approx(rel_gam, rel=1e-8)
    # both errors fall below the start's (0.0705 / 0.208)
    assert trace.rel_ell[-1] < trace.rel_ell[0]
    assert trace.rel_gam[-1] < trace.rel_gam[0]
    assert np.all(np.isfinite(xi.ell.ell)) and np.all(xi.gam1 > 0.0)


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


def test_one_spline_per_traced_field(problem, monkeypatch):
    # a covering field is traced through one sampler for all three
    # derivative orders, and projected through one for all twelve levels,
    # with the values of a fresh spline per evaluation
    import fraccauchy.simultaneous as sim

    levels = np.linspace(0.0, OLELL, 41)
    z1 = solve_cauchy_holdall(problem["data"][0], LATERAL, ContinuationScheme("exact"), levels)
    curve = Curve(truth_curve(X), L, OLELL)
    built = []

    def counted(fld):
        built.append(fld)
        return sampler(fld)

    sampler = sim._curve_sampler
    monkeypatch.setattr(sim, "_curve_sampler", counted)
    tr = _traces_on(z1, curve)
    assert built == [z1]
    for got, dy in ((tr.u, 0), (tr.u_y, 1), (tr.u_yy, 2)):
        np.testing.assert_array_equal(got, eval_on_curve(z1, curve.ell, dy=dy), strict=True)
    _SpanBasis(build_basis(L, LATERAL, J, N), OLELL).project(z1)
    assert built == [z1, z1]
