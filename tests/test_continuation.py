"""Cauchy-data continuation: exact propagator, the three fractional
stabilisations, frequency-band selection, and Landweber pre-smoothing."""

import dataclasses
import math
import pickle
import sys
import threading
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

import fraccauchy.continuation as continuation
from fraccauchy.continuation import (
    ALPHA_GRID,
    CauchyData,
    ContinuationScheme,
    continue_banded,
    continue_exact,
    continue_fac_lap,
    continue_left_dc,
    continue_right_dc,
    landweber_smooth,
    split_data,
    split_frequency_continue,
    _guarded_ratio,
    _right_dc_large_den,
    _right_dc_large_num,
)
from fraccauchy.elliptic import solve_cauchy_holdall
from fraccauchy.specfun import _algebraic_tail, ml_reciprocal_bound, ml_values
from fraccauchy.spectral import LateralBC, SpectralCoeffs, analyze, build_basis, synthesize
from helpers import with_noise

# golden case: 8 Dirichlet modes on (0,1), order 2*alpha = 1.9, depth y = 1/3.
# Coefficients below were fixed once (seeded draw, decaying envelope); the
# continued coefficients come from a 60-digit Mittag-Leffler series oracle.
CF = [0.03419276725318417, 0.6798737701549808, 0.3061802696464831,
      -0.06378838459845844, -0.018623094444152943, -0.016480756032294538,
      0.008901974337061877, -0.00043800343004388745]
CG = [0.7468856162565439, -0.9236623994870548, 0.39163719367488015,
      -0.012054020019452568, 0.042523653329634134, -0.004267697936775867,
      -0.005923415110544583, 0.0036180481140436465]
GOLD_LEFT = [0.371111242884209788, 2.9394973929228194, 6.19974047177555733,
             -4.07488515799084492, -3.64439541837029997, -13.4316675619170705,
             25.4280999174852768, -3.41079512443868157]
GOLD_RIGHT = [0.346628602071552892, 2.2058217350736287, 3.11017902219557596,
              -1.11069378128243129, -0.444982788483275648, -0.634000845269431059,
              0.420171825536012298, -0.0184945479061512646]


def _dirichlet_data(J=8, N=161, L=1.0, cf=None, cg=None, delta=0.0):
    basis = build_basis(L, LateralBC("dirichlet"), J, N)
    cf = np.zeros(J) if cf is None else np.asarray(cf, dtype=float)
    cg = np.zeros(J) if cg is None else np.asarray(cg, dtype=float)
    f = synthesize(SpectralCoeffs(basis, cf))
    g = synthesize(SpectralCoeffs(basis, cg))
    return CauchyData(f, g, delta, basis)


def test_exact_at_zero_depth_returns_f():
    data = _dirichlet_data(cf=[1.0, -0.5, 0.25, 0, 0, 0, 0, 0],
                           cg=[0.3, 0.1, 0, 0, 0, 0, 0, 0])
    out = continue_exact(data, 0.0)
    assert np.allclose(out.values, data.f, atol=1e-13)
    assert not out.overflow


def test_exact_single_mode_cosh():
    data = _dirichlet_data(cf=[1, 0, 0, 0, 0, 0, 0, 0])
    a = analyze(continue_exact(data, 0.5).values, data.basis).c
    assert abs(a[0] - math.cosh(math.pi / 2)) < 1e-12
    # rounding in the transform leaks ~1e-16 into high modes, which the
    # propagator multiplies by up to cosh(8 pi / 2) ~ 1e5
    assert np.max(np.abs(a[1:])) < 1e-10


def test_exact_pure_growing_mode_is_exponential():
    # f = phi_1, g = sqrt(lam_1) phi_1 propagates as exp(sqrt(lam_1) y)
    data = _dirichlet_data(cf=[1, 0, 0, 0, 0, 0, 0, 0],
                           cg=[math.pi, 0, 0, 0, 0, 0, 0, 0])
    for y in (0.2, 0.7, 1.0):
        a = analyze(continue_exact(data, y).values, data.basis).c
        assert abs(a[0] - math.exp(math.pi * y)) < 1e-10 * math.exp(math.pi * y)


def test_exact_overflow_flag():
    basis = build_basis(0.01, LateralBC("dirichlet"), 4, 32)
    data = CauchyData(basis.modes[0], np.zeros(32), 0.0, basis)
    assert continue_exact(data, 1.0).overflow
    assert not continue_exact(data, 1e-4).overflow


def test_left_dc_zero_depth_and_consistency_with_exact():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(8) * 0.3 ** np.arange(8)
    data = _dirichlet_data(cf=c, cg=np.flip(c))
    assert np.allclose(continue_left_dc(data, 1.9, 0.0).values, data.f, atol=1e-12)
    for y in (0.25, 0.6):
        ref = continue_exact(data, y)
        out = continue_left_dc(data, 2.0, y)
        assert np.allclose(out.values, ref.values, rtol=1e-8, atol=1e-8)


def test_left_dc_golden():
    data = _dirichlet_data(cf=CF, cg=CG)
    a = analyze(continue_left_dc(data, 1.9, 1.0 / 3.0).values, data.basis).c
    assert np.allclose(a, GOLD_LEFT, rtol=1e-9)


def test_left_dc_amplification_guard():
    data = _dirichlet_data(cf=np.ones(8), cg=np.zeros(8))
    out = continue_left_dc(data, 1.5, 0.6)
    assert out.zeroed_modes >= 1
    assert np.all(np.isfinite(out.values))


def test_right_dc_matches_exact_at_order_two():
    rng = np.random.default_rng(4)
    c = rng.standard_normal(8) * 0.4 ** np.arange(8)
    data = _dirichlet_data(cf=c, cg=-0.5 * c)
    for y in (0.3, 1.0):
        ref = continue_exact(data, y)
        out = continue_right_dc(data, 2.0, y)
        assert np.allclose(out.values, ref.values, rtol=1e-8, atol=1e-8)


def test_right_dc_golden():
    data = _dirichlet_data(cf=CF, cg=CG)
    a = analyze(continue_right_dc(data, 1.9, 1.0 / 3.0).values, data.basis).c
    assert np.allclose(a, GOLD_RIGHT, rtol=1e-9)


def _cancelled_ratio(alpha2, xi, fc, gc, y):
    """(numerator, denominator) of right_dc's cancelled form at xi, from the
    algebraic tails at x = xi^alpha2."""
    x = xi ** alpha2
    a1, a2, a3 = [_algebraic_tail(alpha2, beta, x)[0] for beta in (1.0, alpha2, 2.0)]
    small, den = _right_dc_large_den(alpha2, xi, (a1, a2, a3))
    return _right_dc_large_num(alpha2, xi, small, a1, a3, fc, gc, y), den


def test_right_dc_paths_agree_at_switch():
    # the direct Mittag-Leffler evaluation and the cancelled large-argument
    # form must agree where the implementation switches between them
    alpha2, xi, y = 1.9, 14.0, 0.4
    z = xi ** alpha2
    e1 = float(ml_values(alpha2, 1.0, np.array([z]))[0])
    e2 = float(ml_values(alpha2, 2.0, np.array([z]))[0])
    e3 = float(ml_values(alpha2, alpha2, np.array([z]))[0])
    direct = (0.7 * e1 - 0.4 * y * e2) / (e1 * e1 - z * e3 * e2)
    num, den = _cancelled_ratio(alpha2, xi, 0.7, -0.4, y)
    assert abs(num / den - direct) < 2e-3 * abs(direct)


def _right_dc_coefficient_mp(alpha2, z, y):
    """(E1 + y E2) / (E1^2 - z E3 E2) at E_b = E_{alpha2,b}(z) from the
    series, with digits to spare over the e^{2 xi} cancellation."""
    xi = z ** (1.0 / alpha2)
    with mp.workdps(30 + int(2.0 * xi / math.log(10))):
        a, zz = mp.mpf(alpha2), mp.mpf(z)
        e = [mp.mpf(0)] * 3
        t, k = mp.mpf(1), 0
        while True:
            terms = [t * mp.rgamma(a * k + b) for b in (1, 2, a)]
            e = [s + u for s, u in zip(e, terms)]
            if k > xi and terms[0] < mp.mpf(10) ** (-mp.mp.dps) * e[0]:
                break
            t *= zz
            k += 1
        e1, e2, e3 = e
        return float((e1 + mp.mpf(y) * e2) / (e1 * e1 - zz * e3 * e2))


@pytest.mark.parametrize("alpha2", [1.2, 1.5, 1.8, 1.98])
def test_right_dc_switch_tracks_better_form(alpha2):
    # one mode per xi with fc = gc = 1 at y = 0.7: the dispatched coefficient
    # must be within 10x of the better of the direct and cancelled forms
    y = 0.7
    xi = np.arange(4.0, 24.5, 1.0)
    lam = (xi / y) ** alpha2
    ones = np.ones_like(xi)
    data = SimpleNamespace(basis=SimpleNamespace(lambdas=lam, modes=np.eye(xi.size)),
                           coeffs=lambda: (ones, ones))
    got = continue_right_dc(data, alpha2, y).values
    z = lam * np.float_power(y, alpha2)
    e1, e2, e3 = (ml_values(alpha2, b, z) for b in (1.0, 2.0, alpha2))
    direct = (e1 + y * e2) / (e1 * e1 - z * e3 * e2)
    xi_z = z ** (1.0 / alpha2)
    num, den = _cancelled_ratio(alpha2, xi_z, ones, ones, y)
    ref = np.array([_right_dc_coefficient_mp(alpha2, zz, y) for zz in z])
    err = np.abs(got / ref - 1.0)
    best = np.minimum(np.abs(direct / ref - 1.0), np.abs(num / den / ref - 1.0))
    assert np.all(err <= 10.0 * np.maximum(best, 1e-15))


def test_right_dc_cancelled_form_stays_finite_deep():
    data = _dirichlet_data(cf=CF, cg=CG)
    out = continue_right_dc(data, 1.3, 3.0)
    assert np.all(np.isfinite(out.values))
    assert out.zeroed_modes == 0


def test_guarded_ratio_zeroing():
    num = np.array([1.0, 2.0, 3.0])
    den = np.array([1.0, 1e-15, 0.5])
    vals, count = _guarded_ratio(num, den, np.ones(3))
    assert count == 1
    assert vals[1] == 0.0
    assert vals[0] == 1.0 and vals[2] == 6.0


def test_split_data_identities():
    data = _dirichlet_data(cf=[1, 0, 0, 0, 0, 0, 0, 0])
    up, um = split_data(data)
    assert np.allclose(up.c, [0.5, 0, 0, 0, 0, 0, 0, 0], atol=1e-13)
    assert np.allclose(um.c, up.c, atol=1e-13)

    data = _dirichlet_data(cg=[math.pi, 0, 0, 0, 0, 0, 0, 0])
    up, um = split_data(data)
    assert abs(up.c[0] - 0.5) < 1e-12 and abs(um.c[0] + 0.5) < 1e-12

    rng = np.random.default_rng(5)
    data = _dirichlet_data(cf=rng.standard_normal(8), cg=rng.standard_normal(8))
    up, um = split_data(data)
    fc = analyze(data.f, data.basis).c
    assert np.allclose(up.c + um.c, fc, atol=1e-13)


def test_split_data_neumann_zero_mode_warns():
    basis = build_basis(1.0, LateralBC("neumann"), 4, 32)
    data = CauchyData(np.ones(32), np.ones(32), 0.0, basis)
    with pytest.warns(UserWarning, match="zero-eigenvalue"):
        up, um = split_data(data)
    assert np.isfinite(up.c).all() and np.isfinite(um.c).all()


def test_fac_lap_zero_depth_and_alpha_one_exact():
    rng = np.random.default_rng(6)
    c = rng.standard_normal(8) * 0.3 ** np.arange(8)
    data = _dirichlet_data(cf=c, cg=np.roll(c, 1))
    assert np.allclose(continue_fac_lap(data, 0.6, 0.0).values, data.f, atol=1e-12)
    for y in (0.4, 1.0):
        ref = continue_exact(data, y)
        out = continue_fac_lap(data, 1.0, y)
        assert np.allclose(out.values, ref.values, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
def test_fac_lap_amplification_within_stated_bound(alpha):
    for lam in (1.0, 25.0, 400.0):
        for y in (0.1, 0.5, 1.0):
            amp = 1.0 / float(ml_values(alpha, 1.0, np.array([-math.sqrt(lam) * y ** alpha]))[0])
            assert amp <= ml_reciprocal_bound(alpha, lam, y) * (1 + 1e-10)


def test_fac_lap_neumann_zero_mode_linear():
    basis = build_basis(1.0, LateralBC("neumann"), 3, 32)
    f = np.full(32, 2.0)
    g = np.full(32, 0.5)
    data = CauchyData(f, g, 0.0, basis)
    out = continue_fac_lap(data, 0.7, 0.8)
    assert np.allclose(out.values, 2.0 + 0.5 * 0.8, atol=1e-10)


def test_split_frequency_noise_free_is_exact():
    # no noise -> nothing to damp: one band at the exact order
    basis = build_basis(math.pi, LateralBC("dirichlet"), 4, 64)
    c = np.array([1.0, 0.3, 0.1, 0.03])
    data = CauchyData(synthesize(SpectralCoeffs(basis, c)), np.zeros(64), 0.0, basis)
    cont, bands = split_frequency_continue(data, [1.0 / 3.0])
    assert bands == [(4, 1.0)]
    ref = continue_exact(data, 1.0 / 3.0)
    assert np.allclose(cont.values[:, 0], ref.values, rtol=1e-9, atol=1e-12)


def test_split_frequency_single_band_reduces_to_fixed_order():
    # narrow domain: every mode amplifies brutally, so all of them damp to
    # the bottom order and the result must agree with the fixed-order scheme
    basis = build_basis(0.3, LateralBC("dirichlet"), 3, 64)
    c = np.array([1.0, 0.5, 0.25])
    data = CauchyData(synthesize(SpectralCoeffs(basis, c)), np.zeros(64), 0.25, basis)
    res = split_frequency_continue(data, [0.5])
    cont, bands = res
    assert len(bands) == 1
    alpha = bands[0][1]
    ref = continue_fac_lap(data, alpha, 0.5)
    assert np.allclose(cont.values[:, 0], ref.values, atol=1e-12)


def test_split_frequency_band_breakpoints_increase():
    rng = np.random.default_rng(8)
    basis = build_basis(math.pi, LateralBC("dirichlet"), 12, 128)
    c = rng.standard_normal(12) * np.exp(-np.arange(12))
    data = CauchyData(synthesize(SpectralCoeffs(basis, c)),
                      synthesize(SpectralCoeffs(basis, 0.5 * c)), 0.02, basis)
    _, bands = split_frequency_continue(data, [1.0 / 3.0, 2.0 / 3.0, 1.0])
    ends = [k for k, _ in bands]
    assert ends == sorted(set(ends))
    assert ends[-1] == 12


# Closed-form separable fields u = sum_j a_j phi_j (cosh(k_j y) + sinh(k_j y)/k_j),
# k_j = sqrt(lambda_j): f and g both have the coefficients a_j, and each field
# is continued to its depth y*
CONVERGENCE_FIELDS = {
    "robin_0.3": (LateralBC("robin", 1.0), 0.3, lambda k, j: np.exp(-2.0 * k)),
    "neumann_0.6": (LateralBC("neumann"), 0.6, lambda k, j: np.exp(-2.0 * k)),
    "dirichlet_0.1": (LateralBC("dirichlet"), 0.1,
                      lambda k, j: (1.0 + j) ** -3.0 * np.exp(-0.1 * k)),
    "dirichlet_0.3": (LateralBC("dirichlet"), 0.3, lambda k, j: np.exp(-k)),
}
_STALLS = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 4: on Dirichlet data the split rule's error "
    "stalls as delta -> 0 (at y = 0.1 it stays near 4.9e-4 from delta = 1e-3 to 1e-5)")


@pytest.mark.parametrize("name", [
    "robin_0.3",
    "neumann_0.6",
    pytest.param("dirichlet_0.1", marks=_STALLS),
    pytest.param("dirichlet_0.3", marks=_STALLS),
])
def test_split_frequency_error_falls_with_noise(name):
    # a convergent rule's error goes to zero with the noise level; pinned as
    # a fall by at least 2x per decade of delta, each error the median
    # relative L2 error at y* over 5 noise draws (N = 129, J = 24)
    bc, ystar, coeffs = CONVERGENCE_FIELDS[name]
    basis = build_basis(1.0, bc, 24, 129)
    k = np.sqrt(basis.lambdas)
    a = coeffs(k, np.arange(basis.J))
    sinhc = np.where(k > 0.0, np.sinh(k * ystar) / np.where(k > 0.0, k, 1.0), ystar)
    exact = synthesize(SpectralCoeffs(basis, a * (np.cosh(k * ystar) + sinhc)))
    trace = synthesize(SpectralCoeffs(basis, a))
    clean = CauchyData(trace, trace, 0.0, basis)
    w = basis.weights
    errors = []
    for delta in (1e-2, 1e-3, 1e-4, 1e-5):
        draws = []
        for seed in range(5):
            data = with_noise(clean, delta, np.random.default_rng(seed))
            u = split_frequency_continue(data, [ystar])[0].values[:, 0]
            draws.append(math.sqrt(np.sum(w * (u - exact) ** 2) / np.sum(w * exact ** 2)))
        errors.append(float(np.median(draws)))
    assert all(e1 >= 2.0 * e2 for e1, e2 in zip(errors, errors[1:])), errors


GRID_SCHEMES = {
    "exact": continue_exact,
    "left_dc": lambda data, y: continue_left_dc(data, 1.5, y),
    "right_dc": lambda data, y: continue_right_dc(data, 1.3, y),
    "fac_lap": lambda data, y: continue_fac_lap(data, 0.7, y),
    "bands": lambda data, y: continue_banded(data, [(3, 1.0), (6, 0.8), (8, 0.5)], y),
}


@pytest.mark.parametrize("name", sorted(GRID_SCHEMES))
def test_grid_matches_scalar_levels(name):
    # a grid call returns, column by column, the scalar call at that height;
    # only the batched synthesis may round differently
    rng = np.random.default_rng(9)
    data = with_noise(_dirichlet_data(cf=CF, cg=CG), 0.01, rng)
    cont = GRID_SCHEMES[name]
    y = np.linspace(0.0, 3.0, 13)
    grid = cont(data, y)
    assert grid.values.shape == (data.basis.N, y.size)
    assert grid.zeroed_modes.shape == y.shape
    scale = np.max(np.abs(grid.values))
    for k, yy in enumerate(y):
        one = cont(data, yy)
        assert np.max(np.abs(grid.values[:, k] - one.values)) <= 1e-14 * scale
        assert grid.zeroed_modes[k] == one.zeroed_modes


@pytest.fixture
def plans(monkeypatch):
    """An empty plan memo (request -> tuple of read-only arrays) for this
    test, restored afterwards."""
    table = type(continuation._PLANS)()
    monkeypatch.setattr(continuation, "_PLANS", table)
    return table


def _fixed_bands(data, y):
    bands = [(3, 0.9), (12, 0.6)]
    return continue_banded(data, bands, y), bands


@pytest.mark.parametrize(
    "run, bound",
    [(ContinuationScheme("exact").continue_data, 0),
     (ContinuationScheme("left_dc", alpha=0.8).continue_data, 2),
     (ContinuationScheme("right_dc", alpha=0.8).continue_data, 3),
     (ContinuationScheme("fac_lap", alpha=0.8).continue_data, 1),
     (_fixed_bands, 2),
     (ContinuationScheme("fac_lap_split").continue_data, None)],
    ids=["exact", "left_dc", "right_dc", "fac_lap", "bands", "split"],
)
def test_holdall_call_count_independent_of_levels(monkeypatch, plans, run, bound):
    rng = np.random.default_rng(8)
    basis = build_basis(math.pi, LateralBC("dirichlet"), 12, 128)
    c = rng.standard_normal(12) * np.exp(-np.arange(12))
    data = CauchyData(synthesize(SpectralCoeffs(basis, c)),
                      synthesize(SpectralCoeffs(basis, 0.5 * c)), 0.02, basis)
    calls = []

    def counted(alpha, beta, z):
        calls.append(np.size(z))
        return ml_values(alpha, beta, z)

    monkeypatch.setattr(continuation, "ml_values", counted)
    counts = []
    for levels in (9, 81):
        # each count is of a cold call: the memo would hide repeated kernels
        plans.clear()
        calls.clear()
        _, bands = run(data, np.linspace(0.0, 1.0, levels))
        counts.append(len(calls))
    if bound is None:
        bound = len(ALPHA_GRID) + len(bands)
    assert counts[0] == counts[1] <= bound


# Memo of the kernels: two data sets on one geometry, Dirichlet modes on
# (0, pi) so that the grid below reaches both right_dc forms and left_dc's guard
MEMO_Y = np.linspace(0.0, 3.0, 13)


def _memo_data(seed, scale=1.0, kind="dirichlet"):
    rng = np.random.default_rng(seed)
    basis = build_basis(math.pi, LateralBC(kind), 12, 128)
    c = rng.standard_normal(12) * np.exp(-0.5 * np.arange(12))
    d = rng.standard_normal(12) * np.exp(-0.5 * np.arange(12))
    return CauchyData(synthesize(SpectralCoeffs(basis, scale * c)),
                      synthesize(SpectralCoeffs(basis, scale * d)), 0.02, basis)


def _split(data, y):
    cont, bands = split_frequency_continue(data, y)
    cont.bands = bands
    return cont


MEMO_SCHEMES = {
    "split": _split,
    "bands": lambda data, y: continue_banded(data, [(3, 1.0), (7, 0.8), (12, 0.5)], y),
    "fac_lap": lambda data, y: continue_fac_lap(data, 0.7, y),
    "right_dc": lambda data, y: continue_right_dc(data, 1.3, y),
    "left_dc": lambda data, y: continue_left_dc(data, 1.5, y),
}


def _same_slice(a, b):
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.zeroed_modes, b.zeroed_modes)
    assert getattr(a, "bands", None) == getattr(b, "bands", None)


def test_memo_grid_reaches_every_branch():
    lam = _memo_data(1).basis.lambdas
    alpha2 = 1.3
    xi = lam ** (1.0 / alpha2) * MEMO_Y[:, None]
    assert np.any(xi <= continuation._xi_switch(alpha2))
    assert np.any(xi > continuation._xi_switch(alpha2))
    assert np.sum(continue_left_dc(_memo_data(1), 1.5, MEMO_Y).zeroed_modes) > 0


@pytest.mark.parametrize("name", sorted(MEMO_SCHEMES))
def test_memo_cold_and_warm_calls_agree(plans, name):
    cont = MEMO_SCHEMES[name]
    d1, d2 = _memo_data(1), _memo_data(2)
    cold1 = cont(d1, MEMO_Y)
    warm2 = cont(d2, MEMO_Y)
    plans.clear()
    cold2 = cont(d2, MEMO_Y)
    warm1 = cont(d1, MEMO_Y)
    _same_slice(cold1, warm1)
    _same_slice(cold2, warm2)


@pytest.mark.parametrize("name", sorted(MEMO_SCHEMES))
def test_memo_warm_call_evaluates_nothing(monkeypatch, plans, name):
    cont = MEMO_SCHEMES[name]
    # twice the data: new values, but the split rule picks the same bands
    d1, d2 = _memo_data(1), _memo_data(1, scale=2.0)
    cont(d1, MEMO_Y)

    def refuse(*args):
        raise AssertionError("a kernel was evaluated on a known geometry")

    monkeypatch.setattr(continuation, "ml_values", refuse)
    monkeypatch.setattr(continuation, "_algebraic_tail", refuse)
    cont(d2, MEMO_Y)


@pytest.mark.parametrize("name", sorted(MEMO_SCHEMES))
def test_memo_warm_call_makes_one_lookup_per_plan(monkeypatch, plans, name):
    # a warm call looks up one plan per request: one per scheme call, plus
    # one per band for the split rule; a return to lookups per kernel fails
    # here without any timing
    cont = MEMO_SCHEMES[name]
    cont(_memo_data(1), MEMO_Y)
    keys = []
    lookup = continuation._plan

    def counted(key, fill, *args):
        keys.append(key)
        return lookup(key, fill, *args)

    monkeypatch.setattr(continuation, "_plan", counted)
    out = cont(_memo_data(1, scale=2.0), MEMO_Y)
    expect = 1 + len(out.bands) if name == "split" else 3 if name == "bands" else 1
    assert len(keys) == len(set(keys)) == expect
    assert all(key in plans for key in keys)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name", sorted(MEMO_SCHEMES))
def test_holdall_meta_counts_kernel_points(plans, name, kind):
    # meta["kernel_points"] shows a cold call's evaluations and a warm call's
    # none
    scheme = SimpleNamespace(kind=name,
                             continue_data=lambda d, y: (MEMO_SCHEMES[name](d, y), None))
    data = _memo_data(3, kind=kind)
    cold = solve_cauchy_holdall(data, data.basis.bc, scheme, MEMO_Y)
    warm = solve_cauchy_holdall(data, data.basis.bc, scheme, MEMO_Y)
    assert cold.meta["kernel_points"] == sum(_cold_points(data.basis.lambdas)[name])
    assert warm.meta["kernel_points"] == 0


def test_memo_misses_on_new_geometry(monkeypatch, plans):
    calls = []

    def counted(alpha, beta, z):
        calls.append(np.size(z))
        return ml_values(alpha, beta, z)

    monkeypatch.setattr(continuation, "ml_values", counted)
    data = _memo_data(1)
    continue_fac_lap(data, 0.7, MEMO_Y)
    # the same geometry hits; another basis, other heights or another order miss
    for other, alpha, y, expect in ((data, 0.7, MEMO_Y, 0),
                                    (_memo_data(1, kind="neumann"), 0.7, MEMO_Y, 1),
                                    (data, 0.7, MEMO_Y + 0.01, 1),
                                    (data, 0.75, MEMO_Y, 1)):
        calls.clear()
        continue_fac_lap(other, alpha, y)
        assert len(calls) == expect


def _cold_points(lam):
    """(Mittag-Leffler, algebraic-tail) points each scheme evaluates over
    MEMO_Y with no memo: its whole kernel grid, less the modes a zero
    eigenvalue or a guard excludes."""
    pos = int(np.sum(lam > 0.0))
    levels = MEMO_Y.size
    xi = lam ** (1.0 / 1.3) * MEMO_Y[:, None]
    direct = int(np.sum(xi <= continuation._xi_switch(1.3)))
    keep = int(np.sum(lam ** (1.0 / 1.5) * MEMO_Y[:, None] <= math.log(continuation.AMP_LIMIT)))
    return {
        "split": ((len(ALPHA_GRID) + levels) * pos, 0),
        "bands": (levels * pos, 0),
        "fac_lap": (levels * pos, 0),
        "right_dc": (3 * direct, 3 * (xi.size - direct)),
        "left_dc": (2 * keep, 0),
    }


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name", sorted(MEMO_SCHEMES))
def test_memo_cold_call_evaluates_parent_points(monkeypatch, plans, name, kind):
    points = {"ml": 0, "tail": 0}
    tail = continuation._algebraic_tail

    def counted_ml(alpha, beta, z):
        points["ml"] += np.size(z)
        return ml_values(alpha, beta, z)

    def counted_tail(alpha, beta, z):
        points["tail"] += np.size(z)
        return tail(alpha, beta, z)

    monkeypatch.setattr(continuation, "ml_values", counted_ml)
    monkeypatch.setattr(continuation, "_algebraic_tail", counted_tail)
    data = _memo_data(3, kind=kind)
    MEMO_SCHEMES[name](data, MEMO_Y)
    assert (points["ml"], points["tail"]) == _cold_points(data.basis.lambdas)[name]


def test_memo_outputs_do_not_alias_tables(plans):
    # a hit returns the stored plan itself, so every array of every plan
    # must be read-only, and no Slice or MeshField may share memory with one
    data = _memo_data(1)
    ref = continue_fac_lap(data, 0.7, MEMO_Y).values.copy()
    out = continue_fac_lap(data, 0.7, MEMO_Y)
    out.values[:] = 0.0
    assert np.array_equal(continue_fac_lap(data, 0.7, MEMO_Y).values, ref)
    key, plan = next(iter(plans.items()))
    assert continuation._plan(key, None) is plan
    amp = plan[0]
    with pytest.raises(ValueError, match="read-only"):
        amp[:] = 0.0
    assert np.all(amp > 0.0)
    slices = [cont(data, MEMO_Y) for cont in MEMO_SCHEMES.values()]
    schemes = [ContinuationScheme("fac_lap_split"), ContinuationScheme("fac_lap", alpha=0.7),
               ContinuationScheme("right_dc", alpha=0.65),
               ContinuationScheme("left_dc", alpha=0.75)]
    fields = [solve_cauchy_holdall(data, data.basis.bc, sc, MEMO_Y) for sc in schemes]
    outputs = ([arr for sl in slices for arr in (sl.values, sl.zeroed_modes)]
               + [arr for fld in fields for arr in (fld.values, fld.eta, fld.curve.ell)])
    # a plan per band of the split rule and of the fixed bands, the split
    # rows, and one right_dc and one left_dc plan
    assert len(plans) >= 7
    for plan in plans.values():
        for arr in plan:
            assert not arr.flags.writeable
            assert not any(np.shares_memory(arr, o) for o in outputs)


def test_memo_shared_by_threads(monkeypatch, plans):
    # more threads than cores, a short switch interval and a cap of about
    # two plans, so lookups, fills and evictions interleave
    data = _memo_data(1)
    heights = [MEMO_Y + 0.01 * k for k in range(6)]
    ref = [continue_fac_lap(data, 0.7, y).values for y in heights]
    size = continuation._plan_bytes(next(iter(plans.values())))
    monkeypatch.setattr(continuation, "_PLAN_BYTES", 2 * size + size // 10)
    plans.clear()
    errors = []

    def work(offset):
        try:
            for r in range(12):
                k = (offset + r) % len(heights)
                if not np.array_equal(continue_fac_lap(data, 0.7, heights[k]).values, ref[k]):
                    errors.append("height set %d differs" % k)
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(repr(exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert 0 < len(plans) <= 2


def test_memo_memory_stays_under_cap(monkeypatch, plans):
    cap = 20_000
    monkeypatch.setattr(continuation, "_PLAN_BYTES", cap)
    data = _memo_data(1)
    for k in range(40):
        y = MEMO_Y + 0.01 * k
        continue_fac_lap(data, 0.7, y)
        used = sum(continuation._plan_bytes(p) for p in plans.values())
        assert 0 < used <= cap
    # the most recent request is kept, and one above the cap is not, nor
    # does it evict anything
    assert next(reversed(plans))[-1] == y.tobytes()
    kept = list(plans)
    continue_fac_lap(data, 0.7, np.linspace(0.0, 3.0, 400))
    assert list(plans) == kept
    assert all(arr.shape[0] == MEMO_Y.size for p in plans.values() for arr in p)


def test_memo_lock_makes_one_evaluation_per_request(monkeypatch, plans):
    # thread a is held inside the fill of a missed plan while thread b asks
    # for the same request: b must wait for a's plan, not evaluate again
    entered, release = threading.Event(), threading.Event()
    calls = []

    def held(alpha, beta, z):
        calls.append(np.size(z))
        entered.set()
        release.wait(timeout=30.0)
        return ml_values(alpha, beta, z)

    monkeypatch.setattr(continuation, "ml_values", held)
    data = _memo_data(1)
    got = {}

    def ask(name):
        got[name] = continue_fac_lap(data, 0.7, MEMO_Y).values

    a = threading.Thread(target=ask, args=("a",))
    b = threading.Thread(target=ask, args=("b",))
    try:
        a.start()
        assert entered.wait(timeout=30.0)
        b.start()
        b.join(timeout=0.5)  # time for b to reach the evaluation were it unguarded
    finally:
        release.set()
        a.join(timeout=30.0)
        b.join(timeout=30.0)
    assert not a.is_alive() and not b.is_alive()
    assert calls == [MEMO_Y.size * data.basis.J]
    assert np.array_equal(got["a"], got["b"])


def test_memo_new_band_evaluates_only_its_entries(monkeypatch, plans):
    # plans are keyed per band: a band inside a known band of that order is
    # a new request and evaluates all its entries, and a band list that
    # shares a band with a known one evaluates only its new bands
    data = _memo_data(1)
    continue_fac_lap(data, 0.7, MEMO_Y)
    points = []

    def counted(alpha, beta, z):
        points.append(np.size(z))
        return ml_values(alpha, beta, z)

    monkeypatch.setattr(continuation, "ml_values", counted)
    continue_banded(data, [(5, 0.7), (12, 0.7)], MEMO_Y)
    assert points == [5 * MEMO_Y.size, 7 * MEMO_Y.size]
    points.clear()
    continue_banded(data, [(5, 0.7), (12, 0.7)], MEMO_Y)
    continue_fac_lap(data, 0.7, MEMO_Y)
    assert points == []
    continue_banded(data, [(5, 0.7), (12, 0.5)], MEMO_Y)
    assert points == [7 * MEMO_Y.size]


def test_cauchy_data_is_frozen_and_read_only():
    basis = build_basis(1.0, LateralBC("neumann"), 6, 33)
    f, g = np.cos(np.pi * basis.grid), np.sin(np.pi * basis.grid)
    data = CauchyData(f, g, 0.01, basis)
    # float64 traces are viewed, not copied; the caller's arrays stay writeable
    assert np.shares_memory(data.f, f) and np.shares_memory(data.g, g)
    assert f.flags.writeable and g.flags.writeable
    for trace in (data.f, data.g):
        with pytest.raises(ValueError, match="read-only"):
            trace[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.f = g
    # other inputs are converted to float arrays
    listed = CauchyData(list(f), g, 0.0, basis)
    assert listed.f.dtype == np.float64 and not listed.f.flags.writeable


def test_cauchy_data_projects_once(monkeypatch, plans):
    calls = []

    def counted(samples, basis):
        calls.append(samples)
        return analyze(samples, basis)

    monkeypatch.setattr(continuation, "analyze", counted)
    data = _memo_data(1)
    fc, gc = data.coeffs()
    assert len(calls) == 2
    assert calls[0] is data.f and calls[1] is data.g
    for c, trace in ((fc, data.f), (gc, data.g)):
        np.testing.assert_array_equal(c, analyze(trace, data.basis).c, strict=True)
        assert not c.flags.writeable
    # every scheme, cold or warm, and the split reuse the kept pair
    for _ in range(2):
        for cont in MEMO_SCHEMES.values():
            cont(data, MEMO_Y)
        continue_exact(data, MEMO_Y)
        split_data(data)
        solve_cauchy_holdall(data, data.basis.bc, ContinuationScheme("fac_lap", alpha=0.7), MEMO_Y)
    assert len(calls) == 2
    assert data.coeffs()[0] is fc and data.coeffs()[1] is gc


def test_cauchy_data_pickles():
    data = _memo_data(2)
    kept = data.coeffs()
    copy = pickle.loads(pickle.dumps(data))
    # the copy is rebuilt from its fields and projects on its own first use
    assert "_coeffs" not in vars(copy)
    assert not copy.f.flags.writeable and not copy.g.flags.writeable
    np.testing.assert_array_equal(copy.f, data.f, strict=True)
    for a, b in zip(copy.coeffs(), kept):
        np.testing.assert_array_equal(a, b, strict=True)


PUBLIC_CONTINUATIONS = {
    "exact": continue_exact,
    "left_dc": lambda data, y: continue_left_dc(data, 1.5, y),
    "right_dc": lambda data, y: continue_right_dc(data, 1.3, y),
    "fac_lap": lambda data, y: continue_fac_lap(data, 0.7, y),
    "bands": lambda data, y: continue_banded(data, [(3, 1.0), (12, 0.5)], y),
    "split": split_frequency_continue,
}


@pytest.mark.parametrize("y", [np.nan, -np.inf, np.inf, -0.1, [0.1, np.nan], [0.2, -0.1]])
@pytest.mark.parametrize("name", sorted(PUBLIC_CONTINUATIONS))
def test_every_entry_point_refuses_bad_heights(plans, name, y):
    # warm or cold, each public function checks its own heights
    data = _memo_data(1)
    cont = PUBLIC_CONTINUATIONS[name]
    cont(data, MEMO_Y)
    with pytest.raises(ValueError, match="continuation height must be finite and >= 0"):
        cont(data, y)


@pytest.mark.parametrize("y, message", [
    ([], "finite and nonnegative"), ([np.nan], "finite and nonnegative"),
    ([0.0, np.inf], "finite and nonnegative"), ([-0.1, 0.2], "finite and nonnegative"),
    ([0.1, np.nan, 0.3], "finite and nonnegative"), ([0.0, 0.2, 0.2], "strictly increasing"),
    ([0.0, 0.3, 0.2], "strictly increasing"),
])
def test_holdall_refuses_bad_grids(plans, y, message):
    data = _memo_data(1)
    scheme = ContinuationScheme("fac_lap", alpha=0.7)
    solve_cauchy_holdall(data, data.basis.bc, scheme, MEMO_Y)
    with pytest.raises(ValueError, match="y_grid must be " + message):
        solve_cauchy_holdall(data, data.basis.bc, scheme, y)
    with pytest.raises(ValueError, match="lateral condition disagrees"):
        solve_cauchy_holdall(data, LateralBC("neumann"), scheme, MEMO_Y)


@pytest.mark.parametrize("bands, message", [
    ([], "cover modes"), ([(11, 0.7)], "cover modes"), ([(13, 0.7)], "cover modes"),
    ([(5, 0.7), (5, 0.6), (12, 0.5)], "cover modes"),
    ([(6, 0.7), (4, 0.6), (12, 0.5)], "cover modes"),
    ([(0, 0.7), (12, 0.5)], "cover modes"), ([(12, 0.0)], "half-orders"),
    ([(4, 1.2), (12, 0.5)], "half-orders"), ([(4, np.nan), (12, 0.5)], "half-orders"),
])
def test_banded_refuses_bad_bands(plans, bands, message):
    data = _memo_data(1)
    continue_banded(data, [(12, 0.7)], MEMO_Y)
    with pytest.raises(ValueError, match=message):
        continue_banded(data, bands, MEMO_Y)


def _same_bits(a, b):
    """Equal dtype, shape and bytes: sign bits of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _banded_before(data, bands, y):
    """Values and zeroed counts of `continue_banded` by its arithmetic
    before the band plans kept their counts: each band's kernels joined by
    np.concatenate, one np.where over every mode, np.count_nonzero of the
    guard and np.tensordot's synthesis."""
    y = np.asarray(y, dtype=float)
    fc, gc = analyze(data.f, data.basis).c, analyze(data.g, data.basis).c
    s = np.sqrt(data.basis.lambdas)
    zero = s == 0.0
    ginv = np.where(zero, 0.0, gc / np.where(zero, 1.0, s))
    up, um = 0.5 * (fc + ginv), 0.5 * (fc - ginv)
    amp = []
    for start, (end, alpha) in zip([0] + [e for e, _ in bands], bands):
        sb = s[start:end]
        want = np.broadcast_to(sb > 0.0, y.shape + sb.shape)
        part = np.ones(want.shape)
        z = -sb * np.float_power(y, alpha)[..., None]
        part[want] = 1.0 / ml_values(alpha, 1.0, z[want])
        amp.append(part)
    amp = np.concatenate(amp, axis=-1)
    big = np.abs(amp) > continuation.AMP_LIMIT
    a = np.where(s > 0.0, up * amp + um * np.exp(-s * y[..., None]), fc + gc * y[..., None])
    a[big] = 0.0
    return np.tensordot(data.basis.modes, a, axes=(0, -1)), np.count_nonzero(big, axis=-1)


@pytest.mark.parametrize("bands", [[(12, 0.7)], [(3, 1.0), (7, 0.8), (12, 1.0)]],
                         ids=["one_band", "three_bands"])
@pytest.mark.parametrize("y", [1.7, MEMO_Y], ids=["scalar", "grid"])
@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin"])
def test_banded_matches_arithmetic_before_plans_kept_counts(plans, kind, y, bands):
    # the combine over the positive modes, the zero-eigenvalue patch, the
    # kept guard counts and the matrix-product synthesis change no bit, cold
    # or warm; the top band at order 1 grows like exp(s y) and is guarded
    data = _memo_data(4, kind=kind)
    values, zeroed = _banded_before(data, bands, y)
    for _ in range(2):
        out = continue_banded(data, bands, y)
        _same_bits(out.values, values)
        _same_bits(out.zeroed_modes, zeroed)
        assert type(out.zeroed_modes) is type(zeroed)
    if len(bands) > 1 and np.ndim(y):
        assert np.sum(zeroed) > 0


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin"])
@pytest.mark.parametrize("shape", [(), (1,), (13,)])
def test_synthesis_matches_tensordot(kind, shape):
    data = _memo_data(5, kind=kind)
    a = np.random.default_rng(6).standard_normal(shape + (12,)) * 10.0 ** np.arange(-6, 6)
    _same_bits(continuation._slice(data, a, 0).values,
               np.tensordot(data.basis.modes, a, axes=(0, -1)))


def _guarded_ratio_before(num, den, ref):
    """`_guarded_ratio` by its arithmetic before the division ran on every
    entry: masked division of the kept entries only."""
    vals = np.zeros_like(num)
    bad = np.abs(den) < 1e-12 * np.abs(num)
    ok = ~bad
    with np.errstate(over="ignore"):
        vals[ok] = num[ok] / den[ok]
    amp_bad = ~np.isfinite(vals) | (np.abs(vals) > continuation.AMP_LIMIT
                                    * np.maximum(np.abs(ref), 1e-300))
    vals[amp_bad] = 0.0
    return vals, np.count_nonzero(bad | amp_bad, axis=-1)


def test_guarded_ratio_matches_masked_division():
    rng = np.random.default_rng(7)
    num = rng.standard_normal((9, 12)) * 10.0 ** rng.integers(-20, 20, (9, 12))
    den = rng.standard_normal((9, 12)) * 10.0 ** rng.integers(-30, 10, (9, 12))
    # zero and signed-zero denominators, an infinite numerator, a quotient
    # that overflows, a signed-zero numerator and a zero reference
    den[0, :3] = (0.0, -0.0, 1e-300)
    num[1, 0], den[1, 0] = np.inf, 2.0
    num[2, 1], den[2, 1] = 1e300, 1e-10
    num[3, 2] = -0.0
    ref = rng.random(12) * 10.0 ** rng.integers(-15, 5, 12)
    ref[4] = 0.0
    got = _guarded_ratio(num, den, ref)
    want = _guarded_ratio_before(num, den, ref)
    for g, w in zip(got, want):
        _same_bits(g, w)
    assert want[1].sum() > 0


@pytest.mark.parametrize("y", [[np.nan], [np.inf], [-0.1, 0.2], [0.1, -0.2]])
def test_split_frequency_refuses_heights_before_evaluating(monkeypatch, plans, y):
    def refuse(*args):
        raise AssertionError("a kernel was evaluated for refused heights")

    monkeypatch.setattr(continuation, "ml_values", refuse)
    with pytest.raises(ValueError, match="height"):
        split_frequency_continue(_memo_data(1), y)
    assert not plans


def test_landweber_geometric_recursion():
    # single mode, step factor one half, three iterations: 0.5, 0.75, 0.875
    basis = build_basis(1.0, LateralBC("dirichlet"), 1, 8)
    u = SpectralCoeffs(basis, np.array([1.0]))
    mu = math.pi ** 2 / 2.0
    for steps, expected in ((1, 0.5), (2, 0.75), (3, 0.875)):
        out = landweber_smooth(u, 1.0, mu, 1.0, 1.0, math.exp(steps - 0.5))
        assert abs(out.c[0] - expected) < 1e-14


def test_landweber_two_mode_closed_form():
    basis = build_basis(1.0, LateralBC("dirichlet"), 2, 16)
    u = np.array([1.0, -0.7])
    mu = 2.0
    step = mu * basis.lambdas ** -1.0
    out = landweber_smooth(SpectralCoeffs(basis, u), 1.0, mu, 1.0, 1.0, math.exp(4.5))
    expected = u * (1.0 - (1.0 - step) ** 5)
    assert np.allclose(out.c, expected, rtol=1e-13)


def test_landweber_matches_iteration():
    # the closed form against the 40-step iteration it sums, to about 40
    # roundings; steps down to 5.6e-5 would cost 1 - (1 - step)^40 8e-13
    rng = np.random.default_rng(4)
    basis = build_basis(1.0, LateralBC("dirichlet"), 12, 64)
    u = rng.standard_normal(12)
    step = 3.0 * basis.lambdas ** -1.5
    v = np.zeros(12)
    for _ in range(40):
        v = v * (1.0 - step) + step * u
    out = landweber_smooth(SpectralCoeffs(basis, u), 1.5, 3.0, 1.0, 1.0, math.exp(39.5))
    assert np.allclose(out.c, v, rtol=1e-13, atol=0.0)


def test_landweber_contracts_toward_data():
    rng = np.random.default_rng(9)
    basis = build_basis(1.0, LateralBC("dirichlet"), 8, 64)
    u = rng.standard_normal(8)
    out = landweber_smooth(SpectralCoeffs(basis, u), 1.5, 3.0, 0.5, 0.01, 1.0)
    ratio = out.c / u
    assert np.all(ratio >= 0.0) and np.all(ratio <= 1.0)
    assert np.all(np.abs(out.c - u) <= np.abs(u))


def test_landweber_limit_is_fixed_point():
    basis = build_basis(1.0, LateralBC("dirichlet"), 4, 32)
    u = np.array([1.0, 2.0, -3.0, 0.5])
    out = landweber_smooth(SpectralCoeffs(basis, u), 1.0, 4.0, 0.02, 1e-3, 10.0)
    assert np.allclose(out.c, u, rtol=1e-8)


def test_landweber_rejections():
    basis = build_basis(1.0, LateralBC("dirichlet"), 2, 16)
    u = SpectralCoeffs(basis, np.ones(2))
    with pytest.raises(ValueError, match="contraction"):
        landweber_smooth(u, 1.0, 2 * math.pi ** 2, 1.0, 1.0, 10.0)
    nbasis = build_basis(1.0, LateralBC("neumann"), 2, 16)
    nu = SpectralCoeffs(nbasis, np.ones(2))
    with pytest.raises(ValueError, match="zero eigenvalue"):
        landweber_smooth(nu, 1.0, 0.5, 1.0, 1.0, 10.0)


def test_monotone_error_growth_in_depth():
    rng = np.random.default_rng(12)
    truth = _dirichlet_data(J=8, L=1.0,
                            cf=[0.8, 0.2, 0.05, 0, 0, 0, 0, 0],
                            cg=[0.5, -0.1, 0.02, 0, 0, 0, 0, 0])
    noisy = with_noise(truth, 0.01, rng)
    errs = []
    for y in (1.0 / 3.0, 2.0 / 3.0, 1.0):
        ref = continue_exact(truth, y)
        out = continue_exact(noisy, y)
        errs.append(np.linalg.norm(out.values - ref.values) / np.linalg.norm(ref.values))
    assert errs[0] < errs[1] < errs[2]


def test_error_splits_into_defect_plus_noise():
    rng = np.random.default_rng(13)
    truth = _dirichlet_data(J=8, L=1.0,
                            cf=[1.0, 0.3, 0.1, 0, 0, 0, 0, 0],
                            cg=[0.2, 0.1, 0, 0, 0, 0, 0, 0])
    noisy = with_noise(truth, 0.05, rng)
    y = 0.5
    ref = continue_exact(truth, y).values
    clean = continue_fac_lap(truth, 0.9, y).values
    recon = continue_fac_lap(noisy, 0.9, y).values
    total = np.linalg.norm(recon - ref)
    defect = np.linalg.norm(clean - ref)
    propagated = np.linalg.norm(recon - clean)
    assert total <= defect + propagated + 1e-12


def test_with_noise_scaling_is_exact_and_seeded():
    data = _dirichlet_data(cf=[1, 0.5, 0, 0, 0, 0, 0, 0],
                           cg=[0.7, -0.2, 0.1, 0, 0, 0, 0, 0])
    w = data.basis.weights
    a = with_noise(data, 0.03, np.random.default_rng(42))
    b = with_noise(data, 0.03, np.random.default_rng(42))
    assert np.array_equal(a.g, b.g)
    rel = math.sqrt(float(np.sum(w * (a.g - data.g) ** 2) / np.sum(w * data.g ** 2)))
    assert abs(rel - 0.03) < 1e-12
    assert np.array_equal(a.f, data.f)
    c = with_noise(data, 0.03, np.random.default_rng(1), perturb_f=True)
    assert not np.array_equal(c.f, data.f)


def test_scheme_record_validation():
    ContinuationScheme("fac_lap", alpha=0.5)
    with pytest.raises(ValueError):
        ContinuationScheme("bogus")
    with pytest.raises(ValueError):
        ContinuationScheme("fac_lap", alpha=1.5)
    # each kind takes exactly the fields it runs on
    for kind in ("left_dc", "right_dc", "fac_lap"):
        with pytest.raises(ValueError, match="needs the half-order"):
            ContinuationScheme(kind)
    for kind in ("exact", "fac_lap_split"):
        with pytest.raises(ValueError, match="takes no half-order"):
            ContinuationScheme(kind, alpha=0.9)
    # the Mittag-Leffler propagators run only for orders 2*alpha in [1, 2]
    basis = build_basis(1.0, LateralBC("neumann"), 4, 17)
    data = CauchyData(np.cos(np.pi * basis.grid), np.zeros(17), 0.0, basis)
    for kind in ("left_dc", "right_dc"):
        with pytest.raises(ValueError, match=r"alpha in \[0.5, 1\]"):
            ContinuationScheme(kind, alpha=0.3)
        cont, _ = ContinuationScheme(kind, alpha=0.5).continue_data(data, [0.1, 0.2])
        assert np.all(np.isfinite(cont.values))

    # the split rule continues its low modes at the exact order 1.0; the
    # bands it reports reproduce its field through continue_banded
    rng = np.random.default_rng(8)
    basis = build_basis(math.pi, LateralBC("dirichlet"), 12, 128)
    c = rng.standard_normal(12) * np.exp(-np.arange(12))
    data = CauchyData(synthesize(SpectralCoeffs(basis, c)),
                      synthesize(SpectralCoeffs(basis, 0.5 * c)), 0.02, basis)
    y = [1.0 / 3.0, 2.0 / 3.0, 1.0]
    picked = solve_cauchy_holdall(data, basis.bc, ContinuationScheme("fac_lap_split"), y)
    bands = tuple(picked.meta["bands"])
    assert bands[0][1] == 1.0 and len(bands) > 1
    replay = continue_banded(data, bands, y)
    assert np.array_equal(replay.values, picked.values)


def test_data_validation():
    basis = build_basis(1.0, LateralBC("dirichlet"), 4, 32)
    with pytest.raises(ValueError):
        CauchyData(np.zeros(31), np.zeros(32), 0.0, basis)
    with pytest.raises(ValueError):
        CauchyData(np.zeros(32), np.zeros(32), 1.0, basis)
    # one NaN in g would turn every scheme's field into NaNs or zeroed modes
    bad = np.zeros(32)
    bad[5] = np.nan
    with pytest.raises(ValueError, match="traces must be finite"):
        CauchyData(np.zeros(32), bad, 0.0, basis)
    bad[5] = np.inf
    with pytest.raises(ValueError, match="traces must be finite"):
        CauchyData(bad, np.zeros(32), 0.0, basis)
    data = CauchyData(np.zeros(32), np.zeros(32), 0.0, basis)
    with pytest.raises(ValueError):
        continue_exact(data, -0.5)
    with pytest.raises(ValueError):
        continue_left_dc(data, 2.5, 0.1)
    with pytest.raises(ValueError):
        continue_fac_lap(data, 0.0, 0.1)
