"""Mittag-Leffler evaluator: classical identities, frozen high-precision
references, and the inequalities the continuation analysis relies on."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import erfcx, gamma, gammaln, rgamma

from fraccauchy import specfun
from fraccauchy.specfun import (
    _SERIES_KMAX,
    _algebraic_tail,
    _integral_negative,
    _ml_array,
    _series,
    ml,
    ml_reciprocal_bound,
    ml_values,
)

# Reference values computed with an arbitrary-precision partial-sum oracle
# (adaptive working precision covering the worst intermediate term, absolute
# tail cutoff well below the printed digits).
GOLDEN = {
    (0.5, 1.0, -1.0): 0.427583576155807004,
    (0.5, 1.0, -0.5): 0.615690344192925875,
    (1.5, 1.0, 2.0): 3.3487008963183954,
    (0.25, 1.0, -3.0): 0.219004427560406799,
    (2.0, 1.7, -3.0): 0.496002289209775782,
    (0.7, 2.0, 1.5): 3.76342774192119329,
    (2.0, 2.0, 4.0): 1.81343020392350938,
    (1.0, 2.0, -4.0): 0.245421090277816455,
    (0.9, 1.0, -2.0): 0.163528300016930043,
    (0.7, 1.0, -60.0): 0.00564627516688042144,
    (0.25, 1.0, -5.5): 0.131347771463973128,
    (0.6, 0.6, -20.0): 0.000699765317978539143,
    (0.85, 1.0, -60.0): 0.00274648575588119241,
    (1.3, 1.0, -25.0): -0.00995234772975982683,
    (1.9, 0.5, -60.0): -1.51063420074166948,
    (0.8, 1.0, 30.0): 3.88067978696232406e30,
    (0.9, 1.0, -8.0): 0.0170951445807968058,
    (0.75, 1.7, -5.5): 0.167106736065797705,
    (0.999, 1.0, -12.0): 0.000108949787198164917,
    (0.9, 0.9, -(0.5 ** 0.9)): 0.511127015629086223,
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_against_frozen_reference(key):
    alpha, beta, z = key
    ref = GOLDEN[key]
    r = ml(alpha, beta, z)
    tol = max(r.est_abs_err, 1e-12 * (1.0 + abs(r.value)))
    assert abs(r.value - ref) <= tol
    # absolute sanity independent of the self-reported estimate
    assert abs(r.value - ref) <= 5e-8 * (1.0 + abs(ref))


def test_exp_identity():
    z = np.linspace(-30.0, 5.0, 141)
    vals = ml_values(1.0, 1.0, z)
    assert np.all(np.abs(vals - np.exp(z)) <= 1e-10 * (1.0 + np.exp(z)))


def test_cos_identity():
    x = np.linspace(0.0, 20.0, 401)
    vals = ml_values(2.0, 1.0, -x * x)
    assert np.max(np.abs(vals - np.cos(x))) <= 1e-9


def test_sinc_identity():
    x = np.linspace(0.05, 20.0, 400)
    vals = ml_values(2.0, 2.0, -x * x)
    assert np.max(np.abs(vals - np.sin(x) / x)) <= 1e-9


def _kernel(alpha, beta, lam, t):
    # evaluation kernel t^{beta-1} E_{alpha,beta}(-lam t^alpha), t > 0
    return t ** (beta - 1.0) * ml(alpha, beta, -lam * t ** alpha).value


def test_kernel_matches_exponential():
    for t in np.linspace(0.05, 3.0, 20):
        assert _kernel(1.0, 1.0, 2.0, t) == pytest.approx(math.exp(-2.0 * t), abs=1e-12)


def test_kernel_values():
    # t^{beta-1} E_{alpha,beta}(-lam t^alpha) at a few frozen points
    assert _kernel(2.0, 2.0, 4.0, 1.0) == pytest.approx(math.sin(2.0) / 2.0, abs=1e-12)
    ref = 0.5 ** (-0.1) * 0.511127015629086223
    assert _kernel(0.9, 0.9, 1.0, 0.5) == pytest.approx(ref, abs=1e-11)


def test_values_keep_array_shape():
    # a (mode x height) grid whose negative arguments reach every branch,
    # the integral one included (-7.78 and -9.32 at alpha = 0.9)
    z = np.array([[-7.78, -9.32, -0.5], [-60.0, 2.0, -20.0]])
    for beta in (1.0, 0.9):
        grid = ml_values(0.9, beta, z)
        assert grid.shape == z.shape
        assert np.array_equal(grid.ravel(), ml_values(0.9, beta, z.ravel()))
        assert np.array_equal(grid, [[ml(0.9, beta, zz).value for zz in row] for row in z])


def _ml_series_mp(alpha, beta, z):
    """E_{alpha,beta}(z) from its defining series in mpmath.  The working
    precision covers the largest term (about e^{|z|^{1/alpha}}) and the
    gamma arguments are formed in mpmath, as in dev_ml_check.ml_mp."""
    x = abs(z) ** (1.0 / alpha)
    # exact only where alpha is exactly 1/lag in binary (alpha = 1/2 here)
    lag = round(1.0 / alpha) if Fraction(alpha) * round(1.0 / alpha) == 1 else None
    with mp.workdps(40 + int(x / math.log(10))):
        a, b, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        s, t, k, rg = mp.mpf(0), mp.mpf(1), 0, []
        while True:
            # 1/Gamma(a k + b); for a = 1/lag, Gamma(x + 1) = x Gamma(x) steps it
            if lag and k >= lag:
                rg.append(rg[k - lag] / (a * (k - lag) + b))
            else:
                rg.append(mp.rgamma(a * k + b))
            term = t * rg[k]
            s += term
            if k > x and abs(term) < mp.mpf(10) ** -30:
                return float(s)
            t *= zz
            k += 1


@pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9, 0.999])
def test_integral_branch_against_series(alpha):
    # the batched integral rule on its own, beta = 1.7 and 2 through the
    # reduction to beta <= 1; the error must stay within the reported estimate
    z = np.array([-5.5, -12.0, -25.0])
    for beta in sorted({0.5, 1.0, alpha, 1.7, 2.0}):
        vals, ests = _integral_negative(alpha, beta, z)
        for v, e, zz in zip(vals, ests, z):
            ref = _ml_series_mp(alpha, beta, zz)
            assert abs(v - ref) <= e, (beta, zz)
            assert abs(v - ref) <= 1e-8 * (1.0 + abs(ref)), (beta, zz)


def test_integral_branch_tiny_alpha():
    # r^p overflows at the nodes next to t = pi alpha, where the integrand
    # underflows; those nodes must drop out instead of giving inf * 0
    r = ml(0.02, 0.05, -1.05)
    assert r.branch == "integral"
    assert abs(r.value - _ml_series_mp(0.02, 0.05, -1.05)) <= r.est_abs_err


def test_integral_branch_needs_no_quad(monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("integral branch evaluated point by point")

    monkeypatch.setattr(specfun, "quad", no_quad)
    z = -np.linspace(4.0, 40.0, 37)
    for alpha in (0.7, 0.99):
        vals, _, branch = _ml_array(alpha, 1.0, z)
        assert np.count_nonzero(branch == 2) >= 10
        assert np.array_equal(ml_values(alpha, 1.0, z), vals)
        assert np.all(np.isfinite(vals))


# The Taylor series and the algebraic tail as one pass per term over every
# point, the form they had before the terms were walked in chunks.  The
# chunked code must return the same floats, bit for bit.
def _series_loop(alpha, beta, z):
    val = np.full(z.shape, rgamma(beta))
    term = np.ones_like(z)
    max_term = np.abs(val).copy()
    est = np.zeros_like(z)
    active = np.ones(z.shape, dtype=bool)
    for k in range(1, _SERIES_KMAX):
        term = term * z
        coef = rgamma(alpha * k + beta)
        contrib = term * coef
        val = np.where(active, val + contrib, val)
        mag = np.abs(contrib)
        max_term = np.maximum(max_term, np.where(active, mag, 0.0))
        done = active & (mag <= 1e-18 * (1.0 + np.abs(val))) & (k * alpha + beta > 2.0)
        est = np.where(done & (est == 0.0), mag, est)
        active &= ~done
        if not active.any():
            break
    if active.any():
        est = np.where(active, np.abs(term) * abs(rgamma(alpha * _SERIES_KMAX + beta)) + 1.0, est)
    with np.errstate(over="ignore"):
        xr = np.minimum(np.abs(z) ** (1.0 / alpha), 750.0)
    est = est + 2e-14 * max_term + np.abs(val) * 1e-16 * (2.0 + xr * np.log1p(xr))
    return val, est, max_term


def _algebraic_tail_loop(alpha, beta, z):
    az = np.abs(z)
    kopt = np.clip((az ** (1.0 / alpha) + beta - 1.0) / alpha, 1.0, 199.0)
    kend = np.floor(kopt)
    ln_est = -kopt * np.log(az) + gammaln(np.maximum(1.0 + alpha * kopt - beta, 0.5)) - math.log(math.pi)
    est = 4.0 * np.exp(np.minimum(ln_est, 700.0))
    val = np.zeros_like(z)
    zinv = 1.0 / z
    power = np.ones_like(z)
    first_mag = np.zeros_like(z)
    kmax = int(np.max(kend))
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        for k in range(1, kmax + 1):
            power = power * zinv
            coef = rgamma(beta - alpha * k)
            contrib = power * coef
            good = (k <= kend) & np.isfinite(contrib) & (np.abs(power) > 1e-290)
            val = np.where(good, val - contrib, val)
            first_mag = np.maximum(first_mag, np.where(good, np.abs(contrib), 0.0))
            if not np.any(good & (k < kend)):
                break
    est = est + 1e-14 * first_mag
    return val, est


PIN_ALPHAS = [0.5, 0.6, 0.9, 0.999, 1.0, 1.8]


def _pin_betas(alpha):
    return sorted({1.0, alpha, 1.7, 2.0})


def _assert_same(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert np.shape(g) == np.shape(r)
        np.testing.assert_array_equal(g, r, strict=True)


@pytest.mark.parametrize("alpha", PIN_ALPHAS)
def test_series_bitwise_equal_to_term_loop(alpha):
    # both signs and z = 0, out to the series' reach on the negative axis
    # (|z|^(1/alpha) <= 17) and a little past it on the positive one
    reach = 17.0 ** alpha
    z = np.concatenate([np.linspace(-reach, reach, 401), [0.0, -0.0, 1e-300, 2.0 * reach]])
    for beta in _pin_betas(alpha):
        _assert_same(_series(alpha, beta, z), _series_loop(alpha, beta, z))


def test_series_unfinished_at_kmax_bitwise():
    # at alpha = 0.1, |z| = 1.6 the terms still grow at k = _SERIES_KMAX;
    # the other points of the call converge early
    z = np.array([-1.6, -0.5, 0.0, 0.7, 1.6, 1.55])
    for beta in (1.0, 0.1, 1.7):
        got = _series(0.1, beta, z)
        _assert_same(got, _series_loop(0.1, beta, z))
        assert got[1][[0, 4]].min() > 1.0


@pytest.mark.parametrize("alpha, beta, extra", [
    (0.5, 1.0, -1e3), (0.9, 1.0, 50.0), (0.9, 0.9, -1e3),
    (1.0, 2.0, 300.0), (1.8, 1.8, 1e5), (2.0, 1.0, -1e5),
])
def test_all_series_call_matches_general_path(monkeypatch, alpha, beta, extra):
    # a call whose points all stay with the series returns the series'
    # triple at once; appending one point of another branch sends the same
    # points through the general path, whose leading slice must agree bit
    # for bit, sign bits included
    z = np.concatenate([np.linspace(-2.0, 2.0, 41) ** 3 / 4.0, [0.0, -0.0]])

    def refuse(*args):
        raise AssertionError("an all-series call reached another branch")

    for name in ("_algebraic_tail", "_integral_negative", "_exp_branch_positive",
                 "_exp_branch_negative"):
        monkeypatch.setattr(specfun, name, refuse)
    fast = _ml_array(alpha, beta, z)
    monkeypatch.undo()
    general = _ml_array(alpha, beta, np.append(z, extra))
    assert general[2][-1] != 0
    for got, want in zip(fast, general):
        assert got.dtype == want.dtype and got.shape == z.shape
        assert got.tobytes() == want[:-1].tobytes()
    assert not fast[2].any()


def test_series_independent_of_chunk_size(monkeypatch):
    # the partial sums run sequentially along the term axis, so the chunk
    # size changes no bit; the points stop anywhere from the first terms to
    # past a hundred, that is in different chunks of every size below
    z = np.concatenate([np.linspace(-6.0, 6.0, 97), [1e-3, -1e-3]])
    cases = [(0.5, 1.0), (0.5, 0.5), (0.6, 1.7), (0.9, 1.0), (0.9, 0.9), (1.3, 2.0), (1.8, 1.0)]
    stops = {_series_stop(alpha, beta, float(v)) for alpha, beta in cases for v in z}
    assert None not in stops and min(stops) < 12 and max(stops) > 100
    refs = {case: _series(*case, z) for case in cases}
    for chunk in (1, 12, 32, 64):
        monkeypatch.setattr(specfun, "_SERIES_CHUNK", chunk)
        for case in cases:
            _assert_same(_series(*case, z), refs[case])


def _series_stop(alpha, beta, z):
    """Index of the term at which the series of the single point z stops."""
    s, t = rgamma(beta), 1.0
    for k in range(1, _SERIES_KMAX):
        t *= z
        c = t * rgamma(alpha * k + beta)
        s += c
        if abs(c) <= 1e-18 * (1.0 + abs(s)) and k * alpha + beta > 2.0:
            return k
    return None


@pytest.mark.parametrize("alpha", PIN_ALPHAS)
def test_algebraic_tail_bitwise_equal_to_term_loop(alpha):
    # |z| from below 1 to where kend sits at its 199-term clip, both signs
    mag = np.logspace(-0.5, 3.0, 300)
    z = np.concatenate([-mag, mag, [0.0]])
    for beta in _pin_betas(alpha):
        with np.errstate(divide="ignore"):
            _assert_same(_algebraic_tail(alpha, beta, z), _algebraic_tail_loop(alpha, beta, z))


def test_algebraic_tail_at_clip_bitwise():
    # alpha = 0.5 reaches kend = 199 from |z| ~ 10 on
    z = -np.linspace(10.0, 60.0, 101)
    kend = np.floor(np.clip((z * z) / 0.5, 1.0, 199.0))
    assert np.all(kend == 199.0)
    for beta in (1.0, 0.5, 2.0):
        _assert_same(_algebraic_tail(0.5, beta, z), _algebraic_tail_loop(0.5, beta, z))


@pytest.mark.parametrize("z", [20.0, -7.5, np.float64(3.0), np.array(-40.0)])
def test_algebraic_tail_scalar_input(z):
    for alpha, beta in ((0.9, 1.0), (1.8, 1.8), (0.5, 2.0)):
        got = _algebraic_tail(alpha, beta, z)
        _assert_same(got, _algebraic_tail_loop(alpha, beta, z))
        assert np.ndim(got[0]) == 0


class TestTermCost:
    """One reciprocal-gamma call per chunk of terms, and a call stops once
    every point's sum is final: a pass per term costs 199 calls for the tail
    and 82 for the series below."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]

        def counted(x):
            count[0] += 1
            return rgamma(x)

        monkeypatch.setattr(specfun, "rgamma", counted)
        return count

    def test_tail_at_clip(self, calls):
        # the asymptotic points of alpha = 0.5 just past the series; from
        # |z| ~ 10 on, kend sits at the 199-term clip
        z = np.linspace(-32.3, -2.83, 1471)
        _algebraic_tail(0.5, 1.0, z)
        assert calls[0] <= 16

    def test_series(self, calls):
        # the negative-axis series of alpha = 0.6 up to |z|^(1/alpha) = 8
        z = np.linspace(-(8.0 ** 0.6), 0.0, 1001)
        _series(0.6, 1.0, z)
        assert calls[0] <= 16


def test_nan_argument_is_nan():
    r = ml(0.5, 1.0, float("nan"))
    assert math.isnan(r.value)
    assert r.est_abs_err == math.inf
    assert r.branch == "none"
    z = np.array([-60.0, np.nan, -1.0, 2.0, -9.0])
    vals, ests, _ = _ml_array(0.9, 1.0, z)
    assert np.isnan(vals[1]) and ests[1] == np.inf
    others = np.array([0, 2, 3, 4])
    assert np.array_equal(vals[others], ml_values(0.9, 1.0, z[others]))
    assert np.all(np.isfinite(vals[others]))


@pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (0.8, 1.7), (0.9, 0.5), (1.5, 1.0), (2.0, 2.0)])
def test_positive_infinity_overflows(alpha, beta):
    with pytest.raises(OverflowError):
        ml(alpha, beta, math.inf)


@pytest.mark.parametrize("z", [720.0, math.inf])
def test_exponential_order_overflows(z):
    # E_{1,1} = exp: past the exponent limit it raises like every other order
    with pytest.raises(OverflowError):
        ml(1.0, 1.0, z)


def test_exponential_order_skips_algebraic_tail(monkeypatch):
    # the tail of E_{1,1} vanishes term by term (1/Gamma(1 - k) = 0), so
    # neither large-argument branch computes it
    def no_tail(*args):
        raise AssertionError("algebraic tail computed for alpha = beta = 1")

    z = np.array([-700.0, -60.0, -18.5, -1.0, 0.0, 3.0, 200.0, 700.0])
    monkeypatch.setattr(specfun, "_algebraic_tail", no_tail)
    vals, ests, branch = _ml_array(1.0, 1.0, z)
    big = np.abs(z) > 10.0
    assert np.all(branch[big] == 1) and np.all(branch[~big] == 0)
    np.testing.assert_array_equal(vals[big], np.exp(z[big]), strict=True)
    assert np.all(np.isfinite(ests))
    with pytest.raises(AssertionError):
        _ml_array(1.5, 1.0, z[:1])


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 0.9, 1.0, 1.3, 1.5, 1.8, 1.99])
def test_negative_infinity_limit(alpha):
    # E_{alpha,beta}(-x) -> 0 as x -> inf for alpha < 2
    for beta in (0.5, 1.0, 1.7, 2.0):
        r = ml(alpha, beta, -math.inf)
        assert r.value == 0.0
        assert math.isfinite(r.est_abs_err) and r.est_abs_err >= 0.0
        assert r.branch == "asymptotic"
        z = np.array([-40.0, -3.0, 0.5])
        vals, ests, branch = _ml_array(alpha, beta, np.append(z, -math.inf))
        for got, ref in zip((vals, ests, branch), _ml_array(alpha, beta, z)):
            np.testing.assert_array_equal(got[:-1], ref, strict=True)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.7, 2.0])
def test_negative_infinity_oscillates_at_order_two(beta):
    # E_{2,1}(-x^2) = cos x and E_{2,2}(-x^2) = sin(x)/x: no limit at alpha = 2
    r = ml(2.0, beta, -math.inf)
    assert math.isnan(r.value)
    assert r.est_abs_err == math.inf


def test_forced_zero_at_half_pi():
    # E_{2,1}(-x^2) = cos x vanishes at x = pi/2
    r = ml(2.0, 1.0, -((math.pi / 2.0) ** 2))
    assert abs(r.value) <= 1e-12


def test_erfcx_identity():
    # E_{1/2,1}(-x) = exp(x^2) erfc(x), available in scipy in scaled form
    for x in (0.3, 1.0, 2.0, 5.0, 5.5, 8.0, 12.0, 30.0, 80.0, 200.0):
        r = ml(0.5, 1.0, -x)
        assert abs(r.value - erfcx(x)) <= 1e-10 * (1.0 + abs(r.value))


@pytest.mark.parametrize(
    "alpha,beta,z,branch",
    [
        (0.5, 1.0, -1.0, "series"),
        (1.9, 0.5, -60.0, "series"),
        (0.7, 1.0, -60.0, "asymptotic"),
        (0.8, 1.0, 30.0, "asymptotic"),
        (0.9, 1.0, -8.0, "integral"),
        (0.999, 1.0, -12.0, "integral"),
    ],
)
def test_branch_selection(alpha, beta, z, branch):
    assert ml(alpha, beta, z).branch == branch


def test_error_estimate_nonnegative():
    for key in GOLDEN:
        assert ml(*key).est_abs_err >= 0.0


@pytest.mark.parametrize("alpha", [0.0, -0.3, 2.1, float("nan")])
def test_alpha_domain_error(alpha):
    with pytest.raises(ValueError):
        ml(alpha, 1.0, 0.5)


@pytest.mark.parametrize("beta", [0.0, -2.0, float("inf")])
def test_beta_domain_error(beta):
    with pytest.raises(ValueError):
        ml(1.0, beta, 0.5)


def test_positive_overflow_signalled():
    # E_{1/2,1}(30) ~ exp(900) exceeds the double range
    with pytest.raises(OverflowError):
        ml(0.5, 1.0, 30.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 1.0])
def test_complete_monotonicity_proxy(alpha):
    # alpha = 1 decays exponentially and underflows past t ~ 745; the
    # fractional orders decay algebraically and stay representable
    t = np.logspace(-4, 4 if alpha < 1.0 else 2, 81)
    vals = ml_values(alpha, 1.0, -t)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0 + 1e-12)
    assert np.all(np.diff(vals) <= 1e-12)


def test_reciprocal_stability_bound():
    # 1/E_{alpha,1}(-lam y^alpha) <= 1 + Gamma(1-alpha) lam y^alpha over the
    # full 64-point grid
    violations = 0
    for alpha in (0.5, 0.7, 0.9, 0.99):
        for lam in (1.0, 10.0, 100.0, 1000.0):
            for y in (0.01, 0.1, 0.5, 1.0):
                e = ml(alpha, 1.0, -lam * y ** alpha).value
                bound = ml_reciprocal_bound(alpha, lam, y)
                if 1.0 / e > bound * (1.0 + 1e-10):
                    violations += 1
    assert violations == 0


def test_reciprocal_bound_values():
    assert ml_reciprocal_bound(0.5, 0.0, 1.0) == 1.0
    assert ml_reciprocal_bound(0.5, 1.0, 1.0) == pytest.approx(1.0 + math.sqrt(math.pi), abs=1e-12)
    assert ml_reciprocal_bound(0.9, 10.0, 0.5) == pytest.approx(
        1.0 + gamma(0.1) * 10.0 * 0.5 ** 0.9, rel=1e-13
    )
    with pytest.raises(ValueError):
        ml_reciprocal_bound(1.0, 1.0, 1.0)


def test_convergence_rate_in_alpha():
    # || E_{alpha,1}(-lam t^alpha) - exp(-lam t) ||_{L2(0,1)} should shrink
    # at least linearly in (1 - alpha) as alpha -> 1 (lam = 25)
    lam = 25.0
    t = np.linspace(0.0, 1.0, 10001)
    alphas = np.array([0.9, 0.95, 0.975, 0.99])
    errs = []
    for alpha in alphas:
        d = ml_values(alpha, 1.0, -lam * t ** alpha) - np.exp(-lam * t)
        errs.append(math.sqrt(trapezoid(d * d, t)))
    slope = np.polyfit(np.log(1.0 - alphas), np.log(errs), 1)[0]
    assert slope >= 0.9


@pytest.mark.parametrize("lam", [4.0, 25.0, 100.0])
def test_linear_defect_bound_stable(lam):
    # sup_{[1/4,1]} |E_{alpha,1}(-lam t^alpha) - exp(-lam t)| <= C (1-alpha)
    # with C stable (within 2x) across alpha
    t = np.linspace(0.25, 1.0, 1501)
    cs = []
    for alpha in (0.9, 0.95, 0.975, 0.99):
        d = ml_values(alpha, 1.0, -lam * t ** alpha) - np.exp(-lam * t)
        cs.append(np.max(np.abs(d)) / (1.0 - alpha))
    assert max(cs) / min(cs) < 2.0
