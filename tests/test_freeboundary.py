import math
import warnings

import numpy as np
import pytest

from fraccauchy.continuation import CauchyData, ContinuationScheme
from fraccauchy.elliptic import (
    Curve,
    InterfaceBC,
    bottom_flux,
    combined_impedance,
    curve_conormal,
    interface_traces,
    solve_cauchy_holdall,
    solve_forward,
)
from fraccauchy.freeboundary import (
    NewtonConfig,
    _band_matvec,
    _gradient_rows,
    _gram_bands,
    linearized_flux,
    newton_dirichlet,
    newton_impedance,
    newton_neumann,
    project_cosine,
)
from fraccauchy.spectral import LateralBC, build_basis
from helpers import with_noise

L = 1.0
GAMMA = 0.1
LATERAL = LateralBC("neumann")
N = 129
X = np.linspace(0.0, L, N)


def truth_curve(x, olell):
    return olell * (0.8 + 0.1 * np.cos(2 * np.pi * x))


def excitation(x):
    return 1.0 + 0.3 * np.cos(np.pi * x)


def interface_for(kind, gamma=GAMMA):
    if kind == "I":
        return InterfaceBC("I", gamma=gamma, combined=False)
    return InterfaceBC(kind)


def wnorm(v):
    w = np.full(v.size, 1.0 / (v.size - 1))
    w[0] = w[-1] = 0.5 / (v.size - 1)
    return math.sqrt(float(np.sum(w * v * v)))


def synthetic_flux(kind, olell, fine=257, gamma=GAMMA):
    # synthesize on a twice-finer mesh and restrict, so the inverse runs do
    # not share their forward solver's discretization error with the data
    xf = np.linspace(0.0, L, fine)
    field = solve_forward(
        Curve(truth_curve(xf, olell), L, olell), LATERAL, interface_for(kind, gamma), excitation(xf)
    )
    return bottom_flux(field)[::2]


_ZBAR = {}


def holdall_field(kind, olell, delta, seed=3, gamma=GAMMA):
    key = (kind, olell, delta, seed, gamma)
    if key not in _ZBAR:
        basis = build_basis(L, LATERAL, 24, N)
        data = CauchyData(excitation(basis.grid), synthetic_flux(kind, olell, gamma=gamma), 0.0, basis)
        if delta > 0.0:
            data = with_noise(data, delta, np.random.default_rng(seed))
        scheme = ContinuationScheme("exact" if delta == 0.0 else "fac_lap_split")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _ZBAR[key] = solve_cauchy_holdall(
                data, LATERAL, scheme, np.linspace(0.0, olell, 81)
            )
    return _ZBAR[key]


def run_newton(kind, olell, delta, start, cfg=None, endpoints=True, seed=3):
    lt = truth_curve(X, olell)
    zbar = holdall_field(kind, olell, delta, seed=seed)
    curve0 = Curve(start if np.ndim(start) else np.full(N, start), L, olell)
    cfg = cfg if cfg is not None else NewtonConfig()
    if kind == "D":
        return newton_dirichlet(curve0, zbar, LATERAL, excitation(X), cfg, truth=lt)
    if kind == "N":
        ev = (lt[0], lt[-1]) if endpoints else None
        return newton_neumann(
            curve0, zbar, LATERAL, excitation(X), cfg, truth=lt, endpoint_values=ev
        )
    return newton_impedance(curve0, GAMMA, zbar, LATERAL, excitation(X), cfg, truth=lt)


_RUNS = {}


def cached_run(kind, delta, start, olell=0.1):
    key = (kind, delta, start, olell)
    if key not in _RUNS:
        _RUNS[key] = run_newton(kind, olell, delta, start)
    return _RUNS[key]


class TestFixedPointAtTruth:
    """Noise-free data, start at the truth curve: one step must stay put up
    to discretization error."""

    @pytest.mark.parametrize("kind", ["D", "N", "I"])
    def test_update_at_discretization_level(self, kind):
        lt = truth_curve(X, 0.1)
        tr = run_newton(kind, 0.1, 0.0, lt, cfg=NewtonConfig(max_iter=1))
        moved = wnorm(tr.iterates[-1].ell - lt)
        budget = (1.0 / (N - 1)) ** 2 * wnorm(lt)
        assert moved <= 5.0 * budget


class TestBenchmarkRecovery:
    """Reconstruction magnitudes on the standard layout (within 3x of the
    tabulated scales; mesh and regularization differ from the source runs)."""

    def test_dirichlet_one_percent(self):
        tr = cached_run("D", 0.01, 0.02)
        assert min(tr.rel_errors[: 8 + 1]) <= 0.012
        assert tr.rel_errors[-1] <= 0.012

    def test_dirichlet_ten_percent(self):
        tr = cached_run("D", 0.10, 0.02)
        assert tr.rel_errors[-1] <= 0.12

    def test_dirichlet_deep_holdall(self):
        tr = cached_run("D", 0.01, 0.1, olell=0.5)
        assert tr.rel_errors[-1] <= 3.0 * 0.0158

    def test_neumann_one_percent_fast(self):
        tr = cached_run("N", 0.01, 0.05)
        assert tr.rel_errors[3] <= 0.01
        assert tr.rel_errors[-1] <= 3.0 * 0.0018

    def test_impedance_one_percent_fast(self):
        tr = cached_run("I", 0.01, 0.05)
        assert tr.rel_errors[2] <= 3.0 * 0.0077
        assert tr.rel_errors[3] <= 0.025
        assert tr.rel_errors[-1] <= 0.025

    @pytest.mark.parametrize("kind", ["D", "N", "I"])
    def test_noise_monotonicity(self, kind):
        finals = [cached_run(kind, d, 0.02).rel_errors[-1] for d in (0.01, 0.02, 0.05, 0.10)]
        for lo, hi in zip(finals, finals[1:]):
            assert hi >= lo
        assert finals[0] <= (0.012 if kind == "D" else 0.025)


_FLOOR = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 12: the Neumann and impedance residuals take "
    "x-derivatives along the curve to second order, and their error stops near 4.6e-5 "
    "(about h^2) from delta = 1e-4 on")


@pytest.mark.parametrize("kind", ["D", pytest.param("N", marks=_FLOOR),
                                  pytest.param("I", marks=_FLOOR)])
def test_curve_error_falls_with_noise(kind):
    # the whole recovery (noisy flux, split-rule hold-all field, Newton sweep)
    # is a regularisation, so its error goes to zero with the noise level;
    # pinned as a fall by at least 2x per decade of delta, each error the
    # median final relative curve error over seeds 1-5, started at 0.05
    deltas = (1e-3, 1e-4, 1e-6)
    errors = [float(np.median([run_newton(kind, 0.1, delta, 0.05, seed=seed).rel_errors[-1]
                               for seed in range(1, 6)]))
              for delta in deltas]
    assert all(e1 >= 2.0 ** math.log10(d1 / d2) * e2
               for d1, d2, e1, e2 in zip(deltas, deltas[1:], errors, errors[1:])), errors


class TestLinearization:
    """Directional derivative of the data-side flux map against central
    differences.  Accuracy is checked at the small step; the order is
    measured on larger steps where the finite-difference truncation still
    dominates the linearized trace's own O(h^2) floor (a large perturbation
    inside a roomy hold-all keeps the truncation term visible)."""

    HOLD = 0.3

    def _relerr(self, kind, lin, base, dl, t):
        itf = interface_for(kind)
        up = bottom_flux(solve_forward(Curve(base + t * dl, L, self.HOLD), LATERAL, itf, excitation(X)))
        dn = bottom_flux(solve_forward(Curve(base - t * dl, L, self.HOLD), LATERAL, itf, excitation(X)))
        fd = (up - dn) / (2.0 * t)
        return wnorm(fd - lin) / wnorm(fd)

    @pytest.mark.parametrize("kind", ["D", "N", "I"])
    def test_fd_accuracy_and_order(self, kind):
        base = truth_curve(X, 0.1)
        curve = Curve(base, L, self.HOLD)
        dl = 0.1 * (np.cos(np.pi * X) + 0.5 * np.cos(2 * np.pi * X) + 0.3)
        lin = linearized_flux(curve, LATERAL, interface_for(kind), excitation(X), dl)
        e_small = self._relerr(kind, lin, base, dl, 1e-3)
        assert e_small <= 1e-2
        e_big = self._relerr(kind, lin, base, dl, 0.3)
        e_mid = self._relerr(kind, lin, base, dl, 0.1)
        assert e_mid < e_big
        assert math.log(e_big / e_mid) / math.log(3.0) >= 0.9

    @pytest.mark.parametrize("kind", ["D", "N", "I"])
    def test_one_factorisation(self, kind, monkeypatch):
        # the field and its perturbation share one factor; the count goes
        # through the module attribute that the benchmark's tracer wraps
        import fraccauchy.elliptic as el

        factor, calls = el.splu, []

        def counted(A, **kw):
            calls.append(A.shape)
            return factor(A, **kw)

        monkeypatch.setattr(el, "splu", counted)
        curve = Curve(truth_curve(X, 0.1), L, self.HOLD)
        dl = 0.1 * np.cos(np.pi * X)
        lin = linearized_flux(curve, LATERAL, interface_for(kind), excitation(X), dl)
        assert np.all(np.isfinite(lin))
        assert len(calls) == 1

    @pytest.mark.parametrize("gamma", [GAMMA, GAMMA * (1.0 + 0.5 * np.sin(np.pi * X))],
                             ids=["scalar", "profile"])
    def test_combined_impedance_same_flux(self, gamma):
        # the combined coefficient sqrt(1+ell'^2)*gamma describes the same
        # interface as the raw gamma it was folded from
        curve = Curve(truth_curve(X, 0.1), L, self.HOLD)
        dl = 0.1 * np.cos(np.pi * X)
        raw = linearized_flux(curve, LATERAL, interface_for("I", gamma), excitation(X), dl)
        comb = linearized_flux(curve, LATERAL, InterfaceBC("I", combined_impedance(gamma, curve)),
                               excitation(X), dl)
        assert np.max(np.abs(comb - raw)) <= 1e-12 * np.max(np.abs(raw))


class TestNonuniquenessDetector:
    """Constant Cauchy data under lateral Neumann walls: the continued field
    is y-independent, a Neumann interface condition holds on every horizontal
    line, and the curve is not identifiable.  The solver must report this and
    see a vanishing residual at any constant height."""

    @pytest.mark.parametrize("height", [0.4, 0.8])
    def test_any_constant_curve_fits(self, height):
        basis = build_basis(L, LATERAL, 1, N)
        data = CauchyData(np.ones(N), np.zeros(N), 0.0, basis)
        zbar = solve_cauchy_holdall(
            data, LATERAL, ContinuationScheme("exact"), np.linspace(0.0, 1.0, 81)
        )
        start = Curve(np.full(N, height), L, 1.0)
        with pytest.warns(UserWarning, match="nonunique"):
            tr = newton_neumann(start, zbar, LATERAL, np.ones(N), NewtonConfig(max_iter=1))
        assert tr.residual_norms[0] <= 1e-12
        assert tr.step_residuals[0] <= 1e-12


def test_conormal_trace_matches_closed_form():
    basis = build_basis(L, LATERAL, 2, N)
    data = CauchyData(np.cos(np.pi * X), np.zeros(N), 0.0, basis)
    zbar = solve_cauchy_holdall(
        data, LATERAL, ContinuationScheme("exact"), np.linspace(0.0, 0.4, 81)
    )
    ell = 0.2 + 0.05 * np.sin(2 * np.pi * X)
    dl = 0.1 * np.pi * np.cos(2 * np.pi * X)
    zl, dnu = curve_conormal(zbar, Curve(ell, L, zbar.curve.olell))
    np.testing.assert_allclose(zl, np.cos(np.pi * X) * np.cosh(np.pi * ell), atol=1e-6)
    exact = np.pi * np.cos(np.pi * X) * np.sinh(np.pi * ell) + dl * np.pi * np.sin(
        np.pi * X
    ) * np.cosh(np.pi * ell)
    np.testing.assert_allclose(dnu, exact, atol=2e-3)


def test_project_cosine_reproduces_low_modes_and_kills_high():
    x = np.linspace(0.0, 1.0, 201)
    low = 0.3 - 0.2 * np.cos(np.pi * x) + 0.05 * np.cos(6 * np.pi * x)
    np.testing.assert_allclose(project_cosine(low, 1.0, 8), low, atol=1e-4)
    assert np.max(np.abs(project_cosine(np.cos(12 * np.pi * x), 1.0, 8))) < 0.02


class TestImpedanceBranchAgreement:
    """The slope-quotient and straight-interface forms of the linearization
    coefficient agree as the interface flattens (away from the corners, where
    the one-sided trace stencil dominates)."""

    def test_quotient_approaches_straight_branch(self):
        from fraccauchy.freeboundary import _impedance_coeffs, _raw_gamma

        diffs = []
        for eps in (0.08, 0.04, 0.02, 0.01):
            ell = 0.08 + eps * (X - 0.5)
            curve = Curve(ell, L, 0.2)
            gam, dgam = _raw_gamma(GAMMA, curve)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                u = solve_forward(
                    curve, LATERAL, InterfaceBC("I", gamma=gam, combined=False), excitation(X)
                )
            alpha, _ = _impedance_coeffs(curve, gam, dgam, interface_traces(u))
            diffs.append(np.max(np.abs((alpha - interface_traces(u).u_x)[8:-8])))
        for big, small in zip(diffs, diffs[1:]):
            assert small < 0.7 * big
        assert diffs[-1] < 2e-3


class TestTraceBookkeeping:
    def test_lengths_and_rows(self):
        tr = cached_run("D", 0.01, 0.02)
        k = len(tr.iterates)
        assert len(tr.residual_norms) == k
        assert len(tr.rel_errors) == k
        assert len(tr.step_residuals) == k - 1
        assert tr.converged

    def test_rows_nan_without_truth(self):
        lt = truth_curve(X, 0.1)
        zbar = holdall_field("D", 0.1, 0.0)
        tr = newton_dirichlet(
            Curve(lt, L, 0.1), zbar, LATERAL, excitation(X), NewtonConfig(max_iter=1)
        )
        assert tr.rel_errors is None

    def test_trust_region_limits_first_step(self):
        tr = cached_run("D", 0.01, 0.02)
        first = np.max(np.abs(tr.iterates[1].ell - tr.iterates[0].ell))
        assert first <= 0.5 * 0.02 + 1e-12

    def test_iterates_stay_in_corridor(self):
        tr = cached_run("D", 0.10, 0.02)
        for it in tr.iterates:
            assert it.ell.min() >= 0.01 * 0.1 - 1e-12
            assert it.ell.max() <= 0.1 + 1e-12


def test_neumann_known_endpoints_accelerate():
    # pinning the endpoint updates to zero (no known heights) still converges,
    # but needs extra iterations to haul the walls up from the wrong start:
    # it first comes within 1% of the truth at a later step
    with_ev = cached_run("N", 0.01, 0.05)
    without = run_newton("N", 0.1, 0.01, 0.05, endpoints=False)

    def first_within(tr):
        return next(k for k, e in enumerate(tr.rel_errors) if e <= 0.01)

    assert first_within(with_ev) < first_within(without)
    assert without.rel_errors[-1] <= 0.01


class TestValidation:
    def test_bad_config_values(self):
        for kw in (
            dict(max_iter=0),
            dict(stop_tol=0.0),
        ):
            with pytest.raises(ValueError):
                NewtonConfig(**kw)

    def test_truth_on_wrong_grid(self):
        zbar = holdall_field("D", 0.1, 0.0)
        with pytest.raises(ValueError):
            newton_dirichlet(
                Curve(np.full(N, 0.05), L, 0.1),
                zbar,
                LATERAL,
                excitation(X),
                NewtonConfig(max_iter=1),
                truth=np.full(65, 0.09),
            )

    def test_nonpositive_impedance_rejected(self):
        zbar = holdall_field("I", 0.1, 0.0)
        with pytest.raises(ValueError):
            newton_impedance(
                Curve(np.full(N, 0.05), L, 0.1),
                -0.1,
                zbar,
                LATERAL,
                excitation(X),
                NewtonConfig(max_iter=1),
            )

    @pytest.mark.parametrize("width, top", [(2.0, 0.1), (L, 0.05)])
    def test_zbar_off_grid_or_below_corridor(self, width, top):
        # a hold-all field on [0, 2], or one that stops at 0.05 under the
        # default corridor (0.001, 0.1) of a curve in a hold-all of 0.1
        basis = build_basis(width, LATERAL, 1, N)
        data = CauchyData(np.ones(N), np.zeros(N), 0.0, basis)
        zbar = solve_cauchy_holdall(
            data, LATERAL, ContinuationScheme("exact"), np.linspace(0.0, top, 81)
        )
        with pytest.raises(ValueError, match="hold-all field"):
            newton_dirichlet(
                Curve(np.full(N, 0.04), L, 0.1),
                zbar,
                LATERAL,
                np.ones(N),
                NewtonConfig(max_iter=1),
            )

    def test_linearized_flux_wrong_shape(self):
        curve = Curve(truth_curve(X, 0.1), L, 0.1)
        with pytest.raises(ValueError):
            linearized_flux(curve, LATERAL, InterfaceBC("D"), excitation(X), np.zeros(5))


class TestNewtonGolden:
    """End state of each sweep on the 1%-noise fixture started at 0.05,
    pinned so that a restructuring of the sweep must reproduce it."""

    GOLDEN = {
        "D": (5, True, [], 0.002283585480234583, 0.009443254597430567, 0.00944325459743061),
        "N": (5, True, [], 0.002069322535260006, 0.0011306866420926723, 0.0011315349939432099),
        "I": (
            6,
            True,
            ["iter 0: linearization coefficient below floor at 2 points, update damped there"],
            0.005126260885458748,
            0.0018915453587032695,
            0.0018920926605619991,
        ),
    }

    @pytest.mark.parametrize("kind", ["D", "N", "I"])
    def test_end_state(self, kind):
        n_iter, converged, flags, relerr, resid, step_res = self.GOLDEN[kind]
        tr = cached_run(kind, 0.01, 0.05)
        assert len(tr.iterates) == n_iter
        assert tr.converged is converged
        assert tr.stop == "step_below_tol"
        assert tr.flags == flags
        assert tr.rel_errors[-1] == pytest.approx(relerr, rel=1e-12)
        assert tr.residual_norms[-1] == pytest.approx(resid, rel=1e-12)
        assert tr.step_residuals[-1] == pytest.approx(step_res, rel=1e-12)


class TestSweepBranches:
    """Branches of the sweep that the recovery fixtures never reach."""

    def test_dirichlet_flux_floor(self):
        # u_y of the Dirichlet field excited by cos(pi x) vanishes at x = L/2
        basis = build_basis(L, LATERAL, 2, N)
        data = CauchyData(np.cos(np.pi * X), np.zeros(N), 0.0, basis)
        zbar = solve_cauchy_holdall(
            data, LATERAL, ContinuationScheme("exact"), np.linspace(0.0, 0.1, 81)
        )
        tr = newton_dirichlet(
            Curve(np.full(N, 0.05), L, 0.1),
            zbar,
            LATERAL,
            np.cos(np.pi * X),
            NewtonConfig(max_iter=2),
        )
        assert tr.flags == [
            "iter %d: normal flux below floor at 1 points, update damped there" % k
            for k in (0, 1)
        ]

    def test_impedance_overflow_halves_update(self):
        gamma = 10.0
        zbar = holdall_field("I", 0.1, 0.0, gamma=gamma)
        tr = newton_impedance(
            Curve(np.full(N, 0.05), L, 0.1),
            gamma,
            zbar,
            LATERAL,
            excitation(X),
            NewtonConfig(max_iter=2),
        )
        assert tr.flags[0] == "iter 0: integrating factor overflowed, update halved"

    def _neumann_with_failing_solves(self, monkeypatch, failures):
        # the Neumann step's banded solve raises LinAlgError on its first
        # ``failures`` calls; each retry raises the smoothing weight tenfold
        import fraccauchy.freeboundary as fb

        solve, calls = fb.solveh_banded, []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) <= failures:
                raise np.linalg.LinAlgError("not positive definite")
            return solve(*args, **kwargs)

        monkeypatch.setattr(fb, "solveh_banded", failing)
        lt = truth_curve(X, 0.1)
        return newton_neumann(Curve(np.full(N, 0.09), L, 0.1), holdall_field("N", 0.1, 0.0),
                              LATERAL, excitation(X), NewtonConfig(max_iter=1),
                              endpoint_values=(lt[0], lt[-1]))

    def test_neumann_retry_raises_smoothing_weight(self, monkeypatch):
        tr = self._neumann_with_failing_solves(monkeypatch, 2)
        assert tr.flags == [
            "iter 0: near-singular least-squares system, smoothing weight raised to 1/%s" % w
            for w in ("100", "10")
        ]
        assert len(tr.iterates) == 2 and tr.stop == "max_iter"
        assert np.all(np.isfinite(tr.iterates[-1].ell))

    def test_neumann_retries_exhausted(self, monkeypatch):
        with pytest.raises(RuntimeError, match="near-singular after 3 retries"):
            self._neumann_with_failing_solves(monkeypatch, math.inf)

    def test_neumann_bands_match_dense_normal_equations(self):
        # the Neumann step's banded normal matrix and product against the
        # dense d/dx that np.gradient applies; only the summation order differs
        n, h = 17, 1.0 / 16
        rng = np.random.default_rng(2)
        ux, w, x = rng.standard_normal(n), rng.uniform(0.5, 1.0, n), rng.standard_normal(n)
        M = np.gradient(np.eye(n), h, axis=0, edge_order=2) * ux
        K = M.T @ (w[:, None] * M)
        cols, grad = _gradient_rows(n, h)
        ab = _gram_bands(cols, grad * ux[cols], w)
        banded = np.diag(ab[2]) + sum(np.diag(ab[2 - d, d:], d) + np.diag(ab[2 - d, d:], -d)
                                      for d in (1, 2))
        tol = 1e-14 * np.max(np.abs(K))
        np.testing.assert_allclose(banded, K, rtol=0, atol=tol)
        np.testing.assert_allclose(_band_matvec(ab, x), K @ x, rtol=0,
                                   atol=tol * np.sum(np.abs(x)))

    DIVERGENT_STOP = {0.05: "pinned_to_corridor", 0.09: "max_iter"}

    @pytest.mark.parametrize("start", [0.05, 0.09])
    def test_divergent_impedance_sweep_not_converged(self, start):
        # with gamma = 10 the residual grows ninefold or more: from 0.05 the
        # sweep runs into a corridor bound, where the clamped curve stops
        # moving; from 0.09 it keeps moving until max_iter
        gamma = 10.0
        zbar = holdall_field("I", 0.1, 0.0, gamma=gamma)
        tr = newton_impedance(
            Curve(np.full(N, start), L, 0.1), gamma, zbar, LATERAL, excitation(X), NewtonConfig()
        )
        assert tr.residual_norms[-1] > 5.0 * tr.residual_norms[0]
        assert tr.stop == self.DIVERGENT_STOP[start]
        assert tr.converged is False

    def test_corridor_holds_every_iterate(self):
        # the divergent gamma = 10 sweep from 0.05 runs into both bounds of
        # the corridor (0.01 olell, olell)
        olell = 0.1
        lo, hi = 0.01 * olell, olell
        zbar = holdall_field("I", olell, 0.0, gamma=10.0)
        tr = newton_impedance(
            Curve(np.full(N, 0.05), L, olell), 10.0, zbar, LATERAL, excitation(X), NewtonConfig()
        )
        ells = np.array([it.ell for it in tr.iterates])
        assert ells.min() >= lo and ells.max() <= hi
        assert np.any(ells == lo) and np.any(ells == hi)

    def test_truth_as_curve(self):
        lt = truth_curve(X, 0.1)
        zbar = holdall_field("D", 0.1, 0.01)
        runs = [
            newton_dirichlet(
                Curve(np.full(N, 0.05), L, 0.1),
                zbar,
                LATERAL,
                excitation(X),
                NewtonConfig(max_iter=2),
                truth=truth,
            )
            for truth in (Curve(lt, L, 0.1), lt)
        ]
        assert runs[0].rel_errors == runs[1].rel_errors

    def test_truth_as_callable(self):
        zbar = holdall_field("D", 0.1, 0.01)
        runs = [
            newton_dirichlet(
                Curve(np.full(N, 0.05), L, 0.1),
                zbar,
                LATERAL,
                excitation(X),
                NewtonConfig(max_iter=2),
                truth=truth,
            )
            for truth in (lambda x: truth_curve(x, 0.1), truth_curve(X, 0.1))
        ]
        assert runs[0].rel_errors == runs[1].rel_errors


class TestSweepCost:
    """One coarse forward solve and its interface traces per executed
    impedance step and none for the Dirichlet and Neumann steps, which trace
    zbar; one spline build of zbar per sweep and one conormal trace per
    iterate, whether the sweep stops on its step rule or on max_iter."""

    @pytest.mark.parametrize("max_iter", [2, 10])
    @pytest.mark.parametrize("kind", ["D", "N", "I"])
    def test_solves_and_traces(self, kind, max_iter, monkeypatch):
        import fraccauchy.freeboundary as fb

        calls = {"solve_forward": 0, "interface_traces": 0, "_curve_sampler": 0, "_conormal": 0}
        levels = []

        def counted(name):
            fn = getattr(fb, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "solve_forward":
                    levels.append(kwargs["M"])
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(fb, name, counted(name))
        tr = run_newton(kind, 0.1, 0.01, 0.05, cfg=NewtonConfig(max_iter=max_iter))
        assert tr.converged is (max_iter == 10)
        assert tr.stop == ("step_below_tol" if max_iter == 10 else "max_iter")
        steps = len(tr.iterates) - 1 if kind == "I" else 0
        assert calls["solve_forward"] == calls["interface_traces"] == steps
        assert levels == [fb._SWEEP_LEVELS] * calls["solve_forward"]
        assert calls["_curve_sampler"] == 1
        assert calls["_conormal"] == len(tr.iterates)


class TestCoarseLinearization:
    """The impedance sweep linearizes on _SWEEP_LEVELS depth levels; its
    residual is measured on zbar, so it must end where a sweep linearized on
    the square 65-level mesh ends, in as many steps and for the same reason.
    The Dirichlet and Neumann sweeps solve no forward problem, so the depth
    grid does not reach them."""

    @pytest.mark.parametrize("kind", ["I"])
    def test_end_state_matches_fine_mesh(self, kind, monkeypatch):
        import fraccauchy.freeboundary as fb

        coarse = cached_run(kind, 0.01, 0.05)
        assert fb._SWEEP_LEVELS < (N - 1) // 2 + 1
        monkeypatch.setattr(fb, "_SWEEP_LEVELS", (N - 1) // 2 + 1)
        fine = run_newton(kind, 0.1, 0.01, 0.05)
        assert len(coarse.iterates) == len(fine.iterates)
        assert coarse.stop == fine.stop
        assert coarse.converged is fine.converged
        assert coarse.flags == fine.flags
        a, b = coarse.iterates[-1].ell, fine.iterates[-1].ell
        assert np.max(np.abs(a - b)) <= 1e-4 * np.max(np.abs(b))
        for got, ref in ((coarse.rel_errors[-1], fine.rel_errors[-1]),
                         (coarse.residual_norms[-1], fine.residual_norms[-1])):
            assert got == pytest.approx(ref, rel=1e-4)
