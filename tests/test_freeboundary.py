import math
import warnings

import numpy as np
import pytest

from fraccauchy.continuation import CauchyData, ContinuationScheme
from fraccauchy.elliptic import (
    Curve,
    InterfaceBC,
    MeshField,
    _conormal,
    _curve_sampler,
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


def assert_traces_equal(got, ref):
    """Two `RecoveryTrace`s agree bit for bit."""
    for name in ("residual_norms", "step_residuals", "rel_errors"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), strict=True)
    np.testing.assert_array_equal([c.ell for c in got.iterates], [c.ell for c in ref.iterates],
                                  strict=True)
    assert (got.flags, got.converged, got.stop) == (ref.flags, ref.converged, ref.stop)


def run_newton(kind, olell, delta, start, cfg=None, endpoints=True, seed=3, zbar=None):
    lt = truth_curve(X, olell)
    zbar = holdall_field(kind, olell, delta, seed=seed) if zbar is None else zbar
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


@pytest.mark.parametrize("seed", range(1, 6))
def test_every_impedance_sweep_stops_by_the_rule(seed):
    # both noise levels and both starts of the fixture, default config
    for delta in (0.01, 0.02):
        for start in (0.05, 0.09):
            tr = run_newton("I", 0.1, delta, start, seed=seed)
            assert tr.stop == "step_below_tol", (delta, start)
            assert len(tr.iterates) - 1 <= NewtonConfig().max_iter


class TestImpedanceStep:
    """The impedance step's operator is the exact derivative of zbar's
    discrete interface residual R in ell, and its update solves the normal
    equations of that operator."""

    def _step_and_residual(self, monkeypatch):
        # newton_impedance hands its residual and step to the sweep
        import fraccauchy.freeboundary as fb

        zbar = holdall_field("I", 0.1, 0.01)
        monkeypatch.setattr(fb, "_sweep", lambda *args: args)
        *_, residual, step, orders = newton_impedance(Curve(np.full(N, 0.05), L, 0.1), GAMMA,
                                                      zbar, LATERAL, excitation(X), NewtonConfig())
        sample = _curve_sampler(zbar)

        def traces(ell):
            curve = Curve(ell, L, 0.1)
            tr, dzl, dnu = _conormal(sample, curve, orders)
            return curve, tr, dzl, residual(curve, tr[0], dnu)

        return traces, step

    def test_operator_matches_central_differences(self, monkeypatch):
        # R is C^1 in ell with a second derivative that jumps where the
        # curve crosses a level of zbar's spline, so the central difference
        # errs by O(eps |delta|) there: the directions stay small against the
        # level spacing 1.25e-3
        traces, step = self._step_and_residual(monkeypatch)
        ell = truth_curve(X, 0.1)
        curve, tr, dzl, r = traces(ell)
        _, op = step(curve, tr, dzl, r, None)
        eps = 1e-4
        for d in (0.01 * np.cos(np.pi * X), 0.01 * X ** 2):
            fd = (traces(ell + eps * d)[3] - traces(ell - eps * d)[3]) / (2.0 * eps)
            assert wnorm(fd + op(d)) <= 1e-8 * wnorm(fd)

    def test_update_solves_dense_normal_equations(self, monkeypatch):
        # the banded rows of the step against the dense matrix of its op
        from fraccauchy.freeboundary import _RHO1

        traces, step = self._step_and_residual(monkeypatch)
        curve, tr, dzl, r = traces(0.06 + 0.01 * X)
        d, op = step(curve, tr, dzl, r, None)
        A = np.stack([op(e) for e in np.eye(N)], axis=1)
        D = np.gradient(np.eye(N), curve.h, axis=0, edge_order=2)
        w = np.full(N, 1.0 / (N - 1))
        w[0] = w[-1] = 0.5 / (N - 1)
        K = A.T @ (w[:, None] * A) + D.T @ (w[:, None] * D) / _RHO1
        np.testing.assert_allclose(K @ d, A.T @ (w * r), rtol=0,
                                   atol=1e-10 * np.max(np.abs(A.T @ (w * r))))


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
        # the field and its perturbation share one deep operator: one
        # preconditioner and no SuperLU factor, the count going through the
        # module attribute that the benchmark's tracer wraps
        import fraccauchy.elliptic as el

        factor, build, calls = el.splu, el._column_preconditioner, []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(el, "splu", counted("splu", factor))
        monkeypatch.setattr(el, "_column_preconditioner", counted("precond", build))
        curve = Curve(truth_curve(X, 0.1), L, self.HOLD)
        dl = 0.1 * np.cos(np.pi * X)
        lin = linearized_flux(curve, LATERAL, interface_for(kind), excitation(X), dl)
        assert np.all(np.isfinite(lin))
        assert calls == ["precond"]

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


def test_project_cosine_is_cos_projection_on_cos_tables_bitwise():
    # against spectral's one projection, and against its arithmetic written
    # out: the weighted row sums over the rows' norms
    from fraccauchy.spectral import _cos_projection, _cos_tables

    for n, length, modes in ((17, 1.0, 4), (129, 1.0, 8), (65, 2.3, 8)):
        x = np.linspace(0.0, length, n)
        ph, _ = _cos_tables(x, length, modes)
        w = np.full(n, x[1])
        w[0] = w[-1] = 0.5 * x[1]
        v = np.random.default_rng(n).standard_normal(n)
        got = project_cosine(v, length, modes)
        np.testing.assert_array_equal(got, _cos_projection(ph, w)(v) @ ph, strict=True)
        ref = (ph * (w * v)).sum(axis=1) / (ph * ph * w).sum(axis=1) @ ph
        np.testing.assert_array_equal(got, ref, strict=True)


def test_project_cosine_reproduces_low_modes_and_kills_high():
    x = np.linspace(0.0, 1.0, 201)
    low = 0.3 - 0.2 * np.cos(np.pi * x) + 0.05 * np.cos(6 * np.pi * x)
    np.testing.assert_allclose(project_cosine(low, 1.0, 8), low, atol=1e-4)
    assert np.max(np.abs(project_cosine(np.cos(12 * np.pi * x), 1.0, 8))) < 0.02


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
            dict(max_iter=2.5),
            dict(max_iter="3"),
            dict(stop_tol=0.0),
        ):
            with pytest.raises(ValueError):
                NewtonConfig(**kw)

    def test_numpy_integer_max_iter(self):
        tr = run_newton("D", 0.1, 0.01, 0.05, cfg=NewtonConfig(max_iter=np.int64(2)))
        assert len(tr.iterates) == 3 and tr.stop == "max_iter"

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
        "D": (5, True, [], 0.002283585480467601, 0.009443254597494732, 0.009443254597494776),
        "N": (5, True, [], 0.0020693224733308478, 0.0011306866321030553, 0.0011315349839485223),
        "I": (5, True, [], 0.004198160507050665, 0.0015380839022247775, 0.0015380839040125007),
    }

    @pytest.mark.parametrize("kind", ["D", "N", "I"])
    def test_end_state(self, kind):
        n_iter, converged, flags, relerr, resid, step_res = self.GOLDEN[kind]
        tr = cached_run(kind, 0.01, 0.05)
        assert len(tr.iterates) == n_iter
        assert tr.converged is converged
        assert tr.stop == "step_below_tol"
        assert tr.flags == flags
        assert tr.rel_errors[-1] == pytest.approx(relerr, rel=1e-12, abs=0)
        assert tr.residual_norms[-1] == pytest.approx(resid, rel=1e-12, abs=0)
        assert tr.step_residuals[-1] == pytest.approx(step_res, rel=1e-12, abs=0)


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

    def _neumann_with_failing_solves(self, monkeypatch, failures, info=3):
        # the banded Cholesky of the Neumann step reports ``info`` on its
        # first ``failures`` calls: info > 0 (a leading minor not positive
        # definite) retries with the smoothing weight raised tenfold; the
        # calls are counted in self.calls
        import fraccauchy.freeboundary as fb

        dpbsv, calls = fb.dpbsv, []
        self.calls = calls

        def failing(*args, **kwargs):
            calls.append(None)
            c, x, ok = dpbsv(*args, **kwargs)
            return (c, x, info) if len(calls) <= failures else (c, x, ok)

        monkeypatch.setattr(fb, "dpbsv", failing)
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
        assert len(self.calls) == 3
        assert np.all(np.isfinite(tr.iterates[-1].ell))

    def test_neumann_retries_exhausted(self, monkeypatch):
        with pytest.raises(RuntimeError, match="near-singular after 3 retries"):
            self._neumann_with_failing_solves(monkeypatch, math.inf)
        assert len(self.calls) == 4

    def test_illegal_argument_raises_without_retry(self, monkeypatch):
        # info < 0 is a bad call, not a hard system: no smoothing retry
        with pytest.raises(ValueError, match="illegal value in argument 4 of dpbsv"):
            self._neumann_with_failing_solves(monkeypatch, 1, info=-4)
        assert len(self.calls) == 1

    @pytest.mark.parametrize("kind", ["D", "N", "I"])
    def test_nonfinite_update_refused(self, kind, monkeypatch):
        # a step whose update turns NaN: the trust clamp and the corridor
        # pass NaN through, so the new iterate's Curve must refuse it
        import fraccauchy.freeboundary as fb

        sweep = fb._sweep

        def nan_steps(curve0, zbar, cfg, truth, residual, step, *orders):
            def nan_step(*args):
                dl, op = step(*args)
                return np.full_like(dl, np.nan), op

            return sweep(curve0, zbar, cfg, truth, residual, nan_step, *orders)

        monkeypatch.setattr(fb, "_sweep", nan_steps)
        with pytest.raises(ValueError, match="^curve must be finite and strictly positive$"):
            run_newton(kind, 0.1, 0.01, 0.05, cfg=NewtonConfig(max_iter=2))

    def test_neumann_bands_match_dense_normal_equations(self):
        # the Neumann step's banded normal matrix and product against the
        # dense d/dx that np.gradient applies; only the summation order differs
        n, h = 17, 1.0 / 16
        rng = np.random.default_rng(2)
        ux, w, x = rng.standard_normal(n), rng.uniform(0.5, 1.0, n), rng.standard_normal(n)
        M = np.gradient(np.eye(n), h, axis=0, edge_order=2) * ux
        K = M.T @ (w[:, None] * M)
        cols, grad = _gradient_rows(n, h)
        ab = _gram_bands(grad * ux[cols], w)
        banded = np.diag(ab[2]) + sum(np.diag(ab[2 - d, d:], d) + np.diag(ab[2 - d, d:], -d)
                                      for d in (1, 2))
        tol = 1e-14 * np.max(np.abs(K))
        np.testing.assert_allclose(banded, K, rtol=0, atol=tol)
        np.testing.assert_allclose(_band_matvec(ab, x), K @ x, rtol=0,
                                   atol=tol * np.sum(np.abs(x)))

    @pytest.mark.parametrize("start", [0.05, 0.09])
    @pytest.mark.parametrize("gamma", [1.0, 10.0])
    def test_impedance_sweep_converges_on_exact_data(self, gamma, start):
        # noise-free data; at gamma = 10 the starting residual is 16-30
        # times that at gamma = 0.1
        zbar = holdall_field("I", 0.1, 0.0, gamma=gamma)
        tr = newton_impedance(Curve(np.full(N, start), L, 0.1), gamma, zbar, LATERAL,
                              excitation(X), NewtonConfig(), truth=truth_curve(X, 0.1))
        assert tr.stop == "step_below_tol" and tr.converged
        assert len(tr.iterates) - 1 <= 5
        assert tr.rel_errors[-1] <= 1e-4

    # zbar built with one impedance and swept with another: the sweep has
    # no curve to converge to and runs into a corridor bound
    MISMATCHED = {"hi": (0.1, 10.0, 0.09), "lo": (10.0, 0.1, 0.05)}

    def _mismatched_sweep(self, bound):
        built, swept, start = self.MISMATCHED[bound]
        zbar = holdall_field("I", 0.1, 0.0, gamma=built)
        return newton_impedance(Curve(np.full(N, start), L, 0.1), swept, zbar, LATERAL,
                                excitation(X), NewtonConfig())

    def test_pinned_sweep_not_converged(self):
        # the sweep stops moving only because the clamp cuts each update
        tr = self._mismatched_sweep("hi")
        assert tr.stop == "pinned_to_corridor"
        assert tr.converged is False

    def test_corridor_holds_every_iterate(self):
        # one mismatched sweep reaches each bound of the corridor
        # (0.01 olell, olell), and neither crosses either bound
        lo, hi = 0.01 * 0.1, 0.1
        for bound, value in (("lo", lo), ("hi", hi)):
            ells = np.array([it.ell for it in self._mismatched_sweep(bound).iterates])
            assert ells.min() >= lo and ells.max() <= hi
            assert np.any(ells == value), bound

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


# The Neumann and impedance steps' least-squares solve as it was built before
# its bands were scattered by slices and its banded Cholesky called through
# LAPACK's dpbsv: six np.bincount calls into zeros and solveh_banded.  The
# solve must return the same floats, bit for bit.
def _bincount_bands(cols, vals, w):
    n = cols.shape[0]
    ab = np.zeros(3 * n)
    for p in range(3):
        for q in range(p, 3):
            ab += np.bincount((2 - q + p) * n + cols[:, q], w * vals[:, p] * vals[:, q],
                              minlength=3 * n)
    return ab.reshape(3, n)


def _solveh_banded_solve(n, h, rows, r, flag, pin=None):
    from scipy.linalg import solveh_banded

    from fraccauchy.freeboundary import _RHO1, _RHO2

    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    cols, grad = _gradient_rows(n, h)
    reg = _bincount_bands(cols, grad, w)
    base = _bincount_bands(cols, rows, w)
    rhs = np.bincount(cols.ravel(), (rows * (w * r)[:, None]).ravel(), minlength=n)
    if pin is not None:
        rhs[0] += _RHO2 * pin[0]
        rhs[-1] += _RHO2 * pin[1]
    rho1 = _RHO1
    for _ in range(4):
        K = base + (1.0 / rho1) * reg
        if pin is not None:
            K[2, 0] += _RHO2
            K[2, -1] += _RHO2
        try:
            cand = solveh_banded(K, rhs, check_finite=False)
        except np.linalg.LinAlgError:
            cand = None
        if cand is not None and np.all(np.isfinite(cand)):
            fro = np.sqrt(np.sum(K[2] ** 2) + 2.0 * np.sum(K[:2] ** 2))
            back = np.linalg.norm(_band_matvec(K, cand) - rhs) / (
                fro * np.linalg.norm(cand) + np.linalg.norm(rhs) + np.finfo(float).tiny)
            if back < 1e-8:
                return cand
        rho1 /= 10.0
        flag("smoothing weight raised to 1/%.3g" % rho1)
    raise RuntimeError("near-singular after 3 retries")


class TestBandedSolveBitwise:
    """`_regularized_solver`'s solve against its bincount and solveh_banded
    form, on seeded rows of both step kinds."""

    def _rows(self, kind, n, h, rng):
        cols, grad = _gradient_rows(n, h)
        if kind == "N":
            return grad * (1.0 + 0.5 * rng.standard_normal(n))[cols]
        dl, zy, c1, c0 = (rng.standard_normal(n) for _ in range(4))
        diag = cols == np.arange(n)[:, None]
        return grad * (dl[:, None] * zy[cols] - c1[:, None]) - diag * c0[:, None]

    @pytest.mark.parametrize("n", [17, 129])
    @pytest.mark.parametrize("kind", ["N", "I"])
    @pytest.mark.parametrize("pin", [None, (0.0, 0.0), (2e-3, -1e-3)])
    def test_same_bits(self, n, kind, pin):
        from fraccauchy.freeboundary import _regularized_solver

        h = 0.7 / (n - 1)
        _, _, solve = _regularized_solver(n, h)
        rng = np.random.default_rng(n + 7 * len(kind) + (pin is None))
        flags, ref_flags = [], []
        for _ in range(5):
            rows, r = self._rows(kind, n, h, rng), rng.standard_normal(n)
            np.testing.assert_array_equal(solve(rows, r, flags.append, pin),
                                          _solveh_banded_solve(n, h, rows, r, ref_flags.append, pin),
                                          strict=True)
        assert flags == ref_flags == []

    @pytest.mark.parametrize("n", [17, 129])
    def test_bands_same_bits(self, n):
        # signed zeros among the rows included
        h = 0.7 / (n - 1)
        cols, grad = _gradient_rows(n, h)
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        rng = np.random.default_rng(n)
        for zero in (0.0, -0.0):
            vals = rng.standard_normal((n, 3))
            vals[rng.random((n, 3)) < 0.3] = zero
            got, ref = _gram_bands(vals, w), _bincount_bands(cols, vals, w)
            np.testing.assert_array_equal(got, ref, strict=True)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


class TestSweepCost:
    """No sweep solves a forward problem or traces a forward field: every
    step linearizes on zbar, through zbar's one kept spline and one conormal
    trace per iterate, whether the sweep stops on its step rule or on
    max_iter."""

    FORWARD = ("solve_forward", "assemble", "interface_traces")

    @pytest.mark.parametrize("max_iter", [2, 10])
    @pytest.mark.parametrize("kind", ["D", "N", "I"])
    def test_solves_and_traces(self, kind, max_iter, monkeypatch):
        import fraccauchy.elliptic as el
        import fraccauchy.freeboundary as fb

        calls = dict.fromkeys(self.FORWARD + ("_curve_sampler", "_conormal"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # the forward names both where they are defined and where
        # freeboundary binds them
        for mod, names in ((el, self.FORWARD), (fb, calls)):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        tr = run_newton(kind, 0.1, 0.01, 0.05, cfg=NewtonConfig(max_iter=max_iter))
        assert tr.converged is (max_iter == 10)
        assert tr.stop == ("step_below_tol" if max_iter == 10 else "max_iter")
        assert all(calls[name] == 0 for name in self.FORWARD), calls
        assert calls["_curve_sampler"] == 1
        assert calls["_conormal"] == len(tr.iterates)

    @pytest.mark.parametrize("kind", ["D", "N", "I"])
    def test_spline_kept_across_sweeps(self, kind, monkeypatch):
        # zbar's spline is built on its first sweep and kept: a second sweep
        # builds none, and both equal, bit for bit, a sweep on a fresh field
        # of the same data, which builds its own
        import fraccauchy.elliptic as el

        built = []
        spline_tables = el._spline_tables

        def counted(eta, values):
            built.append(values)
            return spline_tables(eta, values)

        monkeypatch.setattr(el, "_spline_tables", counted)
        cached = holdall_field(kind, 0.1, 0.01)
        zbar = MeshField(cached.values, cached.curve, cached.eta, cached.meta)
        fresh = MeshField(cached.values.copy(), cached.curve, cached.eta.copy(), cached.meta)
        first, again = (run_newton(kind, 0.1, 0.01, 0.05, zbar=zbar) for _ in range(2))
        assert len(built) == 1 and built[0] is zbar.values
        other = run_newton(kind, 0.1, 0.01, 0.05, zbar=fresh)
        assert len(built) == 2 and built[1] is fresh.values
        for tr in (again, other):
            assert_traces_equal(tr, first)
