"""The benchmark's workloads: seeded inputs, one op, and its checks.

Every workload exposes ``OPS`` (one round: the op keys it cycles over),
``build(seed)`` (the inputs, made from the seed alone), ``run(inputs, op)``
(the timed call into fraccauchy) and ``check(inputs, op, out)``, which
returns the op's accuracy error and a list of failed checks.  Calls go
through the fraccauchy modules (``elliptic.solve_forward``, not a name bound
here) so that the traced run sees them.
"""

import itertools

import numpy as np

from fraccauchy import elliptic, freeboundary, simultaneous, spectral
from fraccauchy.continuation import CauchyData, ContinuationScheme
from fraccauchy.elliptic import Curve, InterfaceBC
from fraccauchy.freeboundary import NewtonConfig
from fraccauchy.simultaneous import FrozenNewtonConfig, JointState, PenaltyOp
from fraccauchy.spectral import LateralBC

from oracle import SeparableField, add_relative_noise, rel_l2, trap_weights

L = 1.0


def _flux_on_finer_mesh(truth, lateral, interface, excitation, n, olell):
    """Bottom flux of the forward problem on the truth curve, solved on a
    twice-finer mesh and restricted, so the inverse runs do not share the
    discretisation error of their own forward solves with the data."""
    xf = np.linspace(0.0, L, 2 * n - 1)
    fld = elliptic.solve_forward(Curve(truth(xf), L, olell), lateral, interface(xf), excitation(xf))
    return elliptic.bottom_flux(fld)[::2]


class CurveRecovery:
    """Newton recovery of the interface curve for D, N and I interfaces.

    Each op has a hold-all field of its own noise draw: the recovered
    curve's error varies by 15-30% between draws, so twelve draws per run
    keep the accuracy figures steadier than six would."""

    name = "curve_recovery"
    N = 129
    J = 24
    OLELL = 0.1
    LEVELS = 81
    GAMMA = 0.1
    NOISE = (0.01, 0.02)
    STARTS = (0.05, 0.09)
    OPS = list(itertools.product("DNI", NOISE, STARTS))
    # every Mittag-Leffler evaluation is in building the hold-all fields
    SETUP_REPS = 3
    LATERAL = LateralBC("neumann")
    # a fixed six Newton steps per recovery, so that the work of an op does
    # not follow the noise draw: the default rule (relative step below 1e-4)
    # stops after 4 to 6 steps on most draws, and on some impedance draws
    # not within 10
    NEWTON = NewtonConfig(max_iter=6, stop_tol=1e-300)
    # every error measured at 1% and 2% noise is below 0.031
    MAX_ERR = 0.1

    @classmethod
    def truth(cls, x):
        return cls.OLELL * (0.8 + 0.1 * np.cos(2.0 * np.pi * x))

    @staticmethod
    def excitation(x):
        return 1.0 + 0.3 * np.cos(np.pi * x)

    @classmethod
    def interface(cls, kind):
        if kind == "I":
            return lambda x: InterfaceBC("I", gamma=cls.GAMMA, combined=False)
        return lambda x: InterfaceBC(kind)

    def build(self, seed):
        rng = np.random.default_rng(seed)
        x = np.linspace(0.0, L, self.N)
        w = trap_weights(self.N)
        basis = spectral.build_basis(L, self.LATERAL, self.J, self.N)
        levels = np.linspace(0.0, self.OLELL, self.LEVELS)
        zbar = {}
        for kind in "DNI":
            flux = _flux_on_finer_mesh(self.truth, self.LATERAL, self.interface(kind),
                                       self.excitation, self.N, self.OLELL)
            for delta, start in itertools.product(self.NOISE, self.STARTS):
                data = CauchyData(self.excitation(x), add_relative_noise(flux, delta, rng, w),
                                  delta, basis)
                zbar[kind, delta, start] = elliptic.solve_cauchy_holdall(
                    data, self.LATERAL, ContinuationScheme("fac_lap_split"), levels)
        return {"x": x, "w": w, "zbar": zbar, "truth": self.truth(x)}

    def run(self, inp, op):
        kind, delta, start = op
        curve0 = Curve(np.full(self.N, start), L, self.OLELL)
        zbar, f, cfg = inp["zbar"][op], self.excitation(inp["x"]), self.NEWTON
        if kind == "D":
            return freeboundary.newton_dirichlet(curve0, zbar, self.LATERAL, f, cfg)
        if kind == "N":
            lt = inp["truth"]
            return freeboundary.newton_neumann(curve0, zbar, self.LATERAL, f, cfg,
                                               endpoint_values=(lt[0], lt[-1]))
        return freeboundary.newton_impedance(curve0, self.GAMMA, zbar, self.LATERAL, f, cfg)

    def check(self, inp, op, out):
        truth, w = inp["truth"], inp["w"]
        ell = out.iterates[-1].ell
        start_err = rel_l2(np.full(self.N, op[2]), truth, w)
        err = rel_l2(ell, truth, w)
        problems = []
        if not (np.all(np.isfinite(ell)) and err < start_err):
            problems.append("curve error %.3g did not fall below the start's %.3g" % (err, start_err))
        if err > self.MAX_ERR:
            problems.append("curve error %.3g above %.3g" % (err, self.MAX_ERR))
        return err, problems


class JointRecovery:
    """Fractional frozen-Newton recovery of curve and impedance from two
    excitations; one op of each ``holdall_continuation`` round."""

    N = 17
    J = 4
    OLELL = 0.3
    # delta stops frozen_newton by the discrepancy rule; the data carry a
    # seeded noise draw of a tenth of it.  At the full level the recovered
    # curve's error moved between 0.042 and 0.092 over eight draws, so the
    # accuracy figure would follow the seed rather than the code; noise-free
    # data give 0.068 and draws of a tenth stayed within 0.065-0.070.
    DELTA = 0.01
    NOISE_SHARE = 0.1
    # the start's errors are 0.0705 (curve) and 0.208 (impedance); over
    # eight seeds the recovered curve's error was 0.065-0.070 and the
    # impedance's 0.036-0.040.  The curve barely moves, so it is held under
    # a ceiling just above its noise-free value of 0.068 rather than below
    # its start; the impedance must fall well below its start.
    CURVE_MAX = 0.075
    GAMMA_MAX = 0.06
    LATERAL = LateralBC("neumann")
    CFG = FrozenNewtonConfig(scheme=ContinuationScheme("fac_lap", alpha=0.9))
    START_ELL = 0.2
    START_GAM = 1.0

    @staticmethod
    def truth(x):
        return 0.2 + 0.02 * np.cos(np.pi * x)

    @staticmethod
    def gamma(x):
        return 1.0 + 0.3 * np.cos(np.pi * x)

    EXCITATIONS = (
        lambda x: 1.0 + 0.3 * np.cos(np.pi * x),
        lambda x: np.cos(np.pi * x) + 0.5 * np.cos(2.0 * np.pi * x) + 0.2,
    )

    def build(self, seed):
        rng = np.random.default_rng(seed)
        x = np.linspace(0.0, L, self.N)
        w = trap_weights(self.N)
        basis = spectral.build_basis(L, self.LATERAL, self.J, self.N)
        impedance = lambda xx: InterfaceBC("I", gamma=self.gamma(xx))
        fluxes = [_flux_on_finer_mesh(self.truth, self.LATERAL, impedance, f, self.N, self.OLELL)
                  for f in self.EXCITATIONS]
        level = self.DELTA * self.NOISE_SHARE
        data = tuple(CauchyData(f(x), add_relative_noise(flux, level, rng, w), self.DELTA, basis)
                     for f, flux in zip(self.EXCITATIONS, fluxes))
        curve0 = Curve(np.full(self.N, self.START_ELL), L, self.OLELL)
        start = InterfaceBC("I", gamma=self.START_GAM)
        u1, u2 = (elliptic.solve_forward(curve0, self.LATERAL, start, f(x))
                  for f in self.EXCITATIONS)
        return {
            "w": w,
            "data": data,
            "xi0": JointState(u1, u2, curve0, self.START_GAM, self.START_GAM),
            "penalty": PenaltyOp(float(self.truth(0.0))),
            "truth": self.truth(x),
            "gamma": self.gamma(x),
        }

    def run(self, inp):
        return simultaneous.frozen_newton(inp["data"], inp["xi0"], inp["penalty"], self.CFG)

    def check(self, inp, out):
        xi, n_star, trace = out
        cfg = self.CFG
        curve_err = rel_l2(xi.ell.ell, inp["truth"], inp["w"])
        gamma_err = rel_l2(0.5 * (xi.gam1 + xi.gam2), inp["gamma"], inp["w"])
        problems = []
        if not curve_err <= self.CURVE_MAX:
            problems.append("curve error %.3g above %.3g" % (curve_err, self.CURVE_MAX))
        if not gamma_err <= self.GAMMA_MAX:
            problems.append("impedance error %.3g above %.3g" % (gamma_err, self.GAMMA_MAX))
        # discrepancy rule: the first n >= 1 with alpha0 theta^n <= (tau delta)^2
        target = (cfg.tau * self.DELTA) ** 2
        expect = next(n for n in range(1, cfg.max_iter + 1) if cfg.alpha0 * cfg.theta ** n <= target)
        if n_star != expect or not trace.flags[-1].startswith("stop=discrepancy"):
            problems.append("stopped at n=%d (%s), discrepancy rule gives n=%d"
                            % (n_star, trace.flags[-1], expect))
        return max(curve_err, gamma_err), problems


class HoldallContinuation:
    """Continuation of noisy Cauchy data through the hold-all strip by the
    split-frequency, factored and right-sided fractional schemes, plus one
    fractional joint recovery per round.

    The joint recovery is the only op that exercises ``simultaneous`` and
    ``specfun`` one point per call.  As a workload of its own its median op
    time spread 0.17-0.32 (IQR/median over ten runs) against 0.10-0.22 for
    the others; as one op in a round of thirteen it leaves the median a
    continuation op."""

    name = "holdall_continuation"
    N = 129
    J = 24
    LEVELS = 81
    KINDS = ("dirichlet", "neumann", "robin")
    DEPTHS = (0.1, 0.2)
    NOISE = (0.01, 0.03)
    JOINT = JointRecovery()
    OPS = list(itertools.product(KINDS, DEPTHS, NOISE)) + ["joint"]
    # the warm-ups of the set-ups make one whole round, so the recorded
    # Mittag-Leffler sample covers every op
    SETUP_REPS = len(OPS)
    SCHEMES = (ContinuationScheme("fac_lap_split"),
               ContinuationScheme("fac_lap", alpha=0.9),
               ContinuationScheme("right_dc", alpha=0.9))
    EXACT = ContinuationScheme("exact")
    # exact continuation of noise-free data: rounding amplified by up to
    # cosh(k_24 * 0.2) ~ 1e6 where trapezoid sums of sines and cosines are
    # exact; Robin modes are orthonormalised under the trapezoid rule, which
    # is only O(h^2) = 6e-5 accurate for them
    CLEAN_TOL = {"dirichlet": 1e-8, "neumann": 1e-8, "robin": 6e-5}

    def build(self, seed):
        rng = np.random.default_rng(seed)
        w = trap_weights(self.N)
        inp = {"w": w}
        for kind in self.KINDS:
            basis = spectral.build_basis(L, LateralBC(kind), self.J, self.N)
            field = SeparableField(kind, basis.grid)
            f, g = field.value(0.0), field.flux(0.0)
            for depth in self.DEPTHS:
                levels = np.linspace(0.0, depth, self.LEVELS)
                truth = np.column_stack([field.value(y) for y in levels])
                for delta in self.NOISE:
                    inp[kind, depth, delta] = {
                        "bc": basis.bc,
                        "levels": levels,
                        "truth": truth,
                        "clean": CauchyData(f, g, 0.0, basis),
                        "noisy": CauchyData(f, add_relative_noise(g, delta, rng, w, kind == "dirichlet"),
                                            delta, basis),
                    }
        inp["joint"] = self.JOINT.build(seed)
        return inp

    def run(self, inp, op):
        if op == "joint":
            return self.JOINT.run(inp["joint"])
        c = inp[op]
        return [elliptic.solve_cauchy_holdall(c["noisy"], c["bc"], s, c["levels"])
                for s in self.SCHEMES]

    def check(self, inp, op, out):
        if op == "joint":
            return self.JOINT.check(inp["joint"], out)
        c, w = inp[op], inp["w"]
        top = c["truth"][:, -1]
        err = rel_l2(out[0].values[:, -1], top, w)
        problems = []
        for scheme, fld in zip(self.SCHEMES, out):
            if not np.all(np.isfinite(fld.values)):
                problems.append("%s field is not finite" % scheme.kind)
        clean = elliptic.solve_cauchy_holdall(c["clean"], c["bc"], self.EXACT, c["levels"])
        clean_err = float(np.max(np.abs(clean.values - c["truth"]))) / float(np.max(np.abs(c["truth"])))
        if not clean_err <= self.CLEAN_TOL[op[0]]:
            problems.append("exact scheme misses the closed form by %.3g" % clean_err)
        raw = elliptic.solve_cauchy_holdall(c["noisy"], c["bc"], self.EXACT, c["levels"])
        raw_err = rel_l2(raw.values[:, -1], top, w)
        if not err < raw_err:
            problems.append("fac_lap_split error %.3g does not beat exact's %.3g" % (err, raw_err))
        return err, problems


WORKLOADS = {w.name: w for w in (CurveRecovery, HoldallContinuation)}
