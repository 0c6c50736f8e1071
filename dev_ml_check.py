"""Dev-only: validate specfun.ml against arbitrary-precision references.

Run from the repository root as ``python3 dev_ml_check.py``.  Exits 1 when
any case's error exceeds its own estimate (the case grid, and the edges of
the chunked series and algebraic-tail walks, where no edge class may go
unchecked), an erfc case is bad, or the integral branch disagrees with the
asymptotic expansion where the latter is trusted; prints the figures either
way.
"""
import math
import sys

sys.path.insert(0, "src")
import mpmath as mp
import numpy as np

from fraccauchy.specfun import ml


def series_cost(alpha, beta, z):
    """Rough (kmax, extra_digits) for the defining series at high precision."""
    az = abs(z)
    if az <= 1e-12:
        return 10, 10
    # max term at alpha*k ~ x* where psi(x*) = ln|z|/alpha
    x = math.exp(max(math.log(az) / alpha, 0.0))
    k = x / alpha
    ln_max = k * math.log(az) - (x * math.log(max(x, 1.5)) - x)
    return int(4 * k + 400), max(int(1.1 * ln_max / math.log(10)), 0) + 40


def ml_mp(alpha, beta, z):
    kmax, extra = series_cost(alpha, beta, z)
    if kmax > 40000 or kmax * (60 + extra) > 1.2e6:
        return None
    # CRITICAL: gamma arguments must be formed in mp arithmetic; float64
    # alpha*k+beta has ~1e-13 absolute error which gets amplified by
    # psi(alpha*k+beta) on terms of size 1e150 -> garbage references
    with mp.workdps(60 + extra):
        s = mp.mpf(0)
        aa = mp.mpf(alpha)
        bb = mp.mpf(beta)
        zz = mp.mpf(z)
        t = mp.mpf(1)
        tiny = mp.mpf(10) ** (-35)
        for k in range(kmax):
            s += t / mp.gamma(aa * k + bb)
            t *= zz
            # absolute termination: partial sums can be astronomically larger
            # than the final value, so never compare the tail against them
            if k > 5 and abs(t) * abs(1 / mp.gamma(aa * k + bb + aa)) < tiny:
                return float(s)
    return None


cases = []
for alpha in (0.25, 0.3, 0.5, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0, 1.3, 1.5, 1.9, 2.0):
    for beta in (0.5, 1.0, alpha, 2.0, 1.7):
        for z in (-0.5, -3.0, -5.5, -8.0, -12.0, -25.0, -60.0, -200.0, 0.7, 4.0, 8.0, 30.0):
            cases.append((alpha, beta, z))

worst = []
skipped = 0
for alpha, beta, z in cases:
    try:
        r = ml(alpha, beta, z)
    except OverflowError:
        continue
    ref = ml_mp(alpha, beta, z)
    if ref is None:
        skipped += 1
        continue
    err = abs(r.value - ref)
    ok_est = err <= max(r.est_abs_err * 1.05, 1e-14 * (1 + abs(ref)))
    rel = err / (1 + abs(ref))
    worst.append((rel, err, r.est_abs_err, ok_est, alpha, beta, z, r.branch))

worst.sort(reverse=True)
print(f"validated {len(worst)} cases, skipped {skipped} (oracle infeasible)")
print("top errors (rel, abs, est, est_ok, alpha, beta, z, branch):")
for row in worst[:20]:
    print("  rel=%.2e abs=%.2e est=%.2e ok=%s a=%g b=%g z=%g %s" % row)

integral_rows = [w for w in worst if w[7] == "integral"]
if integral_rows:
    print("largest integral-branch error: rel=%.2e abs=%.2e est=%.2e ok=%s a=%g b=%g z=%g %s"
          % integral_rows[0])

failures = 0
bad_est = [w for w in worst if not w[3]]
failures += len(bad_est)
print(f"\ncases where actual error exceeded estimate: {len(bad_est)}")
for row in bad_est[:20]:
    print("  rel=%.2e abs=%.2e est=%.2e ok=%s a=%g b=%g z=%g %s" % row)

# the edges of the chunked term walks: series points whose stopping term is
# the first or last of a chunk, algebraic tails truncated at the 199-term
# clip, and tails the envelope cut retires before their truncation index
from scipy.special import rgamma

from fraccauchy import specfun
from fraccauchy.specfun import _SERIES_CHUNK, _SERIES_KMAX, _TAIL_CHUNK, _algebraic_tail, _ml_array


def series_stop(alpha, beta, z):
    """Index of the term at which the series stops for z (its stopping rule,
    in the same float operations), or None if it runs to _SERIES_KMAX."""
    s, t = rgamma(beta), 1.0
    for k in range(1, _SERIES_KMAX):
        t *= z
        c = t * rgamma(alpha * k + beta)
        s += c
        if abs(c) <= 1e-18 * (1.0 + abs(s)) and k * alpha + beta > 2.0:
            return k
    return None


def tail_chunks(alpha, beta, z):
    """Chunks the algebraic tail walks for the single point z: one
    reciprocal-gamma call each."""
    count = [0]

    def counted(x):
        count[0] += 1
        return rgamma(x)

    specfun.rgamma = counted
    try:
        _algebraic_tail(alpha, beta, np.array([z]))
    finally:
        specfun.rgamma = rgamma
    return count[0]


edges = {"series stop on a chunk edge": [], "tail at the 199 clip": [], "tail cut before kend": []}
for alpha in (0.5, 0.6, 0.9, 1.3, 1.8):
    for beta in sorted({1.0, alpha, 1.7}):
        reach = 17.0 ** alpha
        zs = np.concatenate([np.linspace(-reach, 2.0 * reach, 240), -np.geomspace(reach, 40.0 * reach, 120)])
        _, _, branch = _ml_array(alpha, beta, zs)
        picked = {key: 0 for key in edges}
        for z, br in zip(zs, branch):
            z = float(z)
            if br == 0 and picked["series stop on a chunk edge"] < 4:
                k = series_stop(alpha, beta, z)
                if k is not None and k % _SERIES_CHUNK in (0, 1):
                    edges["series stop on a chunk edge"].append((alpha, beta, z))
                    picked["series stop on a chunk edge"] += 1
            elif br == 1:
                kend = math.floor(min(max((abs(z) ** (1.0 / alpha) + beta - 1.0) / alpha, 1.0), 199.0))
                if kend == 199 and picked["tail at the 199 clip"] < 3:
                    edges["tail at the 199 clip"].append((alpha, beta, z))
                    picked["tail at the 199 clip"] += 1
                if tail_chunks(alpha, beta, z) < -(-kend // _TAIL_CHUNK) and picked["tail cut before kend"] < 3:
                    edges["tail cut before kend"].append((alpha, beta, z))
                    picked["tail cut before kend"] += 1

print("\nchunk edges of the series and the algebraic tail:")
for name, rows in edges.items():
    bad_edge = checked = 0
    for alpha, beta, z in rows:
        r = ml(alpha, beta, z)
        ref = ml_mp(alpha, beta, z)
        if ref is None:
            continue
        checked += 1
        err = abs(r.value - ref)
        if err > max(r.est_abs_err * 1.05, 1e-14 * (1 + abs(ref))):
            bad_edge += 1
            print("  BAD a=%g b=%g z=%.6g err=%.2e est=%.2e %s" % (alpha, beta, z, err, r.est_abs_err, r.branch))
    print(f"  {name}: {len(rows)} cases, {checked} checked, {bad_edge} above their estimate")
    failures += bad_edge + (checked == 0)

# independent anchor: E_{1/2,1}(-x) = exp(x^2) erfc(x), exact for all x > 0
print("\nerfc identity, alpha=1/2:")
bad = 0
for x in (0.5, 2.0, 5.0, 5.5, 8.0, 12.0, 30.0, 80.0, 200.0):
    ref = float(mp.exp(x * x) * mp.erfc(x))
    r = ml(0.5, 1.0, -x)
    err = abs(r.value - ref)
    flag = "" if err < 1e-12 * (1 + abs(ref)) + r.est_abs_err else "  <-- BAD"
    if flag:
        bad += 1
    print(f"  x={x:7.1f} val={r.value: .15e} ref={ref: .15e} err={err:.1e} est={r.est_abs_err:.1e} {r.branch}{flag}")
print("erfc bad:", bad)
failures += bad

# force the integral representation and compare with the erfc closed forms:
# E_{1/2,1}(-x) = e^{x^2} erfc(x),  E_{1/2,1/2}(-x) = 1/sqrt(pi) - x e^{x^2} erfc(x)
from fraccauchy.specfun import _integral_negative

print("\nintegral branch vs erfc closed forms (alpha=1/2):")
xs = np.array([1.0, 3.0, 6.0, 10.0, 20.0, 50.0])
v1s, e1s = _integral_negative(0.5, 1.0, -xs)
v2s, e2s = _integral_negative(0.5, 0.5, -xs)
for x, v1, e1, v2, e2 in zip(xs, v1s, e1s, v2s, e2s):
    ref1 = float(mp.exp(x * x) * mp.erfc(x))
    ref2 = float(1 / mp.sqrt(mp.pi) - x * mp.exp(x * x) * mp.erfc(x))
    flag = "" if abs(v1 - ref1) <= e1 and abs(v2 - ref2) <= e2 else "  <-- BAD"
    failures += bool(flag)
    print(f"  x={x:5.1f} b=1.0 err={abs(v1-ref1):.2e} (est {e1:.1e})   b=0.5 err={abs(v2-ref2):.2e} (est {e2:.1e}){flag}")

# cross-check integral vs asymptotic where the expansion is reliable
print("\nintegral vs trusted asymptotic at large |z|:")
from fraccauchy.specfun import _ml_array

for alpha in (0.25, 0.4, 0.6, 0.8, 0.9):
    for beta in (1.0, alpha, 0.6):
        for z in (-40.0, -150.0):
            va, ea, br = _ml_array(alpha, beta, np.array([z]))
            (vi,), (ei,) = _integral_negative(alpha, beta, np.array([z]))
            d = abs(va[0] - vi)
            tag = "" if d < 1e-8 * (1 + abs(vi)) + ea[0] + ei else "  <-- DISAGREE"
            failures += bool(tag)
            print(f"  a={alpha} b={beta} z={z}: asym={va[0]: .10e} intg={vi: .10e} diff={d:.1e}{tag}")

print(f"\nfailures: {failures}")
sys.exit(1 if failures else 0)
