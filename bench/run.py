"""Benchmark of fraccauchy: curve recovery, hold-all continuation and joint
recovery, timed end to end and, in a separate traced run, per module.

    python3 bench/run.py --workload curve_recovery --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one process each
    python3 bench/run.py --self-check                 # short run of each, metrics vs BENCHMARK.json

One run builds its inputs from ``--seed`` (median of several set-ups, each
ending in an untimed warm-up op, the next of a round), then runs whole
rounds of the workload's ops, one at a time, for about ``--seconds``
seconds, checks every output against references computed apart from the
program, and prints each metric with its unit and, as its last line, one
JSON object.  ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones.
"""

import os

# one BLAS/OpenMP thread, set before NumPy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ML_SAMPLES = 24
ERFCX_SAMPLES = 12


def host_probe():
    """Seconds for a fixed pure-Python loop plus a fixed dense solve: a
    reference for host speed, reported next to the metrics, not as one."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    a = np.random.default_rng(0).standard_normal((300, 300)) + 300.0 * np.eye(300)
    for _ in range(20):
        np.linalg.solve(a, a[:, 0])
    return time.perf_counter() - t0


def ml_checks(recorder, seed):
    """Check a seeded sample of the recorded Mittag-Leffler evaluations
    against the high-precision series, and the program's E_{1/2,1}(-x)
    against erfcx(x) at a seeded sample of the recorded |z|.  The sample
    takes up to ML_SAMPLES points from the scalar ``ml`` calls and as many
    from the batched ``ml_values`` calls, so neither path goes unchecked
    where the other makes most of the evaluations."""
    import numpy as np
    from scipy.special import erfcx

    from fraccauchy.specfun import ml
    from oracle import ml_mpmath

    alpha, beta, z, val, scalar = recorder.points()
    rng = np.random.default_rng(seed)
    sample = np.concatenate([rng.choice(idx, size=min(ML_SAMPLES, idx.size), replace=False)
                             for idx in (np.flatnonzero(scalar), np.flatnonzero(~scalar))])
    problems, checked, skipped, est_exceeded = [], 0, 0, 0
    for i in sample:
        ref = ml_mpmath(alpha[i], beta[i], z[i])
        if ref is None:
            skipped += 1
            continue
        checked += 1
        err = abs(val[i] - ref)
        if not err <= 1e-8 * (1.0 + abs(ref)):
            problems.append("E_{%g,%g}(%.6g) = %.17g, series gives %.17g"
                            % (alpha[i], beta[i], z[i], val[i], ref))
        est = ml(alpha[i], beta[i], z[i]).est_abs_err
        est_exceeded += err > max(1.05 * est, 1e-14 * (1.0 + abs(ref)))
    xs = np.abs(z[np.abs(z) > 0.0])
    for x in rng.choice(xs, size=min(ERFCX_SAMPLES, xs.size), replace=False):
        r = ml(0.5, 1.0, -float(x))
        ref = float(erfcx(x))
        if not abs(r.value - ref) <= 1e-12 * (1.0 + ref) + r.est_abs_err:
            problems.append("E_{1/2,1}(-%.6g) = %.17g, erfcx gives %.17g" % (x, r.value, ref))
    if checked == 0:
        problems.append("no recorded Mittag-Leffler argument was within reach of the series")
    return problems, {"ml_points_recorded": int(z.size),
                      "ml_scalar_points_recorded": int(scalar.sum()), "ml_checked": checked,
                      "ml_skipped": skipped, "ml_est_exceeded": int(est_exceeded),
                      "erfcx_checked": int(min(ERFCX_SAMPLES, xs.size))}


def measure(wl, inputs, seconds, tracer):
    """Whole rounds of the workload's ops until about ``seconds`` have
    passed.  With a tracer, every other op runs traced, the other half in
    the next round, so that traced and untraced ops meet the same host
    conditions; traced runs then end on an even round, each op traced once
    per two rounds."""
    res = {"times": [], "cpu_times": [], "errs": [], "traced": [], "untraced": [],
           "attempted": 0, "failed": 0, "problems": [], "rounds": 0}
    start = time.perf_counter()
    while True:
        for i, op in enumerate(wl.OPS):
            traced = tracer is not None and (i + res["rounds"]) % 2 == 1
            gc.collect()
            res["attempted"] += 1
            try:
                if traced:
                    tracer.op = res["attempted"]
                    tracer.install()
                t0, c0 = time.perf_counter(), time.process_time()
                out = wl.run(inputs, op)
                dt, dc = time.perf_counter() - t0, time.process_time() - c0
            except Exception:
                res["failed"] += 1
                res["problems"].append("op %r raised:\n%s" % (op, traceback.format_exc()))
                continue
            finally:
                if traced:
                    tracer.uninstall()
                    tracer.op = None
            try:
                err, problems = wl.check(inputs, op, out)
            except Exception:
                err, problems = None, ["check raised:\n%s" % traceback.format_exc()]
            del out
            if problems:
                res["failed"] += 1
                res["problems"].extend("op %r: %s" % (op, p) for p in problems)
                continue
            res["times"].append(dt)
            res["cpu_times"].append(dc)
            res["errs"].append(err)
            (res["traced"] if traced else res["untraced"]).append(dt)
        res["rounds"] += 1
        elapsed = time.perf_counter() - start
        if tracer is not None and res["rounds"] % 2:
            continue
        # stop at the round boundary nearest to the requested duration
        if elapsed * (1.0 + 0.5 / res["rounds"]) >= seconds:
            break
    res["elapsed"] = time.perf_counter() - start
    return res


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def workload_names():
    return [w["name"] for w in benchmark_spec()["workloads"]]


def run_workload(name, seed, seconds, trace):
    if not (ROOT / "src" / "fraccauchy" / "__init__.py").is_file():
        print("bench: no fraccauchy sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    warnings.simplefilter("ignore")
    import fraccauchy
    import tracing
    import workloads

    if Path(fraccauchy.__file__).resolve().parent != ROOT / "src" / "fraccauchy":
        print("bench: fraccauchy imported from %s, not this checkout" % fraccauchy.__file__,
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[name]()
    probe_before = host_probe()

    # each set-up builds the inputs and runs the next op of a round as its
    # warm-up, recording the Mittag-Leffler evaluations for the checks
    setup_times = []
    recorder = tracing.MLRecorder()
    inputs = None
    for rep in range(wl.SETUP_REPS):
        inputs = None
        gc.collect()
        t0 = time.perf_counter()
        with recorder:
            inputs = wl.build(seed)
            wl.run(inputs, wl.OPS[rep % len(wl.OPS)])
        setup_times.append(time.perf_counter() - t0)

    tracer = tracing.Tracer() if trace else None
    res = measure(wl, inputs, seconds, tracer)
    ml_problems, ml_info = ml_checks(recorder, seed)
    probe_after = host_probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    times = res["times"]
    if trace:
        values = tracing.layer_metrics(tracer.spans, len(res["traced"]) or 1)
        values["tracing.overhead"] = (statistics.median(res["traced"])
                                      / statistics.median(res["untraced"]) - 1.0
                                      if res["traced"] and res["untraced"] else 0.0)
        names = [m["name"] for m in spec["per_layer"]]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / ("trace-%s-seed%d.jsonl" % (name, seed)),
                     {"workload": name, "seed": seed, "ops": len(res["traced"]),
                      "fields": ["name", "start", "end", "parent", "op", "count"]})
    else:
        values = {
            "ops_per_s": len(times) / sum(times) if times else 0.0,
            "op_p50_s": statistics.median(times) if times else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "err_p50": statistics.median(res["errs"]) if times else 0.0,
        }
        names = [m["name"] for m in spec["end_to_end"]]

    correct = not ml_problems and all(math.isfinite(values[n]) for n in names)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": res["attempted"], "failed": res["failed"], "rounds": res["rounds"],
        "elapsed_s": res["elapsed"], "setup_times_s": setup_times, "op_times_s": times,
        "op_cpu_times_s": res["cpu_times"], "errs": res["errs"], "host_probe_before_s": probe_before,
        "host_probe_after_s": probe_after, "problems": res["problems"] + ml_problems,
        "metrics": values, **ml_info,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("run-%s-seed%d-trace%d.json" % (name, seed, trace)), "w") as fh:
        json.dump(record, fh, indent=1)

    for p in record["problems"]:
        print("CHECK FAILED: " + p, file=sys.stderr)
    print("workload %s  seed %d  rounds %d  ops %d  failed %d  %.1f s"
          % (name, seed, res["rounds"], res["attempted"], res["failed"], res["elapsed"]))
    print("host probe %.4f s before, %.4f s after (reference only)" % (probe_before, probe_after))
    print("ML sample: %(ml_checked)d checked against the series, %(ml_skipped)d out of its "
          "reach, %(erfcx_checked)d against erfcx" % ml_info)
    for n in names:
        print("  %-28s %14.6g %s" % (n, values[n], units[n]))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


def _child(workload, seed, seconds, trace):
    """Run one workload in a fresh interpreter; returns (exit code, result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def run_all(seed, seconds, trace):
    results, status = {}, 0
    for w in workload_names():
        code, result = _child(w, seed, seconds, trace)
        results[w] = result
        if code != 0 or not result or not result["correct"] or result["failed"]:
            status = 1
    print(json.dumps({"workloads": results}))
    return status


def self_check():
    """Run every workload briefly, untraced and traced, and verify that each
    metric named in BENCHMARK.json is reported with its unit."""
    spec = benchmark_spec()
    bad = []
    for w in workload_names():
        for trace, defs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = _child(w, 1, 1, trace)
            if code != 0 or result is None:
                bad.append("%s trace=%d: exit code %d" % (w, trace, code))
                continue
            if not result["correct"] or result["failed"]:
                bad.append("%s trace=%d: correct=%s failed=%d"
                           % (w, trace, result["correct"], result["failed"]))
            got = result["metrics"]
            for m in defs:
                if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
                    bad.append("%s trace=%d: metric %s missing or without unit %s"
                               % (w, trace, m["name"], m["unit"]))
            extra = set(got) - {m["name"] for m in defs}
            if extra:
                bad.append("%s trace=%d: metrics not in BENCHMARK.json: %s"
                           % (w, trace, sorted(extra)))
    for b in bad:
        print("SELF-CHECK: " + b)
    print("self-check %s" % ("failed" if bad else "passed"))
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workload_names() + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
