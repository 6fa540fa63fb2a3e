"""lielab benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload qq-structure --seed 1729 --seconds 25 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  Passes over the workload's job list
repeat until ``--seconds`` have elapsed, with at least two passes.  A
set-up probe runs after every fourth job, outside the timed region, so
the set-up samples are spread over the whole run as the jobs are.

Times are reported in calibration units ("cal"): after every job the
harness times a fixed slice of pure-Python work that runs no lielab code,
and each job's latency is divided by the mean slice time around it.  On
a shared host the speed of the whole machine drifts by 20-30 % within
minutes; measured over the same minutes, the slice cancels most of that
drift.  The raw seconds are printed in the record line.  setup_s stays in
plain seconds: a probe is a separate process, and scaling it by the
slices made it spread more from run to run, not less.

Metric names and units come from BENCHMARK.json; a run that cannot
report one of them fails.  ``LIELAB_*`` budget overrides are removed from
the environment, for this process and its children, so the figures are
those of the package's defaults.

``--trace 0`` reports the end-to-end metrics and installs no wrappers.
``--trace 1`` runs one untraced pass and then two traced passes, checks
that the exact counters repeat, and reports the per-layer metrics.

Every job's answer is checked against pins.json on every pass.  The
next-to-last line of stdout is a JSON record with run conditions and
diagnostics; the last line is the result object.  The exit code is 0
only when every answer was right.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
MIN_PASSES = 2
PROBE_EVERY = 4  # untraced passes run a set-up probe after every 4th job


def conditions() -> dict:
    src = os.path.join(ROOT, "src", "lielab")
    lines = 0
    for fn in sorted(os.listdir(src)):
        if fn.endswith(".py"):
            with open(os.path.join(src, fn), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if got.returncode == 0:
            rev = got.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_lielab_lines": lines,
        "loadavg_start": os.getloadavg(),
    }


def probe_setup(workload: str, seed: int) -> tuple:
    """Wall seconds for a fresh interpreter to import lielab and build the
    inputs, and the inputs' sha256 as the probe computed it."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe_setup.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return wall, proc.stdout.strip()


CAL_ITERS = 10000


def calibration_slice() -> float:
    """Seconds for a fixed piece of pure-Python work that runs no lielab
    code: Fraction arithmetic, small-object churn and dict traffic, the
    kinds of work the jobs do.  About 75 ms on a 2-CPU Xeon VM."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(CAL_ITERS):
        x = Fraction(i % 7 + 1, i % 5 + 2)
        acc = (acc + x * x) % 97
        table[i % 101] = (acc, [i] * 3)
    return time.perf_counter() - t0


def calibrated(p) -> list:
    """Each job's latency in calibration units: divided by the mean of the
    calibration slices timed within three jobs of it on either side."""
    cal = p.cal
    return [x / statistics.mean(cal[max(0, k - 2):k + 4]) for k, x in enumerate(p.latencies)]


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Pass:
    """Outcome of one pass over the job list."""

    def __init__(self):
        self.latencies = []
        self.answered = 0
        self.unanswered = []
        self.failures = []
        self.stdout_bytes = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.cal = []
        self.setups = []


def run_pass(wl, ll, tracer=None, probe=None) -> Pass:
    from workloads import Wrong

    gc.collect()
    out = Pass()
    ctx = {}
    # checks, calibration slices and set-up probes are left out of both
    # wall and CPU time
    untimed_s = untimed_cpu = 0.0
    out.cal.append(calibration_slice())
    cpu0 = time.process_time() + children_cpu()
    start = time.perf_counter()
    for k, job in enumerate(wl.jobs):
        err = result = None
        budget = False
        if tracer is not None:
            tracer.job = k
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = job.run(ctx)
        except ll.BudgetExceeded:
            budget = True
        except Exception as exc:  # a crash is a failed job, not a dead benchmark
            err = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        c0, cpu_c0 = time.perf_counter(), time.process_time() + children_cpu()
        out.latencies.append(dt)
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], bytes):
            out.stdout_bytes += len(result[1])
        if budget:
            out.unanswered.append(job.id)
        elif err is not None:
            out.failures.append((job.id, f"crash: {type(err).__name__}: {err}"))
        else:
            try:
                if job.check(result):
                    out.answered += 1
                else:
                    out.unanswered.append(job.id)
            except Wrong as exc:
                out.failures.append((job.id, str(exc)))
            except Exception as exc:  # unparsable output and the like
                out.failures.append((job.id, f"check crashed: {type(exc).__name__}: {exc}"))
        out.cal.append(calibration_slice())
        if probe is not None and k % PROBE_EVERY == PROBE_EVERY - 1:
            out.setups.append(probe())
        untimed_s += time.perf_counter() - c0
        untimed_cpu += time.process_time() + children_cpu() - cpu_c0
    out.wall = time.perf_counter() - start - untimed_s
    out.cpu = time.process_time() + children_cpu() - cpu0 - untimed_cpu
    return out


def cli_import_s() -> float:
    """Median over three fresh interpreters of the time to import lielab.cli."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import lielab.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src")],
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def summarize(passes) -> dict:
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    answered = sum(p.answered for p in passes)
    return {"attempted": attempted, "failed": failed, "answered": answered}


def measure(wl, ll, args) -> tuple:
    passes = []
    started = time.perf_counter()
    probe = lambda: probe_setup(args.workload, args.seed)
    while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        if args.passes and len(passes) >= args.passes:
            break
        passes.append(run_pass(wl, ll, probe=probe))
    setups = [s for p in passes for s in p.setups]
    raw = sorted(x for p in passes for x in p.latencies)
    norm = sorted(x for p in passes for x in calibrated(p))
    p90 = statistics.quantiles(norm, n=10)[-1] if len(norm) > 1 else norm[0]
    if args.workload == "cli-small":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    s = summarize(passes)
    metrics = {
        "setup_s": statistics.median(w for w, _ in setups),
        "pass_cal": statistics.median(sum(calibrated(p)) for p in passes),
        "job_cal_p50": statistics.median(norm),
        "job_cal_p90": p90,
        "answered_frac": s["answered"] / s["attempted"],
        "correct_frac": 1 - s["failed"] / s["attempted"],
        "peak_rss_mb": rss_kb / 1024,
    }
    shas = {sha for _, sha in setups}
    record = {
        "setup_samples_s": [w for w, _ in setups],
        "pass_s_samples": [p.wall for p in passes],
        "pass_cpu_s_samples": [p.cpu for p in passes],
        "calibration_ms_per_pass": [statistics.mean(p.cal) * 1000 for p in passes],
        "raw": {
            "pass_s": statistics.median(p.wall for p in passes),
            "job_ms_p50": statistics.median(raw) * 1000,
            "job_ms_p90": (statistics.quantiles(raw, n=10)[-1] if len(raw) > 1 else raw[0]) * 1000,
        },
        "job_ms_by_id": {
            job.id: statistics.median(p.latencies[k] for p in passes) * 1000 for k, job in enumerate(wl.jobs)
        },
        "job_samples": len(norm),
        "job_samples_above_p90": sum(1 for x in norm if x > p90),
        "probe_inputs_sha256_match": shas == {wl.inputs_sha256},
    }
    problems = [] if shas == {wl.inputs_sha256} else ["setup probe generated different inputs"]
    return metrics, record, passes, problems


def measure_traced(wl, ll, args) -> tuple:
    from spans import EXACT_COUNTS, Tracer

    cli = args.workload == "cli-small"
    plain = run_pass(wl, ll)
    passes = [plain]
    record = {"untraced_pass_s": plain.wall}
    if cli:
        # The traced passes call cli.main in this process; the untraced
        # subprocess pass above minus an untraced in-process pass is the
        # cost of spawning and importing.
        wl.cli_in_process = True
        inproc = run_pass(wl, ll)
        passes.append(inproc)
        record["untraced_in_process_pass_s"] = inproc.wall
        base = inproc.wall
    else:
        base = plain.wall
    tracer = Tracer(ll)
    tracer.install()
    layers, spans, traced = [], [], []
    try:
        for _ in range(2):
            tracer.reset()
            p = run_pass(wl, ll, tracer)
            passes.append(p)
            layers.append(tracer.layer_metrics())
            spans.append(tracer.span_count())
            traced.append(p.wall)
    finally:
        tracer.uninstall()
    problems = []
    for key in EXACT_COUNTS:
        if layers[0][key] != layers[1][key]:
            problems.append(f"{key} did not repeat: {layers[0][key]} then {layers[1][key]}")
    metrics = {}
    for key, v0 in layers[0].items():
        v1 = layers[1][key]
        metrics[key] = (v0 + v1) / 2 if isinstance(v0, float) else v0
    metrics["trace_overhead"] = statistics.mean(traced) / base
    if cli:
        metrics["cli.spawn_s"] = plain.wall - base
        metrics["cli.import_s"] = cli_import_s()
        metrics["cli.stdout_bytes"] = plain.stdout_bytes
    else:
        metrics["cli.spawn_s"] = 0.0
        metrics["cli.import_s"] = 0.0
        metrics["cli.stdout_bytes"] = 0
    record.update({
        "traced_pass_s": traced,
        "spans_per_pass": spans,
        "exact_counts": {k: [layers[0][k], layers[1][k]] for k in EXACT_COUNTS},
    })
    return metrics, record, passes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: lielab's DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--passes", type=int, default=0, help="stop after this many passes (self-check runs)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lielab", "__init__.py")):
        print(f"error: no lielab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    cond = conditions()
    # budget overrides would change which jobs are answered and how long
    # they take; children inherit the cleaned environment
    cond["lielab_env_removed"] = sorted(k for k in os.environ if k.startswith("LIELAB_"))
    for key in cond["lielab_env_removed"]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import lielab
    import lielab.cli  # noqa: F401  (the traced cli-small run calls cli.main)
    from workloads import Workload

    if args.seed is None:
        args.seed = lielab.DEFAULT_SEED
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    try:
        wl = Workload(args.workload, args.seed, lielab, pins, ROOT)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    measured = measure_traced if args.trace else measure
    metrics, record, passes, problems = measured(wl, lielab, args)
    cond["loadavg_end"] = os.getloadavg()
    s = summarize(passes)
    failures = sorted({f"{j}: {why}" for p in passes for j, why in p.failures})
    unanswered = sorted({j for p in passes for j in p.unanswered})
    correct = s["failed"] == 0 and not problems
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": wl.inputs_sha256,
        "trace": args.trace,
        "passes": len(passes),
        "jobs_per_pass": len(wl.jobs),
        "unanswered_jobs": unanswered,
        "failures": failures,
        "problems": problems,
        "conditions": cond,
    })
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    shown = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    record["metrics"] = dict(shown, failed_frac={"value": s["failed"] / s["attempted"], "unit": "ratio"})
    print(json.dumps(record, sort_keys=True))
    result = {"correct": correct, "attempted": s["attempted"], "failed": s["failed"], "metrics": shown}
    print(json.dumps(result))
    for line in failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
