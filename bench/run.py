"""visback benchmark: one command per workload, end-to-end or traced.

    python3 bench/run.py --workload train --seed 1 --seconds 15 --trace 0

Every workload runs all three jobs in one process, one caller, closed loop:
its own job for `--seconds`, with a fixed short probe of each other job
spread over that time, so every end-to-end metric is measured on every
workload while the named job does most of the work. `--trace 0` prints the
end-to-end metrics; `--trace 1` alternates untraced and traced operations
of the named job for `--seconds`, then runs the probes traced, and prints
the per-layer metrics and the tracing overhead. The last stdout line
is the result object; the lines before it hold the environment record and
details (sample counts, tail percentiles, failures, missing hooks).

See bench/README.md for every metric's unit, direction and meaning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"  # the plain single-threaded baseline; also avoids the cold-start cliff
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {  # workload -> the job it runs for --seconds
    "train": "train",
    "explain_shift": "explain",
    "gen_eval": "gen_eval",
}
TRAIN_MAIN = (1000, 4)    # scenes, epochs of the train job when it is the workload's own job
TRAIN_PROBE = (256, 3)    # ... and when it is a probe
PROBE_OPS = {"train": 1, "explain": 32, "gen_eval": 8}  # train: one train() call
SETUP_REPS = 3
COLD_CALLS = 40

E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "train_samples_per_s": "1/s", "train_step_ms_p50": "ms", "train_step_ms_p90": "ms",
    "train_loss_ratio": "ratio",
    "explain_ms_p50": "ms", "explain_ms_p90": "ms", "shift_ms_p50": "ms", "shift_ms_p90": "ms",
    "gen_scenes_per_s": "1/s", "eval_frames_per_s": "1/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("VISBACK_THREADS"):
        print("VISBACK_THREADS is set; unset it so the serial shift path is measured", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # must precede the first numpy import
        os.environ[var] = BLAS_THREADS
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import jobs
        import layers
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, jobs, layers, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, jobs, layers, workdir: Path) -> int:
    main_name = WORKLOADS[args.workload]
    train_size = TRAIN_MAIN if main_name == "train" else TRAIN_PROBE
    calibration = jobs.Calibration()
    all_jobs = {
        "train": jobs.TrainJob(calibration, args.seed, *train_size),
        "explain": jobs.ExplainJob(calibration, args.seed),
        "gen_eval": jobs.GenEvalJob(calibration, args.seed, workdir),
    }
    setups = []
    for _ in range(1 if args.trace else SETUP_REPS):
        watch = jobs.Stopwatch(calibration)
        for job in all_jobs.values():
            job.setup()
        watch.lap("setup")
        setups.append(jobs.Op("untraced", True, watch.parts))

    main_job = all_jobs[main_name]
    probes = [job for name, job in all_jobs.items() if name != main_name]
    if args.trace:
        tracer = layers.make_tracer()

        def calibrate_off_trace() -> float:
            t0 = time.perf_counter()
            ref = calibration()
            tracer.exclude(time.perf_counter() - t0)
            return ref

        for job in all_jobs.values():
            job.pause = tracer.paused
            job.calibrate = calibrate_off_trace
        cold = cold_forward(all_jobs["explain"])
        run_alternating(main_job, tracer, args.seconds)
        with tracer.active():
            for job in probes:
                for _ in range(PROBE_OPS[job.name]):
                    job.run_one("traced")
        speedup = all_jobs["explain"].batch_speedup()
        metrics = layers.layer_metrics(tracer)
        metrics.update(cold)
        metrics["network.batch_speedup"] = (speedup, "ratio")
        metrics.update(trace_overhead(main_job))
        spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        extra = {"missing": sorted(layers.missing(tracer, metrics)),
                 "layer_failed": layers.failed_counts(tracer), "spans_file": str(spans_path.relative_to(ROOT))}
    else:
        run_mix(main_job, probes, args.seconds)
        values = {"setup_s": statistics.median(op.ms() for op in setups) / 1e3, "peak_rss_mb": peak_rss_mb()}
        for job in all_jobs.values():
            values.update(job.metrics())
        metrics = {name: (values.get(name), unit) for name, unit in E2E_UNITS.items()}
        extra = {"setup_s_samples": [op.ms() / 1e3 for op in setups],
                 "setup_wall_s": [op.wall_ms() / 1e3 for op in setups]}

    ops = [op for job in all_jobs.values() for op in job.ops]
    failed = sum(not op.ok for op in ops)
    errors = [e for job in all_jobs.values() for e in job.errors]
    complete = all(v is not None and math.isfinite(v) for v, _ in metrics.values()) or args.trace
    details = {name: job.details() for name, job in all_jobs.items()}
    details.update(extra, errors=errors[:20], calibration_ms=1e3 * statistics.median(calibration.samples))
    print(json.dumps({"env": environment(args)}))
    print(json.dumps({"details": details}, default=float))
    print(json.dumps({
        "correct": failed == 0 and not errors and complete,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()
                    if v is not None and math.isfinite(v)},
    }))
    return 0


def run_mix(main_job, probes, seconds) -> None:
    """Run main_job for `seconds` (at least one operation) with the probes'
    operations spread evenly over that time, so every job's samples see the
    same stretch of machine time. A long main operation (a training run)
    hosts due probe operations between its SGD steps."""
    schedule = sorted(((k + 0.5) / PROBE_OPS[job.name], i, job)
                      for i, job in enumerate(probes) for k in range(PROBE_OPS[job.name]))
    start = time.perf_counter()

    def run_due() -> None:
        while schedule and schedule[0][0] * seconds <= time.perf_counter() - start:
            schedule.pop(0)[2].run_one("untraced")

    main_job.between_steps = run_due
    try:
        ran = 0
        while not main_job.stopped and (ran == 0 or time.perf_counter() - start < seconds):
            run_due()
            main_job.run_one("untraced")
            ran += 1
    finally:
        main_job.between_steps = None
    for _, _, job in schedule:
        job.run_one("untraced")


def run_alternating(main_job, tracer, seconds) -> None:
    """Alternate untraced and traced operations of main_job for `seconds`
    (at least one of each), so the tracing overhead compares operations run
    in the same stretch of machine time."""
    start = time.perf_counter()
    ran = 0
    while not main_job.stopped and (ran < 2 or time.perf_counter() - start < seconds):
        if ran % 2:
            with tracer.active():
                main_job.run_one("traced")
        else:
            main_job.run_one("untraced")
        ran += 1


def cold_forward(explain) -> dict:
    """First COLD_CALLS per-frame forwards of the process, then as many warm ones."""
    from visback import network, scenes
    from visback.tensor import Tensor

    image = Tensor(scenes.rgb_to_yuv(explain.frames[0]))
    times = []
    for _ in range(2 * COLD_CALLS):
        t0 = time.perf_counter()
        network.forward(explain.cfg, explain.weights, image)
        times.append(time.perf_counter() - t0)
    return {
        "network.forward_cold_ms": (1e3 * statistics.fmean(times[:COLD_CALLS]), "ms"),
        "network.forward_warm_ms": (1e3 * statistics.median(times[COLD_CALLS:]), "ms"),
    }


def trace_overhead(job) -> dict:
    """Median traced operation time of the job minus its median untraced one."""
    by_phase = {p: [op.ms() for op in job.ops if op.phase == p and op.ok] for p in ("untraced", "traced")}
    if not all(by_phase.values()):
        return {}
    base = statistics.median(by_phase["untraced"])
    delta = statistics.median(by_phase["traced"]) - base
    return {"trace.overhead_ms": (delta, "ms"), "trace.overhead_pct": (100.0 * delta / base, "%")}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})"
    except (TypeError, KeyError, AttributeError):
        openblas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "visback_threads": os.environ.get("VISBACK_THREADS"),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": openblas,
        "commit": git_commit(), "source_sha256": source_digest(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's sources, which names the code even outside git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "visback").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
