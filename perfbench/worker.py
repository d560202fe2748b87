"""One workload in its own process: set up, run passes, gate, report.

Usage: ``python worker.py --workload NAME --seed N --seconds S --trace 0|1
[--setup-only]``, with the package's ``src`` directory on PYTHONPATH.  The
worker prints ``READY`` once its inputs are built, then, unless
``--setup-only``, runs passes of the workload's tasks as one closed-loop
caller until the time is spent, and prints one JSON line with the results.

With ``--trace 1`` the first half of the time runs untraced passes and
the second half traced ones; the difference of their median pass times is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
from calibrate import kernel, timed_kernel
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
STAGES = ("dimsearch_s", "theta_s", "ccm_s", "table2_s", "predictions_per_s", "steps_per_s",
          "cli_embed_search_s", "cli_forecast_s", "cli_ccm_s", "cli_simulate_s")


def digest(obj) -> str:
    """A hash of a task's output that two bit-identical outputs share."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for field in dataclasses.fields(obj):
            _feed(h, field.name)
            _feed(h, getattr(obj, field.name))
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, bytes):
        h.update(len(obj).to_bytes(8, "little"))
        h.update(obj)
    else:
        h.update(repr(obj).encode())


def run_passes(workload, budget: float, min_passes: int, tracer=None, label: str = "") -> list:
    """Closed loop: start another pass until ``budget`` seconds have gone."""
    passes = []
    began = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - began < budget:
        if hasattr(workload, "begin_pass"):
            workload.begin_pass()
        record = {"times": {}, "task_cal": {}, "digests": {}, "errors": {}, "outputs": {},
                  "cal": []}
        start = time.perf_counter()
        for name, task in workload.tasks():
            record["cal"].append(timed_kernel())
            if tracer is not None:
                tracer.task = f"{label}{len(passes)}:{name}"
            t0 = time.perf_counter()
            try:
                output = task()
            except Exception as error:  # a failed operation is counted, not fatal
                record["errors"][name] = f"{type(error).__name__}: {error}"
                output = None
            record["times"][name] = time.perf_counter() - t0
            record["outputs"][name] = output
        record["cal"].append(timed_kernel())
        record["wall"] = time.perf_counter() - start
        cal = record["cal"]
        for i, (name, seconds) in enumerate(record["times"].items()):
            record["task_cal"][name] = seconds / ((cal[i] + cal[i + 1]) / 2)
        record["cal_units"] = sum(record["task_cal"].values())
        for name, output in record["outputs"].items():
            record["digests"][name] = digest(output)
        if passes:
            record["outputs"] = None  # only the first pass's outputs are checked
        passes.append(record)
    return passes


def gate(workload, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every task of every pass.

    A task fails when it raised or exited non-zero, when its output differs
    from the first pass's, or when the first pass's output missed a check.
    """
    first = passes[0]
    problems = [f"{name}: {error}" for p in passes for name, error in p["errors"].items()]
    flagged: set[str] = set()
    try:
        checked = workload.check(first["outputs"])
    except Exception as error:  # a crashed check fails every task
        checked = [f"*: check raised {type(error).__name__}: {error}"]
    for problem in checked:
        task = problem.split(":", 1)[0]
        flagged |= set(first["digests"]) if task == "*" else {task}
    problems += checked
    attempted = failed = 0
    for p in passes:
        for name, value in p["digests"].items():
            attempted += 1
            if name in p["errors"] or name in flagged or value != first["digests"][name]:
                failed += 1
                if value != first["digests"][name] and name not in p["errors"]:
                    problems.append(f"{name}: output differs from the first pass")
    return attempted, failed, problems


def layer_values(tracer, traced, untraced, workload, outputs) -> dict:
    """Per-layer metrics, per traced pass; layers a workload never calls read 0."""
    n = len(traced)
    values = {}
    for layer, _, _ in spans.LAYERS:
        values[f"{layer}.self_s"] = 0.0
        values[f"{layer}.calls"] = 0.0
    for name in spans.COUNTERS:
        values[name] = 0.0
    for layer, total in spans.self_times(tracer.spans()).items():
        values[f"{layer}.self_s"] = total / n
    for name, total in tracer.counters.items():
        values[name] = total / n
    c = tracer.counters
    values["embedding.knn.kept_ratio"] = (
        c["embedding.knn.kept"] / c["embedding.knn.rows_scanned"]
        if c["embedding.knn.rows_scanned"] else 0.0)
    values["ccm.embed_reuse_ratio"] = (
        c["ccm.embed_distinct"] / c["ccm.embed_calls"] if c["ccm.embed_calls"] else 0.0)
    startup = getattr(workload, "startup", [])
    values["cli.startup_s"] = sum(startup) / n
    written = workload.written(outputs) if hasattr(workload, "written") else (0, 0)
    values["cli.bytes_written"], values["cli.files_written"] = (float(w) for w in written)
    # compared in calibration units, then converted at the run's median
    # kernel time, so that drift in machine speed does not read as overhead
    kernel_s = statistics.median([c for p in untraced + traced for c in p["cal"]])
    values["trace_overhead_s"] = kernel_s * (
        statistics.median([p["cal_units"] for p in traced])
        - statistics.median([p["cal_units"] for p in untraced]))
    return values


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.workload == "cli" and hasattr(os, "sched_setaffinity"):
        # CLI commands run in child processes; keeping them on the CPU that
        # times the calibration kernel lets the kernel track that CPU's speed
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    for _ in range(3):
        kernel()  # lets numpy finish its lazy set-up before anything is timed
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(workload, budget, min_passes=2)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0  # kilobytes on Linux
    passes = list(untraced)
    result = {"env": environment(), "peak_rss_mb": peak_rss_mb}

    if args.trace:
        tracer = spans.Tracer()
        if args.workload == "cli":
            workload.tracer = tracer  # commands trace themselves and report back
        else:
            tracer.install()
        try:
            traced = run_passes(workload, budget, min_passes=1, tracer=tracer, label="t")
        finally:
            tracer.uninstall()
        passes += traced
        result["layers"] = layer_values(tracer, traced, untraced, workload,
                                        untraced[0]["outputs"])
        result["absent"] = tracer.absent
        out = ROOT / ".bench_work" / f"spans-{args.workload}.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as handle:
            for span in tracer.spans():
                handle.write(json.dumps(span) + "\n")

    attempted, failed, problems = gate(workload, passes)
    outputs = untraced[0]["outputs"]
    times = {name: [p["times"][name] for p in untraced] for name in untraced[0]["times"]}
    task_cal = {name: statistics.median([p["task_cal"][name] for p in untraced])
                for name in times}
    walls = [p["wall"] for p in untraced]
    stages = dict.fromkeys(STAGES, 0.0)
    try:
        stages.update(workload.stages(times, walls, outputs))
        result["info"] = workload.info(outputs)
    except Exception as error:  # outputs of a failed task cannot be summarised
        problems.append(f"*: summary raised {type(error).__name__}: {error}")
        failed = attempted
    result.update(attempted=attempted, failed=failed, problems=problems[:20],
                  pass_walls=walls, task_times=times, stages=stages,
                  pass_cal=[p["cal_units"] for p in untraced], task_cal=task_cal,
                  calibration_s=[c for p in untraced for c in p["cal"]])
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
