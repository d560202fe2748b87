"""Benchmark entry point: time one workload of edmkit, or all of them.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 7 --seconds 20 --trace 0

The package is taken from the checkout's ``src`` directory; without it the
run fails with exit code 2.  Each workload runs in its own child process
with the BLAS and OpenMP thread variables pinned to 1, as one closed-loop
caller.  Set-up is timed in separate short-lived processes, several times,
and reported as the median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics.  The line before it is the full
record: environment, seed, every stage timing with its sample count, the
per-layer table, the problems the correctness gate found and the
paper-target values (for information, never gated).  ``--workload all``
runs every workload in turn and ends with one combined line whose metric
names are prefixed with the workload's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 8
DEADLINE_S = 170.0

#: Which end-to-end figure each per-layer metric should move, and where it
#: does most and least work.  Stage timings move their workload's pass_cal.
LAYER_MOVES = {
    "ccm.": "pass_cal via ccm_s (paper), cli_ccm_s (cli), predictions_per_s (longseries); "
            "idle on horizon",
    "embedding.knn.": "pass_cal via predictions_per_s (longseries), dimsearch_s (paper); "
                      "least on horizon",
    "embedding.state_vector.": "pass_cal via predictions_per_s (longseries), steps_per_s "
                               "(horizon); least on cli",
    "timeseries.to_array.": "pass_cal via predictions_per_s (longseries), steps_per_s "
                            "(horizon); least on cli",
    "embedding.multivariate_embed.": "pass_cal via steps_per_s (horizon), table2_s and ccm_s "
                                     "(paper); least on longseries",
    "timeseries.dataset_builds": "pass_cal via steps_per_s (horizon), table2_s (paper); "
                                 "least on longseries",
    "simplex.one_step_eval.": "pass_cal via predictions_per_s (longseries), dimsearch_s "
                              "(paper); least on horizon",
    "simplex.simplex_predict.": "pass_cal via predictions_per_s (longseries), dimsearch_s "
                                "(paper); least on horizon",
    "simplex.run_iterative.": "pass_cal via steps_per_s (horizon), table2_s (paper); "
                              "idle on longseries",
    "smap.": "pass_cal via steps_per_s (horizon), theta_s and table2_s (paper), "
             "predictions_per_s (longseries); least on cli",
    "scenario.": "pass_cal via table2_s (paper), cli_simulate_s (cli); idle on longseries",
    "timeseries.load_csv.": "setup_s and cli_*_s (cli); least on longseries",
    "timeseries.pearson_rho.": "pass_cal via ccm_s (paper, cli); least on longseries",
    "cli.": "pass_cal and setup_s on cli; idle elsewhere",
    "trace_overhead_s": "none: the cost of tracing itself",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def time_setup(workload: str, seed: int, env: dict) -> float:
    """Spawn to ready: to ``READY`` for a worker, to exit for ``edmkit version``."""
    if workload == "cli":
        argv = [sys.executable, "-m", "edmkit.cli", "version"]
    else:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", "0", "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        if workload != "cli":
            elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait(timeout=60)
    if workload == "cli":
        elapsed = time.perf_counter() - start
        ready = code == 0 and (first + rest).startswith(b"edmkit ")
    else:
        ready = code == 0 and first.strip() == b"READY"
    if not ready:
        raise RuntimeError(f"set-up of {workload} failed (exit {code})")
    return elapsed


def run_worker(args, workload: str, env: dict, started: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(timeout=max(10.0, DEADLINE_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{workload} did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def measure(args, workload: str, spec: dict, started: float) -> tuple[dict, dict]:
    """(record, final line) for one workload."""
    env = child_env()
    # half the set-ups before the passes and half after, so that a slow
    # phase of a shared machine does not cover all of them
    setups = [] if args.trace else [time_setup(workload, args.seed, env)
                                    for _ in range(SETUP_REPEATS // 2)]
    result = run_worker(args, workload, env, started)
    if not args.trace:
        setups += [time_setup(workload, args.seed, env)
                   for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    walls = result["pass_walls"]
    stages = result["stages"]
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        table = dict(result["layers"], **stages, fail_ratio=failed / attempted)
        wanted = spec["per_layer"]
    else:
        table = {"setup_s": statistics.median(setups),
                 "pass_cal": statistics.median(result["pass_cal"]),
                 "peak_rss_mb": result["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": table[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "git_sha": git_sha(), "src_sha256": src_digest(), "env": result["env"],
        "samples": {"setup_s": len(setups), "pass_s": len(walls), "pass_cal": len(walls)},
        "setup_runs_s": setups, "pass_walls_s": walls, "task_times_s": result["task_times"],
        "stages": stages, "peak_rss_mb": result["peak_rss_mb"],
        "fail_ratio": failed / attempted, "problems": result["problems"],
        "paper_targets_info": result.get("info"),
        "pass_s": statistics.median(walls), "pass_cal_runs": result["pass_cal"],
        "task_cal": result["task_cal"], "calibration_s": result["calibration_s"],
    }
    if args.trace:
        record["layers"] = result["layers"]
        record["absent"] = result["absent"]
        record["computed"] = [m["name"] for m in spec["per_layer"]
                              if m["unit"] in ("count", "flop", "B")]
    record["layer_moves"] = LAYER_MOVES
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    return record, final


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.exists() else None
    names = [w["name"] for w in spec["workloads"]] if spec else []
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"] if spec else 20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "edmkit" / "__init__.py").is_file():
        print(f"error: no edmkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        if args.workload != "all":
            record, final = measure(args, args.workload, spec, started)
            for name, metric in final["metrics"].items():
                print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
            print(json.dumps({"record": record}))
            print(json.dumps(final))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in names:
            record, final = measure(args, workload, spec, time.monotonic())
            for name, metric in final["metrics"].items():
                print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
                combined["metrics"][f"{workload}.{name}"] = metric
            print(json.dumps({"record": record}))
            combined["correct"] &= final["correct"]
            combined["attempted"] += final["attempted"]
            combined["failed"] += final["failed"]
        print(json.dumps(combined))
        return 0
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
