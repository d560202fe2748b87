"""The benchmark's four workloads and their correctness checks.

Each workload builds its inputs from the seed in its constructor (the
set-up the benchmark times), then exposes the tasks of one pass.  A task
calls edmkit's public API, or runs one CLI command, and returns what the
program produced.  ``check`` runs once per run on the first pass's
outputs: it looks for non-finite values where one is defined and compares
a seeded sample of one-step predictions and cross-map estimates with the
references in ``oracles``.  Paper-target values are reported by ``info``
for information only; they are never gated.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles as O

DEBRIS_CSV = Path("src", "edmkit", "data", "leo_debris_1960_2022.csv")
TWO_INPUT = [("debris", 2), ("total", 2)]
COUPLED = [("x", 2), ("y", 2)]


def coupled_logistic(n: int, x0: float, y0: float, burn: int = 100):
    """Two-species logistic map in which x drives y (y does not drive x)."""
    x, y = x0, y0
    xs, ys = [], []
    for i in range(burn + n):
        x_next = x * (3.8 - 3.8 * x)
        y_next = y * (3.5 - 3.5 * y - 0.32 * x)
        x, y = min(max(x_next, 1e-9), 1.0), min(max(y_next, 1e-9), 1.0)
        if i >= burn:
            xs.append(x)
            ys.append(y)
    return xs, ys


def synthetic_pair(seed: int, n: int):
    """The coupled pair for a seed: the seed draws the initial conditions."""
    x0, y0 = np.random.default_rng(seed).uniform(0.1, 0.9, size=2)
    return coupled_logistic(n, float(x0), float(y0))


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _floor(_year, values):
    return {name: max(0.0, value) for name, value in values.items()}


def _teacher_forced(problems, label, method, observed, lags, tracks, steps, rng,
                    theta=0.0, self_condition=True, floor=False, tol=O.SMAP_TOL):
    """Check sampled steps of an iterative forecast against the reference.

    ``tracks`` maps every extended series to the program's forecast of it.
    Step s is recomputed from the observations plus the program's own
    steps before s, so one step is checked in isolation and rounding
    differences cannot be amplified along a chaotic trajectory.
    """
    names = list(tracks)
    n_obs = len(observed[names[0]])
    for s in sorted(rng.sample(range(steps), min(steps, 12))):
        extended = {name: list(observed[name]) + [float(v) for v in tracks[name][:s]]
                    for name in names}
        expected = O.next_values(method, extended, lags, names, n_obs, self_condition,
                                 theta, floor)
        for name in names:
            if not O.close(float(tracks[name][s]), expected[name], tol):
                problems.append(f"{label}: step {s} of {name} is {tracks[name][s]!r}, "
                                f"reference {expected[name]!r}")


class Paper:
    """The five acceptance reproductions on the bundled 63-year record."""

    name = "paper"

    def __init__(self, root: Path, seed: int) -> None:
        import edmkit as ek

        self.ek = ek
        self.root = root
        self.seed = seed
        self.data = ek.load_bundled()
        self.config, self.scenarios = ek.load_scenario_file(
            ek.bundled_path("scenarios/table2.cfg"))
        self.points = self.data.n_years - 3
        self.sizes = tuple(sorted({int(round(v)) for v in np.linspace(6, self.points, 20)}))
        self.pairs = (("debris", "total"), ("debris", "launched"), ("launched", "total"))

    def tasks(self):
        ek, data = self.ek, self.data
        spec = ek.EmbeddingSpec(tuple(TWO_INPUT))
        baseline = [s for s in self.scenarios if s.name == "pmd_25yr"]
        ccm = ek.CcmConfig(4, self.sizes, samples_per_size=20, seed=self.seed)
        tasks = [
            ("dimsearch", lambda: ek.embed_dimension_search(
                data, "debris", range(1, 11), train_end=1990, threads=1)),
            ("theta", lambda: ek.theta_search(data, "debris", spec, train_end=1990, threads=1)),
            ("baseline", lambda: ek.run_scenarios(data, baseline, self.config, threads=1)),
        ]
        for a, b in self.pairs:
            tasks.append((f"ccm_{a}_{b}", lambda a=a, b=b: ek.convergence_sweep(
                data[a], data[b], ccm, threads=1)))
        tasks.append(("table2", lambda: ek.run_scenarios(
            data, self.scenarios, self.config, threads=1)))
        return tasks

    def check(self, outputs) -> list[str]:
        rng = random.Random(self.seed)
        start, cols = O.read_columns(self.root / DEBRIS_CSV)
        problems: list[str] = []
        check_search(problems, "dimsearch", outputs["dimsearch"].rows, rng, cols, start,
                     lambda e: ("simplex", [("debris", int(e))], int(e), 0.0))
        check_search(problems, "theta", outputs["theta"].rows, rng, cols, start,
                     lambda theta: ("smap", TWO_INPUT, 4, float(theta)))

        trajectory = outputs["baseline"][0].trajectory
        if not _finite(trajectory.predicted):
            problems.append("baseline: non-finite forecast")
        total = self.ek.smap_iterative_forecast(
            self.data, "total", self.config.two_input_config(), self.config.horizon_end,
            adjust=_floor)
        _teacher_forced(problems, "baseline", "smap", cols, TWO_INPUT,
                        {"debris": trajectory.predicted, "total": total.predicted},
                        len(trajectory.predicted), rng, theta=self.config.theta, floor=True)

        for a, b in self.pairs:
            result = outputs[f"ccm_{a}_{b}"]
            check_sweep(problems, f"ccm_{a}_{b}", cols[a], cols[b], 4, self.points,
                        self.seed, result.a_from_b.library_sizes,
                        result.a_from_b.samples, result.b_from_a.samples, rng)

        for report in outputs["table2"]:
            values = [report.debris_2050, report.baseline_2050, report.pct_mitigated,
                      report.margin_of_error]
            if not (_finite(values) and _finite(report.trajectory.predicted)):
                problems.append(f"table2: non-finite result for {report.scenario.name}")
        return problems

    def stages(self, times, walls, outputs) -> dict:
        ccm = [sum(times[f"ccm_{a}_{b}"][i] for a, b in self.pairs)
               for i in range(len(times["table2"]))]
        return {
            "dimsearch_s": statistics.median(times["dimsearch"]),
            "theta_s": statistics.median(times["theta"]),
            "ccm_s": statistics.median(ccm),
            "table2_s": statistics.median(times["table2"]),
            "baseline_s": statistics.median(times["baseline"]),
        }

    def info(self, outputs) -> dict:
        return {
            "best_E": outputs["dimsearch"].best_dimension,
            "best_theta": outputs["theta"].best_theta,
            "baseline_2050": outputs["baseline"][0].debris_2050,
            "ccm_verdicts": {f"{a}~{b}": [d.verdict for d in outputs[f"ccm_{a}_{b}"].directions]
                             for a, b in self.pairs},
            "table2_pct_mitigated": {r.scenario.name: r.pct_mitigated
                                     for r in outputs["table2"]},
        }


def check_search(problems, label, rows, rng, cols, start, model):
    """Finite skill rows, and the rho of a sample of rows against the reference.

    ``model(parameter)`` gives (method, lags, exclusion radius, theta) for a
    row; the one-step protocol evaluates 1991 through the end of the record.
    """
    rows = list(rows)
    if not all(_finite(row[1:]) for row in rows):
        problems.append(f"{label}: non-finite skill row")
    first = 1991 - start
    indices = range(first, len(cols["debris"]))
    observed = [cols["debris"][i] for i in indices]
    for row in rng.sample(rows, 3):
        method, lags, radius, theta = model(row[0])
        predicted = [O.one_step(method, cols, lags, "debris", i, radius, theta) for i in indices]
        expected = O.pearson(observed, predicted)
        if not O.close(float(row[1]), expected, O.RHO_TOL):
            problems.append(f"{label}: rho at {row[0]} is {row[1]!r}, reference {expected!r}")


def check_sweep(problems, label, a, b, dimension, points, seed, sizes, a_from_b, b_from_a,
                rng):
    """Finite CCM samples, and a sample of cells against the reference.

    A cell's library is redrawn the documented way: an RNG seeded with
    (seed, size, sample index) choosing ``size`` distinct points.
    """
    if not (_finite(a_from_b) and _finite(b_from_a)):
        problems.append(f"{label}: non-finite cross-map skill")
    for i in sorted(rng.sample(range(len(sizes)), 4)):
        j = rng.randrange(np.shape(a_from_b)[1])
        size = int(sizes[i])
        library = np.random.default_rng((seed, size, j)).choice(points, size=size, replace=False)
        for cause, effect, got in ((a, b, a_from_b[i][j]), (b, a, b_from_a[i][j])):
            expected = O.cross_map_rho(cause, effect, dimension, library)
            if not O.close(float(got), expected, O.RHO_TOL):
                problems.append(f"{label}: cell ({size}, {j}) rho {got!r}, "
                                f"reference {expected!r}")


class LongSeries:
    """One-step skill and full-library cross mapping at N = 2000."""

    name = "longseries"
    n = 2000

    def __init__(self, root: Path, seed: int) -> None:
        import edmkit as ek

        self.ek = ek
        self.seed = seed
        self.xs, self.ys = synthetic_pair(seed, self.n)
        self.data = ek.Dataset((ek.TimeSeries("x", 0, self.xs), ek.TimeSeries("y", 0, self.ys)))

    def tasks(self):
        ek, data = self.ek, self.data
        train_end = self.n // 2 - 1
        simplex = ek.SimplexConfig(ek.EmbeddingSpec.univariate("x", 3))
        smap = ek.SMapConfig(ek.EmbeddingSpec(tuple(COUPLED)), 2.0)
        return [
            ("simplex", lambda: ek.skill_eval(data, "x", simplex, train_end)),
            ("smap", lambda: ek.smap_skill_eval(data, "x", smap, train_end)),
            ("xmap_x_from_y", lambda: ek.cross_map(data["x"], data["y"], 3)),
            ("xmap_y_from_x", lambda: ek.cross_map(data["y"], data["x"], 3)),
        ]

    def check(self, outputs) -> list[str]:
        rng = random.Random(self.seed)
        cols = {"x": self.xs, "y": self.ys}
        problems: list[str] = []
        for label, method, lags, radius, theta, tol in (
                ("simplex", "simplex", [("x", 3)], 3, 0.0, O.SIMPLEX_TOL),
                ("smap", "smap", COUPLED, 4, 2.0, O.SMAP_TOL)):
            result = outputs[label]
            if not (_finite(result.predicted) and _finite([result.rho, result.rmse])):
                problems.append(f"{label}: non-finite prediction or skill")
            for i in sorted(rng.sample(range(len(result.times)), 16)):
                year = int(result.times[i])
                expected = O.one_step(method, cols, lags, "x", year, radius, theta)
                if not O.close(float(result.predicted[i]), expected, tol):
                    problems.append(f"{label}: prediction for {year} is "
                                    f"{result.predicted[i]!r}, reference {expected!r}")
        for label, cause, effect in (("xmap_x_from_y", self.xs, self.ys),
                                     ("xmap_y_from_x", self.ys, self.xs)):
            expected = O.cross_map_rho(cause, effect, 3)
            if not O.close(float(outputs[label]), expected, O.RHO_TOL):
                problems.append(f"{label}: rho {outputs[label]!r}, reference {expected!r}")
        return problems

    def predictions(self, outputs) -> int:
        """One-step forecasts plus cross-map estimates made in one pass."""
        return (len(outputs["simplex"].predicted) + len(outputs["smap"].predicted)
                + 2 * (self.n - 2))

    def stages(self, times, walls, outputs) -> dict:
        return {"predictions_per_s": self.predictions(outputs) / statistics.median(walls)}

    def info(self, outputs) -> dict:
        return {"simplex_rho": outputs["simplex"].rho, "smap_rho": outputs["smap"].rho,
                "xmap_x_from_y": outputs["xmap_x_from_y"],
                "xmap_y_from_x": outputs["xmap_y_from_x"]}


class Horizon:
    """Iterative forecasts 600 steps past a 300-point synthetic record."""

    name = "horizon"
    n = 300
    steps = 600

    def __init__(self, root: Path, seed: int) -> None:
        import edmkit as ek

        self.ek = ek
        self.seed = seed
        self.xs, self.ys = synthetic_pair(seed, self.n)
        self.data = ek.Dataset((ek.TimeSeries("x", 0, self.xs), ek.TimeSeries("y", 0, self.ys)))
        self.horizon_end = self.n - 1 + self.steps

    def _forecasts(self, target: str):
        ek, data, end = self.ek, self.data, self.horizon_end
        spec = ek.EmbeddingSpec(tuple(COUPLED))
        smap = ek.SMapConfig(spec, 2.0)
        return [
            ("smap_growing", lambda: ek.smap_iterative_forecast(data, target, smap, end)),
            ("smap_fixed", lambda: ek.smap_iterative_forecast(
                data, target, smap, end, self_condition=False)),
            ("simplex", lambda: ek.iterative_forecast(data, target, ek.SimplexConfig(spec), end)),
        ]

    def tasks(self):
        return self._forecasts("x")

    def check(self, outputs) -> list[str]:
        rng = random.Random(self.seed)
        observed = {"x": self.xs, "y": self.ys}
        problems: list[str] = []
        # the forecasts of y advance the same joint state, so they supply the
        # other half of the teacher-forced history
        for label, companion in self._forecasts("y"):
            x_track = outputs[label].predicted
            if not _finite(x_track):
                problems.append(f"{label}: non-finite forecast")
                continue
            method = "simplex" if label == "simplex" else "smap"
            _teacher_forced(problems, label, method, observed, COUPLED,
                            {"x": x_track, "y": companion().predicted}, self.steps, rng,
                            theta=2.0, self_condition=label != "smap_fixed",
                            tol=O.SIMPLEX_TOL if method == "simplex" else O.SMAP_TOL)
        return problems

    def stages(self, times, walls, outputs) -> dict:
        return {"steps_per_s": 3 * self.steps / statistics.median(walls)}

    def info(self, outputs) -> dict:
        return {label: float(result.predicted[-1]) for label, result in outputs.items()}


class Cli:
    """The README commands as subprocesses on the bundled data."""

    name = "cli"
    commands = ("version", "embed_search", "forecast", "ccm", "simulate")

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.work = root / ".bench_work" / "cli"
        self.trace_dir = root / ".bench_work" / "cli_trace"
        self.tracer = None  # set by the worker for traced passes
        self.startup: list[float] = []
        self.argv = {
            "version": ["version"],
            "embed_search": ["embed-search", "--threads", "2"],
            "forecast": ["forecast", "--method", "smap", "--columns", "debris,total",
                         "--e", "4", "--theta", "7", "--to", "2050", "--svg", "forecast.svg",
                         "--threads", "2"],
            "ccm": ["ccm", "--a", "debris", "--b", "total", "--e", "4",
                    "--seed", str(seed), "--threads", "2"],
            "simulate": ["simulate", "--threads", "2"],
        }

    def begin_pass(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def _run(self, command: str) -> dict:
        before = set(os.listdir(self.work))
        env = dict(os.environ)
        if self.tracer is None:
            argv = [sys.executable, "-m", "edmkit.cli", *self.argv[command]]
        else:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            dump = self.trace_dir / f"{command}.json"
            env["PERFBENCH_TRACE_OUT"] = str(dump)
            env["PERFBENCH_T0"] = repr(time.monotonic())
            argv = [sys.executable, str(Path(__file__).with_name("cli_entry.py")),
                    *self.argv[command]]
        completed = subprocess.run(argv, cwd=self.work, env=env, capture_output=True,
                                   timeout=150)
        if completed.returncode != 0:
            raise RuntimeError(f"{command} exited {completed.returncode}: "
                               f"{completed.stderr.decode(errors='replace')[-300:]}")
        if self.tracer is not None:
            self.startup.append(self.tracer.absorb(json.loads(dump.read_text())))
        files = {name: (self.work / name).read_bytes()
                 for name in sorted(set(os.listdir(self.work)) - before)}
        return {"stdout": completed.stdout, "files": files}

    def tasks(self):
        return [(command, lambda command=command: self._run(command))
                for command in self.commands]

    def check(self, outputs) -> list[str]:
        rng = random.Random(self.seed)
        start, cols = O.read_columns(self.root / DEBRIS_CSV)
        problems: list[str] = []
        if not outputs["version"]["stdout"].startswith(b"edmkit "):
            problems.append("version: unexpected output")

        table = _csv_rows(outputs["embed_search"]["files"]["embed_search.csv"])
        rows = [(int(r["E"]), _number(r["rho"]), _number(r["rmse"])) for r in table]
        check_search(problems, "embed_search", rows, rng, cols, start,
                     lambda e: ("simplex", [("debris", int(e))], int(e), 0.0))

        forecast = _csv_rows(outputs["forecast"]["files"]["forecast.csv"])
        if not _finite([_number(r["predicted"]) for r in forecast]):
            problems.append("forecast: non-finite prediction")
        in_sample = [r for r in forecast if r["observed"]]
        for row in rng.sample(in_sample, 6):
            index = int(row["year"]) - start
            expected = O.one_step("smap", cols, TWO_INPUT, "debris", index, 4, 7.0)
            if not O.close(_number(row["predicted"]), expected, O.SMAP_TOL):
                problems.append(f"forecast: {row['year']} is {row['predicted']}, "
                                f"reference {expected!r}")

        cells = _csv_rows(outputs["ccm"]["files"]["ccm.csv"])
        sizes = sorted({int(r["library_size"]) for r in cells})
        samples = 1 + max(int(r["sample"]) for r in cells)
        grid = {label: np.full((len(sizes), samples), np.nan)
                for label in ("debris|M(total)", "total|M(debris)")}
        for r in cells:
            grid[r["direction"]][sizes.index(int(r["library_size"])), int(r["sample"])] = \
                _number(r["rho"])
        check_sweep(problems, "ccm", cols["debris"], cols["total"], 4, len(cols["debris"]) - 3,
                    self.seed, sizes, grid["debris|M(total)"], grid["total|M(debris)"], rng)

        report = _csv_rows(outputs["simulate"]["files"]["mitigation_report.csv"])
        numbers = [_number(r[key]) for r in report
                   for key in ("debris_2050", "margin_of_error", "pct_mitigated")]
        if not numbers or not _finite(numbers):
            problems.append("simulate: non-finite mitigation report")
        return problems

    def stages(self, times, walls, outputs) -> dict:
        return {f"cli_{command}_s": statistics.median(times[command]) for command in self.commands
                if command != "version"}

    def written(self, outputs) -> tuple[int, int]:
        """Bytes and files the commands of one pass wrote."""
        files = [blob for out in outputs.values() for blob in out["files"].values()]
        return sum(len(blob) for blob in files), len(files)

    def info(self, outputs) -> dict:
        return {command: out["stdout"].decode(errors="replace").strip()
                for command, out in outputs.items()}


def _csv_rows(blob: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(blob.decode("utf-8"))))


def _number(text: str) -> float:
    return float(text) if text else math.nan


WORKLOADS = {w.name: w for w in (Paper, LongSeries, Horizon, Cli)}
