"""Command line front end.

Subcommands: embed-search, forecast, ccm, simulate, version.  Every run is
deterministic given its flags and seed; each command writes its outputs plus
a manifest JSON recording the resolved parameters, input digests, seed, and
tool version, so identical manifests imply bit-identical outputs.  Every
command runs single-threaded: ``--threads`` is accepted and ignored, so it
changes neither results nor wall time, and is excluded from the manifest.
Each command imports numpy and the edmkit modules it runs when it starts, so
``version`` loads neither; keep edmkit and numpy imports off this module's top.

Exit codes: 0 success; 1 computation error, for example a forecast library
with too few neighbours; 2 usage or input error, which includes a cross-map
grid with too few neighbours, and on every command an embedding the record
cannot support or a query state outside it (``EmbeddingError`` is a
``ValueError``).
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import math
import os
import sys
from pathlib import Path
from typing import Callable

from . import __version__

__all__ = ["main"]

#: Parsed options the manifest leaves out: the subcommand, the output
#: locations, ``--threads`` (ignored), ``--seed`` (the manifest's own field)
#: and ``--no-band`` (recorded as ``band``).  Every other option is recorded.
_UNRECORDED = frozenset({"command", "func", "threads", "seed", "out", "outdir", "svg", "no_band"})


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _file(path) -> Path:
    """``path`` as a Path; an existing folder there is named before anything is written,
    and before ``Path("").with_suffix`` could fail with a message naming no folder."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    return path


def _write_outputs(args: argparse.Namespace, writers: list[tuple[Path, Callable[[Path], None]]],
                   inputs: list[Path], **resolved) -> None:
    """Write each output with its writer, then the manifest beside the first output.

    The manifest records every parsed option outside ``_UNRECORDED``, the
    first input as ``data``, the values the command ``resolved``, each
    input's digest and the seed of a command that takes one.  Before the
    first write every output path and the manifest's passes ``_file``,
    resolves to a file no other one names, and gets its folder, so a bad or
    shared output path leaves no file behind.
    """
    from .timeseries import _write_json
    outputs = [path for path, _ in writers]
    manifest_path = outputs[0].with_suffix(".manifest.json")
    seen: set[Path] = set()
    for path in (*outputs, manifest_path):
        where = _file(path).resolve()
        if where in seen:
            raise ValueError(f"two outputs of {args.command} share the path {path}")
        seen.add(where)
    for path in outputs:
        path.parent.mkdir(parents=True, exist_ok=True)
    for path, write in writers:
        write(path)
    recorded = {name: value for name, value in vars(args).items() if name not in _UNRECORDED}
    _write_json(manifest_path, {
        "command": args.command,
        "parameters": {**recorded, "data": str(inputs[0]), **resolved},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "outputs": [str(p) for p in outputs],
    })


def _load(arg: str | None) -> tuple[Path, Dataset]:
    """The data path (the bundled record when ``arg`` is None) and its dataset."""
    from .bundled import DEFAULT_DATASET, bundled_path
    from .timeseries import load_csv
    path = bundled_path(DEFAULT_DATASET) if arg is None else Path(arg)
    return path, load_csv(path)


def _grid(lo: int, hi: int, count: int) -> list[int]:
    """Distinct integers nearest to ``count`` evenly spaced points on lo..hi."""
    import numpy as np
    return sorted({int(round(v)) for v in np.linspace(lo, hi, count)})


def _parse_integers(option: str, text: str, form: str, expand) -> list[int]:
    """Parse a comma list into sorted distinct integers, or the colon form
    named by ``form``, whose integer fields ``expand`` turns into the list."""
    try:
        if ":" in text:
            return expand(*(int(part) for part in text.split(":")))
        return sorted({int(part) for part in text.split(",") if part.strip()})
    except (TypeError, ValueError, OverflowError):  # TypeError: the wrong number of fields
        raise ValueError(
            f"{option} {text!r} must be {form} or a comma list of integers"
        ) from None


def _allocate_lags(columns: list[str], dimension: int,
                   lags_arg: str | None) -> tuple[tuple[str, int], ...]:
    """Split the total dimension across columns, first columns filling up first."""
    if lags_arg:
        allocation = []
        for part in lags_arg.split(","):
            name, _, count = part.partition(":")
            try:
                allocation.append((name.strip(), int(count)))
            except ValueError:
                raise ValueError(f"bad --lags entry {part!r}; expected name:count") from None
        names = [n for n, _ in allocation]
        if sorted(names) != sorted(columns):
            raise ValueError(f"--lags columns {names} do not match --columns {columns}")
        total = sum(c for _, c in allocation)
        if total != dimension:
            raise ValueError(f"--lags total {total} does not match --e {dimension}")
        return tuple(allocation)
    m = len(columns)
    if dimension < m:
        raise ValueError(f"dimension {dimension} cannot cover {m} columns")
    base, extra = divmod(dimension, m)
    return tuple((name, base + (1 if i < extra else 0)) for i, name in enumerate(columns))


def _cmd_version(_args) -> int:
    print(f"edmkit {__version__}")
    return 0


def _cmd_embed_search(args) -> int:
    from .simplex import embed_dimension_search
    from .timeseries import _jsonable, _write_json
    data_path, data = _load(args.data)
    dimensions = _parse_integers("--e", args.e, "a range 'lo:hi'",
                                 lambda lo, hi: list(range(lo, hi + 1)))
    result = embed_dimension_search(
        data, args.target, dimensions,
        train_end=args.train_end, tau=args.tau,
        eval_start=args.eval_start, eval_end=args.eval_end,
    )
    out = _file(args.out)
    best_row = next(r for r in result.rows if r[0] == result.best_dimension)
    summary = {"best_E": result.best_dimension, "best_rho": _jsonable(best_row[1]),
               "best_rmse": _jsonable(best_row[2])}
    _write_outputs(args, [(out, result.to_csv), (out.with_suffix(".summary.json"),
                                                 lambda path: _write_json(path, summary))],
                   [data_path])
    print(f"best E = {result.best_dimension} (rho = {best_row[1]:.4f}); table: {out}")
    return 0


def _combine_results(parts: list[ForecastResult]) -> ForecastResult:
    """The parts as one result in their order, scored as the first part is.

    The first part is the scored one-step evaluation, or else the unscored
    extrapolation.  A part without observations (an extrapolation) reads NaN
    there; coefficients are kept only when every part has them.
    """
    import numpy as np
    from .forecast import ForecastResult

    def joined(name: str) -> np.ndarray:
        return np.concatenate([np.full(p.times.shape, np.nan) if getattr(p, name) is None
                               else getattr(p, name) for p in parts])

    with_coefficients = all(p.coefficients is not None for p in parts)
    return ForecastResult(
        target=parts[0].target,
        times=joined("times"),
        predicted=joined("predicted"),
        observed=joined("observed"),
        rho=parts[0].rho,
        rmse=parts[0].rmse,
        band_halfwidth=joined("band_halfwidth"),
        step_variance=joined("step_variance"),
        coefficients=joined("coefficients") if with_coefficients else None,
        coefficient_labels=parts[0].coefficient_labels if with_coefficients else None,
    )


def _write_svg(path: Path, result: ForecastResult, with_band: bool) -> None:
    """Minimal static line chart: observed and predicted, optional band."""
    import numpy as np
    width, height, pad = 760, 420, 48
    times = result.times.astype(float)
    series = [result.predicted, result.observed]
    if with_band:
        series.append(result.predicted - result.band_halfwidth)
        series.append(result.predicted + result.band_halfwidth)
    stacked = np.concatenate(series)
    stacked = stacked[~np.isnan(stacked)]
    lo, hi = float(stacked.min()), float(stacked.max())
    if hi == lo:
        hi = lo + 1.0

    def sx(t: float) -> float:
        return pad + (t - times[0]) / max(times[-1] - times[0], 1.0) * (width - 2 * pad)

    def sy(v: float) -> float:
        return height - pad - (v - lo) / (hi - lo) * (height - 2 * pad)

    def polyline(values: np.ndarray, colour: str, dash: str = "") -> str:
        points = " ".join(
            f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(times, values) if not math.isnan(v)
        )
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline fill="none" stroke="{colour}" stroke-width="1.5"{extra} '
                f'points="{points}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if with_band:
        kept = ~np.isnan(result.predicted)
        years, mid, half = times[kept], result.predicted[kept], result.band_halfwidth[kept]
        # the upper edge forwards in time, then the lower edge back
        ring = zip(np.concatenate([years, years[::-1]]),
                   np.concatenate([mid + half, (mid - half)[::-1]]))
        points = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in ring)
        parts.append(f'<polygon fill="#cfe2f3" stroke="none" points="{points}"/>')
    parts.append(polyline(result.predicted, "#1155cc"))
    parts.append(polyline(result.observed, "#333333", dash="4 3"))
    parts.append(
        f'<text x="{pad}" y="{pad - 16}" font-family="sans-serif" font-size="13">'
        f"{result.target}: observed (dashed) and predicted</text>"
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def _cmd_forecast(args) -> int:
    from .embedding import EmbeddingSpec
    from .forecast import iterative_forecast, skill_eval
    data_path, data = _load(args.data)
    columns = [part.strip() for part in args.columns.split(",") if part.strip()]
    if not columns:
        raise ValueError("--columns must name at least one series")
    target = columns[0]
    allocation = _allocate_lags(columns, args.e, args.lags)
    spec = EmbeddingSpec(allocation, tau=args.tau, exclusion_radius=args.exclusion_radius)
    self_condition = not args.fixed_library

    if args.method == "smap":
        from .smap import SMapConfig
        if args.theta is None:
            raise ValueError("--method smap needs --theta")
        cfg = SMapConfig(spec, args.theta, ridge=args.ridge)
    else:
        from .simplex import SimplexConfig
        cfg = SimplexConfig(spec, k=args.knn)
    parts = []
    in_sample_end = min(args.to, data.end_year)
    if in_sample_end > args.train_end:
        parts.append(skill_eval(data, target, cfg, args.train_end, eval_end=in_sample_end))
    if args.to > data.end_year:
        parts.append(iterative_forecast(data, target, cfg, args.to, self_condition=self_condition))
    if not parts:
        raise ValueError(f"nothing to forecast: horizon {args.to} inside train range")
    combined = _combine_results(parts)

    out = _file(args.out)
    writers = [(out, combined.to_csv), (out.with_suffix(".json"), combined.to_json)]
    if combined.coefficients is not None:  # S-map only
        from .smap import coefficients_to_csv
        writers.append((out.with_name(out.stem + "_coefficients.csv"),
                        lambda path: coefficients_to_csv(combined, path)))
    if args.svg:
        writers.append((Path(args.svg),
                        lambda path: _write_svg(path, combined, with_band=not args.no_band)))
    _write_outputs(args, writers, [data_path], band=not args.no_band)
    rho_text = "undefined" if math.isnan(combined.rho) else f"{combined.rho:.4f}"
    print(f"{args.method} forecast of {target!r} to {args.to}: rho = {rho_text}; wrote {out}")
    return 0


def _cmd_ccm(args) -> int:
    from .ccm import CcmConfig, convergence_sweep
    from .embedding import EmbeddingSpec, _embeddable
    data_path, data = _load(args.data)
    series_a = data[args.a]
    series_b = data[args.b]
    if args.sizes is None:
        # the default grid spans e + 2 .. n_points; name a bad --e or --tau
        # before numpy is handed an endpoint it cannot hold
        n_points = _embeddable(data.n_years, EmbeddingSpec.univariate(args.b, args.e, args.tau))
        # leave-one-out under radius r drops up to 2r + 1 library points, so the
        # smallest default library, drawn without replacement, keeps e + 1 for every query
        smallest = min(args.e + 2 + 2 * max(args.exclusion_radius, 0), n_points)
        sizes = _grid(smallest, n_points, 20)
    else:
        sizes = _parse_integers("--sizes", args.sizes, "a grid 'lo:hi:count'", _grid)
    cfg = CcmConfig(
        dimension=args.e,
        library_sizes=tuple(sizes),
        tau=args.tau,
        samples_per_size=args.samples,
        seed=args.seed,
        replacement=args.replacement,
        method=args.method,
        exclusion_radius=args.exclusion_radius,
    )
    result = convergence_sweep(series_a, series_b, cfg)
    stem = _file(args.out)
    curves_path = stem.with_suffix(".csv") if stem.suffix == "" else stem
    _write_outputs(args, [(curves_path, result.to_csv),
                          (curves_path.with_suffix(".summary.json"), result.to_json)],
                   [data_path], sizes=sizes)
    for direction in result.directions:
        final = direction.final_mean_rho
        final_text = "undefined" if math.isnan(final) else f"{final:.4f}"
        print(f"{direction.label}: final mean rho = {final_text}, verdict = {direction.verdict}")
    if result.insufficient_grid:
        print("insufficient grid: convergence needs at least two library sizes")
    return 0


def _cmd_simulate(args) -> int:
    from .bundled import bundled_path
    from .scenario import load_scenario_file, run_scenarios
    from .timeseries import _write_csv, _write_json
    scenario_arg = args.scenarios
    if scenario_arg is None:
        scenario_path = bundled_path("scenarios/table2.cfg")
    else:
        scenario_path = Path(scenario_arg)
        if not scenario_path.exists():
            fallback = bundled_path(scenario_arg)
            if fallback.exists():
                scenario_path = fallback
    config, scenarios = load_scenario_file(scenario_path)
    data_path, data = _load(args.data)
    reports = run_scenarios(data, scenarios, config)

    outdir = Path(args.outdir)
    rows = [[r.scenario.name, r.scenario.kind, repr(r.debris_2050), repr(r.margin_of_error),
             repr(r.pct_mitigated)] for r in reports]
    header = ["scenario", "kind", "debris_2050", "margin_of_error", "pct_mitigated"]
    _write_outputs(args, [(outdir / "mitigation_report.csv",
                           lambda path: _write_csv(path, header, rows)),
                          (outdir / "mitigation_report.json",
                           lambda path: _write_json(path, [r.as_dict() for r in reports])),
                          *((outdir / f"trajectory_{r.scenario.name}.csv", r.trajectory.to_csv)
                            for r in reports)],
                   [data_path, scenario_path], scenarios=str(scenario_path))
    for report in reports:
        print(f"{report.scenario.name}: 2050 debris = {report.debris_2050:.0f}, "
              f"mitigated = {report.pct_mitigated:.2f}%")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edmkit",
        description="Empirical dynamic modeling: embeddings, forecasts, causality, policy runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--data", default=None,
                       help="input CSV (default: bundled yearly dataset)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; every command runs single-threaded")

    p = sub.add_parser("embed-search", help="skill table over embedding dimensions")
    add_common(p)
    p.add_argument("--target", default="debris")
    p.add_argument("--e", default="1:10", help="dimension range 'lo:hi' or comma list")
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--train-end", type=int, default=1990, dest="train_end")
    p.add_argument("--eval-start", type=int, default=None, dest="eval_start")
    p.add_argument("--eval-end", type=int, default=None, dest="eval_end")
    p.add_argument("--out", default="embed_search.csv")
    p.set_defaults(func=_cmd_embed_search)

    p = sub.add_parser("forecast", help="one-step evaluation plus extrapolation")
    add_common(p)
    p.add_argument("--method", choices=("simplex", "smap"), required=True)
    p.add_argument("--columns", default="debris",
                   help="comma list of input series; first one is the forecast target")
    p.add_argument("--e", type=int, required=True, help="total embedding dimension")
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--theta", type=float, default=None, help="S-map localisation")
    p.add_argument("--knn", type=int, default=None, help="simplex neighbour count")
    p.add_argument("--lags", default=None, help="per-column lag counts, e.g. debris:2,total:2")
    p.add_argument("--train-end", type=int, default=1990, dest="train_end")
    p.add_argument("--to", type=int, required=True, help="last forecast year")
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--exclusion-radius", type=int, default=None, dest="exclusion_radius")
    p.add_argument("--no-band", action="store_true", dest="no_band")
    p.add_argument("--fixed-library", action="store_true", dest="fixed_library",
                   help="never append predictions to the library")
    p.add_argument("--svg", default=None, help="also write a static SVG chart here")
    p.add_argument("--out", default="forecast.csv")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("ccm", help="convergent cross mapping between two series")
    add_common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--e", type=int, default=4)
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--sizes", default=None, help="'lo:hi:count' or comma list")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replacement", action="store_true")
    p.add_argument("--method", choices=("random", "contiguous"), default="random")
    p.add_argument("--exclusion-radius", type=int, default=0, dest="exclusion_radius")
    p.add_argument("--out", default="ccm")
    p.set_defaults(func=_cmd_ccm)

    p = sub.add_parser("simulate", help="run mitigation-policy scenarios")
    add_common(p)
    p.add_argument("--scenarios", default=None,
                   help="scenario config path (default: bundled table2.cfg)")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("version", help="print the tool version")
    p.set_defaults(func=_cmd_version)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as error:
        # an OSError's first argument is its errno; its text names the path
        message = error.args[0] if error.args and not isinstance(error, OSError) else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
