import argparse
import contextlib
import errno
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmkit import cli
from edmkit.bundled import DEFAULT_DATASET, bundled_path, load_bundled
from edmkit.cli import main
from edmkit.timeseries import load_csv


@pytest.fixture()
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "toy.csv"
    years = range(1960, 2023)
    debris, total, launched = [], [], []
    x, i = 100.0, 50.0
    for n, year in enumerate(years):
        x += 120.0 + 40.0 * math.sin(2.0 * math.pi * n / 9.0) + 4.0 * rng.normal()
        i += 30.0 + 2.0 * rng.normal()
        debris.append(round(x))
        total.append(round(x + i))
        launched.append(round(80.0 + 10.0 * math.sin(n / 3.0) + n))
    lines = ["year,debris,launched,total"]
    for year, d, l, t in zip(years, debris, launched, total):
        lines.append(f"{year},{d},{l},{t}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_version_exits_zero(capsys):
    assert main(["version"]) == 0
    assert "edmkit" in capsys.readouterr().out


def test_help_exits_zero():
    for sub in ("embed-search", "forecast", "ccm", "simulate"):
        with pytest.raises(SystemExit) as excinfo:
            main([sub, "--help"])
        assert excinfo.value.code == 0


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["embed-search", "--bogus"])
    assert excinfo.value.code == 2


def test_missing_file_exits_two(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["embed-search", "--data", str(tmp_path / "nope.csv"),
                 "--out", str(out)])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_embed_search_outputs(data_csv, tmp_path):
    out = tmp_path / "table.csv"
    code = main(["embed-search", "--data", str(data_csv), "--target", "debris",
                 "--e", "1:6", "--train-end", "1990", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "E,rho,rmse"
    assert len(lines) == 7
    summary = json.loads(out.with_suffix(".summary.json").read_text(encoding="utf-8"))
    assert 1 <= summary["best_E"] <= 6
    manifest = json.loads(out.with_suffix(".manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "embed-search"
    assert str(data_csv) in manifest["inputs"]
    assert len(manifest["inputs"][str(data_csv)]) == 64


def test_embed_search_singleton_range(data_csv, tmp_path):
    out = tmp_path / "one.csv"
    assert main(["embed-search", "--data", str(data_csv), "--e", "3:3",
                 "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 2


@pytest.mark.parametrize("value", ["a:b", "1:2:3", "2,x"])
def test_embed_search_bad_dimensions_name_the_option(data_csv, tmp_path, capsys, value):
    out = tmp_path / "bad.csv"
    assert main(["embed-search", "--data", str(data_csv), "--e", value,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --e {value!r} must be a range 'lo:hi' or a comma list of integers\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["ccm", "--a", "debris", "--b", "total", "--sizes", "a,b"],
     "--sizes 'a,b' must be a grid 'lo:hi:count' or a comma list of integers"),
    (["ccm", "--a", "debris", "--b", "total", "--sizes", "5:20:x"],
     "--sizes '5:20:x' must be a grid 'lo:hi:count' or a comma list of integers"),
    (["forecast", "--method", "simplex", "--columns", "debris,total", "--e", "2",
      "--lags", "debris:x,total:1", "--to", "2035"],
     "bad --lags entry 'debris:x'; expected name:count"),
    (["forecast", "--method", "smap", "--theta", "2", "--columns", "debris,total", "--e", "3",
      "--lags", "debris:2,launched:1", "--to", "2030"],
     "--lags columns ['debris', 'launched'] do not match --columns ['debris', 'total']"),
    (["forecast", "--method", "smap", "--theta", "2", "--columns", "debris,total", "--e", "3",
      "--lags", "debris:2,total:2", "--to", "2030"],
     "--lags total 4 does not match --e 3"),
    (["forecast", "--method", "simplex", "--columns", " , ", "--e", "3", "--to", "2030"],
     "--columns must name at least one series"),
    (["forecast", "--method", "simplex", "--e", "3", "--to", "1985"],
     "nothing to forecast: horizon 1985 inside train range"),
])
def test_bad_integer_lists_name_the_option(data_csv, tmp_path, capsys, argv, message):
    out = tmp_path / "bad"
    assert main([*argv, "--data", str(data_csv), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("bad*"))


def test_forecast_simplex_and_smap(data_csv, tmp_path):
    for method, extra in (("simplex", []), ("smap", ["--theta", "2"])):
        out = tmp_path / f"fc_{method}.csv"
        code = main(["forecast", "--method", method, "--data", str(data_csv),
                     "--columns", "debris,total", "--e", "4", "--to", "2035",
                     "--out", str(out), *extra])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "year,predicted,observed,band_lo,band_hi"
        years = [int(line.split(",")[0]) for line in lines[1:]]
        assert years[0] == 1991 and years[-1] == 2035
        assert out.with_suffix(".json").exists()
    assert (tmp_path / "fc_smap_coefficients.csv").exists()


def test_forecast_reads_data_with_a_byte_order_mark(data_csv, tmp_path):
    # a CSV saved as Excel's "CSV UTF-8" used to exit 2 on its header
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + data_csv.read_bytes())
    outputs = []
    for path in (data_csv, marked):
        out = tmp_path / f"fc_{path.stem}.csv"
        assert main(["forecast", "--method", "simplex", "--data", str(path),
                     "--columns", "debris", "--e", "3", "--to", "2030", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_forecast_lags_set_each_column_lag_count(data_csv, tmp_path):
    out = tmp_path / "lags.csv"
    assert main(["forecast", "--method", "smap", "--data", str(data_csv), "--columns",
                 "debris,total", "--e", "3", "--lags", "debris:2,total:1", "--theta", "2",
                 "--to", "2030", "--out", str(out)]) == 0
    coefficients = (tmp_path / "lags_coefficients.csv").read_text(encoding="utf-8")
    assert coefficients.splitlines()[0] == "year,intercept,debris(t),debris(t-1),total(t)"


def test_forecast_horizon_inside_data(data_csv, tmp_path):
    out = tmp_path / "insample.csv"
    code = main(["forecast", "--method", "simplex", "--data", str(data_csv),
                 "--columns", "debris", "--e", "3", "--to", "2020",
                 "--out", str(out)])
    assert code == 0
    years = [int(line.split(",")[0])
             for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert years[-1] == 2020  # no extrapolation rows


def test_forecast_smap_requires_theta(data_csv, tmp_path, capsys):
    code = main(["forecast", "--method", "smap", "--data", str(data_csv),
                 "--columns", "debris", "--e", "3", "--to", "2030",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "theta" in capsys.readouterr().err


def test_forecast_svg(data_csv, tmp_path):
    out = tmp_path / "fc.csv"
    svg = tmp_path / "fc.svg"
    code = main(["forecast", "--method", "simplex", "--data", str(data_csv),
                 "--columns", "debris", "--e", "3", "--to", "2030",
                 "--out", str(out), "--svg", str(svg)])
    assert code == 0
    assert svg.read_text(encoding="utf-8").startswith("<svg")


def test_forecast_svg_into_a_missing_directory(data_csv, tmp_path):
    # --out made its own folder but --svg did not, so the command ended with
    # exit 2 after writing the CSV and JSON and before the manifest
    out = tmp_path / "sub" / "x.csv"
    svg = tmp_path / "sub" / "charts" / "x.svg"
    assert main(["forecast", "--method", "simplex", "--data", str(data_csv), "--e", "3",
                 "--train-end", "2022", "--to", "2030", "--svg", str(svg),
                 "--out", str(out)]) == 0
    assert svg.stat().st_size > 0
    manifest = json.loads(out.with_suffix(".manifest.json").read_text(encoding="utf-8"))
    assert str(svg) in manifest["outputs"]


FORECAST = ["forecast", "--method", "simplex", "--e", "3", "--to", "2030", "--out", "p.csv"]


@pytest.mark.parametrize("argv, folder", [
    (FORECAST + ["--svg", "adir"], "adir"),
    (FORECAST, "p.json"),
    (FORECAST, "p.manifest.json"),
    (["forecast", "--method", "smap", "--theta", "2", "--e", "3", "--to", "2030",
      "--out", "p.csv"], "p_coefficients.csv"),
    (["simulate", "--outdir", "r"], "r/mitigation_report.json"),
    (["simulate", "--outdir", "r"], "r/trajectory_adr_3000.csv"),
    (["embed-search", "--e", "1:3", "--out", "e.csv"], "e.summary.json"),
    (["ccm", "--a", "debris", "--b", "total", "--sizes", "8,20", "--samples", "2",
      "--out", "c"], "c.manifest.json"),
])
def test_an_output_path_that_is_a_folder_stops_before_any_write(argv, folder, tmp_path,
                                                                monkeypatch, capsys):
    # forecast --svg <folder> used to fail after writing the CSV and JSON,
    # and simulate after writing the CSV, leaving files no manifest records
    (tmp_path / folder).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2  # on the bundled record
    message = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{folder}'"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv, shared", [
    (["forecast", "--method", "simplex", "--columns", "debris", "--e", "3", "--to", "2030",
      "--out", "f.json"], "f.json"),  # the CSV, then the JSON
    (FORECAST[:-1] + ["g.csv", "--svg", "g.manifest.json"], "g.manifest.json"),
])
def test_two_outputs_sharing_a_path_stop_before_any_write(argv, shared, tmp_path,
                                                          monkeypatch, capsys):
    # the later write replaced the earlier one, and the manifest listed the path twice
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2  # on the bundled record
    assert capsys.readouterr().err == f"error: two outputs of forecast share the path {shared}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["x/../../escaped", "x\\..\\..\\escaped", "/tmp/abs"])
def test_a_scenario_name_holding_a_path_separator_exits_two(name, data_csv, tmp_path,
                                                            monkeypatch, capsys):
    # the name reached trajectory_<name>.csv, so [x/../../escaped] with
    # --outdir out/inner wrote out/escaped.csv
    cfg = tmp_path / "escape.cfg"
    cfg.write_text(f"# one scenario\n[{name}]\nkind = adr\nadr_per_year = 100\n",
                   encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--data", str(data_csv), "--scenarios", str(cfg),
                 "--outdir", "out/inner"]) == 2
    message = f"{cfg}: line 2: section name {name!r} must not contain '/' or '\\'"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_a_repeated_scenario_key_exits_two(data_csv, tmp_path, capsys):
    cfg = tmp_path / "repeated.cfg"
    cfg.write_text("[adr]\nkind = adr\nadr_per_year = 100\nadr_per_year = 300\n",
                   encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    assert main(["simulate", "--data", str(data_csv), "--scenarios", str(cfg),
                 "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 4: repeated key 'adr_per_year'\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_ccm_outputs_and_determinism(data_csv, tmp_path):
    out_a = tmp_path / "ccm_a"
    out_b = tmp_path / "ccm_b"
    argv = ["ccm", "--data", str(data_csv), "--a", "debris", "--b", "total",
            "--e", "3", "--samples", "5", "--seed", "7",
            "--sizes", "10,25,45"]
    assert main([*argv, "--out", str(out_a)]) == 0
    assert main([*argv, "--out", str(out_b), "--threads", "8"]) == 0
    csv_a = (tmp_path / "ccm_a.csv").read_bytes()
    csv_b = (tmp_path / "ccm_b.csv").read_bytes()
    assert csv_a == csv_b
    summary = json.loads((tmp_path / "ccm_a.summary.json").read_text(encoding="utf-8"))
    assert len(summary["directions"]) == 2
    assert not summary["insufficient_grid"]


def test_ccm_singleton_grid_flagged(data_csv, tmp_path):
    out = tmp_path / "ccm_one"
    assert main(["ccm", "--data", str(data_csv), "--a", "debris", "--b", "total",
                 "--e", "3", "--samples", "3", "--sizes", "40",
                 "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "ccm_one.summary.json").read_text(encoding="utf-8"))
    assert summary["insufficient_grid"]


def test_ccm_default_grid_leaves_room_for_the_exclusion_radius(tmp_path, capsys):
    # the default grid used to start at e + 2 whatever the radius, so a
    # radius of 1 left the smallest libraries short of e + 1 neighbours
    out = tmp_path / "ccm_r1"
    assert main(["ccm", "--a", "debris", "--b", "total", "--e", "4", "--exclusion-radius", "1",
                 "--seed", "7", "--out", str(out)]) == 0, capsys.readouterr().err
    manifest = json.loads((tmp_path / "ccm_r1.manifest.json").read_text(encoding="utf-8"))
    assert manifest["parameters"]["sizes"][0] == 8


def test_simulate_with_config(data_csv, tmp_path):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(
        "theta = 2\nlags = 2\nridge = 10000\nhorizon = 2035\n"
        "[adr_small]\nkind = adr\nadr_per_year = 100\n"
        "[late_start]\nkind = adr\nadr_per_year = 500\neffective_year = 2030\n",
        encoding="utf-8",
    )
    outdir = tmp_path / "reports"
    code = main(["simulate", "--data", str(data_csv), "--scenarios", str(cfg),
                 "--outdir", str(outdir)])
    assert code == 0
    report = (outdir / "mitigation_report.csv").read_text(encoding="utf-8").splitlines()
    assert report[0] == "scenario,kind,debris_2050,margin_of_error,pct_mitigated"
    assert len(report) == 3
    rows = {line.split(",")[0]: line.split(",") for line in report[1:]}
    # a policy starting after the record equals the baseline exactly
    assert float(rows["late_start"][4]) == 0.0
    assert (outdir / "trajectory_adr_small.csv").exists()
    assert (outdir / "mitigation_report.manifest.json").exists()


def test_manifest_records_every_option_but_outputs_threads_and_seed(data_csv, tmp_path):
    data = str(data_csv)
    cfg = tmp_path / "one.cfg"
    cfg.write_text("horizon = 2030\n[adr_small]\nkind = adr\nadr_per_year = 100\n",
                   encoding="utf-8")
    runs = [
        (["forecast", "--method", "simplex", "--e", "3", "--to", "2030", "--svg",
          str(tmp_path / "f.svg"), "--no-band", "--fixed-library", "--knn", "5",
          "--out", str(tmp_path / "f.csv")], "f.manifest.json",
         {"band": False, "columns": "debris", "data": data, "e": 3, "exclusion_radius": None,
          "fixed_library": True, "knn": 5, "lags": None, "method": "simplex", "ridge": 0.0,
          "tau": 1, "theta": None, "to": 2030, "train_end": 1990}),
        (["ccm", "--a", "debris", "--b", "total", "--e", "3", "--samples", "3",
          "--sizes", "45,10,25", "--seed", "7", "--out", str(tmp_path / "c")],
         "c.manifest.json",
         {"a": "debris", "b": "total", "data": data, "e": 3, "exclusion_radius": 0,
          "method": "random", "replacement": False, "samples": 3, "sizes": [10, 25, 45],
          "tau": 1}),
        (["simulate", "--scenarios", str(cfg), "--outdir", str(tmp_path / "r")],
         "r/mitigation_report.manifest.json", {"data": data, "scenarios": str(cfg)}),
    ]
    for argv, manifest_name, parameters in runs:
        assert main([*argv, "--data", data, "--threads", "2"]) == 0
        manifest = json.loads((tmp_path / manifest_name).read_text(encoding="utf-8"))
        assert manifest["parameters"] == parameters
        assert manifest["seed"] == (7 if argv[0] == "ccm" else None)


def test_simulate_malformed_config_exits_two(data_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[s]\nkind = adr\nadr_per_year = 100\nwarp = 9\n", encoding="utf-8")
    code = main(["simulate", "--data", str(data_csv), "--scenarios", str(cfg),
                 "--outdir", str(tmp_path / "r")])
    assert code == 2
    assert "line 4" in capsys.readouterr().err


def test_simulate_negative_lifetime_exits_two(data_csv, tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("[s]\nkind = pmd\npmd_years = 0\noperational_lifetime = -30\n",
                   encoding="utf-8")
    code = main(["simulate", "--data", str(data_csv), "--scenarios", str(cfg),
                 "--outdir", str(tmp_path / "r")])
    assert code == 2
    assert capsys.readouterr().err == "error: operational_lifetime must be >= 0, got -30\n"
    assert not (tmp_path / "r").exists()


def test_simulate_falls_back_to_the_bundled_scenario_file(tmp_path, monkeypatch, capsys):
    # a relative path missing from the working folder is looked up in package data
    monkeypatch.delenv("EDMKIT_DATA_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scenarios", "scenarios/table2.cfg", "--outdir", "r"]) == 0
    manifest = json.loads((tmp_path / "r" / "mitigation_report.manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["parameters"]["scenarios"] == str(bundled_path("scenarios/table2.cfg"))
    assert (tmp_path / "r" / "mitigation_report.csv").stat().st_size > 0


def test_data_dir_holds_a_replacement_record(data_csv, tmp_path, monkeypatch):
    folder = tmp_path / "refreshed"
    folder.mkdir()
    replacement = folder / DEFAULT_DATASET
    replacement.write_bytes(data_csv.read_bytes())
    monkeypatch.setenv("EDMKIT_DATA_DIR", str(folder))
    assert bundled_path(DEFAULT_DATASET) == replacement
    assert load_bundled() == load_csv(data_csv)
    # a file the folder does not hold still comes from the package
    assert folder not in bundled_path("scenarios/table2.cfg").parents
    out = tmp_path / "e.csv"
    assert main(["embed-search", "--e", "1:3", "--out", str(out)]) == 0
    manifest = json.loads(out.with_suffix(".manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == {str(replacement): cli._sha256(data_csv)}


def test_cli_byte_identical_reruns(data_csv, tmp_path):
    argv_sets = [
        ["embed-search", "--data", str(data_csv), "--e", "1:4", "--out", None],
        ["forecast", "--method", "smap", "--theta", "2", "--data", str(data_csv),
         "--columns", "debris,total", "--e", "4", "--to", "2030", "--out", None],
    ]
    for argv in argv_sets:
        paths = []
        for tag in ("one", "two"):
            out = tmp_path / f"{argv[0]}_{tag}.csv"
            full = [a if a is not None else str(out) for a in argv]
            threads = ["--threads", "8"] if tag == "two" else []
            assert main([*full, *threads]) == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_ccm_non_finite_data_exits_two(data_csv, tmp_path, capsys):
    lines = data_csv.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[3] = "inf"  # the 'total' column of data row 6
    lines[5] = ",".join(cells)
    bad = tmp_path / "inf.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["ccm", "--data", str(bad), "--a", "debris", "--b", "total",
                 "--out", str(tmp_path / "ccm")])
    assert code == 2
    err = capsys.readouterr().err
    assert "row 6" in err and "'total'" in err
    assert not (tmp_path / "ccm.csv").exists()


def test_simulate_zero_baseline_exits_two(data_csv, tmp_path, capsys):
    # with no debris on record, the baseline forecasts exactly 0 debris
    lines = data_csv.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    column = header.index("debris")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[column] = "0"
    zero = tmp_path / "zero.csv"
    zero.write_text("\n".join([lines[0], *(",".join(row) for row in rows)]) + "\n",
                    encoding="utf-8")
    cfg = tmp_path / "mini.cfg"
    cfg.write_text("horizon = 2035\n[adr_small]\nkind = adr\nadr_per_year = 100\n",
                   encoding="utf-8")
    code = main(["simulate", "--data", str(zero), "--scenarios", str(cfg),
                 "--outdir", str(tmp_path / "reports")])
    assert code == 2
    assert "baseline debris forecast for 2035 is 0" in capsys.readouterr().err


BIG = "9" * 400
CCM = ["ccm", "--a", "debris", "--b", "total"]


@pytest.mark.parametrize("argv, code, message", [
    (["embed-search", "--e", f"1:{BIG}"], 2, "must be a range 'lo:hi'"),
    (["embed-search", "--e", "1", "--tau", BIG], 1, "only 0 admissible points remain"),
    (["forecast", "--method", "simplex", "--e", "2", "--to", "2030", "--exclusion-radius", BIG],
     1, "only 0 admissible points remain"),
    (CCM + ["--e", BIG], 2, "series of length 63 too short for embedding"),
    (CCM + ["--tau", BIG], 2, "series of length 63 too short for embedding"),
    (CCM + ["--e", f"-{BIG}"], 2, "embedding dimension must be >= 1"),
    (CCM + ["--exclusion-radius", BIG], 2, "has only 0 admissible neighbours"),
    (["embed-search", "--data", ""], 2, "Is a directory"),
    (["embed-search", "--out", ""], 2, "Is a directory"),
    (CCM + ["--out", ""], 2, "Is a directory"),
    (["forecast", "--method", "smap", "--theta", "2", "--e", "2", "--to", BIG], 2,
     "lies too far past the record"),
    (["forecast", "--method", "smap", "--theta", "2", "--e", "2", "--to", "2030",
      "--exclusion-radius", BIG], 1, "need dimension+2 = 4 points but only 0 admissible points"),
])
def test_oversized_and_empty_values_end_with_a_named_error(argv, code, message, tmp_path,
                                                           monkeypatch, capsys):
    # each of these used to end with an OverflowError, a numpy casting error
    # or an IsADirectoryError traceback
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


#: Tokens no option accepts as meant: NaN, a colon pair, empty, negative and
#: a 400-digit number (which fits no C integer or double).
MALFORMED = ("nan", "NaN", "a:b", "", "-3", BIG)
#: Options whose values size the work draw only from these small values, so
#: that no example starts a huge sweep or horizon.  The 400-digit value is
#: among them, but the 40 derandomized examples never draw it for either
#: option; the oversized list above runs it for --to.
SMALL = {"--samples": ("1", "3", "0", "-3", "nan", "", BIG),
         "--sizes": ("6:30:3", "8,20", "a:b", ""),
         "--to": ("2021", "2030", "1990", "-3", "nan", "", BIG)}
VALID = {int: ("1", "2", "4"), float: ("0", "2.5"),
         str: ("debris", "total", "launched", "1:3", "2,3", "debris:1,total:1")}
PATHS = ("data", "scenarios", "out", "outdir", "svg")


@st.composite
def fuzzed_argv(draw):
    """A subcommand and options drawn from the parser's own option table."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = draw(st.sampled_from(sorted(commands.choices)))
    argv = [command]
    for action in commands.choices[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if not (action.required or draw(st.booleans())):
            continue
        option = action.option_strings[0]
        argv.append(option)
        if action.nargs == 0:  # a flag takes no value
            continue
        if option in SMALL:
            tokens = SMALL[option]
        elif draw(st.integers(0, 3)) == 0:  # one value in four is malformed
            tokens = MALFORMED
        elif action.choices:
            tokens = tuple(action.choices)
        elif action.dest in PATHS:
            tokens = ("out.csv", "sub/out")
        else:
            tokens = VALID[action.type or str]
        argv.append(draw(st.sampled_from(tokens)))
    return argv


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(fuzzed_argv())
def test_fuzzed_argv_exits_with_a_named_error(tmp_path_factory, argv):
    folder = tmp_path_factory.mktemp("argv")  # relative output paths land here
    here = os.getcwd()
    stderr = io.StringIO()
    os.chdir(folder)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exit:  # argparse rejects the argv
                code = exit.code
    finally:
        os.chdir(here)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr.getvalue()
