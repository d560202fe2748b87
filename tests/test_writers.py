"""The bytes of every output file, pinned against literal text.

Each of the eleven writers (six CSV tables, five JSON documents; the skill
table once per parameter format) runs on a small fixed input holding an
undefined (NaN) value, floats that need their shortest round-trip ``repr``
and an integral count.  CSV rows end with ``\\r\\n`` in the csv module's
default dialect; JSON is indented by 2 with sorted keys and ends with a
newline.  The CLI-only writers run through ``main`` with the computation
replaced by a fixed result.
"""

import math

import numpy as np

from edmkit import __version__, scenario, simplex
from edmkit.ccm import CcmDirection, CcmResult
from edmkit.cli import main
from edmkit.forecast import ForecastResult, write_skill_table
from edmkit.scenario import MitigationReport, PolicyScenario
from edmkit.simplex import DimensionSearchResult
from edmkit.smap import coefficients_to_csv
from edmkit.timeseries import Dataset

NAN = math.nan
THIRD = 1 / 3
INPUT = b"year,x\r\n2000,1\r\n2001,2\r\n"  # its sha256 is in the manifest below


def _forecast() -> ForecastResult:
    return ForecastResult(
        target="debris", times=np.array([2001, 2002]), predicted=np.array([0.1, NAN]),
        observed=np.array([THIRD, 2.0]), rho=NAN, rmse=0.25,
        band_halfwidth=np.array([0.5, 0.25]), step_variance=np.array([0.0625, 0.015625]),
        coefficients=np.array([[1.0, 0.1], [-2.0, THIRD]]),
        coefficient_labels=("intercept", "debris(t)"))


def _ccm() -> CcmResult:
    def direction(cause, effect, verdict):
        return CcmDirection(cause=cause, effect=effect, library_sizes=(3, 5),
                            mean_rho=(NAN, 0.5), spread=(NAN, THIRD),
                            samples=np.array([[0.1, NAN], [0.5, THIRD]]), verdict=verdict)

    return CcmResult(a_from_b=direction("a", "b", "non-convergent"),
                     b_from_a=direction("b", "a", "negative"), insufficient_grid=False, seed=7)


def _write_every_output(folder, monkeypatch) -> dict[str, bytes]:
    monkeypatch.chdir(folder)
    (folder / "in.csv").write_bytes(INPUT)
    (folder / "s.cfg").write_bytes(INPUT)

    Dataset.from_columns(2000, {"debris": [1.0, 0.1, -0.0],
                                "total": [2.5, THIRD, 1e20]}).to_csv("dataset.csv")
    _forecast().to_csv("forecast.csv")
    _forecast().to_json("forecast.json")
    coefficients_to_csv(_forecast(), "coefficients.csv")
    write_skill_table("theta.csv", ("theta", "rho", "rmse"),
                      ((0.0, 0.5, NAN), (0.1, NAN, THIRD)), lambda t: repr(float(t)))
    _ccm().to_csv("ccm.csv")
    _ccm().to_json("ccm.json")

    monkeypatch.setattr(simplex, "embed_dimension_search", lambda *args, **kwargs: (
        DimensionSearchResult(rows=((1, 0.5, 0.25), (2, NAN, THIRD)), best_dimension=1)))
    assert main(["embed-search", "--data", "in.csv", "--e", "1,2"]) == 0

    report = MitigationReport(PolicyScenario("adr", adr_per_year=10), debris_2050=1e20,
                              baseline_2050=2.0, pct_mitigated=THIRD, margin_of_error=0.1,
                              trajectory=_forecast())
    monkeypatch.setattr(scenario, "load_scenario_file", lambda path: (None, [report.scenario]))
    monkeypatch.setattr(scenario, "run_scenarios", lambda *args, **kwargs: [report])
    assert main(["simulate", "--data", "in.csv", "--scenarios", "s.cfg", "--outdir", "."]) == 0

    return {name: (folder / name).read_bytes() for name in EXPECTED}


EXPECTED = {
    "dataset.csv":
        "year,debris,total\r\n"
        "2000,1,2.5\r\n"
        "2001,0.1,0.3333333333333333\r\n"
        "2002,-0,1e+20\r\n",
    "forecast.csv":
        "year,predicted,observed,band_lo,band_hi\r\n"
        "2001,0.1,0.3333333333333333,-0.4,0.6\r\n"
        "2002,,2.0,,\r\n",
    "forecast.json": """{
  "rho": null,
  "rmse": 0.25,
  "rows": [
    {
      "band_halfwidth": 0.5,
      "observed": 0.3333333333333333,
      "predicted": 0.1,
      "year": 2001
    },
    {
      "band_halfwidth": 0.25,
      "observed": 2.0,
      "predicted": null,
      "year": 2002
    }
  ],
  "target": "debris"
}
""",
    "coefficients.csv":
        "year,intercept,debris(t)\r\n"
        "2001,1.0,0.1\r\n"
        "2002,-2.0,0.3333333333333333\r\n",
    "theta.csv":
        "theta,rho,rmse\r\n"
        "0.0,0.5,\r\n"
        "0.1,,0.3333333333333333\r\n",
    "ccm.csv":
        "direction,library_size,sample,rho\r\n"
        "a|M(b),3,0,0.1\r\n"
        "a|M(b),3,1,\r\n"
        "a|M(b),5,0,0.5\r\n"
        "a|M(b),5,1,0.3333333333333333\r\n"
        "b|M(a),3,0,0.1\r\n"
        "b|M(a),3,1,\r\n"
        "b|M(a),5,0,0.5\r\n"
        "b|M(a),5,1,0.3333333333333333\r\n",
    "ccm.json": """{
  "directions": [
    {
      "cause": "a",
      "effect": "b",
      "final_mean_rho": 0.5,
      "library_sizes": [
        3,
        5
      ],
      "mean_rho": [
        null,
        0.5
      ],
      "spread": [
        null,
        0.3333333333333333
      ],
      "verdict": "non-convergent"
    },
    {
      "cause": "b",
      "effect": "a",
      "final_mean_rho": 0.5,
      "library_sizes": [
        3,
        5
      ],
      "mean_rho": [
        null,
        0.5
      ],
      "spread": [
        null,
        0.3333333333333333
      ],
      "verdict": "negative"
    }
  ],
  "insufficient_grid": false,
  "seed": 7
}
""",
    "embed_search.csv":
        "E,rho,rmse\r\n"
        "1,0.5,0.25\r\n"
        "2,,0.3333333333333333\r\n",
    "embed_search.summary.json": """{
  "best_E": 1,
  "best_rho": 0.5,
  "best_rmse": 0.25
}
""",
    "embed_search.manifest.json": """{
  "command": "embed-search",
  "inputs": {
    "in.csv": "d2976c01793742f94c19b4bddac49f96db92a9b74e8409b3cd677b803e9f3677"
  },
  "outputs": [
    "embed_search.csv",
    "embed_search.summary.json"
  ],
  "parameters": {
    "data": "in.csv",
    "e": "1,2",
    "eval_end": null,
    "eval_start": null,
    "target": "debris",
    "tau": 1,
    "train_end": 1990
  },
  "seed": null,
  "version": "%s"
}
""" % __version__,
    "mitigation_report.csv":
        "scenario,kind,debris_2050,margin_of_error,pct_mitigated\r\n"
        "adr_10,adr,1e+20,0.1,0.3333333333333333\r\n",
    "mitigation_report.json": """[
  {
    "baseline_2050": 2.0,
    "debris_2050": 1e+20,
    "kind": "adr",
    "margin_of_error": 0.1,
    "pct_mitigated": 0.3333333333333333,
    "scenario": "adr_10"
  }
]
""",
}


def test_every_writer_matches_its_literal_bytes(tmp_path, monkeypatch):
    written = _write_every_output(tmp_path, monkeypatch)
    assert {name: text.decode("utf-8") for name, text in written.items()} == EXPECTED
