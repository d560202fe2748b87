"""The one magnitude bound: every value enters within +-1e100 (``timeseries._BOUND``).

Each point where values enter accepts +-1e100, refuses the next float past it
with one wording, and keeps its exact message for a non-finite value.
"""

import warnings

import numpy as np
import pytest

from edmkit.bundled import load_bundled
from edmkit.cli import main
from edmkit.embedding import EmbeddingLibrary, EmbeddingSpec, knn
from edmkit.forecast import _lockstep, iterative_forecast, skill_eval
from edmkit.scenario import ScenarioModelConfig
from edmkit.simplex import SimplexConfig
from edmkit.smap import SMapConfig, theta_search
from edmkit.timeseries import _BOUND, Dataset, TimeSeries, load_csv

ABOVE = float(np.nextafter(_BOUND, np.inf))
SPEC = EmbeddingSpec.univariate("x", 1)


def _series(tmp_path, value):
    TimeSeries("x", 2000, [1.0, value, 2.0])


def _csv(tmp_path, value):
    (tmp_path / "x.csv").write_text(f"year,x\n2000,1\n2001,{value!r}\n2002,2\n",
                                    encoding="utf-8")
    load_csv(tmp_path / "x.csv")


def _library_state(tmp_path, value):
    EmbeddingLibrary(SPEC, "x", 1, [2000, 2001, 2002], [[1.0], [value], [2.0]], np.zeros(3))


def _library_target(tmp_path, value):
    EmbeddingLibrary(SPEC, "x", 1, [2000, 2001, 2002], [[1.0], [2.0], [3.0]], [1.0, value, 2.0])


def _query(tmp_path, value):
    library = EmbeddingLibrary(SPEC, "x", 1, [2000, 2001, 2002], [[1.0], [2.0], [3.0]],
                               np.zeros(3))
    knn(library, (2010, [value]), 2)


def _forecast_year(tmp_path, value):
    data = Dataset((TimeSeries("x", 2000, [float(i % 5) for i in range(20)]),))
    iterative_forecast(data, "x", SimplexConfig(SPEC), 2025,
                       adjust=lambda year, values: {"x": value if year == 2021 else values["x"]})


@pytest.mark.parametrize("enter, non_finite, beyond", [
    (_series, "series 'x' has a non-finite value nan in year 2001",
     "series 'x' has a value {} beyond the magnitude bound 1e+100 in year 2001"),
    (_csv, "{csv}: row 3: non-finite value 'nan' in column 'x'",
     "{csv}: row 3: value '{}' beyond the magnitude bound 1e+100 in column 'x'"),
    (_library_state, "library state at 2001 has a non-finite value nan in coordinate 'x(t)'",
     "library state at 2001 has a value {} beyond the magnitude bound 1e+100 in coordinate "
     "'x(t)'"),
    (_library_target, "library target 'x' has a non-finite value nan for the state at 2001",
     "library target 'x' has a value {} beyond the magnitude bound 1e+100 for the state at "
     "2001"),
    (_query, "query vector has a non-finite coordinate nan",
     "query vector has a coordinate {} beyond the magnitude bound 1e+100"),
    (_forecast_year, "series 'x' has a non-finite value nan in year 2021",
     "series 'x' has a value {} beyond the magnitude bound 1e+100 in year 2021"),
], ids=["series", "load_csv", "library_state", "library_target", "query", "forecast_year"])
def test_every_entry_point_holds_values_to_the_bound(enter, non_finite, beyond, tmp_path,
                                                    capsys):
    assert repr(ABOVE) == "1.0000000000000002e+100"
    path = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (_BOUND, -_BOUND):
            enter(tmp_path, value)
        for value, message in [(ABOVE, beyond.format(repr(ABOVE), csv=path)),
                               (-ABOVE, beyond.format(repr(-ABOVE), csv=path)),
                               (float("nan"), non_finite.format(csv=path))]:
            with pytest.raises(ValueError) as caught:
                enter(tmp_path, value)
            assert str(caught.value) == message
            if enter is _csv:  # the command line names the cell too, and writes nothing
                code = main(["forecast", "--method", "simplex", "--columns", "x", "--e", "1",
                             "--to", "2005", "--data", str(path), "--out", str(tmp_path / "f.csv")])
                assert code == 2
                assert capsys.readouterr().err == f"error: {message}\n"
                assert not list(tmp_path.glob("f*"))


def test_theta_is_held_to_the_bound(tmp_path, capsys):
    # theta * distance / mean stays finite for a theta within the bound, so
    # 1e100 reaches the named underflow of every weight, with no warning
    spec = EmbeddingSpec.univariate("debris", 2)
    refused = f"theta has a value {ABOVE!r} beyond the magnitude bound 1e+100"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="underflows to 0 at theta=1e\\+100"):
            skill_eval(load_bundled(), "debris", SMapConfig(spec, _BOUND), 1990)
        for build in (lambda: SMapConfig(spec, ABOVE),
                      lambda: theta_search(load_bundled(), "debris", spec, [0.0, ABOVE],
                                           train_end=1990),
                      lambda: ScenarioModelConfig(theta=ABOVE).two_input_config()):
            with pytest.raises(ValueError) as caught:
                build()
            assert str(caught.value) == refused
        code = main(["forecast", "--method", "smap", "--columns", "debris", "--e", "2",
                     "--theta", "1e305", "--to", "2030", "--out", str(tmp_path / "theta_big.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: theta has a value 1e+305 beyond the magnitude bound 1e+100\n")
    assert not list(tmp_path.glob("theta_big*"))


@pytest.mark.parametrize("method", ["simplex", "smap"])
def test_a_normalized_forecast_coordinate_is_held_to_the_bound(method):
    # a raw value of 1e99 is within the bound, but z-scored by the record's
    # spread of about 2e-100 it is a coordinate near 5e198
    data = Dataset((TimeSeries("b", 1961, [(i % 7 + 1) * 1e-100 for i in range(40)]),))
    spec = EmbeddingSpec.univariate("b", 2, normalize=True)
    cfg = SimplexConfig(spec) if method == "simplex" else SMapConfig(spec, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as caught:
            iterative_forecast(data, "b", cfg, 2010,
                               adjust=lambda year, values: {"b": 1e99 if year == 2001
                                                            else values["b"]})
        assert str(caught.value) == ("z-scored coordinate 'b(t)' has a value "
                                     "5.090278103806221e+198 beyond the magnitude bound 1e+100 "
                                     "in year 2001")
        with pytest.raises(ValueError) as caught:  # a batch names the record by its label
            _lockstep([data, data], "b", cfg, 2010, [None, lambda year, values: {"b": 1e99}],
                      labels=["kept", "lifted"])
        assert str(caught.value).startswith("lifted: z-scored coordinate 'b(t)' has a value ")
