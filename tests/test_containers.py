"""Property tests of the series containers and of CSV ingestion.

``load_csv`` reads outside input, so on any text it either returns a
dataset or raises one of its two documented errors; what it accepts
round-trips through ``Dataset.to_csv`` bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmkit.ccm import CcmDirection
from edmkit.embedding import EmbeddingLibrary, EmbeddingSpec, NeighborSet
from edmkit.forecast import ForecastResult
from edmkit.smap import SMapStep
from edmkit.timeseries import Dataset, TimeSeries, load_csv

BOUNDED = settings(derandomize=True, database=None, max_examples=150, deadline=None)

NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "1", "-2.5", "1e3", "0.1", "1_000", " 7 ", "+3", "-0.0"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
BAD_CELLS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "x", "1e999", '"4"', '"1,5"', "\x00"]),
    st.text("0123456789.-+eE_ xn\"\r\n,", max_size=6),
)
NAMES = st.sampled_from(["debris", "total", "launched", " a ", '"q,t"', 'r"s'])
ODD_NAMES = st.one_of(st.sampled_from(["", "year", " year", '"a\nb"']),
                      st.text("abyr \"\r\n,", max_size=4))


@st.composite
def csv_text(draw):
    """CSV-shaped text: a header, then rows of cells, where each kind of
    defect (odd names, no year column, bad cells, short rows) is drawn on or
    off for the whole text, so that many texts are valid."""
    odd = draw(st.fixed_dictionaries({k: st.integers(0, 4).map(lambda v: v == 0) for k in (
        "names", "no_year", "years", "cells", "short")}))

    def pick(usual, unusual, flag, one_in):
        return draw(unusual if odd[flag] and draw(st.integers(1, one_in)) == 1 else usual)

    header = [pick(st.just(name), ODD_NAMES, "names", 2)
              for name in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))]
    if not odd["no_year"]:
        header.insert(draw(st.integers(0, len(header))), "year")
    start = draw(st.integers(-5, 2100))
    rows = []
    for i in range(draw(st.integers(1, 6))):
        cells = [pick(st.just(str(start + i)), BAD_CELLS, "years", 3) if name == "year"
                 else pick(NUMBERS, BAD_CELLS, "cells", 3) for name in header]
        rows.append(",".join(cells[:-1] if pick(st.just(False), st.just(True), "short", 3)
                             else cells))
    return "\n".join([",".join(header), *rows]) + draw(st.sampled_from(["", "\n", "\r\n"]))


@BOUNDED
@given(st.one_of(csv_text(), csv_text(), csv_text(), st.text(max_size=40)))
def test_load_csv_accepts_or_names_the_error_and_round_trips(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("csv")
    source = folder / "in.csv"
    source.write_text(text, encoding="utf-8", newline="")
    try:
        data = load_csv(source)
    except (ValueError, FileNotFoundError):
        return
    assert isinstance(data, Dataset)
    echo = folder / "echo.csv"
    data.to_csv(echo)
    again = load_csv(echo)
    assert again.names == data.names
    assert again.start_year == data.start_year
    for name in data.names:
        assert again[name].values == data[name].values
        assert again[name].to_array().tobytes() == data[name].to_array().tobytes()


def test_to_array_is_one_shared_read_only_array():
    series = TimeSeries("x", 2000, [1.0, -0.0, 3.5])
    array = series.to_array()
    assert series.to_array() is array
    assert array.dtype == np.float64 and not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 2.0
    assert series.values == (1.0, 0.0, 3.5)
    assert np.signbit(array[1])


def test_series_array_is_not_part_of_equality_or_repr():
    a = TimeSeries("x", 2000, [1.0, 2.0])
    b = TimeSeries("x", 2000, (1.0, 2.0))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "TimeSeries(name='x', start_year=2000, values=(1.0, 2.0))"
    data = Dataset((a,))
    assert data == Dataset((b,))
    assert repr(data) == f"Dataset(series=({a!r},))"
    with pytest.raises(KeyError, match=r"unknown series 'y'; have \['x'\]"):
        data["y"]
    assert "x" in data and "y" not in data


def test_containers_copy_writeable_inputs_and_leave_them_writeable():
    # building a container used to freeze the caller's own arrays in place
    a = {"times": np.arange(2000, 2003), "vectors": np.arange(6.0).reshape(3, 2),
         "targets": np.arange(3.0), "indices": np.array([2, 0]),
         "distances": np.array([0.5, 1.5]), "predicted": np.arange(3.0),
         "observed": np.ones(3), "band": np.full(3, 0.25), "variance": np.full(3, 0.5),
         "coefficients": np.arange(9.0).reshape(3, 3), "coefficient_row": np.arange(3.0),
         "samples": np.arange(4.0).reshape(2, 2)}
    containers = [
        EmbeddingLibrary(EmbeddingSpec.univariate("x", 2), "x", 1, a["times"], a["vectors"],
                         a["targets"]),
        NeighborSet(a["indices"], a["distances"]),
        ForecastResult("x", a["times"], a["predicted"], a["observed"], 0.5, 0.1, a["band"],
                       a["variance"], a["coefficients"], ("intercept", "x(t)", "x(t-1)")),
        SMapStep(2000, 1.0, a["coefficient_row"], 0.1),
        CcmDirection("x", "y", (3, 5), (0.1, 0.2), (0.0, 0.0), a["samples"], "negative"),
    ]
    held = [(c, name, value.copy()) for c in containers for name, value in vars(c).items()
            if isinstance(value, np.ndarray)]
    assert len(held) == 13
    for name, array in a.items():
        assert array.flags.writeable, name
        array += 7  # a later write by the caller
    for container, name, value in held:
        array = getattr(container, name)
        assert not array.flags.writeable
        assert np.array_equal(array, value), (type(container).__name__, name)


def test_containers_reuse_read_only_inputs():
    series = TimeSeries("x", 2000, [1.0, 2.0, 3.0])
    distances = series.to_array()
    indices = np.arange(3)
    indices.setflags(write=False)
    neighbours = NeighborSet(indices, distances)
    assert neighbours.indices is indices and neighbours.distances is distances


@pytest.mark.parametrize("coefficients", [1.0, [1.0, 2.0]], ids=["scalar", "one-d"])
def test_forecast_result_requires_a_coefficient_row_per_step(coefficients):
    # a scalar used to end with IndexError, a 1-D track was accepted
    with pytest.raises(ValueError, match="coefficients must be a 2-D array with one row per"):
        ForecastResult("x", [1, 2], [0.0, 1.0], None, 0.0, 0.0, [0.0, 0.0], [0.0, 0.0],
                       coefficients=coefficients)


def test_forecast_result_value_at_names_a_year_it_does_not_hold():
    result = ForecastResult("x", [2021, 2022], [0.5, 1.5], None, 0.0, 0.0, [0.0, 0.0],
                            [0.0, 0.0])
    assert result.value_at(2022) == 1.5
    with pytest.raises(ValueError, match="^no forecast step for year 2023$"):
        result.value_at(2023)
