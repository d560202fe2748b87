import math
import re

import numpy as np
import pytest

from edmkit.timeseries import (
    UNDEFINED_SKILL,
    Dataset,
    TimeSeries,
    _rho_rows,
    align,
    load_csv,
    pearson_rho,
    rmse,
    skill_defined,
)


def test_series_indexing():
    ts = TimeSeries("debris", 1960, (10.0, 12.0, 15.0))
    assert len(ts) == 3
    assert ts.end_year == 1962
    assert ts.value_at(1961) == 12.0
    with pytest.raises(ValueError):
        ts.value_at(1963)


def test_series_rejects_empty_and_nan():
    with pytest.raises(ValueError):
        TimeSeries("x", 0, ())
    with pytest.raises(ValueError):
        TimeSeries("x", 0, (1.0, float("nan")))


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_series_rejects_infinite_values(bad):
    with pytest.raises(ValueError, match=r"series 'x' has a non-finite value .* in year 1961"):
        TimeSeries("x", 1960, (1.0, bad, 2.0))


@pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan"])
def test_load_csv_rejects_non_finite_values(tmp_path, cell):
    path = tmp_path / "inf.csv"
    path.write_text(f"year,debris\n1960,10\n1961,{cell}\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match=f"row 3: non-finite value '{cell}' in column 'debris'"):
        load_csv(path)


def test_dataset_requires_alignment_and_unique_names():
    a = TimeSeries("a", 1960, (1.0, 2.0))
    with pytest.raises(ValueError):
        Dataset((a, TimeSeries("b", 1961, (1.0, 2.0))))
    with pytest.raises(ValueError):
        Dataset((a, TimeSeries("a", 1960, (3.0, 4.0))))


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("year,debris\n1960,10\n1961,12\n1962,15\n", encoding="utf-8")
    data = load_csv(path)
    series = data["debris"]
    assert series.start_year == 1960
    assert series.values == (10.0, 12.0, 15.0)

    out = tmp_path / "echo.csv"
    data.to_csv(out)
    again = load_csv(out)
    assert again["debris"].values == series.values
    assert again.start_year == data.start_year


def test_load_csv_roundtrip_fractional(tmp_path):
    values = (10.125, 0.1, 123456.789012, 3.0)
    Dataset.from_columns(2000, {"v": values}).to_csv(tmp_path / "f.csv")
    assert load_csv(tmp_path / "f.csv")["v"].values == values


def test_load_csv_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv")

    gap = tmp_path / "gap.csv"
    gap.write_text("year,debris\n1960,10\n1962,12\n", encoding="utf-8")
    with pytest.raises(ValueError, match="year gap at row 3"):
        load_csv(gap)

    dup = tmp_path / "dup.csv"
    dup.write_text("year,debris\n1960,10\n1960,12\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate year at row 3"):
        load_csv(dup)

    bad = tmp_path / "bad.csv"
    bad.write_text("year,debris\n1960,10\n1961,oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(bad)


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with U+FEFF; the header used to read '\ufeffyear'
    text = "year,debris\n1960,10\n1961,12\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for path in (plain, marked):
        data = load_csv(path)
        assert data.names == ("debris",) and data.start_year == 1960
        assert data["debris"].values == (10.0, 12.0)
    # a mark later in the file is still a cell of its own
    late = tmp_path / "late.csv"
    late.write_text("year,debris\n1960,10\n1961,\ufeff12\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(late)


@pytest.mark.parametrize("text, message", [
    ("year,a\n2000,1\n\n2001,x\n", "row 4: non-numeric value 'x' in column 'a'"),
    ("\nyear,a\n2000,1\n2002,2\n", "year gap at row 4"),
    ("year,a\n\n\n2000,1\n2000,2\n", "duplicate year at row 5"),
    ("year,a\r\n2000,1\r\n\r\n2001\r\n", "row 4: expected 2 cells, got 1"),
])
def test_load_csv_names_the_file_line_after_blank_lines(tmp_path, text, message):
    # a blank line is skipped but still counted, so "row N" is line N of the file
    path = tmp_path / "blank.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_csv(path)


def test_align_intersection():
    a = Dataset.from_columns(1960, {"a": range(63)})
    b = Dataset.from_columns(1957, {"b": range(67)})
    merged = align([a, b])
    assert merged.start_year == 1960
    assert merged.end_year == 2022
    assert set(merged.names) == {"a", "b"}

    same = align([a])
    assert same.start_year == a.start_year and same.n_years == a.n_years

    c = Dataset.from_columns(1990, {"c": range(11)})
    d = Dataset.from_columns(2010, {"d": range(5)})
    with pytest.raises(ValueError, match="no overlap"):
        align([c, d])


def test_pearson_basic():
    assert pearson_rho([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert pearson_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert pearson_rho([1, 2, 4], [1, 3, 3]) == pytest.approx(0.7559, abs=1e-4)


def test_pearson_undefined_states():
    assert not skill_defined(pearson_rho([1, 2], [np.nan, 2]))
    assert not skill_defined(pearson_rho([1, 2, 3], [5, 5, 5]))
    assert math.isnan(UNDEFINED_SKILL)


def test_pearson_drops_missing_pairs():
    obs = [1.0, 2.0, 3.0, 4.0]
    pred = [1.1, np.nan, 3.2, 3.9]
    expected = pearson_rho([1.0, 3.0, 4.0], [1.1, 3.2, 3.9])
    assert pearson_rho(obs, pred) == pytest.approx(expected)


def _one_row_rho(observed, predicted):
    """The correlation formula written out with 1-D dot products, one row at a time."""
    o = observed - observed.mean()
    p = predicted - predicted.mean()
    so = math.sqrt(float(o @ o))
    sp = math.sqrt(float(p @ p))
    if so == 0.0 or sp == 0.0:
        return UNDEFINED_SKILL
    return float(np.clip((o @ p) / (so * sp), -1.0, 1.0))


def test_row_wise_rho_matches_the_one_row_formula_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in (2, 3, 60, 1000, 9998):
        observed = rng.normal(size=n)
        rows = np.stack([observed + rng.normal(size=n), 1e6 * rng.random(n), np.full(n, 3.0),
                         -observed, rng.integers(0, 4, n).astype(float)])
        for row, value in zip(rows, _rho_rows(observed, rows)):
            assert value.tobytes() == np.float64(_one_row_rho(observed, row)).tobytes()
            assert value.tobytes() == np.float64(pearson_rho(observed, row)).tobytes()
    constant = np.full(5, 2.0)
    undefined = np.float64(UNDEFINED_SKILL).tobytes()
    assert _rho_rows(constant, rng.random((3, 5))).tobytes() == undefined * 3


def test_rmse_values():
    assert rmse([1, 2, 3], [1, 2, 3]) == 0.0
    assert rmse([0, 0], [3, 4]) == pytest.approx(3.5355, abs=1e-4)
    assert rmse([1, 2, 3], [2, 3, 4]) == pytest.approx(1.0)
    assert not skill_defined(rmse([np.nan], [1.0]))


def test_metric_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        assert pearson_rho(a, b) == pytest.approx(pearson_rho(b, a), abs=1e-12)
        assert rmse(a, b) == pytest.approx(rmse(b, a), abs=1e-12)
        # positive affine rescaling leaves the correlation alone
        scaled = 3.5 * b + 11.0
        assert pearson_rho(a, scaled) == pytest.approx(pearson_rho(a, b), abs=1e-9)
        assert (rmse(a, b) == 0.0) == bool(np.all(a == b))


def test_bundled_dataset_shape():
    from edmkit.bundled import load_bundled

    data = load_bundled()
    assert data.start_year == 1960
    assert data.end_year == 2022
    assert data.n_years == 63
    assert set(data.names) == {"debris", "launched", "total"}
    # totals include debris plus intact bodies
    assert all(t >= d for d, t in zip(data["debris"].values, data["total"].values))


def test_with_values_names_a_series_it_does_not_hold():
    # an unknown name used to be dropped and the data returned unchanged
    data = Dataset((TimeSeries("a", 2000, (1.0, 2.0)),))
    with pytest.raises(KeyError, match=r"unknown series 'b'; have \['a'\]"):
        data.with_values({"b": [3.0, 4.0]})
    assert data.with_values({"a": [3.0, 4.0]})["a"].values == (3.0, 4.0)


@pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], [1.0]])
def test_with_values_names_a_replacement_of_the_wrong_length(values):
    # the untouched 'b' used to be blamed as misaligned with the new 'a'
    data = Dataset((TimeSeries("a", 2000, (1.0, 2.0)), TimeSeries("b", 2000, (5.0, 6.0))))
    message = (f"replacement for 'a' has {len(values)} values, the dataset covers 2 years "
               f"(2000..2001)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        data.with_values({"a": values})
