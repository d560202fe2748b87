"""The policy adjusters and ``cumulative_deorbited`` against loop references.

Every output must equal the straight-line references in ``helpers`` bit for
bit, sign of zero included, over records with zero and negative values and
policy windows that start before, inside and after the record.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edmkit.scenario import (
    PolicyScenario,
    adr_adjust,
    cumulative_deorbited,
    launch_reduction_adjust,
    pmd_adjust,
)
from edmkit.timeseries import Dataset

from helpers import (
    oracle_adr_adjust,
    oracle_cumulative_deorbited,
    oracle_launch_reduction_adjust,
    oracle_pmd_adjust,
)

BOUNDED = settings(derandomize=True, database=None, max_examples=80, deadline=None)
START = 1990

VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5.0]),
                   st.floats(-200.0, 5000.0, allow_nan=False, allow_infinity=False))
SHARES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def records(draw):
    n = draw(st.integers(1, 20))
    columns = {name: draw(st.lists(VALUES, min_size=n, max_size=n))
               for name in ("debris", "launched", "total")}
    return Dataset.from_columns(START, columns)


def effective_years(data):
    # before, inside and after the record
    return st.integers(data.start_year - 8, data.end_year + 8)


def assert_same(adjusted, expected):
    for name, values in expected.items():
        assert bits(adjusted[name].values) == bits(values), name
        assert bits(adjusted[name].to_array()) == bits(values), name


@BOUNDED
@given(records(), st.data())
def test_pmd_adjust_and_cumulative_deorbited_match_the_loops(data, draw):
    scenario = PolicyScenario(
        "pmd", pmd_years=draw.draw(st.one_of(st.just(0), st.integers(0, 30))),
        operational_lifetime=draw.draw(st.one_of(st.just(0), st.integers(0, 15))),
        effective_year=draw.draw(effective_years(data)), compliance=draw.draw(SHARES))
    assert_same(pmd_adjust(data, scenario), oracle_pmd_adjust(data, scenario))
    reach = scenario.adjust_window_end(data.end_year)
    for year in range(data.start_year - 3, reach + 3):
        assert bits(cumulative_deorbited(data, scenario, year)) == bits(
            oracle_cumulative_deorbited(data, scenario, year)), year


@BOUNDED
@given(records(), st.data())
def test_launch_reduction_adjust_matches_the_loop(data, draw):
    scenario = PolicyScenario(
        "launch_reduction", reduction_fraction=draw.draw(SHARES),
        effective_year=draw.draw(effective_years(data)),
        launch_x_mode=draw.draw(st.sampled_from(["ratio", "z_only"])))
    assert_same(launch_reduction_adjust(data, scenario),
                oracle_launch_reduction_adjust(data, scenario))


@BOUNDED
@given(records(), st.data())
def test_adr_adjust_matches_the_loop(data, draw):
    scenario = PolicyScenario(
        "adr", adr_per_year=draw.draw(st.integers(0, 3000)),
        effective_year=draw.draw(effective_years(data)),
        adr_cumulative=draw.draw(st.booleans()))
    assert_same(adr_adjust(data, scenario), oracle_adr_adjust(data, scenario))
