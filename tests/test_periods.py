import pytest
from hypothesis import given
from hypothesis import strategies as st

from paneldid.periods import Period, period_range

# parse() wants the conventional four-digit year labels
periods = st.builds(
    Period, st.integers(min_value=1000, max_value=9999), st.integers(min_value=1, max_value=4)
)


def test_str_and_parse():
    assert str(Period(2014, 3)) == "2014Q3"
    assert Period.parse("2014Q3") == Period(2014, 3)


@pytest.mark.parametrize("bad", ["2014", "2014Q5", "2014Q0", "Q3", "2014q3", "2014Q33",
                                 "\u0662\u0660\u0661\u0664Q3", "2014Q\u0663"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        Period.parse(bad)


def test_quarter_bounds():
    with pytest.raises(ValueError):
        Period(2014, 5)
    with pytest.raises(ValueError):
        Period(2014, 0)


def test_ordering_is_lexicographic():
    assert Period(2013, 4) < Period(2014, 1) < Period(2014, 2)
    assert max(Period(2019, 1), Period(2014, 3)) == Period(2019, 1)


def test_next_prev_cross_year():
    assert Period(2014, 4).next() == Period(2015, 1)
    assert Period(2015, 1).prev() == Period(2014, 4)


def test_period_range_inclusive():
    got = period_range(Period(2013, 3), Period(2014, 2))
    assert got == [Period(2013, 3), Period(2013, 4), Period(2014, 1), Period(2014, 2)]


def test_period_range_rejects_reversed():
    with pytest.raises(ValueError):
        period_range(Period(2014, 2), Period(2013, 3))


@given(periods)
def test_index_round_trip(p):
    assert Period.from_index(p.index) == p


@given(periods, st.integers(min_value=-50, max_value=50))
def test_shift_is_index_addition(p, n):
    assert p.shift(n).index == p.index + n


@given(periods)
def test_parse_round_trip(p):
    assert Period.parse(str(p)) == p
