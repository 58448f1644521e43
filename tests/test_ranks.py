import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spohn import INF, NEG_INF, RankArithmeticError, rank_delta, s_normalize
from spohn.errors import AllInfinite
from spohn.ranks import is_rank

finite = st.integers(min_value=0, max_value=10**6)
rank = st.one_of(finite, st.just(INF))


def test_inf_is_a_singleton_and_survives_pickling():
    assert pickle.loads(pickle.dumps(INF)) is INF
    assert pickle.loads(pickle.dumps(NEG_INF)) is NEG_INF


@given(finite)
def test_addition_absorbs(n):
    assert INF + n is INF
    assert n + INF is INF
    assert INF + INF is INF


@given(finite)
def test_subtracting_finite_from_inf_stays_inf(n):
    assert INF - n is INF


def test_inf_minus_inf_raises():
    with pytest.raises(RankArithmeticError):
        INF - INF


@given(finite)
def test_finite_minus_inf_raises(n):
    with pytest.raises(RankArithmeticError):
        n - INF


@given(finite)
def test_ordering_puts_inf_on_top(n):
    assert n < INF
    assert INF > n
    assert not INF < n
    assert INF <= INF
    assert INF == INF
    assert INF != n
    assert NEG_INF < n < INF
    assert NEG_INF < INF


def test_negation_swaps_the_infinities():
    assert -INF is NEG_INF
    assert -NEG_INF is INF


@given(rank, rank)
def test_min_and_sorting_work_on_mixed_ranks(a, b):
    lo = min(a, b)
    assert lo <= a and lo <= b
    assert sorted([a, b])[0] == lo


@given(finite, finite)
def test_rank_delta_on_finite_pairs_is_plain_subtraction(new, old):
    assert rank_delta(new, old) == new - old


@given(rank)
def test_rank_delta_from_inf(new):
    if new is INF:
        assert rank_delta(INF, INF) == 0
    else:
        with pytest.raises(RankArithmeticError):
            rank_delta(new, INF)


@given(finite)
def test_rank_delta_to_inf_is_inf(old):
    assert rank_delta(INF, old) is INF


@given(st.lists(st.one_of(st.integers(-50, 50), st.just(INF)), min_size=1))
def test_s_normalize_zeroes_the_finite_floor(entries):
    if all(e is INF for e in entries):
        with pytest.raises(AllInfinite):
            s_normalize(entries)
        return
    out = s_normalize(entries)
    finite_out = [v for v in out if v is not INF]
    assert min(finite_out) == 0
    # relative spacing is preserved
    finite_in = [v for v in entries if v is not INF]
    low = min(finite_in)
    assert finite_out == [v - low for v in finite_in]
    assert [v is INF for v in out] == [v is INF for v in entries]


def _s_normalize_by_definition(entries):
    """The two-pass definition s_normalize replaced: shift by the least finite entry."""
    values = tuple(entries)
    finite = [v for v in values if v is not INF]
    if not finite:
        raise AllInfinite("no finite entry to normalize against")
    low = min(finite)
    return tuple(v if v is INF else v - low for v in values)


@given(st.lists(st.one_of(st.integers(-50, 50), st.just(INF)), max_size=12))
def test_s_normalize_matches_its_definition(entries):
    # INF cells, negative entries, all-INF and empty vectors; a vector
    # already at 0 comes back unshifted.
    try:
        expected = _s_normalize_by_definition(entries)
    except AllInfinite as exc:
        with pytest.raises(AllInfinite) as err:
            s_normalize(entries)
        assert str(err.value) == str(exc)
        return
    out = s_normalize(iter(entries))
    assert type(out) is tuple
    assert out == expected
    assert [v is INF for v in out] == [v is INF for v in expected]


def test_is_rank_accepts_only_nonnegative_ints_and_inf():
    assert is_rank(0) and is_rank(7) and is_rank(INF)
    assert not is_rank(-1)
    assert not is_rank(True)
    assert not is_rank(1.0)
    assert not is_rank("inf")
    assert not is_rank(NEG_INF)
