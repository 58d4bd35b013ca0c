"""Sorted-index tests, including a property test against linear scan."""

from hypothesis import given
from hypothesis import strategies as st

from repro.minidb.index import IndexRange, SortedIndex


def build(keys):
    index = SortedIndex("idx", "k")
    index.build(list(keys))
    return index


class TestRangeScan:
    def test_equality(self):
        index = build([5, 3, 5, 1])
        assert sorted(index.scan(IndexRange.equals(5))) == [0, 2]

    def test_inclusive_range(self):
        index = build([1, 2, 3, 4, 5])
        assert sorted(index.scan(IndexRange(2, 4))) == [1, 2, 3]

    def test_exclusive_bounds(self):
        index = build([1, 2, 3, 4, 5])
        key_range = IndexRange(2, 4, low_inclusive=False,
                               high_inclusive=False)
        assert list(index.scan(key_range)) == [2]

    def test_open_ended(self):
        index = build([1, 2, 3])
        assert sorted(index.scan(IndexRange(high=2))) == [0, 1]
        assert sorted(index.scan(IndexRange(low=2))) == [1, 2]

    def test_count_matches_scan(self):
        index = build([3, 1, 4, 1, 5, 9, 2, 6])
        key_range = IndexRange(2, 5)
        assert index.count(key_range) == len(list(index.scan(key_range)))

    def test_nulls_excluded(self):
        index = build([1, None, 2, None])
        assert len(index) == 2
        assert sorted(index.scan(IndexRange())) == [0, 2]

    def test_min_max_keys(self):
        index = build([4, 7, 2])
        assert index.min_key() == 2
        assert index.max_key() == 7
        assert build([]).min_key() is None

    def test_incremental_insert_keeps_sorted(self):
        index = build([1, 5])
        index.insert(3, 2)
        assert list(index.scan(IndexRange())) == [0, 2, 1]

    def test_insert_null_ignored(self):
        index = build([1])
        index.insert(None, 9)
        assert len(index) == 1

    def test_output_in_key_order(self):
        index = build([9, 1, 5])
        assert list(index.scan(IndexRange())) == [1, 2, 0]


@given(st.lists(st.one_of(st.none(), st.integers(0, 20)), max_size=40),
       st.integers(0, 20), st.integers(0, 20),
       st.booleans(), st.booleans())
def test_scan_agrees_with_linear_filter(keys, low, high, low_inc, high_inc):
    index = build(keys)
    key_range = IndexRange(low, high, low_inclusive=low_inc,
                           high_inclusive=high_inc)
    expected = set()
    for position, key in enumerate(keys):
        if key is None:
            continue
        above = key >= low if low_inc else key > low
        below = key <= high if high_inc else key < high
        if above and below:
            expected.add(position)
    assert set(index.scan(key_range)) == expected
    assert index.count(key_range) == len(expected)


def tuple_sort_build(keys):
    """The former build: sort ``(key, position)`` pairs by key."""
    pairs = sorted(((key, position) for position, key in enumerate(keys)
                    if key is not None), key=lambda pair: pair[0])
    return [key for key, _ in pairs], [position for _, position in pairs]


@given(st.lists(st.one_of(st.none(), st.integers(-3, 3),
                          st.sampled_from([-1.0, 0.0, 1.0, 2.5])),
                max_size=60))
def test_build_matches_tuple_sort(keys):
    # Ties (1 and 1.0 included) keep position order, NULLs are skipped.
    index = build(keys)
    assert (index._keys, index._positions) == tuple_sort_build(keys)


class TestKeyLookup:
    def test_positions_of_matches_each_key_in_turn(self):
        index = build([5, 3, 5, None, 1, 5.0])
        assert index.positions_of([5, 1]) == [0, 2, 5, 4]
        assert index.count_of([5, 1]) == 4

    def test_unorderable_key_matches_nothing(self):
        index = build([1, 2, 3])
        assert index.positions_of(["2", 2]) == [1]
        assert index.count_of(["2"]) == 0
