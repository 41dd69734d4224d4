"""Tests for the old-generation card table."""

import pytest

from repro.heap.cardtable import CardTable


@pytest.fixture
def table():
    return CardTable(start=0x1000, end=0x1000 + 8 * 512, card_size=512)


class TestMarking:
    def test_initially_clean(self, table):
        assert table.dirty_count == 0
        assert not table.is_dirty(0x1000)

    def test_mark_single(self, table):
        table.mark(0x1000 + 513)
        assert table.is_dirty(0x1000 + 512)
        assert not table.is_dirty(0x1000)

    def test_mark_out_of_span(self, table):
        with pytest.raises(ValueError):
            table.mark(0x999)

    def test_mark_range_spans_cards(self, table):
        table.mark_range(0x1000 + 500, 600)  # crosses card 0 -> 2
        assert table.is_dirty(0x1000)
        assert table.is_dirty(0x1000 + 512)
        assert table.is_dirty(0x1000 + 1024)
        assert table.dirty_count == 3

    def test_mark_range_zero_bytes_noop(self, table):
        table.mark_range(0x1000, 0)
        assert table.dirty_count == 0

    def test_clear(self, table):
        table.mark(0x1000)
        table.clear()
        assert table.dirty_count == 0


    def test_clear_range_keeps_straddling_cards(self, table):
        table.mark_range(0x1000, 8 * 512)
        table.clear_range(0x1000 + 700, 3 * 512)  # cards 2 and 3 wholly
        assert [table.is_dirty(0x1000 + 512 * i) for i in range(8)] == \
            [True, True, False, False, True, True, True, True]

    def test_clear_range_to_table_end(self, table):
        table.mark_range(0x1000, 8 * 512)
        table.clear_range(0x1000 + 1024, 6 * 512)
        assert table.dirty_count == 2
        table.clear_range(0x1000, 1)  # inside card 0, not all of it
        assert table.dirty_count == 2

class TestDirtyRanges:
    def test_empty(self, table):
        assert list(table.dirty_ranges()) == []

    def test_single_run(self, table):
        table.mark(0x1000 + 512)
        table.mark(0x1000 + 1024)
        ranges = list(table.dirty_ranges())
        assert ranges == [(0x1000 + 512, 0x1000 + 1536)]

    def test_two_runs(self, table):
        table.mark(0x1000)
        table.mark(0x1000 + 1536)
        ranges = list(table.dirty_ranges())
        assert len(ranges) == 2

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            CardTable(0, 1024, card_size=500)


class TestBoundarySemantics:
    """Edge semantics the delta tracker depends on: end-exclusive spans,
    exact card-boundary ranges, and coalescing of adjacent dirty runs."""

    def test_mark_range_ending_on_boundary_excludes_next_card(self, table):
        table.mark_range(0x1000, 512)  # [0x1000, 0x1200): exactly card 0
        assert table.is_dirty(0x1000)
        assert not table.is_dirty(0x1000 + 512)
        assert table.dirty_count == 1

    def test_mark_range_starting_on_boundary(self, table):
        table.mark_range(0x1000 + 512, 1)
        assert not table.is_dirty(0x1000)
        assert table.is_dirty(0x1000 + 512)

    def test_one_byte_at_last_byte_of_card(self, table):
        table.mark_range(0x1000 + 511, 1)
        assert table.is_dirty(0x1000)
        assert not table.is_dirty(0x1000 + 512)

    def test_two_byte_range_straddling_boundary(self, table):
        table.mark_range(0x1000 + 511, 2)
        assert table.dirty_count == 2

    def test_end_address_is_exclusive(self, table):
        end = 0x1000 + 8 * 512
        with pytest.raises(ValueError):
            table.mark(end)
        table.mark(end - 1)  # last valid byte
        assert table.is_dirty(end - 1)

    def test_mark_range_clamped_at_table_end(self, table):
        end = 0x1000 + 8 * 512
        table.mark_range(end - 16, 4096)  # extends far past the span
        assert table.is_dirty(end - 1)
        assert table.dirty_count == 1

    def test_negative_length_is_noop(self, table):
        table.mark_range(0x1000, -8)
        assert table.dirty_count == 0

    def test_dirty_ranges_coalesce_adjacent_cards(self, table):
        table.mark_range(0x1000 + 500, 600)  # cards 0-2
        table.mark(0x1000 + 1600)  # card 3, adjacent to the run
        assert list(table.dirty_ranges()) == [(0x1000, 0x1000 + 2048)]

    def test_dirty_ranges_clamped_to_end_on_partial_last_card(self):
        table = CardTable(start=0, end=100, card_size=64)  # 2 cards, torn
        table.mark_range(90, 5)
        assert list(table.dirty_ranges()) == [(64, 100)]

    def test_dirty_ranges_end_exclusive_ranges(self, table):
        table.mark(0x1000)
        ((start, end),) = table.dirty_ranges()
        assert (start, end) == (0x1000, 0x1000 + 512)
        # The range end is exclusive: the next card is not dirty.
        assert not table.is_dirty(end)
