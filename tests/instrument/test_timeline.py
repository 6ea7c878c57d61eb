"""Unit tests for interval-binned timelines."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.instrument.timeline import Timeline


class TestRecording:
    def test_span_inside_one_bin(self):
        tl = Timeline(bin_width=100)
        tl.add_span(10, 40)
        assert tl.series() == [30.0]

    def test_span_split_across_bins(self):
        tl = Timeline(bin_width=100)
        tl.add_span(50, 250)
        assert tl.series() == [50.0, 100.0, 50.0]

    def test_span_on_bin_boundary(self):
        tl = Timeline(bin_width=100)
        tl.add_span(100, 200)
        assert tl.series() == [0.0, 100.0]

    def test_empty_span_ignored(self):
        tl = Timeline(bin_width=100)
        tl.add_span(40, 40)
        tl.add_span(40, 10)
        assert tl.series() == []

    def test_weighted_span(self):
        tl = Timeline(bin_width=10)
        tl.add_span(0, 10, weight=3.0)
        assert tl.series() == [30.0]

    def test_add_at_accumulates(self):
        tl = Timeline(bin_width=10)
        tl.add_at(25, 2)
        tl.add_at(29, 3)
        assert tl.series() == [0.0, 0.0, 5.0]

    def test_max_mode_keeps_high_water(self):
        tl = Timeline(bin_width=10, mode="max")
        tl.add_sample(5, 2)
        tl.add_sample(7, 7)
        tl.add_sample(9, 3)
        assert tl.series() == [7.0]

    def test_sum_mode_sample_accumulates(self):
        tl = Timeline(bin_width=10, mode="sum")
        tl.add_sample(5, 2)
        tl.add_sample(7, 3)
        assert tl.series() == [5.0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Timeline(bin_width=0)
        with pytest.raises(ValueError):
            Timeline(bin_width=10, mode="median")

    def test_absorb_adds_sum_bins_and_grows(self):
        tl = Timeline(bin_width=10)
        tl.add_span(5, 15)
        tl.absorb([1, 0, 4])
        assert tl.series() == [6.0, 5.0, 4.0]
        tl.absorb([])
        assert tl.series() == [6.0, 5.0, 4.0]

    def test_absorb_keeps_the_high_water_in_max_mode(self):
        tl = Timeline(bin_width=10, mode="max")
        tl.add_sample(5, 3)
        tl.absorb([2, 7])
        assert tl.series() == [3.0, 7.0]
        assert {type(value) for value in tl.series()} == {float}


class TestReading:
    def test_utilization_series(self):
        tl = Timeline(bin_width=100)
        tl.add_span(0, 50)
        tl.add_span(100, 200)
        assert tl.utilization_series() == [0.5, 1.0]

    def test_peak_total_mean(self):
        tl = Timeline(bin_width=10)
        tl.add_span(0, 10)
        tl.add_span(20, 25)
        assert tl.peak() == 10.0
        assert tl.total() == 15.0
        assert tl.mean() == pytest.approx(5.0)

    def test_empty_statistics(self):
        tl = Timeline(bin_width=10)
        assert tl.peak() == 0.0
        assert tl.total() == 0.0
        assert tl.mean() == 0.0
        assert len(tl) == 0


class TestRebinning:
    def test_sum_bins_merge_by_addition(self):
        tl = Timeline(bin_width=10)
        for start in range(0, 80, 10):
            tl.add_span(start, start + 5)
        merged = tl.rebinned(4)
        assert merged.bin_width == 20
        assert merged.series() == [10.0, 10.0, 10.0, 10.0]

    def test_max_bins_merge_by_maximum(self):
        tl = Timeline(bin_width=10, mode="max")
        tl.add_sample(5, 3)
        tl.add_sample(15, 9)
        tl.add_sample(25, 1)
        tl.add_sample(35, 4)
        merged = tl.rebinned(2)
        assert merged.series() == [9.0, 4.0]

    def test_rebin_preserves_total_in_sum_mode(self):
        tl = Timeline(bin_width=7)
        tl.add_span(3, 200)
        assert tl.rebinned(3).total() == tl.total()

    def test_rebin_never_exceeds_target(self):
        tl = Timeline(bin_width=1)
        tl.add_span(0, 1000)
        assert len(tl.rebinned(64)) <= 64

    def test_rebin_to_more_bins_than_exist_is_identity(self):
        tl = Timeline(bin_width=10)
        tl.add_span(0, 30)
        merged = tl.rebinned(100)
        assert merged.bin_width == 10
        assert merged.series() == tl.series()

    def test_rebin_empty(self):
        assert Timeline(bin_width=10).rebinned(4).series() == []

    def test_rebin_rejects_zero(self):
        with pytest.raises(ValueError):
            Timeline(bin_width=10).rebinned(0)


class TestSerialization:
    def test_round_trip(self):
        tl = Timeline(bin_width=10, mode="max")
        tl.add_sample(5, 3)
        tl.add_sample(25, 8)
        clone = Timeline.from_dict(tl.as_dict())
        assert clone.bin_width == tl.bin_width
        assert clone.mode == tl.mode
        assert clone.series() == tl.series()
        # the identity, types included: a max-mode bin used to hold the
        # caller's int until the first round trip made it a float
        assert json.dumps(clone.as_dict()) == json.dumps(tl.as_dict())
        assert {type(value) for value in tl.series()} == {float}


class TestTimelineProperties:
    @given(spans=st.lists(st.tuples(st.integers(0, 10_000),
                                    st.integers(1, 500)),
                          min_size=1, max_size=50),
           bin_width=st.integers(1, 1000))
    @settings(max_examples=50, deadline=None)
    def test_total_mass_is_conserved(self, spans, bin_width):
        """add_span distributes exactly (end - start) cycles of mass,
        no matter how spans straddle bin boundaries."""
        tl = Timeline(bin_width=bin_width)
        expected = 0
        for start, length in spans:
            tl.add_span(start, start + length)
            expected += length
        assert tl.total() == pytest.approx(expected)

    @given(spans=st.lists(st.tuples(st.integers(0, 5_000),
                                    st.integers(1, 300)),
                          min_size=1, max_size=30),
           bin_width=st.integers(1, 500),
           n_bins=st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_rebin_conserves_mass_and_respects_cap(self, spans, bin_width,
                                                   n_bins):
        tl = Timeline(bin_width=bin_width)
        for start, length in spans:
            tl.add_span(start, start + length)
        merged = tl.rebinned(n_bins)
        assert merged.total() == pytest.approx(tl.total())
        assert len(merged) <= max(n_bins, 1)
        assert merged.bin_width % bin_width == 0
