import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tsync.pps import (AmbiguousLabel, PpsJitter, UnlabeledEdge, format_log,
                       label_pps, next_pps, read_pps_log)
from tsync.timebase import CSV_BLOCK, nearest_second

NS = 1_000_000_000
WINDOW = 900_000_000


class TestNextPps:
    def test_zero_jitter_edge_on_boundary(self):
        rng = np.random.default_rng(0)
        assert next_pps(int(3.4 * NS), PpsJitter(0), rng) == 4 * NS

    def test_boundary_is_strictly_after(self):
        rng = np.random.default_rng(0)
        assert next_pps(5 * NS, PpsJitter(0), rng) == 6 * NS

    def test_jitter_bounded(self):
        rng = np.random.default_rng(1)
        jitter = PpsJitter(half_width_ns=50)
        for _ in range(300):
            assert abs(next_pps(0, jitter, rng) - NS) <= 50

    def test_bound_capped(self):
        with pytest.raises(ValueError):
            PpsJitter(half_width_ns=100_000)
        with pytest.raises(ValueError):
            PpsJitter(half_width_ns=50_000, bias_ns=60_000)


class TestDraws:
    """The numpy facts the block-drawn edge and serial jitter rely on."""

    @pytest.mark.parametrize("half", [30, 1550, 10.0, 6.5, 2.4])
    def test_uniform_is_lo_plus_width_times_random(self, half):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        lo = -half
        for _ in range(5000):
            want = a.uniform(-half, half)
            assert (lo + (half - lo) * b.random()).hex() == want.hex()

    def test_random_block_equals_scalar_calls(self):
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        block = a.random(4103).tolist()
        assert [x.hex() for x in block] == \
            [b.random().hex() for _ in range(4103)]

    @pytest.mark.parametrize("half, bias", [(30, 0), (1550, 0), (1200, 533)])
    def test_edge_error_equals_scalar_uniform(self, half, bias):
        jitter = PpsJitter(half, bias)
        ours, ref = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(2000):
            assert jitter.draw_ns(ours) == \
                bias + round(ref.uniform(-half, half))


class TestLabelling:
    def test_default_delivery_labels_correctly(self):
        assert label_pps(100 * NS + 12, 100 * NS + 80_000_000, 100,
                         WINDOW) == 100

    def test_no_sentence_in_window(self):
        edge = 100 * NS
        with pytest.raises(UnlabeledEdge,
                           match="no sentence named second 100 in window"):
            # arrives with the edge, not after it
            label_pps(edge, edge, 100, WINDOW)
        with pytest.raises(UnlabeledEdge):
            # arrives after the window closes
            label_pps(edge, 101 * NS, 100, WINDOW)

    def test_stale_sentence_rejected(self):
        with pytest.raises(AmbiguousLabel,
                           match="saw only stale sentence seconds"):
            label_pps(100 * NS, 100 * NS + 80_000_000, 99, WINDOW)

    def test_label_always_equals_rounded_edge(self):
        rng = np.random.default_rng(3)
        jitter = PpsJitter(half_width_ns=40)
        for k in range(50):
            edge = next_pps(k * NS, jitter, rng)
            second = nearest_second(edge)
            assert label_pps(edge, second * NS + 80_000_000, second,
                             WINDOW) == second

    def test_label_invariant_enforced(self):
        # a sentence naming a second two away from the edge is stale
        with pytest.raises(AmbiguousLabel):
            label_pps(100 * NS, 100 * NS + 80_000_000, 102, WINDOW)


class TestEdgeLog:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
              max_examples=60)
    @given(st.lists(st.integers(-(2**63) + 1, 2**63 - 1), max_size=40)
           .map(sorted))
    def test_read_inverts_format(self, tmp_path, edges):
        path = tmp_path / "pps.log"
        path.write_text("".join(format_log(edges)))
        assert read_pps_log(path) == edges

    @pytest.mark.parametrize("n", [0, 1, CSV_BLOCK, CSV_BLOCK + 1])
    def test_blocks_match_per_line_rendering(self, n):
        edges = np.random.default_rng(n).integers(-2**63 + 1, 2**63 - 1, n)
        edges = edges.tolist()
        assert "".join(format_log(edges)) == "".join(f"{e}\n" for e in edges)

    def test_unsorted_edges_rejected(self, tmp_path):
        path = tmp_path / "pps.log"
        path.write_text("".join(format_log([2 * NS, NS])))
        where = re.escape(str(path))
        with pytest.raises(ValueError,
                           match=f"^{where}: edges not time-sorted$"):
            read_pps_log(path)

    def test_bad_line_reported_before_order(self, tmp_path):
        path = tmp_path / "pps.log"
        path.write_text(f"{2 * NS}\n{NS}\nabc\n")
        with pytest.raises(ValueError, match=":3: bad edge time 'abc'$"):
            read_pps_log(path)
