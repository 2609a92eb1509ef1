import datetime

import numpy as np
import pytest

from tsync.nmea import GnssFix
from tsync.pps import (AmbiguousLabel, PpsEvent, PpsJitter, UnlabeledEdge,
                       label_pps, next_pps)
from tsync.timebase import nearest_second

NS = 1_000_000_000
EPOCH = datetime.date(2021, 1, 1)


def fix_naming(second: int) -> GnssFix:
    days, rem = divmod(second, 86_400)
    return GnssFix(rem * NS, EPOCH + datetime.timedelta(days=days), True, 8)


class TestNextPps:
    def test_zero_jitter_edge_on_boundary(self):
        rng = np.random.default_rng(0)
        e = next_pps(int(3.4 * NS), PpsJitter(0), True, rng)
        assert e.true_ns == 4 * NS

    def test_boundary_is_strictly_after(self):
        rng = np.random.default_rng(0)
        e = next_pps(5 * NS, PpsJitter(0), True, rng)
        assert e.true_ns == 6 * NS

    def test_jitter_bounded(self):
        rng = np.random.default_rng(1)
        jitter = PpsJitter(half_width_ns=50)
        for _ in range(300):
            e = next_pps(0, jitter, True, rng)
            assert abs(e.true_ns - NS) <= 50

    def test_no_fix_no_pulse(self):
        rng = np.random.default_rng(2)
        assert next_pps(0, PpsJitter(), False, rng) is None

    def test_bound_capped(self):
        with pytest.raises(ValueError):
            PpsJitter(half_width_ns=100_000)
        with pytest.raises(ValueError):
            PpsJitter(half_width_ns=50_000, bias_ns=60_000)


class TestLabelling:
    def test_default_delivery_labels_correctly(self):
        edge = PpsEvent(100 * NS + 12)
        labeled = label_pps(edge, [(100 * NS + 80_000_000, fix_naming(100))],
                            EPOCH)
        assert labeled.labeled_second == 100

    def test_no_sentence_in_window(self):
        edge = PpsEvent(100 * NS)
        with pytest.raises(UnlabeledEdge):
            label_pps(edge, [], EPOCH)
        with pytest.raises(UnlabeledEdge):
            # arrives after the window closes
            label_pps(edge, [(101 * NS, fix_naming(100))], EPOCH)

    def test_stale_sentence_rejected(self):
        edge = PpsEvent(100 * NS)
        with pytest.raises(AmbiguousLabel):
            label_pps(edge, [(100 * NS + 80_000_000, fix_naming(99))], EPOCH)

    def test_label_always_equals_rounded_edge(self):
        rng = np.random.default_rng(3)
        jitter = PpsJitter(half_width_ns=40)
        for k in range(50):
            edge = next_pps(k * NS, jitter, True, rng)
            second = nearest_second(edge.true_ns)
            labeled = label_pps(
                edge, [(second * NS + 80_000_000, fix_naming(second))], EPOCH)
            assert labeled.labeled_second == second

    def test_label_invariant_enforced(self):
        with pytest.raises(ValueError):
            PpsEvent(100 * NS, labeled_second=102)
