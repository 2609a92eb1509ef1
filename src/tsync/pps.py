"""Pulse-per-second edge generation and absolute-second labelling.

A receiver with a fix emits one electrical edge per UTC second; the edge
itself carries no absolute time, so each edge is named by the first
sentence that arrives shortly after it. The edge marks the beginning of
the second named by that sentence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timebase import (CSV_BLOCK, NS_PER_S, Bounded, SimInstant,
                       config_field, is_sorted, nearest_second)

# An edge may not wander more than this from its UTC second.
MAX_JITTER_BOUND_NS = 100_000


class UnlabeledEdge(ValueError):
    """No sentence named the edge's second inside the label window."""


class AmbiguousLabel(ValueError):
    """Sentences arrived in the window but named a different second."""


@dataclass(frozen=True)
class PpsJitter(Bounded):
    """Uniform edge placement error around the true second boundary.

    bias_ns models a constant capture-path latency; half_width_ns the
    spread around it.
    """

    half_width_ns: int = config_field(30, minimum=0)
    bias_ns: int = 0

    def __post_init__(self):
        super().__post_init__()
        if abs(self.bias_ns) + self.half_width_ns >= MAX_JITTER_BOUND_NS:
            raise ValueError(f"jitter bound must stay below {MAX_JITTER_BOUND_NS} ns")

    def draw_ns(self, rng) -> int:
        """One edge error in ns. `rng` needs only a `random()` method; the
        draw is numpy's scalar `uniform(-half, half)`, `lo + (hi - lo) *
        random()`, written out."""
        if self.half_width_ns == 0:
            return self.bias_ns
        lo = -self.half_width_ns
        return self.bias_ns + round(lo + (self.half_width_ns - lo)
                                    * rng.random())


def next_pps(after_ns: int, jitter: PpsJitter, rng) -> int:
    """Edge time (ns) at the next integer second strictly after `after_ns`."""
    return (after_ns // NS_PER_S + 1) * NS_PER_S + jitter.draw_ns(rng)


def label_pps(edge_ns: int, arrival_ns: int, second: int,
              window_ns: int) -> int:
    """The absolute second a sentence names for an edge.

    The sentence is accepted when it arrives inside (edge, edge + window]
    and names exactly the edge's nearest second; one naming any other
    second points at a stale buffer and raises AmbiguousLabel.
    """
    if not edge_ns < arrival_ns <= edge_ns + window_ns:
        raise UnlabeledEdge(
            f"no sentence named second {nearest_second(edge_ns)} in window")
    if second != nearest_second(edge_ns):
        raise AmbiguousLabel(
            f"edge at {SimInstant.from_ns(edge_ns)} saw only stale sentence "
            "seconds")
    return second


def format_log(edges):
    """An edge capture log, as text blocks of CSV_BLOCK lines, from a
    column of true edge times in ns: one per line."""
    for i in range(0, len(edges), CSV_BLOCK):
        block = edges[i:i + CSV_BLOCK]
        yield "%d\n" * len(block) % tuple(block)


def read_pps_log(path) -> list[int]:
    """Read an edge capture log: one true edge time in ns per line.

    A line that is not an integer, or holds a non-ASCII byte, raises
    ValueError naming the file and line; unsorted edges, the file.
    """
    edges = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line:
                try:  # a non-ASCII byte decodes to a lone surrogate
                    edges.append(int(line))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: bad edge time {line!r}") from None
    if not is_sorted(edges):
        raise ValueError(f"{path}: edges not time-sorted")
    return edges
