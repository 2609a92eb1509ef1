"""Pulse-per-second edge generation and absolute-second labelling.

A receiver with a fix emits one electrical edge per UTC second; the edge
itself carries no absolute time, so each edge is named by the first
sentence that arrives shortly after it. The edge marks the beginning of
the second named by that sentence.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, replace

from .nmea import GnssFix, absolute_second_ns
from .timebase import NS_PER_S, SimInstant, nearest_second

DEFAULT_LABEL_WINDOW_NS = 900_000_000

# An edge may not wander more than this from its UTC second.
MAX_JITTER_BOUND_NS = 100_000


class UnlabeledEdge(ValueError):
    """No sentence named the edge's second inside the label window."""


class AmbiguousLabel(ValueError):
    """Sentences arrived in the window but named a different second."""


class MalformedEdge(ValueError):
    """An edge capture log line is not an integer edge time in ns."""


@dataclass(frozen=True)
class PpsJitter:
    """Uniform edge placement error around the true second boundary.

    bias_ns models a constant capture-path latency; half_width_ns the
    spread around it.
    """

    half_width_ns: int = 30
    bias_ns: int = 0

    def __post_init__(self):
        if self.half_width_ns < 0:
            raise ValueError("half_width_ns must be >= 0")
        if self.bound_ns >= MAX_JITTER_BOUND_NS:
            raise ValueError(f"jitter bound must stay below {MAX_JITTER_BOUND_NS} ns")

    @property
    def bound_ns(self) -> int:
        return abs(self.bias_ns) + self.half_width_ns

    def draw_ns(self, rng) -> int:
        if self.half_width_ns == 0:
            return self.bias_ns
        return self.bias_ns + round(rng.uniform(-self.half_width_ns,
                                                self.half_width_ns))


@dataclass(frozen=True)
class PpsEvent:
    """One electrical edge, optionally labelled with its UTC second."""

    true_ns: int
    labeled_second: int | None = None

    def __post_init__(self):
        if self.labeled_second is not None:
            if abs(self.labeled_second * NS_PER_S - self.true_ns) > NS_PER_S:
                raise ValueError("label more than one second from the edge")


def next_pps(after_ns: int, jitter: PpsJitter, has_fix: bool,
             rng) -> PpsEvent | None:
    """Edge at the next integer second strictly after `after_ns`.

    Returns None while the receiver has no fix at all (total blockage
    stops the pulse train).
    """
    if not has_fix:
        return None
    boundary = after_ns // NS_PER_S + 1
    return PpsEvent(boundary * NS_PER_S + jitter.draw_ns(rng))


def label_pps(event: PpsEvent, recent, epoch_date: datetime.date,
              window_ns: int = DEFAULT_LABEL_WINDOW_NS) -> PpsEvent:
    """Attach the absolute second to an edge from the sentence stream.

    `recent` is a sequence of (arrival_ns, GnssFix). A fix is accepted
    when it arrives inside (edge, edge + window] and names exactly the
    edge's nearest second; in-window fixes naming any other second point
    at a stale buffer and raise AmbiguousLabel.
    """
    edge_ns = event.true_ns
    edge_second = nearest_second(edge_ns)
    stale = False
    for arrival_ns, fix in recent:
        if not edge_ns < arrival_ns <= edge_ns + window_ns:
            continue
        if fix.tod_ns is None or fix.date is None:
            continue
        named = absolute_second_ns(fix, epoch_date) // NS_PER_S
        if named == edge_second:
            return replace(event, labeled_second=named)
        stale = True
    if stale:
        raise AmbiguousLabel(
            f"edge at {SimInstant.from_ns(edge_ns)} saw only stale sentence "
            "seconds")
    raise UnlabeledEdge(f"no sentence named second {edge_second} in window")


def read_pps_log(path) -> list[int]:
    """Read an edge capture log: one true edge time in ns per line.

    A line that is not an integer, or holds a non-ASCII byte, raises
    MalformedEdge naming the file and line.
    """
    edges = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line:
                try:  # a non-ASCII byte decodes to a lone surrogate
                    edges.append(int(line))
                except ValueError:
                    raise MalformedEdge(
                        f"{path}:{lineno}: bad edge time {line!r}") from None
    return edges
