"""Event loop that disciplines node clocks through a scenario.

Each simulated second produces a pulse edge and a sentence burst (subject
to satellite visibility); the configured servo mode decides which of
those events measure and steer the clock. During a total outage the loop
records the monitored true offset once per second, exactly like the
reference node in a multi-receiver bench (a pulse-only node records it
as a pulse would read it, on its own nearest second), and can bridge the
gap with the linear drift model fitted to that outage's own samples.
Each node keeps its logs as typed columns, allocated once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from . import pps, scenario, servo as servo_mod
from .scenario import NodeSpec, ScenarioConfig
from .servo import SampleSource, ServoMode, ServoState
from .timebase import (ClockState, FS_PER_NS, NS_PER_S, NoiseStream,
                       SimInstant, advance, nearest_second, read_clock,
                       slew_phase)

DRAW_BLOCK = 4096


class Columns:
    """The typed columns of one log, each allocated once with `rows` rows
    (an `array` of the given typecode per keyword): `n` counts the rows
    written, and `trim` cuts every column to them."""

    def __init__(self, rows: int, **typecodes: str):
        self._names = tuple(typecodes)
        for name, code in typecodes.items():
            setattr(self, name, array(code, [0]) * rows)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def trim(self) -> None:
        for name in self._names:
            del getattr(self, name)[self.n:]


# The loop log: one offset sample (node minus reference, ns) per row and
# the loop state after it. `source` holds the index of the row's source
# name in SOURCES, and `holdover` 0 or 1.
LOOP_COLUMNS = {"elapsed_s": "d", "offset_ns": "q",
                "freq_correction_ppm": "d", "source": "B", "holdover": "B"}
SOURCES = tuple(source.value for source in SampleSource)
_SOURCE_INDEX = {source: i for i, source in enumerate(SampleSource)}
LOOP_HEADER = "elapsed_s,offset_ns,freq_correction_ppm,source,holdover"
# A loop-log line is `LOOP_FORMAT % row`, with the row's source as its
# name; %r keeps every bit of the frequency correction.
LOOP_FORMAT = "%.3f,%d,%r,%s,%d"

# The servo modes as module globals: the handlers test the mode at every
# event, and reading a member off its Enum class costs a descriptor call.
_NMEA_ONLY, _PPS_ONLY, _NMEA_PLUS_PPS = (
    ServoMode.NMEA_ONLY, ServoMode.PPS_ONLY, ServoMode.NMEA_PLUS_PPS)
_COMBINED = _SOURCE_INDEX[SampleSource.COMBINED]
_LABEL_ERRORS = (pps.UnlabeledEdge, pps.AmbiguousLabel)


@dataclass
class HoldoverSegment:
    """Summary of one signal-outage interval for a node; `end_offset_ns`
    is its last HOLDOVER row's offset, and `samples` holds its monitored
    (elapsed_s, offset_ns) pairs up to the drift fit."""

    start_s: float
    end_s: float = 0.0
    end_offset_ns: int = 0
    predicted: bool = False
    slope_ns_per_s: float = 0.0
    samples: list = field(default_factory=list)


class BlockDraws:
    """A Generator's `random()` doubles, drawn DRAW_BLOCK at a time; the
    same sequence as scalar calls, as long as nothing else reads it.
    `random` is the `__next__` of a chain of blocks, so a draw runs no
    Python frame; a memoryview of each block yields builtin floats."""

    def __init__(self, rng: np.random.Generator):
        blocks = iter(lambda: memoryview(rng.random(DRAW_BLOCK)), None)
        self.random = chain.from_iterable(blocks).__next__


class NodeSim:
    """Single disciplined node driven by pulse edges and sentences.

    A live run draws each second's events in `step_boundary`; replay
    feeds recorded ones. Both hand each edge to `on_edge` and each
    sentence to `on_sentence`, which run with no outage open.
    One advance (and one noise draw) happens per measurement event: the
    pulse edge in pulse-bearing modes, the sentence arrival in
    sentence-only mode, and the top of the second during outages.
    """

    def __init__(self, cfg: ScenarioConfig, spec: NodeSpec,
                 seed_seq: np.random.SeedSequence, rows: int | None = None):
        """`rows` is the most rows any of the node's logs takes, and the
        most measurement events. The default, the scenario's seconds,
        holds a live run: a second gives at most one row of each log and
        one noise draw."""
        self.cfg = cfg
        self.spec = spec
        osc_seq, pps_seq, serial_seq, stamp_seq = seed_seq.spawn(4)
        rows = cfg.duration_s if rows is None else rows
        self.noise = NoiseStream(spec.oscillator, osc_seq,
                                 max(cfg.duration_s, rows))
        self.rng_pps = BlockDraws(np.random.default_rng(pps_seq))
        self.rng_serial = BlockDraws(np.random.default_rng(serial_seq))
        self.rng_stamp = np.random.default_rng(stamp_seq)
        self.clock = ClockState.from_offset_ns(spec.initial_offset_ns)
        self.servo = ServoState(spec.servo)
        # Read by the handlers at every event.
        self.mode = spec.servo.mode
        self.label_window_ns = spec.receiver.label_window_ns
        self.outage: HoldoverSegment | None = None
        self.holdover = False
        self.pending: tuple[int, int] | None = None
        self.last_sampled_second: int | None = None

        self.loop = Columns(rows, **LOOP_COLUMNS)
        # One record per delivered sentence burst.
        self.bursts = Columns(rows, arrival_ns="q", second="q", nsat="B")
        self.pulses = Columns(rows, edge_ns="q")
        # The true clock offset at the end of each second.
        self.true = Columns(rows, offset_ns="q")
        self.warnings: list[str] = []
        self.holdover_segments: list[HoldoverSegment] = []

    # -- clock helpers ----------------------------------------------------

    def _advance_to(self, t_ns: int, temp_c: float) -> None:
        dt = t_ns - self.clock.last_update_ns
        advance(self.clock, self.spec.oscillator, dt, temp_c, self.noise)
        steer_fs = round(self.servo.freq_correction_ppm * dt)
        if self.holdover and self.outage.predicted:
            steer_fs -= round(self.outage.slope_ns_per_s * dt / 1000.0)
        if steer_fs:
            slew_phase(self.clock, steer_fs)

    def read_disciplined(self, t_ns: int) -> int:
        """Node clock reading (ns) at any true time at or after the last event."""
        extra = self.servo.freq_correction_ppm
        if self.holdover and self.outage.predicted:
            extra -= self.outage.slope_ns_per_s / 1000.0
        return read_clock(self.clock, t_ns, extra)

    def _log(self, elapsed_s: float, offset_ns: int,
             source: SampleSource) -> None:
        loop = self.loop
        i = loop.n
        loop.elapsed_s[i] = elapsed_s
        loop.offset_ns[i] = offset_ns
        loop.freq_correction_ppm[i] = self.servo.freq_correction_ppm
        loop.source[i] = _SOURCE_INDEX[source]
        loop.holdover[i] = self.holdover
        loop.n = i + 1

    def _apply_reading(self, t_ns: int, reading_ns: int,
                       source: SampleSource) -> None:
        """Steer by the clock's reading at true time `t_ns`."""
        elapsed_s, offset_ns = t_ns / NS_PER_S, reading_ns - t_ns
        step_ns = servo_mod.update(self.servo, elapsed_s, offset_ns)
        if step_ns:
            slew_phase(self.clock, step_ns * FS_PER_NS)
        self._log(elapsed_s, offset_ns, source)

    # -- outage bookkeeping ------------------------------------------------

    def _end_outage(self, boundary: int) -> None:
        self.outage.end_s = float(boundary - 1)
        self.outage = None
        self.holdover = False

    def _outage_tick(self, boundary: int, temp_c: float) -> None:
        seg = self.outage
        if seg is None:
            seg = self.outage = HoldoverSegment(float(boundary - 1))
            self.holdover_segments.append(seg)
            self._drop_pending("unlabeled edge")
        self._advance_to(boundary * NS_PER_S, temp_c)
        offset_ns = self.clock.phase_offset_ns
        second, logged_ns = boundary, offset_ns
        if self.mode is _PPS_ONLY:
            # What a pulse would read: the clock's own nearest second, and
            # the offset from it.
            reading_ns = boundary * NS_PER_S + offset_ns
            second = nearest_second(reading_ns)
            logged_ns = reading_ns - second * NS_PER_S
        seg.end_offset_ns = logged_ns
        self._log(float(second), logged_ns, SampleSource.HOLDOVER)
        if self.holdover:
            return
        seg.samples.append((float(boundary), offset_ns))
        if boundary - seg.samples[0][0] >= servo_mod.MIN_HOLDOVER_SPAN_S:
            seg.slope_ns_per_s = servo_mod.enter_holdover(seg.samples)
            self.holdover = True
            if self.spec.servo.holdover_predict:
                seg.predicted = True
                pred = seg.slope_ns_per_s * (boundary - seg.start_s)
                slew_phase(self.clock, -round(pred * FS_PER_NS))

    # -- event handling ----------------------------------------------------

    def _drop_pending(self, reason: str) -> None:
        if self.pending is not None:
            edge_ns, _ = self.pending
            self.warnings.append(f"{reason} at {SimInstant.from_ns(edge_ns)}")
            self.pending = None

    def on_edge(self, edge_ns: int, temp_c: float) -> None:
        """A pulse edge: sampled at once in pulse-only mode, otherwise held
        for the next sentence to name its second."""
        mode = self.mode
        if mode is _NMEA_ONLY:
            return
        if self.pending is not None:
            self._drop_pending("unlabeled edge")
        # The advance to the edge and the steering over it; with no outage
        # open, only the servo's correction steers.
        clock = self.clock
        dt_ns = edge_ns - clock.last_update_ns
        advance(clock, self.spec.oscillator, dt_ns, temp_c, self.noise)
        steer_fs = round(self.servo.freq_correction_ppm * dt_ns)
        if steer_fs:
            slew_phase(clock, steer_fs)
        capture_ns = edge_ns + clock.phase_offset_ns
        if mode is _PPS_ONLY:
            self._apply_reading(nearest_second(capture_ns) * NS_PER_S,
                                capture_ns, SampleSource.PPS)
        else:
            self.pending = (edge_ns, capture_ns)

    def on_sentence(self, arrival_ns: int, named_ns: int, valid: bool,
                    temp_c: float) -> None:
        """A sentence naming time `named_ns`, whose floor is its second; at
        most one sample per named second.

        Combined mode labels the pending edge with the second and measures
        the edge's capture against it; sentence-only mode measures the
        clock at its arrival, less the path delay, against the named time
        when the fix is `valid` and the arrival lies in [named time, named
        time + label window].
        """
        second = named_ns // NS_PER_S
        mode = self.mode
        if mode is _NMEA_PLUS_PPS:
            pending = self.pending
            if pending is None:
                if second != self.last_sampled_second:
                    self.warnings.append(f"no edge to label for second {second}")
                    self.last_sampled_second = second
                return
            edge_ns, capture_ns = pending
            try:
                pps.label_pps(edge_ns, arrival_ns, second,
                              self.label_window_ns)
            except _LABEL_ERRORS as exc:
                self._drop_pending(type(exc).__name__)
                return
            self.pending = None
            self.last_sampled_second = second
            # `_apply_reading` and `_log` inline, the hottest row.
            servo = self.servo
            t_ns = second * NS_PER_S
            elapsed_s, offset_ns = t_ns / NS_PER_S, capture_ns - t_ns
            step_ns = servo_mod.update(servo, elapsed_s, offset_ns)
            if step_ns:
                slew_phase(self.clock, step_ns * FS_PER_NS)
            loop = self.loop
            i = loop.n
            loop.elapsed_s[i], loop.offset_ns[i] = elapsed_s, offset_ns
            loop.freq_correction_ppm[i] = servo.freq_correction_ppm
            loop.source[i], loop.holdover[i] = _COMBINED, 0
            loop.n = i + 1
        elif mode is _NMEA_ONLY:
            last = self.last_sampled_second
            if second == last or not valid:
                return
            if last is not None and second < last:
                raise ValueError(
                    f"sentence for second {second} not after history tail "
                    f"second {last}")
            self.last_sampled_second = second
            window_ns = self.label_window_ns
            if not named_ns <= arrival_ns <= named_ns + window_ns:
                self.warnings.append(
                    f"sentence for second {second} arrived outside its window")
                return
            self._advance_to(arrival_ns, temp_c)
            self._apply_reading(named_ns, read_clock(self.clock, arrival_ns)
                                - self.spec.receiver.est_path_delay_ns,
                                SampleSource.NMEA)

    def step_boundary(self, boundary: int) -> None:
        """Advance through true second [boundary-1, boundary], at the
        temperature of its start, with the satellites in view at its middle:
        its edge goes to `on_edge` and its burst to `on_sentence`, or the
        outage ticks when none is in view. Then the true offset is logged."""
        cfg, spec = self.cfg, self.spec
        temp_c = scenario.temperature_at(cfg, float(boundary - 1))
        nsat = scenario.effective_nsat(cfg, boundary - 0.5,
                                       spec.constellations)
        if nsat >= 1:
            if self.outage is not None:
                self._end_outage(boundary)
            receiver = spec.receiver
            if self.mode is not _NMEA_ONLY:
                edge_ns = pps.next_pps((boundary - 1) * NS_PER_S,
                                       receiver.pps, self.rng_pps)
                pulses = self.pulses
                pulses.edge_ns[pulses.n] = edge_ns
                pulses.n += 1
                self.on_edge(edge_ns, temp_c)
            delay = receiver.serial.delivery_delay_ns(self.rng_serial)
            if delay is not None:
                t_ns = boundary * NS_PER_S
                arrival_ns = t_ns + delay
                bursts = self.bursts
                i = bursts.n
                bursts.arrival_ns[i] = arrival_ns
                bursts.second[i] = boundary
                bursts.nsat[i] = nsat
                bursts.n = i + 1
                self.on_sentence(arrival_ns, t_ns,
                                 nsat >= scenario.MIN_FIX_NSAT, temp_c)
        else:
            self._outage_tick(boundary, temp_c)
        true = self.true
        true.offset_ns[true.n] = self.clock.phase_offset_ns
        true.n += 1

    def finish(self, duration: int) -> None:
        if self.outage is not None:
            self._end_outage(duration + 1)
        self._drop_pending("unlabeled edge")
        self.trim()

    def trim(self) -> None:
        """Cut every log to the rows written."""
        for log in (self.loop, self.bursts, self.pulses, self.true):
            log.trim()

    def summary(self) -> dict:
        """The node's entry in a run's manifest, once it has finished."""
        offs = np.array(self.true.offset_ns, dtype=float)
        return {
            "true_offset_mean_ns": float(offs.mean()) if offs.size else 0.0,
            "true_offset_max_abs_ns": float(np.abs(offs).max()) if offs.size else 0.0,
            "loop_samples": len(self.loop),
            "warnings": len(self.warnings),
            "holdover_segments": [
                {"start_s": seg.start_s, "end_s": seg.end_s,
                 "end_offset_ns": seg.end_offset_ns,
                 "predicted": seg.predicted,
                 "slope_ns_per_s": seg.slope_ns_per_s}
                for seg in self.holdover_segments
            ],
        }


def seed_sequences(cfg: ScenarioConfig):
    """The seeds of a run: one child per node, in node order, and then the
    child that traffic experiments draw from."""
    *nodes, traffic = np.random.SeedSequence(cfg.seed).spawn(
        len(cfg.nodes) + 1)
    return nodes, traffic


def build_node_sims(cfg: ScenarioConfig) -> list[NodeSim]:
    """One simulator per node of the scenario, in node order."""
    seqs, _ = seed_sequences(cfg)
    return [NodeSim(cfg, spec, seq) for spec, seq in zip(cfg.nodes, seqs)]


def run_loop(cfg: ScenarioConfig, sims,
             before_step=None) -> dict[str, NodeSim]:
    """Step every node through the scenario's seconds and finish them;
    returns the nodes by name, each holding its logs.

    `before_step(boundary)`, when given, runs ahead of each second's steps.
    """
    for boundary in range(1, cfg.duration_s + 1):
        if before_step is not None:
            before_step(boundary)
        for sim in sims:
            sim.step_boundary(boundary)
    for sim in sims:
        sim.finish(cfg.duration_s)
    return {sim.spec.name: sim for sim in sims}


def run_scenario(cfg: ScenarioConfig) -> dict[str, NodeSim]:
    """Run the discipline loops of every node over the full duration;
    returns the nodes by name."""
    return run_loop(cfg, build_node_sims(cfg))


def capture_seconds(nmea_events, pps_edges) -> tuple[int, int]:
    """First and last second of a capture: each edge's nearest second and
    each sentence's named second; (1, 1) for an empty capture."""
    seconds = [nearest_second(t) for t in pps_edges]
    seconds += [named_ns // NS_PER_S for _, named_ns, _ in nmea_events]
    return min(seconds, default=1), max(seconds, default=1)


def run_replay(cfg: ScenarioConfig, spec: NodeSpec, nmea_events, pps_edges,
               seconds: tuple[int, int] | None = None
               ) -> tuple[Columns, list[str]]:
    """Drive one node's servo from recorded event streams; returns its
    loop log, as `LOOP_COLUMNS` columns, and its warnings.

    nmea_events are (arrival_ns, named_ns, fix_valid) tuples; pps_edges
    are true edge times in ns. Every second of the capture must lie in the
    scenario's seconds 1..duration, else ValueError; `seconds`, when the
    caller has it, is the capture's `capture_seconds`. `spec` names a
    node of `cfg`; clock physics are rebuilt from it and from the seed a
    live run gives that node. The events go through `on_edge` and
    `on_sentence`, the handlers every live second hands its edge and burst
    to, so replaying a run's own event logs reproduces its loop log
    exactly, lost sentences included, for a run without an outage at
    constant temperature. Only the edges in pulse-bearing modes, and the
    sentences in sentence-only mode, advance the clock, and each logs at
    most one loop row. The node ends with `finish`, as a live run's does,
    so an edge still pending after the last event is warned. Two
    departures remain: temperature is taken at each event's time instead
    of at the start of its second, and nothing advances the clock through
    an outage.
    """
    if seconds is None:
        seconds = capture_seconds(nmea_events, pps_edges)
    duration = cfg.duration_s
    for second in seconds:
        if not 1 <= second <= duration:
            raise ValueError(
                f"the capture's second {second} lies outside the "
                f"scenario's {duration} s")
    index = [n.name for n in cfg.nodes].index(spec.name)
    sentences_only = spec.servo.mode is _NMEA_ONLY
    sim = NodeSim(cfg, spec, seed_sequences(cfg)[0][index],
                  len(nmea_events if sentences_only else pps_edges))

    # Edges sort ahead of sentences arriving at the same instant. A burst's
    # sentences arrive together, and share the temperature of their time.
    on_edge, on_sentence = sim.on_edge, sim.on_sentence
    advancing = on_sentence if sentences_only else on_edge
    merged = [(t, on_edge, (t,)) for t in pps_edges]
    merged += [(event[0], on_sentence, event) for event in nmea_events]
    merged.sort(key=itemgetter(0))
    last_ns = temp_c = None
    for t_ns, handle, args in merged:
        if handle is advancing and t_ns != last_ns:
            last_ns = t_ns
            t = min(t_ns / NS_PER_S, duration)
            temp_c = scenario.temperature_at(cfg, max(0.0, t))
        handle(*args, temp_c)
    sim.finish(duration)
    return sim.loop, sim.warnings
