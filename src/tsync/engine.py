"""Event loop that disciplines node clocks through a scenario.

Each simulated second produces a pulse edge and a sentence burst (subject
to satellite visibility); the configured servo mode decides which of
those events measure and steer the clock. During a total outage the loop
records the monitored true offset once per second, exactly like the
reference node in a multi-receiver bench, and can bridge the gap with the
linear drift model fitted to that outage's own samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import pps, scenario, servo as servo_mod
from .scenario import NodeSpec, ScenarioConfig
from .servo import SampleSource, ServoMode, ServoState
from .timebase import (ClockState, FS_PER_NS, NS_PER_S, NoiseStream,
                       SimInstant, advance, nearest_second, read_clock,
                       slew_phase)

DRAW_BLOCK = 4096


class OutsideScenario(ValueError):
    """A replayed event names a second the scenario does not cover."""


@dataclass
class LoopRow:
    """One offset sample (node minus reference, ns) and the loop state
    after it: the servo-loop log record."""

    elapsed_s: float
    offset_ns: int
    freq_correction_ppm: float
    source: str
    holdover: bool

    def csv(self) -> str:
        return (f"{self.elapsed_s:.3f},{self.offset_ns},"
                f"{self.freq_correction_ppm!r},{self.source},"
                f"{int(self.holdover)}")


LOOP_HEADER = "elapsed_s,offset_ns,freq_correction_ppm,source,holdover"


@dataclass
class HoldoverSegment:
    """Summary of one signal-outage interval for a node; `samples` holds
    its monitored (elapsed_s, offset_ns) pairs up to the drift fit."""

    start_s: float
    end_s: float = 0.0
    end_offset_ns: int = 0
    predicted: bool = False
    slope_ns_per_s: float = 0.0
    samples: list = field(default_factory=list)


class BlockDraws:
    """A Generator's `random()` doubles, drawn DRAW_BLOCK at a time; the
    same sequence as scalar calls, as long as nothing else reads it."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._doubles = iter(())

    def random(self) -> float:
        try:
            return next(self._doubles)
        except StopIteration:
            self._doubles = iter(self._rng.random(DRAW_BLOCK).tolist())
            return next(self._doubles)


class NodeSim:
    """Single disciplined node driven by pulse edges and sentences.

    A live run draws each second's events in `step_boundary`; replay
    feeds recorded ones. Both go through `on_edge` and `on_sentence`.
    One advance (and one noise draw) happens per measurement event: the
    pulse edge in pulse-bearing modes, the sentence arrival in
    sentence-only mode, and the top of the second during outages.
    """

    def __init__(self, cfg: ScenarioConfig, spec: NodeSpec,
                 seed_seq: np.random.SeedSequence):
        self.cfg = cfg
        self.spec = spec
        osc_seq, pps_seq, serial_seq, stamp_seq = seed_seq.spawn(4)
        steps = 2 * int(round(cfg.duration_s)) + 16
        self.noise = NoiseStream(spec.oscillator, osc_seq, steps)
        self.rng_pps = BlockDraws(np.random.default_rng(pps_seq))
        self.rng_serial = BlockDraws(np.random.default_rng(serial_seq))
        self.rng_stamp = np.random.default_rng(stamp_seq)
        self.clock = ClockState.from_offset_ns(spec.initial_offset_ns)
        self.servo = ServoState(spec.servo)
        self.outage: HoldoverSegment | None = None
        self.holdover = False
        self.pending: tuple[int, int] | None = None
        self.last_sampled_second: int | None = None

        self.loop_rows: list[LoopRow] = []
        self.true_rows: list[tuple[int, int]] = []
        # One (arrival_ns, second, nsat) record per delivered burst.
        self.nmea_log: list[tuple[int, int, int]] = []
        self.pps_log: list[int] = []
        self.warnings: list[str] = []
        self.holdover_segments: list[HoldoverSegment] = []

    # -- clock helpers ----------------------------------------------------

    def _advance_to(self, t_ns: int, temp_c: float) -> None:
        dt = t_ns - self.clock.last_update_ns
        self.clock = advance(self.clock, self.spec.oscillator, dt, temp_c,
                             self.noise)
        steer_fs = round(self.servo.freq_correction_ppm * dt)
        if self.holdover and self.outage.predicted:
            steer_fs -= round(self.outage.slope_ns_per_s * dt / 1000.0)
        if steer_fs:
            self.clock = slew_phase(self.clock, steer_fs)

    def read_disciplined(self, t_ns: int) -> int:
        """Node clock reading (ns) at any true time at or after the last event."""
        extra = self.servo.freq_correction_ppm
        if self.holdover and self.outage.predicted:
            extra -= self.outage.slope_ns_per_s / 1000.0
        return read_clock(self.clock, t_ns, extra)

    def _log(self, elapsed_s: float, offset_ns: int,
             source: SampleSource) -> None:
        self.loop_rows.append(LoopRow(elapsed_s, offset_ns,
                                      self.servo.freq_correction_ppm,
                                      source.value, self.holdover))

    def _apply_reading(self, t_ns: int, reading_ns: int,
                       source: SampleSource) -> None:
        """Steer by the clock's reading at true time `t_ns`."""
        elapsed_s, offset_ns = t_ns / NS_PER_S, reading_ns - t_ns
        step_ns = servo_mod.update(self.servo, elapsed_s, offset_ns)
        if step_ns:
            self.clock = slew_phase(self.clock, step_ns * FS_PER_NS)
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
            self.pending = None
        self._advance_to(boundary * NS_PER_S, temp_c)
        offset_ns = seg.end_offset_ns = self.clock.phase_offset_ns
        self._log(float(boundary), offset_ns, SampleSource.HOLDOVER)
        if self.holdover:
            return
        seg.samples.append((float(boundary), offset_ns))
        if boundary - seg.samples[0][0] >= servo_mod.MIN_HOLDOVER_SPAN_S:
            seg.slope_ns_per_s = servo_mod.enter_holdover(seg.samples)
            self.holdover = True
            if self.spec.servo.holdover_predict:
                seg.predicted = True
                pred = seg.slope_ns_per_s * (boundary - seg.start_s)
                self.clock = slew_phase(self.clock, -round(pred * FS_PER_NS))

    # -- event handling ----------------------------------------------------

    def _drop_pending(self, reason: str) -> None:
        if self.pending is not None:
            edge_ns, _ = self.pending
            self.warnings.append(f"{reason} at {SimInstant.from_ns(edge_ns)}")
            self.pending = None

    def on_edge(self, edge_ns: int, temp_c: float) -> None:
        """A pulse edge: sampled at once in pulse-only mode, otherwise held
        for the next sentence to name its second."""
        if self.servo.mode is ServoMode.NMEA_ONLY:
            return
        self._drop_pending("unlabeled edge")
        self._advance_to(edge_ns, temp_c)
        capture_ns = edge_ns + self.clock.phase_offset_ns
        if self.servo.mode is ServoMode.PPS_ONLY:
            self._apply_reading(nearest_second(capture_ns) * NS_PER_S,
                                capture_ns, SampleSource.PPS)
        else:
            self.pending = (edge_ns, capture_ns)

    def on_sentence(self, arrival_ns: int, named_ns: int, valid: bool,
                    temp_c: float) -> None:
        """A sentence naming time `named_ns`, whose floor is its second; at
        most one sample per named second.

        Combined mode labels the pending edge with the second; sentence-only
        mode measures the clock at its arrival, less the path delay, against
        the named time when the fix is `valid` and the arrival lies in
        [named time, named time + label window].
        """
        second = named_ns // NS_PER_S
        mode = self.servo.mode
        if mode is ServoMode.NMEA_PLUS_PPS:
            if self.pending is None:
                if second != self.last_sampled_second:
                    self.warnings.append(f"no edge to label for second {second}")
                    self.last_sampled_second = second
                return
            edge_ns, capture_ns = self.pending
            try:
                pps.label_pps(edge_ns, arrival_ns, second,
                              self.spec.receiver.label_window_ns)
            except (pps.UnlabeledEdge, pps.AmbiguousLabel) as exc:
                self._drop_pending(type(exc).__name__)
                return
            self.pending = None
            self.last_sampled_second = second
            self._apply_reading(second * NS_PER_S, capture_ns,
                                SampleSource.COMBINED)
        elif mode is ServoMode.NMEA_ONLY:
            last = self.last_sampled_second
            if second == last or not valid:
                return
            if last is not None and second < last:
                raise servo_mod.NonMonotonicSample(
                    f"sentence for second {second} not after history tail "
                    f"second {last}")
            self.last_sampled_second = second
            window_ns = self.spec.receiver.label_window_ns
            if not named_ns <= arrival_ns <= named_ns + window_ns:
                self.warnings.append(
                    f"sentence for second {second} arrived outside its window")
                return
            self._advance_to(arrival_ns, temp_c)
            self._apply_reading(named_ns, read_clock(self.clock, arrival_ns)
                                - self.spec.receiver.est_path_delay_ns,
                                SampleSource.NMEA)

    def step_boundary(self, boundary: int) -> None:
        """Advance through true second [boundary-1, boundary]."""
        temp_c = scenario.temperature_at(self.cfg, float(boundary - 1))
        nsat = scenario.effective_nsat(self.cfg, boundary - 0.5,
                                       self.spec.constellations)
        if nsat >= 1:
            if self.outage is not None:
                self._end_outage(boundary)
            if self.servo.mode is not ServoMode.NMEA_ONLY:
                edge_ns = pps.next_pps((boundary - 1) * NS_PER_S,
                                       self.spec.receiver.pps, self.rng_pps)
                self.pps_log.append(edge_ns)
                self.on_edge(edge_ns, temp_c)
            delay = self.spec.receiver.serial.delivery_delay_ns(self.rng_serial)
            if delay is not None:
                arrival_ns = boundary * NS_PER_S + delay
                self.nmea_log.append((arrival_ns, boundary, nsat))
                self.on_sentence(arrival_ns, boundary * NS_PER_S,
                                 nsat >= scenario.MIN_FIX_NSAT, temp_c)
        else:
            self._outage_tick(boundary, temp_c)
        self.true_rows.append((boundary, self.clock.phase_offset_ns))

    def finish(self, duration: int) -> None:
        if self.outage is not None:
            self._end_outage(duration + 1)
        self._drop_pending("unlabeled edge")


@dataclass
class RunResult:
    """Everything one scenario run produced, before any file is written."""

    cfg: ScenarioConfig
    loop_rows: dict = field(default_factory=dict)
    true_rows: dict = field(default_factory=dict)
    nmea_logs: dict = field(default_factory=dict)
    pps_logs: dict = field(default_factory=dict)
    warnings: dict = field(default_factory=dict)
    holdover_segments: dict = field(default_factory=dict)

    def summary(self) -> dict:
        out: dict = {"scenario": self.cfg.name, "seed": self.cfg.seed,
                     "nodes": {}}
        for name, rows in self.true_rows.items():
            offs = np.array([o for _, o in rows], dtype=float)
            node_sum = {
                "true_offset_mean_ns": float(offs.mean()) if offs.size else 0.0,
                "true_offset_max_abs_ns": float(np.abs(offs).max()) if offs.size else 0.0,
                "loop_samples": len(self.loop_rows.get(name, [])),
                "warnings": len(self.warnings.get(name, [])),
                "holdover_segments": [
                    {"start_s": s.start_s, "end_s": s.end_s,
                     "end_offset_ns": s.end_offset_ns,
                     "predicted": s.predicted,
                     "slope_ns_per_s": s.slope_ns_per_s}
                    for s in self.holdover_segments.get(name, [])
                ],
            }
            out["nodes"][name] = node_sum
        return out


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


def run_loop(cfg: ScenarioConfig, sims, before_step=None) -> RunResult:
    """Step every node through the scenario's seconds and collect the logs.

    `before_step(boundary)`, when given, runs ahead of each second's steps.
    """
    duration = int(round(cfg.duration_s))
    for boundary in range(1, duration + 1):
        if before_step is not None:
            before_step(boundary)
        for sim in sims:
            sim.step_boundary(boundary)
    result = RunResult(cfg)
    for sim in sims:
        sim.finish(duration)
        name = sim.spec.name
        result.loop_rows[name] = sim.loop_rows
        result.true_rows[name] = sim.true_rows
        result.nmea_logs[name] = sim.nmea_log
        result.pps_logs[name] = sim.pps_log
        result.warnings[name] = sim.warnings
        result.holdover_segments[name] = sim.holdover_segments
    return result


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Run the discipline loops of every node over the full duration."""
    return run_loop(cfg, build_node_sims(cfg))


def capture_seconds(nmea_events, pps_edges) -> tuple[int, int]:
    """First and last second of a capture: each edge's nearest second and
    each sentence's named second; (1, 1) for an empty capture."""
    seconds = [nearest_second(t) for t in pps_edges]
    seconds += [named_ns // NS_PER_S for _, named_ns, _ in nmea_events]
    return min(seconds, default=1), max(seconds, default=1)


def run_replay(cfg: ScenarioConfig, spec: NodeSpec, nmea_events,
               pps_edges) -> tuple[list[LoopRow], list[str]]:
    """Drive one node's servo from recorded event streams.

    nmea_events are (arrival_ns, named_ns, fix_valid) tuples; pps_edges
    are true edge times in ns. Every second of the capture must lie in the
    scenario's seconds 1..duration, else OutsideScenario. `spec` names a
    node of `cfg`; clock physics are rebuilt from it and from the seed a
    live run gives that node, and the events go through the same `NodeSim`
    handlers as a live run, so replaying a run's own event logs reproduces
    its loop log exactly for outage-free, drop-free runs at constant
    temperature. Two departures remain: temperature is taken at each
    event's time instead of at the start of its second, and nothing
    advances the clock through an outage.
    """
    first, last = capture_seconds(nmea_events, pps_edges)
    for second in (first, last):
        if not 1 <= second <= round(cfg.duration_s):
            raise OutsideScenario(
                f"the capture's second {second} lies outside the "
                f"scenario's {cfg.duration_s:g} s")
    index = [n.name for n in cfg.nodes].index(spec.name)
    sim = NodeSim(cfg, spec, seed_sequences(cfg)[0][index])

    # Edges sort ahead of sentences arriving at the same instant.
    merged = [(t, sim.on_edge, (t,)) for t in pps_edges]
    merged += [(event[0], sim.on_sentence, event) for event in nmea_events]
    merged.sort(key=lambda e: e[0])
    for t_ns, handle, args in merged:
        t = min(t_ns / NS_PER_S, cfg.duration_s)
        handle(*args, scenario.temperature_at(cfg, max(0.0, t)))
    return sim.loop_rows, sim.warnings
