"""Event loop that disciplines node clocks through a scenario.

Each simulated second produces a pulse edge and a sentence burst (subject
to satellite visibility); the configured servo mode decides which of
those events measure and steer the clock. During a total outage the loop
records the monitored true offset once per second, exactly like the
reference node in a multi-receiver bench, and can bridge the gap with the
fitted linear drift model.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np

from . import nmea, pps, scenario, servo as servo_mod
from .nmea import GnssFix, SentenceKind
from .scenario import NodeSpec, ScenarioConfig
from .servo import (OffsetSample, SampleSource, ServoMode, ServoState,
                    measure_offset_nmea)
from .timebase import (ClockState, FS_PER_NS, NS_PER_S, NoiseStream,
                       SimInstant, TimeReversalError, advance, nearest_second,
                       read_clock, slew_phase)

SIM_EPOCH_DATE = datetime.date(2021, 1, 1)


@dataclass
class LoopRow:
    """One servo-loop log record."""

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
    """Summary of one signal-outage interval for a node."""

    start_s: float
    end_s: float = 0.0
    end_offset_ns: int = 0
    predicted: bool = False
    slope_ns_per_s: float = 0.0


def fix_for_second(second: int, nsat: int, mask) -> GnssFix:
    """The fix a receiver reports for an absolute second of the run."""
    days, rem = divmod(second, 86_400)
    return GnssFix(
        tod_ns=rem * NS_PER_S,
        date=SIM_EPOCH_DATE + datetime.timedelta(days=days),
        fix_valid=nsat >= 4,
        nsat=nsat,
        constellation_mask=mask,
    )


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
        self.rng_pps = np.random.default_rng(pps_seq)
        self.rng_serial = np.random.default_rng(serial_seq)
        self.rng_stamp = np.random.default_rng(stamp_seq)
        self.clock = ClockState.from_offset_ns(spec.initial_offset_ns)
        self.servo = ServoState(spec.servo)
        self.steer_slope_ns_s = 0.0
        self.outage_start_s: float | None = None
        self.holdover_engaged = False
        self.pending: tuple[int, int] | None = None
        self.last_sampled_second: int | None = None

        self.loop_rows: list[LoopRow] = []
        self.true_rows: list[tuple[int, int]] = []
        self.nmea_log: list[tuple[int, str]] = []
        self.pps_log: list[int] = []
        self.warnings: list[str] = []
        self.holdover_segments: list[HoldoverSegment] = []

    # -- clock helpers ----------------------------------------------------

    def _advance_to(self, t_ns: int, temp_c: float) -> None:
        dt = t_ns - self.clock.last_update_ns
        if dt <= 0:
            raise TimeReversalError(
                f"event at {t_ns} ns does not move time forward from "
                f"{self.clock.last_update_ns} ns")
        self.clock = advance(self.clock, self.spec.oscillator, dt, temp_c,
                             self.noise)
        steer_fs = round(self.servo.freq_correction_ppm * dt)
        steer_fs -= round(self.steer_slope_ns_s * dt / 1000.0)
        if steer_fs:
            self.clock = slew_phase(self.clock, steer_fs)

    def read_disciplined(self, t_ns: int) -> int:
        """Node clock reading (ns) at any true time at or after the last event."""
        extra = self.servo.freq_correction_ppm - self.steer_slope_ns_s / 1000.0
        return read_clock(self.clock, t_ns, extra)

    def _apply(self, sample: OffsetSample) -> None:
        self.servo, adj = servo_mod.update(self.servo, sample)
        if adj.stepped:
            self.clock = slew_phase(self.clock, adj.step_ns * FS_PER_NS)
        self.loop_rows.append(LoopRow(sample.elapsed_s, sample.offset_ns,
                                      self.servo.freq_correction_ppm,
                                      sample.source.value,
                                      self.servo.holdover.active))

    # -- outage bookkeeping ------------------------------------------------

    def _begin_outage(self, boundary: int) -> None:
        self.outage_start_s = float(boundary - 1)
        self.servo.offset_history.clear()
        self.holdover_engaged = False
        self.holdover_segments.append(HoldoverSegment(self.outage_start_s))
        self.pending = None

    def _end_outage(self, boundary: int) -> None:
        seg = self.holdover_segments[-1]
        seg.end_s = float(boundary - 1)
        self.steer_slope_ns_s = 0.0
        self.outage_start_s = None
        self.holdover_engaged = False

    def _outage_tick(self, boundary: int, temp_c: float) -> None:
        if self.outage_start_s is None:
            self._begin_outage(boundary)
        self._advance_to(boundary * NS_PER_S, temp_c)
        true_offset = self.clock.phase_offset_ns
        seg = self.holdover_segments[-1]
        seg.end_offset_ns = true_offset
        sample = OffsetSample(float(boundary), true_offset, SampleSource.HOLDOVER)
        self.loop_rows.append(LoopRow(sample.elapsed_s, sample.offset_ns,
                                      self.servo.freq_correction_ppm,
                                      sample.source.value,
                                      self.servo.holdover.active))
        if self.holdover_engaged:
            return
        servo_mod.observe(self.servo, sample)
        hist = self.servo.offset_history
        if hist[-1][0] - hist[0][0] >= servo_mod.MIN_HOLDOVER_SPAN_S:
            servo_mod.enter_holdover(self.servo)
            self.holdover_engaged = True
            seg.slope_ns_per_s = self.servo.holdover.slope_ns_per_s
            if self.spec.servo.holdover_predict:
                seg.predicted = True
                elapsed = boundary - self.outage_start_s
                pred = servo_mod.predict_offset(self.servo, elapsed)
                self.clock = slew_phase(self.clock, -round(pred * FS_PER_NS))
                self.steer_slope_ns_s = self.servo.holdover.slope_ns_per_s

    # -- event handling ----------------------------------------------------

    def _drop_pending(self, reason: str) -> None:
        if self.pending is not None:
            edge_ns, _ = self.pending
            self.warnings.append(f"{reason} at {SimInstant.from_ns(edge_ns)}")
            self.pending = None

    def _apply_pulse(self, second: int, capture_ns: int,
                     source: SampleSource) -> None:
        """Sample the clock's capture of the edge that begins `second`."""
        self._apply(OffsetSample(float(second), capture_ns - second * NS_PER_S,
                                 source))

    def on_edge(self, edge_ns: int, temp_c: float) -> None:
        """A pulse edge: sampled at once in pulse-only mode, otherwise held
        for the next sentence to name its second."""
        if self.servo.mode is ServoMode.NMEA_ONLY:
            return
        self._drop_pending("unlabeled edge")
        self._advance_to(edge_ns, temp_c)
        capture_ns = edge_ns + self.clock.phase_offset_ns
        if self.servo.mode is ServoMode.PPS_ONLY:
            self._apply_pulse(nearest_second(capture_ns), capture_ns,
                              SampleSource.PPS)
        else:
            self.pending = (edge_ns, capture_ns)

    def on_sentence(self, arrival_ns: int, second: int, fix: GnssFix,
                    temp_c: float) -> None:
        """A sentence naming `second`; at most one sample per named second.

        Combined mode labels the pending edge with it; sentence-only mode
        measures the clock at its arrival.
        """
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
            self._apply_pulse(second, capture_ns, SampleSource.COMBINED)
        elif mode is ServoMode.NMEA_ONLY:
            if second == self.last_sampled_second or not fix.fix_valid:
                return
            self._advance_to(arrival_ns, temp_c)
            reading_ns = read_clock(self.clock, arrival_ns)
            self.last_sampled_second = second
            self._apply(measure_offset_nmea(
                fix, reading_ns, self.spec.receiver.est_path_delay_ns,
                SIM_EPOCH_DATE))

    def step_boundary(self, boundary: int) -> None:
        """Advance through true second [boundary-1, boundary]."""
        temp_c = scenario.temperature_at(self.cfg, float(boundary - 1))
        nsat = scenario.effective_nsat(self.cfg, boundary - 0.5,
                                       self.spec.constellations)
        if nsat >= 1:
            if self.outage_start_s is not None:
                self._end_outage(boundary)
            if self.servo.mode is not ServoMode.NMEA_ONLY:
                edge_ns = pps.next_pps((boundary - 1) * NS_PER_S,
                                       self.spec.receiver.pps, self.rng_pps)
                self.pps_log.append(edge_ns)
                self.on_edge(edge_ns, temp_c)
            fix = fix_for_second(boundary, nsat, self.spec.constellations)
            delay = self.spec.receiver.serial.delivery_delay_ns(self.rng_serial)
            if delay is not None:
                arrival_ns = boundary * NS_PER_S + delay
                for kind in (SentenceKind.RMC, SentenceKind.GGA):
                    self.nmea_log.append((arrival_ns, nmea.generate(fix, kind)))
                self.on_sentence(arrival_ns, boundary, fix, temp_c)
        else:
            self._outage_tick(boundary, temp_c)
        self.true_rows.append((boundary, self.clock.phase_offset_ns))

    def finish(self, duration: int) -> None:
        if self.outage_start_s is not None:
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


def build_node_sims(cfg: ScenarioConfig):
    """Node simulators plus the seed root for any further traffic draws."""
    root = np.random.SeedSequence(cfg.seed)
    seqs = root.spawn(len(cfg.nodes))
    sims = [NodeSim(cfg, spec, seq) for spec, seq in zip(cfg.nodes, seqs)]
    return sims, root


def run_loop(cfg: ScenarioConfig, sims, duration: int,
             before_step=None) -> RunResult:
    """Step every node through seconds 1..duration and collect the logs.

    `before_step(boundary)`, when given, runs ahead of each second's steps.
    """
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
    sims, _ = build_node_sims(cfg)
    return run_loop(cfg, sims, int(round(cfg.duration_s)))


def run_replay(cfg: ScenarioConfig, spec: NodeSpec, nmea_events,
               pps_edges) -> tuple[list[LoopRow], list[str]]:
    """Drive one node's servo from recorded event streams.

    nmea_events are (arrival_ns, named_second, GnssFix) tuples; pps_edges
    are true edge times in ns. Clock physics are rebuilt from the
    scenario node spec and seed, and the events go through the same
    `NodeSim` handlers as a live run, so replaying a run's own event logs
    reproduces its loop log exactly for outage-free, drop-free runs at
    constant temperature. Two departures remain: temperature is taken at
    each event's time instead of at the start of its second, and nothing
    advances the clock through an outage.
    """
    names = [n.name for n in cfg.nodes]
    node_index = names.index(spec.name) if spec.name in names else 0
    root = np.random.SeedSequence(cfg.seed)
    seqs = root.spawn(max(len(cfg.nodes), node_index + 1))
    sim = NodeSim(cfg, spec, seqs[node_index])

    # Edges sort ahead of sentences arriving at the same instant.
    merged = [(t, sim.on_edge, (t,)) for t in pps_edges]
    merged += [(event[0], sim.on_sentence, event) for event in nmea_events]
    merged.sort(key=lambda e: e[0])
    for t_ns, handle, args in merged:
        t = min(t_ns / NS_PER_S, cfg.duration_s)
        handle(*args, scenario.temperature_at(cfg, max(0.0, t)))
    return sim.loop_rows, sim.warnings
