"""Declarative road-environment scenarios and the named presets.

A scenario fixes everything a run needs: duration, seed, a temperature
profile, a per-constellation satellite-visibility timeline, the node
population (oscillator, receiver and servo parameters) and optional
traffic experiments. Configurations are plain JSON; the schema ships in
docs/scenario.schema.json.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from operator import itemgetter

from .nmea import SerialDeliveryModel
from .servo import ServoConfig, ServoMode
from .timebase import OscillatorParams

DEFAULT_SEED = 1787

# Coverage / adjacency tolerance for visibility timelines, in seconds.
_COVER_TOL_S = 1e-6

CONSTELLATIONS = ("GPS", "GLONASS", "BEIDOU", "GALILEO")


class SchemaError(ValueError):
    pass


class OverlappingVisibility(SchemaError):
    pass


class UncoveredInterval(SchemaError):
    pass


class UnknownPreset(KeyError):
    pass


class TemperatureOutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class ConstantTemp:
    c: float

    def at(self, t_s: float) -> float:
        return self.c


@dataclass(frozen=True)
class RangeTemp:
    """Sinusoid from lo (at t = 0) to hi (at half period) and back."""

    lo: float
    hi: float
    period_s: float

    def at(self, t_s: float) -> float:
        phase = 2.0 * math.pi * t_s / self.period_s
        return self.lo + (self.hi - self.lo) * (1.0 - math.cos(phase)) / 2.0


@dataclass(frozen=True)
class TraceTemp:
    """Piecewise-linear interpolation through (t_s, temp_c) points."""

    points: tuple

    def __post_init__(self):
        if len(self.points) < 2:
            raise SchemaError("temperature trace needs at least 2 points")
        ts = [p[0] for p in self.points]
        if ts != sorted(ts):
            raise SchemaError("temperature trace must be time-sorted")

    def at(self, t_s: float) -> float:
        pts = self.points
        if t_s <= pts[0][0]:
            return pts[0][1]
        i = bisect.bisect_left(pts, t_s, key=itemgetter(0))
        if i == len(pts):
            return pts[-1][1]
        (t0, c0), (t1, c1) = pts[i - 1], pts[i]
        if t1 == t0:
            return c1
        return c0 + (c1 - c0) * (t_s - t0) / (t1 - t0)


@dataclass(frozen=True)
class VisibilitySeg:
    """Satellite counts per constellation over [t_start, t_end)."""

    t_start: float
    t_end: float
    nsat_gps: int
    nsat_bds: int

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise SchemaError("visibility segment must have t_end > t_start")
        if self.nsat_gps < 0 or self.nsat_bds < 0:
            raise SchemaError("satellite counts must be >= 0")

    def nsat(self, constellations) -> int:
        """Satellites usable by a receiver tracking those constellations."""
        n = 0
        if "GPS" in constellations:
            n += self.nsat_gps
        if "BEIDOU" in constellations:
            n += self.nsat_bds
        return n


@dataclass(frozen=True)
class ReceiverSpec:
    """Receiver-side measurement characteristics of one node."""

    pps_half_width_ns: int = 30
    pps_bias_ns: int = 0
    serial: SerialDeliveryModel = field(default_factory=SerialDeliveryModel)
    est_path_delay_ns: int = 80_000_000
    label_window_ns: int = 900_000_000
    stamp_bias_ns: int = 0
    stamp_latency_ns: int = 0


@dataclass(frozen=True)
class NodeSpec:
    name: str
    oscillator: OscillatorParams = field(default_factory=OscillatorParams)
    servo: ServoConfig = field(default_factory=ServoConfig)
    constellations: frozenset = frozenset({"GPS", "BEIDOU"})
    receiver: ReceiverSpec = field(default_factory=ReceiverSpec)
    initial_offset_ns: int = 0


@dataclass(frozen=True)
class TrafficSpec:
    kind: str
    rate_hz: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("broadcast", "ntp", "tsf"):
            raise SchemaError(f"unknown traffic kind {self.kind!r}")
        if self.rate_hz <= 0:
            raise SchemaError("traffic rate must be positive")


@dataclass(frozen=True)
class VisibilityStats:
    frac_nsat_ge_1: float
    frac_nsat_ge_4: float
    frac_valid_fix: float

    def __post_init__(self):
        for v in (self.frac_nsat_ge_1, self.frac_nsat_ge_4, self.frac_valid_fix):
            if not 0.0 <= v <= 1.0:
                raise ValueError("fractions must be in [0, 1]")
        if self.frac_nsat_ge_4 > self.frac_nsat_ge_1 + 1e-12:
            raise ValueError("NSAT>=4 cannot be more available than NSAT>=1")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    duration_s: float
    seed: int = DEFAULT_SEED
    temperature: ConstantTemp | RangeTemp | TraceTemp = field(
        default_factory=lambda: ConstantTemp(25.0))
    visibility: tuple = ()
    nodes: tuple = ()
    traffic: tuple = ()

    def __post_init__(self):
        if self.duration_s <= 0:
            raise SchemaError("duration_s must be positive")
        _check_visibility(self.visibility, self.duration_s)
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise SchemaError("node names must be unique")

    def node(self, name: str) -> NodeSpec:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)


def _check_visibility(segments, duration_s: float) -> None:
    if not segments:
        raise UncoveredInterval("visibility timeline is empty")
    segs = sorted(segments, key=lambda s: s.t_start)
    if segs[0].t_start > _COVER_TOL_S:
        raise UncoveredInterval(f"timeline starts at {segs[0].t_start}, not 0")
    for a, b in zip(segs, segs[1:]):
        if b.t_start < a.t_end - _COVER_TOL_S:
            raise OverlappingVisibility(
                f"segments overlap near t={b.t_start}")
        if b.t_start > a.t_end + _COVER_TOL_S:
            raise UncoveredInterval(f"gap between t={a.t_end} and t={b.t_start}")
    if abs(segs[-1].t_end - duration_s) > _COVER_TOL_S:
        raise UncoveredInterval(
            f"timeline ends at {segs[-1].t_end}, duration is {duration_s}")


def temperature_at(cfg: ScenarioConfig, t_s: float) -> float:
    if not 0.0 <= t_s <= cfg.duration_s:
        raise TemperatureOutOfRange(f"t={t_s} outside [0, {cfg.duration_s}]")
    return cfg.temperature.at(t_s)


def _segment_at(cfg: ScenarioConfig, t_s: float) -> VisibilitySeg:
    for seg in cfg.visibility:
        if seg.t_start - _COVER_TOL_S <= t_s < seg.t_end:
            return seg
    return cfg.visibility[-1]


def effective_nsat(cfg: ScenarioConfig, t_s: float, constellations) -> int:
    """Satellites usable at t by a receiver tracking those constellations."""
    return _segment_at(cfg, t_s).nsat(constellations)


def visibility_stats(cfg: ScenarioConfig, constellations) -> VisibilityStats:
    """Time-weighted availability fractions over the whole scenario.

    A receiver needs four satellites for a full position-and-time fix, so
    the valid-fix fraction equals the NSAT>=4 fraction.
    """
    total = ge1 = ge4 = 0.0
    for seg in cfg.visibility:
        dur = seg.t_end - seg.t_start
        n = seg.nsat(constellations)
        total += dur
        if n >= 1:
            ge1 += dur
        if n >= 4:
            ge4 += dur
    return VisibilityStats(ge1 / total, ge4 / total, ge4 / total)


# ---------------------------------------------------------------------------
# JSON serialization


def to_dict(cfg: ScenarioConfig) -> dict:
    temp = cfg.temperature
    if isinstance(temp, ConstantTemp):
        temp_d = {"kind": "constant", "c": temp.c}
    elif isinstance(temp, RangeTemp):
        temp_d = {"kind": "range", "lo": temp.lo, "hi": temp.hi,
                  "period_s": temp.period_s}
    else:
        temp_d = {"kind": "trace", "points": [list(p) for p in temp.points]}
    return {
        "name": cfg.name,
        "duration_s": cfg.duration_s,
        "seed": cfg.seed,
        "temperature": temp_d,
        "visibility": [
            {"t_start": s.t_start, "t_end": s.t_end,
             "nsat_gps": s.nsat_gps, "nsat_bds": s.nsat_bds}
            for s in cfg.visibility
        ],
        "nodes": [_node_to_dict(n) for n in cfg.nodes],
        "traffic": [
            {"kind": t.kind, "rate_hz": t.rate_hz, "params": t.params}
            for t in cfg.traffic
        ],
    }


def _node_to_dict(n: NodeSpec) -> dict:
    return {
        "name": n.name,
        "oscillator": asdict(n.oscillator),
        "servo": {
            "mode": n.servo.mode.value,
            "kp": n.servo.kp,
            "ki": n.servo.ki,
            "step_threshold_ns": n.servo.step_threshold_ns,
            "poll_interval_s": n.servo.poll_interval_s,
            "holdover_window_s": n.servo.holdover_window_s,
            "holdover_ma_points": n.servo.holdover_ma_points,
            "holdover_predict": n.servo.holdover_predict,
        },
        "constellations": sorted(n.constellations),
        "receiver": {
            "pps_half_width_ns": n.receiver.pps_half_width_ns,
            "pps_bias_ns": n.receiver.pps_bias_ns,
            "serial_base_latency_ms": n.receiver.serial.base_latency_ms,
            "serial_jitter_ms": n.receiver.serial.jitter_ms,
            "serial_drop_prob": n.receiver.serial.drop_prob,
            "est_path_delay_ns": n.receiver.est_path_delay_ns,
            "label_window_ns": n.receiver.label_window_ns,
            "stamp_bias_ns": n.receiver.stamp_bias_ns,
            "stamp_latency_ns": n.receiver.stamp_latency_ns,
        },
        "initial_offset_ns": n.initial_offset_ns,
    }


def _finite(value, what: str) -> float:
    """float(value), rejecting NaN and infinities with a SchemaError."""
    x = float(value)
    if not math.isfinite(x):
        raise SchemaError(f"{what} must be a finite number, got {value!r}")
    return x


def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise SchemaError(f"{ctx}: missing required key {key!r}")
    return d[key]


def load_temperature_trace(path) -> TraceTemp:
    """Read a `t_s,temp_c` CSV (header optional) into a trace model."""
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("t_s"):
                continue
            try:
                t, c = line.split(",")
                points.append((_finite(t, "t_s"), _finite(c, "temp_c")))
            except ValueError as exc:
                raise SchemaError(f"{path}: bad trace line {line!r}") from exc
    if len(points) < 2:
        raise SchemaError(f"{path}: trace needs at least 2 points")
    return TraceTemp(tuple(points))


def from_dict(data: dict, base_dir=None) -> ScenarioConfig:
    """Build a config from parsed JSON; trace files are materialized.

    base_dir anchors relative temperature-trace paths (load() passes the
    scenario file's directory).
    """
    if not isinstance(data, dict):
        raise SchemaError("scenario must be a JSON object")
    try:
        temp_d = _require(data, "temperature", "scenario")
        kind = _require(temp_d, "kind", "temperature")
        if kind == "constant":
            temp = ConstantTemp(_finite(temp_d["c"], "temperature.c"))
        elif kind == "range":
            temp = RangeTemp(_finite(temp_d["lo"], "temperature.lo"),
                             _finite(temp_d["hi"], "temperature.hi"),
                             _finite(temp_d["period_s"], "temperature.period_s"))
        elif kind == "trace" and "file" in temp_d:
            path = temp_d["file"]
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            temp = load_temperature_trace(path)
        elif kind == "trace":
            temp = TraceTemp(tuple(
                (_finite(t, "temperature.points"),
                 _finite(c, "temperature.points"))
                for t, c in temp_d["points"]))
        else:
            raise SchemaError(f"unknown temperature kind {kind!r}")
        vis = tuple(
            VisibilitySeg(_finite(s["t_start"], "visibility.t_start"),
                          _finite(s["t_end"], "visibility.t_end"),
                          int(s["nsat_gps"]), int(s["nsat_bds"]))
            for s in _require(data, "visibility", "scenario"))
        nodes = tuple(_node_from_dict(n) for n in data.get("nodes", []))
        traffic = tuple(
            TrafficSpec(t["kind"], _finite(t["rate_hz"], "traffic.rate_hz"),
                        dict(t.get("params", {})))
            for t in data.get("traffic", []))
        return ScenarioConfig(
            name=str(_require(data, "name", "scenario")),
            duration_s=_finite(_require(data, "duration_s", "scenario"),
                               "duration_s"),
            seed=int(data.get("seed", DEFAULT_SEED)),
            temperature=temp,
            visibility=vis,
            nodes=nodes,
            traffic=traffic,
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad scenario config: {exc}") from exc


def _node_from_dict(d: dict) -> NodeSpec:
    osc_d = d.get("oscillator", {})
    for key, value in osc_d.items():
        _finite(value, f"oscillator.{key}")
    osc = OscillatorParams(**osc_d)
    sv = d.get("servo", {})
    servo = ServoConfig(
        mode=ServoMode(sv.get("mode", "nmea+pps")),
        kp=_finite(sv.get("kp", 2.0**-5), "servo.kp"),
        ki=_finite(sv.get("ki", 2.0**-10), "servo.ki"),
        step_threshold_ns=int(sv.get("step_threshold_ns", 128_000_000)),
        poll_interval_s=_finite(sv.get("poll_interval_s", 1.0),
                                "servo.poll_interval_s"),
        holdover_window_s=_finite(sv.get("holdover_window_s", 60.0),
                                  "servo.holdover_window_s"),
        holdover_ma_points=int(sv.get("holdover_ma_points", 60)),
        holdover_predict=bool(sv.get("holdover_predict", True)),
    )
    rc = d.get("receiver", {})
    receiver = ReceiverSpec(
        pps_half_width_ns=int(rc.get("pps_half_width_ns", 30)),
        pps_bias_ns=int(rc.get("pps_bias_ns", 0)),
        serial=SerialDeliveryModel(
            base_latency_ms=_finite(rc.get("serial_base_latency_ms", 80.0),
                                "receiver.serial_base_latency_ms"),
            jitter_ms=_finite(rc.get("serial_jitter_ms", 10.0),
                              "receiver.serial_jitter_ms"),
            drop_prob=_finite(rc.get("serial_drop_prob", 0.0),
                              "receiver.serial_drop_prob"),
        ),
        est_path_delay_ns=int(rc.get("est_path_delay_ns", 80_000_000)),
        label_window_ns=int(rc.get("label_window_ns", 900_000_000)),
        stamp_bias_ns=int(rc.get("stamp_bias_ns", 0)),
        stamp_latency_ns=int(rc.get("stamp_latency_ns", 0)),
    )
    consts = frozenset(d.get("constellations", ["GPS", "BEIDOU"]))
    bad = consts - set(CONSTELLATIONS)
    if bad:
        raise SchemaError(f"unknown constellations {sorted(bad)}")
    return NodeSpec(
        name=str(_require(d, "name", "node")),
        oscillator=osc,
        servo=servo,
        constellations=consts,
        receiver=receiver,
        initial_offset_ns=int(d.get("initial_offset_ns", 0)),
    )


def loads(text: str, base_dir=None) -> ScenarioConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return from_dict(data, base_dir)


def load(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def dumps(cfg: ScenarioConfig) -> str:
    return json.dumps(to_dict(cfg), indent=2, sort_keys=True)


def save(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(cfg) + "\n")


# ---------------------------------------------------------------------------
# Presets


def _full_visibility(duration_s: float, gps: int = 8, bds: int = 6):
    return (VisibilitySeg(0.0, duration_s, gps, bds),)


# TCXO-backed node clock: small static error, linear temperature
# sensitivity and a mostly white noise floor.
_BASE_OSC = OscillatorParams(
    f0_ppm=0.08,
    temp_coeff_ppm_per_c=80_000.0 / 3600.0 / 4.0 / 1000.0,
    ref_temp_c=25.0,
    noise_white_fm=2e-9,
    noise_flicker_fm=5e-10,
    noise_randomwalk_fm=1e-11,
)


def _field_node(name: str, bias_ns: int, half_ns: int,
                white: float = 2e-9) -> NodeSpec:
    osc = replace(_BASE_OSC, noise_white_fm=white)
    return NodeSpec(
        name=name,
        oscillator=osc,
        servo=ServoConfig(mode=ServoMode.NMEA_PLUS_PPS),
        receiver=ReceiverSpec(pps_half_width_ns=half_ns, pps_bias_ns=bias_ns),
    )


def _mixed_urban_visibility(duration_s: float, cycles: int = 10):
    """Interleaved urban-canyon timeline with exact availability fractions.

    Per cycle: 49.6% open sky (combined NSAT >= 4), 32.4% partially
    shadowed (GPS still visible, combined < 4), 18% GPS fully shadowed
    with BDS coverage keeping combined NSAT >= 1.
    """
    segs = []
    cycle = duration_s / cycles
    t = 0.0
    for i in range(cycles):
        a_end = t + 0.496 * cycle
        b_end = t + (0.496 + 0.324) * cycle
        c_end = duration_s if i == cycles - 1 else t + cycle
        segs.append(VisibilitySeg(t, a_end, 5, 3))
        segs.append(VisibilitySeg(a_end, b_end, 2, 1))
        segs.append(VisibilitySeg(b_end, c_end, 0, 2))
        t = c_end
    return tuple(segs)


def _tunnel_scenario(name: str, pre_s: float, outage_s: float, post_s: float,
                     predict: bool) -> ScenarioConfig:
    duration = pre_s + outage_s + post_s
    out_start, out_end = pre_s, pre_s + outage_s
    osc = replace(_BASE_OSC, noise_white_fm=1e-10, noise_flicker_fm=0.0,
                  noise_randomwalk_fm=0.0)
    node = NodeSpec(
        name="vehicle",
        oscillator=osc,
        servo=ServoConfig(mode=ServoMode.NMEA_PLUS_PPS,
                          holdover_predict=predict),
    )
    # The sheltered section sits 4 C cooler; through the oscillator's
    # temperature coefficient that reproduces the 80 us/h free-run drift.
    temp = TraceTemp((
        (0.0, 25.0), (out_start, 25.0), (out_start + 2.0, 21.0),
        (out_end, 21.0), (out_end + 2.0, 25.0), (duration, 25.0),
    ))
    return ScenarioConfig(
        name=name,
        duration_s=duration,
        seed=DEFAULT_SEED,
        temperature=temp,
        visibility=(
            VisibilitySeg(0.0, out_start, 8, 6),
            VisibilitySeg(out_start, out_end, 0, 0),
            VisibilitySeg(out_end, duration, 8, 6),
        ),
        nodes=(node,),
    )


def _harness_scenario(name: str, rate_hz: float, bias_a_ns: int,
                      latency_ns: int) -> ScenarioConfig:
    duration = 1800.0

    def client(nm: str, recv: ReceiverSpec) -> NodeSpec:
        return NodeSpec(name=nm, oscillator=_BASE_OSC,
                        servo=ServoConfig(mode=ServoMode.NMEA_PLUS_PPS),
                        receiver=recv)

    recv_a = ReceiverSpec(stamp_bias_ns=bias_a_ns, stamp_latency_ns=latency_ns)
    recv_b = ReceiverSpec(stamp_bias_ns=0, stamp_latency_ns=latency_ns)
    return ScenarioConfig(
        name=name,
        duration_s=duration,
        seed=DEFAULT_SEED,
        temperature=RangeTemp(20.0, 25.0, 86400.0),
        visibility=_full_visibility(duration),
        nodes=(client("c1", recv_a), client("c2", recv_b),
               NodeSpec(name="c3",
                        servo=ServoConfig(mode=ServoMode.NMEA_PLUS_PPS))),
        traffic=(TrafficSpec("broadcast", rate_hz,
                             {"server": "c3", "clients": ["c1", "c2"]}),),
    )


def _build_presets() -> dict:
    presets: dict[str, ScenarioConfig] = {}

    lab = NodeSpec(
        name="bench",
        oscillator=_BASE_OSC,
        servo=ServoConfig(mode=ServoMode.NMEA_ONLY),
        receiver=ReceiverSpec(
            serial=SerialDeliveryModel(base_latency_ms=80.0, jitter_ms=6.5)),
    )
    presets["lab_16c"] = ScenarioConfig(
        name="lab_16c", duration_s=36_000.0, seed=DEFAULT_SEED,
        temperature=ConstantTemp(16.0),
        visibility=_full_visibility(36_000.0),
        nodes=(lab,),
    )

    room = NodeSpec(
        name="bench",
        oscillator=_BASE_OSC,
        servo=ServoConfig(mode=ServoMode.NMEA_PLUS_PPS),
        receiver=ReceiverSpec(pps_half_width_ns=1550),
    )
    presets["room_24h"] = ScenarioConfig(
        name="room_24h", duration_s=86_400.0, seed=DEFAULT_SEED,
        temperature=RangeTemp(20.0, 25.0, 86_400.0),
        visibility=_full_visibility(86_400.0),
        nodes=(room,),
    )

    for name, bias, half in (("suburban", 533, 1200), ("highway", 495, 1500)):
        presets[name] = ScenarioConfig(
            name=name, duration_s=1800.0, seed=DEFAULT_SEED,
            temperature=RangeTemp(22.0, 26.0, 3600.0),
            visibility=_full_visibility(1800.0, gps=7, bds=5),
            nodes=(_field_node("vehicle", bias, half),),
        )

    presets["mixed_urban"] = ScenarioConfig(
        name="mixed_urban", duration_s=1800.0, seed=DEFAULT_SEED,
        temperature=RangeTemp(22.0, 26.0, 3600.0),
        visibility=_mixed_urban_visibility(1800.0),
        nodes=(_field_node("vehicle", 250, 1900),),
    )

    # 5.25 km tunnel at 60 km/h: 315 s without any satellite signal.
    presets["tunnel_5km"] = _tunnel_scenario("tunnel_5km", 600.0, 315.0,
                                             285.0, predict=True)
    presets["blockage_4h"] = _tunnel_scenario("blockage_4h", 480.0, 14_400.0,
                                              120.0, predict=False)

    presets["harness_10pps"] = _harness_scenario("harness_10pps", 10.0, 1000, 9000)
    presets["harness_100pps"] = _harness_scenario("harness_100pps", 100.0, 1500, 7000)
    # 300 packets per minute
    presets["harness_300ppm"] = _harness_scenario("harness_300ppm", 5.0, 250, 8000)

    lte = ScenarioConfig(
        name="lte_ntp", duration_s=1000.0, seed=DEFAULT_SEED,
        temperature=ConstantTemp(25.0),
        visibility=_full_visibility(1000.0),
        nodes=(NodeSpec(name="mobile"), NodeSpec(name="ntp_server")),
        traffic=(TrafficSpec("ntp", 1.0, {
            "client": "mobile", "server": "ntp_server",
            "delay_up_ms": 20.0, "delay_down_ms": 6.8,
            "jitter_ms": 2.4, "drop_prob": 0.0,
        }),),
    )
    presets["lte_ntp"] = lte
    return presets


_PRESETS = _build_presets()
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ScenarioConfig:
    """A fully populated configuration for one of the canned experiments;
    every call returns the same frozen object."""
    if name not in _PRESETS:
        raise UnknownPreset(name)
    return _PRESETS[name]
