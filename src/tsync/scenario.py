"""Declarative road-environment scenarios and the named presets.

A scenario fixes everything a run needs: duration, seed, a temperature
profile, a per-constellation satellite-visibility timeline, the node
population (oscillator, receiver and servo parameters) and optional
traffic experiments. Configurations are plain JSON; json_schema() writes
their schema, committed as docs/scenario.schema.json.
"""

from __future__ import annotations

import bisect
import copy
import functools
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from operator import itemgetter
from typing import ClassVar, NamedTuple, get_args, get_origin, get_type_hints

from .nmea import MIN_FIX_NSAT, SerialDeliveryModel
from .pps import PpsJitter
from .servo import ServoConfig, ServoMode
from .timebase import (NS_PER_S, PATH_COMPONENT, TEMPERATURE_BOUNDS_C,
                       Bounded, OscillatorParams, OutOfBounds, config_field)

DEFAULT_SEED = 1787

# Coverage / adjacency tolerance for visibility timelines, in seconds.
_COVER_TOL_S = 1e-6

# The constellations a visibility segment counts satellites of.
CONSTELLATIONS = ("GPS", "BEIDOU")

# The most a receiver's stamp bias or a client's path delta may shift a
# broadcast capture stamp: 1 ms, far past those in use (at most 1.5 us).
MAX_STAMP_SHIFT_NS = 10**6


class SchemaError(ValueError):
    """A scenario's JSON breaks a rule; the message starts with its path."""


class UnknownPreset(KeyError):
    pass


class PacketDropped(RuntimeError):
    pass


@dataclass(frozen=True)
class ConstantTemp(Bounded):
    kind: ClassVar[str] = "constant"
    c: float = config_field(**TEMPERATURE_BOUNDS_C)

    def at(self, t_s: float) -> float:
        return self.c


@dataclass(frozen=True)
class RangeTemp(Bounded):
    """Sinusoid from lo (at t = 0) to hi (at half period) and back."""

    kind: ClassVar[str] = "range"
    lo: float = config_field(**TEMPERATURE_BOUNDS_C)
    hi: float = config_field(**TEMPERATURE_BOUNDS_C)
    period_s: float = config_field(exclusiveMinimum=0)

    def at(self, t_s: float) -> float:
        phase = 2.0 * math.pi * t_s / self.period_s
        return self.lo + (self.hi - self.lo) * (1.0 - math.cos(phase)) / 2.0


@dataclass(frozen=True)
class TraceTemp(Bounded):
    """Piecewise-linear interpolation through (t_s, temp_c) points."""

    kind: ClassVar[str] = "trace"
    points: tuple[tuple[float, float], ...] = config_field(
        minItems=2, items={"prefixItems": [{}, TEMPERATURE_BOUNDS_C]})

    def __post_init__(self):
        super().__post_init__()
        ts = [p[0] for p in self.points]
        if ts != sorted(ts):
            raise ValueError("points must be time-sorted")

    def at(self, t_s: float) -> float:
        pts = self.points
        if t_s <= pts[0][0]:
            return pts[0][1]
        i = bisect.bisect_left(pts, t_s, key=itemgetter(0))
        if i == len(pts):
            return pts[-1][1]
        # bisect_left puts t_s in (pts[i-1][0], pts[i][0]], so t0 < t1.
        (t0, c0), (t1, c1) = pts[i - 1], pts[i]
        return c0 + (c1 - c0) * (t_s - t0) / (t1 - t0)


Temperature = ConstantTemp | RangeTemp | TraceTemp


@dataclass(frozen=True)
class VisibilitySeg(Bounded):
    """Satellite counts per constellation over [t_start, t_end)."""

    t_start: float = config_field(minimum=0)
    t_end: float = config_field(exclusiveMinimum=0)
    # At most the PRN slots of each constellation, so the sum fits GGA's
    # two-digit satellite field.
    nsat_gps: int = config_field(minimum=0, maximum=32)
    nsat_bds: int = config_field(minimum=0, maximum=63)

    def __post_init__(self):
        super().__post_init__()
        if self.t_end <= self.t_start:
            raise ValueError("t_end must be > t_start")

    def nsat(self, constellations) -> int:
        """Satellites usable by a receiver tracking those constellations."""
        n = 0
        if "GPS" in constellations:
            n += self.nsat_gps
        if "BEIDOU" in constellations:
            n += self.nsat_bds
        return n


@dataclass(frozen=True)
class ReceiverSpec(Bounded):
    """Receiver-side measurement characteristics of one node."""

    # Written inline in JSON as pps_half_width_ns and pps_bias_ns, and as
    # serial_base_latency_ms, serial_jitter_ms and serial_drop_prob.
    pps: PpsJitter = field(default_factory=PpsJitter,
                           metadata={"flatten": "pps_"})
    serial: SerialDeliveryModel = field(default_factory=SerialDeliveryModel,
                                        metadata={"flatten": "serial_"})
    est_path_delay_ns: int = 80_000_000
    label_window_ns: int = config_field(900_000_000, exclusiveMinimum=0)
    stamp_bias_ns: int = config_field(0, minimum=-MAX_STAMP_SHIFT_NS,
                                      maximum=MAX_STAMP_SHIFT_NS)
    stamp_latency_ns: int = config_field(0, minimum=0)


@dataclass(frozen=True)
class NodeSpec(Bounded):
    name: str = config_field(minLength=1, pattern=PATH_COMPONENT)
    oscillator: OscillatorParams = field(default_factory=OscillatorParams)
    servo: ServoConfig = field(default_factory=ServoConfig)
    constellations: frozenset[str] = config_field(
        frozenset(CONSTELLATIONS), minItems=1, items={"enum": CONSTELLATIONS})
    receiver: ReceiverSpec = field(default_factory=ReceiverSpec)
    # The clock's phase accumulator holds a 64-bit ns range.
    initial_offset_ns: int = config_field(0, minimum=-(2**63 - 1),
                                          maximum=2**63 - 1)


@dataclass(frozen=True)
class LinkModel(Bounded):
    """One-way delays (possibly asymmetric) with uniform jitter."""

    delay_up_ms: float = config_field(20.0, minimum=0)
    delay_down_ms: float = config_field(20.0, minimum=0)
    jitter_ms: float = config_field(0.0, minimum=0)
    drop_prob: float = config_field(0.0, minimum=0, exclusiveMaximum=1)

    def one_way_ns(self, base_ms: float, rng) -> int:
        if self.drop_prob and rng.random() < self.drop_prob:
            raise PacketDropped("leg lost")
        jit = rng.uniform(-self.jitter_ms, self.jitter_ms) if self.jitter_ms else 0.0
        return round((base_ms + jit) * 1e6)


@dataclass(frozen=True)
class BroadcastParams(Bounded):
    """`server` floods `clients`, each client's path `path_delta_ns`
    longer and each delivery lost with `drop_prob`."""

    server: str
    clients: tuple[str, ...] = config_field(minItems=2, uniqueItems=True)
    path_delta_ns: dict[str, int] = field(default_factory=dict)
    drop_prob: float = config_field(0.0, minimum=0, exclusiveMaximum=1)

    def __post_init__(self):
        super().__post_init__()
        for name, delta in self.path_delta_ns.items():
            if abs(delta) > MAX_STAMP_SHIFT_NS:
                raise ValueError(
                    f"path_delta_ns[{name!r}] must be in "
                    f"[-{MAX_STAMP_SHIFT_NS}, {MAX_STAMP_SHIFT_NS}]")


@dataclass(frozen=True)
class NtpParams(Bounded):
    """`client` exchanges with `server` over `link`, written inline."""

    client: str
    server: str
    link: LinkModel = field(default_factory=LinkModel,
                            metadata={"flatten": ""})


@dataclass(frozen=True)
class TsfParams(Bounded):
    """A beacon-timer contention run among its own `n_nodes` timers."""

    n_nodes: int = config_field(20, minimum=1)
    # 802.11 allows a beacon timer a rate error of at most +/-100 ppm.
    spread_ppm: float = config_field(100.0, minimum=0, maximum=100)
    airtime_jitter_us: float = config_field(2.0, minimum=0)


TRAFFIC_PARAMS = {"broadcast": BroadcastParams, "ntp": NtpParams,
                  "tsf": TsfParams}


@dataclass(frozen=True)
class TrafficSpec(Bounded):
    kind: str = config_field(enum=tuple(TRAFFIC_PARAMS))
    rate_hz: float = config_field(exclusiveMinimum=0)
    params: dict = field(default_factory=dict)


class VisibilityStats(NamedTuple):
    frac_nsat_ge_1: float
    frac_nsat_ge_4: float


@dataclass(frozen=True)
class ScenarioConfig(Bounded):
    name: str = config_field(minLength=1, pattern=PATH_COMPONENT)
    duration_s: int = config_field(exclusiveMinimum=0)
    visibility: tuple[VisibilitySeg, ...] = config_field(minItems=1)
    seed: int = config_field(DEFAULT_SEED, minimum=0)
    temperature: Temperature = field(
        default_factory=lambda: ConstantTemp(25.0))
    nodes: tuple[NodeSpec, ...] = ()
    traffic: tuple[TrafficSpec, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        _check_visibility(self.visibility, self.duration_s)
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        kinds = [t.kind for t in self.traffic]
        for i, kind in enumerate(kinds):
            if kind in kinds[:i]:
                raise ValueError(f"traffic[{i}]: a second {kind!r} entry; "
                                 f"at most one entry per kind")
        for i, traffic in enumerate(self.traffic):
            traffic_params(self, traffic, f"traffic[{i}].params")
            # `net.run_broadcast` sends packet k at round(k * 1e9 / rate_hz)
            # ns and never sends one due past the end.
            first_ns = NS_PER_S / traffic.rate_hz
            if traffic.kind == "broadcast" and (
                    math.isinf(first_ns)
                    or round(first_ns) > self.duration_s * NS_PER_S):
                raise ValueError(
                    f"traffic[{i}]: a broadcast at {traffic.rate_hz} Hz "
                    f"sends no packet in {self.duration_s} s")

    def node(self, name: str) -> NodeSpec:
        for n in self.nodes:
            if n.name == name:
                return n
        raise SchemaError(f"no node is named {name!r}")


def _check_visibility(segments, duration_s: int) -> None:
    segs = sorted(segments, key=lambda s: s.t_start)
    if segs[0].t_start > _COVER_TOL_S:
        raise ValueError(f"timeline starts at {segs[0].t_start}, not 0")
    for a, b in zip(segs, segs[1:]):
        if b.t_start < a.t_end - _COVER_TOL_S:
            raise ValueError(f"segments overlap near t={b.t_start}")
        if b.t_start > a.t_end + _COVER_TOL_S:
            raise ValueError(f"gap between t={a.t_end} and t={b.t_start}")
    if abs(segs[-1].t_end - duration_s) > _COVER_TOL_S:
        raise ValueError(
            f"timeline ends at {segs[-1].t_end}, duration is {duration_s}")


def traffic_params(cfg: ScenarioConfig, traffic: TrafficSpec,
                   path: str = "params"):
    """The typed `params` of a traffic experiment. A left-out `client` is
    the first node, `server` the last and `clients` the first two. An
    unknown key, a bad value or a node name (those three and the keys of
    `path_delta_ns`) that no node has raises SchemaError naming `path`, as
    does a broadcast server or client in sentence-only (`nmea`) mode."""
    cls = TRAFFIC_PARAMS[traffic.kind]
    names = [n.name for n in cfg.nodes] or [""]
    fill = {"client": names[0], "server": names[-1], "clients": names[:2]}
    params = _decode(cls, {k: v for k, v in fill.items() if k in _keys(cls)}
                     | traffic.params, path, None)
    used = vars(params)
    for name in (*[used[k] for k in ("client", "server") if k in used],
                 *used.get("clients", ()), *used.get("path_delta_ns", ())):
        if name not in names:
            raise SchemaError(f"{path}: no node is named {name!r}")
    if traffic.kind == "broadcast":
        # Packets are stamped ahead of each second's node steps, but a
        # sentence-only clock last moved at the previous sentence's
        # arrival, about 80 ms into the second being stamped.
        for name in (params.server, *params.clients):
            mode = cfg.node(name).servo.mode
            if mode is ServoMode.NMEA_ONLY:
                raise SchemaError(f"{path}: node {name!r} has servo mode "
                                  f"{mode.value!r}; a broadcast needs "
                                  f"pulse-disciplined clocks")
    return params


def temperature_at(cfg: ScenarioConfig, t_s: float) -> float:
    """The temperature at `t_s`, which callers keep in [0, duration]."""
    return cfg.temperature.at(t_s)


def effective_nsat(cfg: ScenarioConfig, t_s: float, constellations) -> int:
    """Satellites usable at t by a receiver tracking those constellations:
    those of the first segment holding t, else of the last."""
    for seg in cfg.visibility:
        if seg.t_start - _COVER_TOL_S <= t_s < seg.t_end:
            return seg.nsat(constellations)
    return cfg.visibility[-1].nsat(constellations)


def visibility_stats(cfg: ScenarioConfig, constellations) -> VisibilityStats:
    """Time-weighted availability fractions over the whole scenario. A
    receiver needs MIN_FIX_NSAT satellites for a full position-and-time
    fix, so the NSAT >= MIN_FIX_NSAT fraction is the valid-fix fraction.
    """
    total = ge1 = ge4 = 0.0
    for seg in cfg.visibility:
        dur = seg.t_end - seg.t_start
        n = seg.nsat(constellations)
        total += dur
        if n >= 1:
            ge1 += dur
        if n >= MIN_FIX_NSAT:
            ge4 += dur
    return VisibilityStats(ge1 / total, ge4 / total)


# ---------------------------------------------------------------------------
# JSON serialization: the keys, types and defaults are the dataclass fields.
# A temperature model is tagged by its `kind` (a trace may name a CSV file
# instead), and a field with a "flatten" prefix is inlined in its parent.


def to_dict(cfg: ScenarioConfig) -> dict:
    return _encode(cfg)


def _encode(value):
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value):
        out = {"kind": value.kind} if isinstance(value, Temperature) else {}
        for f in fields(value):
            item = _encode(getattr(value, f.name))
            flat = f.metadata.get("flatten")
            if flat is None:
                out[f.name] = item
            else:
                out.update((flat + k, v) for k, v in item.items())
        return out
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):  # traffic params: keep the config unchanged
        return copy.deepcopy(value)
    return value


def _finite(value, what: str) -> float:
    """float(value), rejecting NaN, infinities and non-numbers."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{what}: {exc}") from exc
    if not math.isfinite(x):
        raise SchemaError(f"{what} must be a finite number, got {value!r}")
    return x


def _read_text(path) -> str:
    """The text of a UTF-8 file; failing to read it is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise SchemaError(f"cannot read {path}: {reason}") from exc


def load_temperature_trace(path) -> TraceTemp:
    """Read a `t_s,temp_c` CSV (header optional) into a trace model."""
    points = []
    for raw in _read_text(path).split("\n"):
        line = raw.strip()
        if not line or line.startswith("t_s"):
            continue
        try:
            t, c = line.split(",")
            points.append((_finite(t, "t_s"), _finite(c, "temp_c")))
        except ValueError as exc:
            raise SchemaError(f"{path}: bad trace line {line!r}") from exc
    try:
        return TraceTemp(tuple(points))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def from_dict(data: dict, base_dir=None) -> ScenarioConfig:
    """Build a config from parsed JSON; trace files are materialized.

    base_dir anchors relative temperature-trace paths (load() passes the
    scenario file's directory). Every malformed value, missing or unknown
    key raises SchemaError naming its path.
    """
    return _decode(ScenarioConfig, data, "", base_dir)


def _decode(tp, value, path: str, base_dir):
    if tp == Temperature:
        return _decode_temperature(value, path, base_dir)
    if is_dataclass(tp):
        obj = _object(value, path)
        unknown = obj.keys() - _keys(tp)
        if unknown:
            raise SchemaError(f"{path or 'scenario'}: unknown key "
                              f"{', '.join(sorted(map(repr, unknown)))}")
        return _build(tp, obj, path, base_dir)
    if tp is dict:
        return copy.deepcopy(_object(value, path))
    origin = get_origin(tp)
    if origin is dict:
        return {k: _decode(get_args(tp)[1], v, f"{path}.{k}", base_dir)
                for k, v in _object(value, path).items()}
    if origin in (tuple, frozenset):
        if not isinstance(value, list):
            raise SchemaError(f"{path} must be an array")
        args = get_args(tp)
        if origin is frozenset or args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(args) != len(value):
            raise SchemaError(f"{path} must have {len(args)} items")
        return origin(_decode(t, v, f"{path}[{i}]", base_dir)
                      for i, (t, v) in enumerate(zip(args, value)))
    # A scalar must have the JSON type the schema gives it: a boolean is
    # not a number, and JSON's integer takes a float with no fraction.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    kind = str if issubclass(tp, Enum) else tp
    if not {bool: isinstance(value, bool), int: number and value % 1 == 0,
            float: number, str: isinstance(value, str)}[kind]:
        raise SchemaError(f"{path}: expected a JSON {_JSON_TYPES[kind]}, "
                          f"got {value!r}")
    if tp is float:
        return _finite(value, path)
    try:  # int, str, bool or an Enum read by its value
        return tp(value)
    except ValueError as exc:  # an Enum without that value
        raise SchemaError(f"{path}: {exc}") from exc


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path or 'scenario'} must be a JSON object")
    return value


_hints = functools.cache(get_type_hints)


@functools.cache
def _keys(cls) -> frozenset:
    """The JSON keys of a config class, flattened fields inlined."""
    return frozenset(_properties(cls)[0])


def _build(cls, obj: dict, path: str, base_dir, prefix: str = ""):
    hints = _hints(cls)
    kwargs = {}
    for f in fields(cls):
        key = prefix + f.name
        flat = f.metadata.get("flatten")
        if flat is not None:
            kwargs[f.name] = _build(hints[f.name], obj, path, base_dir,
                                    prefix + flat)
        elif key in obj:
            kwargs[f.name] = _decode(hints[f.name], obj[key],
                                     f"{path}.{key}" if path else key,
                                     base_dir)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise SchemaError(
                f"{path or 'scenario'}: missing required key {key!r}")
    try:
        return cls(**kwargs)
    except SchemaError:
        raise
    except OutOfBounds as exc:  # a flattened field goes by its JSON key
        name, *rest = exc.args
        raise SchemaError(f"{path or 'scenario'}: "
                          f"{OutOfBounds(prefix + name, *rest)}") from exc
    except ValueError as exc:
        raise SchemaError(f"{path or 'scenario'}: {exc}") from exc


def _decode_temperature(value, path: str, base_dir) -> Temperature:
    obj = dict(_object(value, path))
    kind = obj.pop("kind", None)
    if kind == "trace" and "file" in obj:
        file = obj.pop("file")
        if obj or not isinstance(file, str):
            raise SchemaError(f"{path}: a trace file takes one string key, file")
        # join() keeps an absolute path as it is.
        return load_temperature_trace(os.path.join(base_dir or "", file))
    cls = next((c for c in get_args(Temperature) if c.kind == kind), None)
    if cls is None:
        raise SchemaError(f"{path}.kind must be constant, range or trace, "
                          f"got {kind!r}")
    return _decode(cls, obj, path, base_dir)


def loads(text: str, base_dir=None) -> ScenarioConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return from_dict(data, base_dir)


def load(path) -> ScenarioConfig:
    return loads(_read_text(path),
                 base_dir=os.path.dirname(os.path.abspath(path)))


def dumps(cfg: ScenarioConfig) -> str:
    return json.dumps(to_dict(cfg), indent=2, sort_keys=True)


def save(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(cfg) + "\n")


_JSON_TYPES = {bool: "boolean", int: "integer", float: "number",
               str: "string", dict: "object"}


def json_schema() -> dict:
    """The JSON Schema of a scenario file, from the same field walk as the
    codec: the type hints, the `flatten` prefixes, the temperature `kind`
    tags and each field's schema metadata (its bounds included). A key is
    required exactly when its field has no default. The traffic `params`
    are only an object here; their keys are checked at load."""
    return {"$schema": "https://json-schema.org/draft/2020-12/schema",
            "title": "tsync scenario configuration",
            **_schema(ScenarioConfig)}


def _schema(tp) -> dict:
    if tp == Temperature:
        return {"oneOf": [_temperature_schema(c) for c in get_args(tp)]}
    if is_dataclass(tp):
        props, required = _properties(tp)
        schema = {"type": "object", "required": required,
                  "additionalProperties": False, "properties": props}
        if not required:
            del schema["required"]
        return schema
    origin, args = get_origin(tp), get_args(tp)
    if origin is dict:
        return {"type": "object"}
    if origin is frozenset or args[-1:] == (Ellipsis,):
        return {"type": "array", "items": _schema(args[0])}
    if origin is tuple:
        return {"type": "array", "prefixItems": [_schema(a) for a in args],
                "minItems": len(args), "maxItems": len(args)}
    if issubclass(tp, Enum):
        return {"enum": [m.value for m in tp]}
    return {"type": _JSON_TYPES[tp]}


def _properties(cls, prefix: str = "") -> tuple[dict, list]:
    """The JSON schema of each key of a config class, flattened fields
    inlined, and the keys that are required."""
    props, required = {}, []
    hints = _hints(cls)
    for f in fields(cls):
        tp = hints[f.name]
        flat = f.metadata.get("flatten")
        if flat is not None:
            sub, sub_required = _properties(tp, prefix + flat)
            props.update(sub)
            required += sub_required
            continue
        props[prefix + f.name] = _merged(_schema(tp), dict(f.metadata))
        if f.default is MISSING and f.default_factory is MISSING:
            required.append(prefix + f.name)
    return props, required


def _merged(schema, rules):
    """`schema` with a field's `rules` laid over it, key by key and item
    by item, so a rule on a tuple's item keeps the item's type."""
    if isinstance(schema, dict) and isinstance(rules, dict):
        return {**schema, **{key: _merged(schema.get(key), rule)
                             for key, rule in rules.items()}}
    if (isinstance(schema, list) and isinstance(rules, list)
            and len(schema) == len(rules)):
        return [_merged(s, rule) for s, rule in zip(schema, rules)]
    return rules


def _temperature_schema(cls) -> dict:
    schema = _schema(cls)
    schema["required"] = ["kind", *schema["required"]]
    schema["properties"] = {"kind": {"const": cls.kind},
                            **schema["properties"]}
    if cls is TraceTemp:  # a CSV file may stand in for the points
        schema["properties"]["file"] = {"type": "string"}
        schema["required"].remove("points")
    return schema


# ---------------------------------------------------------------------------
# Presets


def _full_visibility(duration_s: int, gps: int = 8, bds: int = 6):
    return (VisibilitySeg(0.0, duration_s, gps, bds),)


# TCXO-backed node clock: small static error, linear temperature
# sensitivity and a mostly white noise floor.
_BASE_OSC = OscillatorParams(
    f0_ppm=0.08,
    temp_coeff_ppm_per_c=80_000.0 / 3600.0 / 4.0 / 1000.0,
    noise_white_fm=2e-9,
    noise_flicker_fm=5e-10,
    noise_randomwalk_fm=1e-11,
)


def _field_node(name: str, bias_ns: int, half_ns: int) -> NodeSpec:
    return NodeSpec(name=name, oscillator=_BASE_OSC,
                    receiver=ReceiverSpec(pps=PpsJitter(half_ns, bias_ns)))


def _mixed_urban_visibility(duration_s: int):
    """Interleaved urban-canyon timeline with exact availability fractions.

    Each of ten cycles: 49.6% open sky (combined NSAT >= 4), 32.4% partially
    shadowed (GPS still visible, combined < 4), 18% GPS fully shadowed
    with BDS coverage keeping combined NSAT >= 1.
    """
    segs = []
    cycle = duration_s / 10
    t = 0.0
    for i in range(10):
        a_end = t + 0.496 * cycle
        b_end = t + (0.496 + 0.324) * cycle
        c_end = duration_s if i == 9 else t + cycle
        segs.append(VisibilitySeg(t, a_end, 5, 3))
        segs.append(VisibilitySeg(a_end, b_end, 2, 1))
        segs.append(VisibilitySeg(b_end, c_end, 0, 2))
        t = c_end
    return tuple(segs)


def _tunnel_scenario(name: str, pre_s: int, outage_s: int, post_s: int,
                     predict: bool) -> ScenarioConfig:
    duration = pre_s + outage_s + post_s
    out_start, out_end = pre_s, pre_s + outage_s
    osc = replace(_BASE_OSC, noise_white_fm=1e-10, noise_flicker_fm=0.0,
                  noise_randomwalk_fm=0.0)
    node = NodeSpec(name="vehicle", oscillator=osc,
                    servo=ServoConfig(holdover_predict=predict))
    # The sheltered section sits 4 C cooler; through the oscillator's
    # temperature coefficient that reproduces the 80 us/h free-run drift.
    temp = TraceTemp((
        (0.0, 25.0), (out_start, 25.0), (out_start + 2.0, 21.0),
        (out_end, 21.0), (out_end + 2.0, 25.0), (duration, 25.0),
    ))
    return ScenarioConfig(
        name=name,
        duration_s=duration,
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
    duration = 1800

    def client(nm: str, recv: ReceiverSpec) -> NodeSpec:
        return NodeSpec(name=nm, oscillator=_BASE_OSC, receiver=recv)

    recv_a = ReceiverSpec(stamp_bias_ns=bias_a_ns, stamp_latency_ns=latency_ns)
    recv_b = ReceiverSpec(stamp_latency_ns=latency_ns)
    return ScenarioConfig(
        name=name,
        duration_s=duration,
        temperature=RangeTemp(20.0, 25.0, 86400.0),
        visibility=_full_visibility(duration),
        nodes=(client("c1", recv_a), client("c2", recv_b),
               NodeSpec(name="c3")),
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
        name="lab_16c", duration_s=36_000,
        temperature=ConstantTemp(16.0),
        visibility=_full_visibility(36_000),
        nodes=(lab,),
    )

    room = NodeSpec(name="bench", oscillator=_BASE_OSC,
                    receiver=ReceiverSpec(pps=PpsJitter(1550)))
    presets["room_24h"] = ScenarioConfig(
        name="room_24h", duration_s=86_400,
        temperature=RangeTemp(20.0, 25.0, 86_400.0),
        visibility=_full_visibility(86_400),
        nodes=(room,),
    )

    for name, bias, half in (("suburban", 533, 1200), ("highway", 495, 1500)):
        presets[name] = ScenarioConfig(
            name=name, duration_s=1800,
            temperature=RangeTemp(22.0, 26.0, 3600.0),
            visibility=_full_visibility(1800, gps=7, bds=5),
            nodes=(_field_node("vehicle", bias, half),),
        )

    presets["mixed_urban"] = ScenarioConfig(
        name="mixed_urban", duration_s=1800,
        temperature=RangeTemp(22.0, 26.0, 3600.0),
        visibility=_mixed_urban_visibility(1800),
        nodes=(_field_node("vehicle", 250, 1900),),
    )

    # 5.25 km tunnel at 60 km/h: 315 s without any satellite signal.
    presets["tunnel_5km"] = _tunnel_scenario("tunnel_5km", 600, 315, 285,
                                             predict=True)
    presets["blockage_4h"] = _tunnel_scenario("blockage_4h", 480, 14_400,
                                              120, predict=False)

    presets["harness_10pps"] = _harness_scenario("harness_10pps", 10.0, 1000, 9000)
    presets["harness_100pps"] = _harness_scenario("harness_100pps", 100.0, 1500, 7000)
    # 300 packets per minute
    presets["harness_300ppm"] = _harness_scenario("harness_300ppm", 5.0, 250, 8000)

    presets["lte_ntp"] = ScenarioConfig(
        name="lte_ntp", duration_s=1000,
        visibility=_full_visibility(1000),
        nodes=(NodeSpec(name="mobile"), NodeSpec(name="ntp_server")),
        traffic=(TrafficSpec("ntp", 1.0, {
            "client": "mobile", "server": "ntp_server",
            "delay_up_ms": 20.0, "delay_down_ms": 6.8,
            "jitter_ms": 2.4, "drop_prob": 0.0,
        }),),
    )
    return presets


_PRESETS = _build_presets()
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ScenarioConfig:
    """A fully populated configuration for one of the canned experiments;
    every call returns the same frozen object."""
    if name not in _PRESETS:
        raise UnknownPreset(name)
    return _PRESETS[name]
