import bisect
import dataclasses
import json
import os
import typing
from operator import itemgetter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tsync import scenario, timebase
from tsync.scenario import (ConstantTemp, LinkModel, NodeSpec, RangeTemp,
                            ScenarioConfig, SchemaError, TraceTemp,
                            TrafficSpec, UnknownPreset, VisibilitySeg, preset,
                            temperature_at, traffic_params, visibility_stats)

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "docs")


def minimal(duration=100, **kw):
    kw.setdefault("visibility", (VisibilitySeg(0.0, duration, 8, 6),))
    return ScenarioConfig(name="mini", duration_s=duration, **kw)


# A value past each enum, items and uniqueItems rule that a config field
# declares, keyed by (class, field, keyword), and the path in the
# harness_10pps preset's JSON where it goes.
_PAST_MEMBERSHIP = {
    ("TrafficSpec", "kind", "enum"): (("traffic", 0, "kind"), "bogus"),
    ("NodeSpec", "constellations", "items"):
        (("nodes", 0, "constellations"), ["GPS", "GLONASS"]),
    ("BroadcastParams", "clients", "uniqueItems"):
        (("traffic", 0, "params", "clients"), ["c1", "c1"]),
    ("TraceTemp", "points", "items"):
        (("temperature",), {"kind": "trace", "points": [[0, 16], [10, 1e300]]}),
}


def _config_classes() -> set:
    """Every dataclass a scenario file is decoded into: those reached
    through ScenarioConfig's field types, and each traffic kind's params."""
    found, todo = set(), [ScenarioConfig, *scenario.TRAFFIC_PARAMS.values()]
    while todo:
        tp = todo.pop()
        if not dataclasses.is_dataclass(tp):
            todo += typing.get_args(tp)
        elif tp not in found:
            found.add(tp)
            todo += typing.get_type_hints(tp).values()
    return found


def _with(name: str, keys, value) -> dict:
    """The JSON of preset `name` with the value at `keys` replaced."""
    doc = scenario.to_dict(preset(name))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return doc


class TestValidation:
    def test_minimal_config_loads(self):
        cfg = scenario.loads(scenario.dumps(minimal()))
        assert cfg.name == "mini"

    def test_overlapping_segments(self):
        with pytest.raises(ValueError, match="^segments overlap near t=5$"):
            ScenarioConfig(name="x", duration_s=10, visibility=(
                VisibilitySeg(0, 6, 8, 6), VisibilitySeg(5, 10, 8, 6)))

    def test_gap_in_coverage(self):
        with pytest.raises(ValueError, match="^gap between t=4 and t=5$"):
            ScenarioConfig(name="x", duration_s=10, visibility=(
                VisibilitySeg(0, 4, 8, 6), VisibilitySeg(5, 10, 8, 6)))

    def test_timeline_must_reach_duration(self):
        with pytest.raises(ValueError,
                           match="^timeline ends at 9, duration is 10$"):
            ScenarioConfig(name="x", duration_s=10,
                           visibility=(VisibilitySeg(0, 9, 8, 6),))

    def test_duplicate_node_names(self):
        node = scenario.NodeSpec(name="n")
        with pytest.raises(ValueError, match="^node names must be unique$"):
            minimal(nodes=(node, node))

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            scenario.loads("{not json")

    def test_missing_keys(self):
        with pytest.raises(SchemaError):
            scenario.loads(json.dumps({"name": "x"}))

    @pytest.mark.parametrize("keys, value, match", [
        (("duration_s",), float("nan"), "expected a JSON integer, got nan"),
        (("duration_s",), float("inf"), "expected a JSON integer, got inf"),
        (("duration_s",), "-inf", "expected a JSON integer, got '-inf'"),
        (("temperature", "c"), float("nan"), "finite"),
        (("visibility", 0, "t_end"), float("inf"), "finite"),
        (("nodes", 0, "oscillator", "f0_ppm"), float("nan"), "finite"),
        (("nodes", 0, "servo", "kp"), float("inf"), "finite"),
        (("nodes", 0, "receiver", "pps_half_width_ns"), float("inf"),
         "expected a JSON integer, got inf"),
    ], ids=["duration-nan", "duration-inf", "duration-minus-inf-string",
            "constant-temperature-nan", "visibility-end-inf",
            "oscillator-nan", "servo-gain-inf", "receiver-ns-inf"])
    def test_non_finite_numbers_rejected(self, keys, value, match):
        data = scenario.to_dict(minimal(nodes=(scenario.NodeSpec(name="n"),)))
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        with pytest.raises(SchemaError, match=match):
            scenario.from_dict(data)

    def test_whole_float_is_an_integer(self):
        data = scenario.to_dict(minimal())
        data["seed"] = 7.0
        seed = scenario.from_dict(data).seed
        assert (type(seed), seed) == (int, 7)

    def test_non_finite_trace_point_rejected(self, tmp_path):
        (tmp_path / "trace.csv").write_text("t_s,temp_c\n0,20\n10,nan\n")
        data = scenario.to_dict(minimal())
        data["temperature"] = {"kind": "trace", "file": "trace.csv"}
        with pytest.raises(SchemaError, match="trace.csv"):
            scenario.from_dict(data, base_dir=str(tmp_path))

    def test_unknown_constellation(self):
        data = scenario.to_dict(minimal(nodes=(scenario.NodeSpec(name="n"),)))
        data["nodes"][0]["constellations"] = ["NAVSTAR"]
        with pytest.raises(SchemaError):
            scenario.from_dict(data)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
              deadline=None)
    @given(st.sampled_from(scenario.PRESET_NAMES), st.data())
    def test_mutated_config_loads_or_raises_schema_error(self, tmp_path, name,
                                                         data):
        doc = scenario.to_dict(preset(name))
        keys = data.draw(st.sampled_from(list(_key_paths(doc))))
        value = data.draw(_JSON_VALUES)
        if keys:
            target = doc
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        else:
            doc = value
        try:
            cfg = scenario.from_dict(doc, base_dir=str(tmp_path))
        except SchemaError:
            return
        assert isinstance(cfg, ScenarioConfig)

    def test_every_schema_property_accepted(self, tmp_path):
        with open(os.path.join(DOCS, "scenario.schema.json")) as fh:
            schema = json.load(fh)
        (tmp_path / "trace.csv").write_text("0,20\n100,21\n")
        docs = [scenario.to_dict(preset(name)) for name in scenario.PRESET_NAMES]
        docs.append(dict(scenario.to_dict(minimal()),
                         temperature={"kind": "trace", "file": "trace.csv"}))
        accepted = set()
        for doc in docs:
            scenario.from_dict(doc, base_dir=str(tmp_path))
            accepted |= {tuple("[]" if isinstance(k, int) else k for k in keys)
                         for keys in _key_paths(doc)}
        assert set(_schema_paths(schema)) <= accepted

    def test_published_schema_is_generated(self):
        with open(os.path.join(DOCS, "scenario.schema.json"), "rb") as fh:
            published = fh.read()
        generated = json.dumps(scenario.json_schema(), indent=2) + "\n"
        assert published == generated.encode()

    def test_values_past_every_schema_bound_rejected(self):
        with open(os.path.join(DOCS, "scenario.schema.json")) as fh:
            schema = json.load(fh)
        # One document per temperature kind, so that every branch of the
        # temperature's oneOf is walked; each bound is tried on the first
        # document that reaches it.
        bounds = {}
        for temperature in (RangeTemp(20.0, 25.0, 3600.0), ConstantTemp(20.0),
                            TraceTemp(((0.0, 20.0), (100.0, 21.0)))):
            doc = scenario.to_dict(minimal(
                temperature=temperature, nodes=(NodeSpec(name="n"),),
                traffic=(TrafficSpec("tsf", 1.0),)))
            scenario.from_dict(doc)
            for keys, value in _past_bounds(schema, doc):
                bounds.setdefault((keys, value), doc)
        # each (exclusive) minimum and maximum in the file is reached
        assert len(bounds) == json.dumps(schema).count("imum\"")
        accepted = []
        for (keys, value), doc in bounds.items():
            bad = json.loads(json.dumps(doc))
            target = bad
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
            try:
                scenario.from_dict(bad)
            except SchemaError:
                continue
            accepted.append((keys, value))
        assert accepted == []

    def test_every_config_class_checks_its_rules(self):
        classes = _config_classes()
        assert len(classes) == 16
        assert all(issubclass(cls, timebase.Bounded) for cls in classes)
        for cls in classes:
            for f in dataclasses.fields(cls):
                meta = dict(f.metadata)
                meta |= meta.get("items", {})
                assert meta.keys() - {"flatten"} <= \
                    timebase._BOUND_TESTS.keys(), (cls, f.name)

    def test_values_past_every_membership_rule_rejected(self):
        declared = {(cls.__name__, f.name, key) for cls in _config_classes()
                    for f in dataclasses.fields(cls) for key in f.metadata
                    if key in ("enum", "items", "uniqueItems")}
        assert declared == _PAST_MEMBERSHIP.keys()
        scenario.from_dict(scenario.to_dict(preset("harness_10pps")))
        for keys, value in _PAST_MEMBERSHIP.values():
            with pytest.raises(SchemaError):
                scenario.from_dict(_with("harness_10pps", keys, value))

    @pytest.mark.parametrize("name, keys, value, match", [
        ("tunnel_5km", ("temperature", "points", 1, 0), -5,
         "temperature: points must be time-sorted"),
        ("tunnel_5km", ("visibility", 1, "t_end"), 600.0,
         r"visibility\[1\]: t_end must be > t_start"),
        ("harness_10pps", *_PAST_MEMBERSHIP["TrafficSpec", "kind", "enum"],
         r"traffic\[0\]: kind must be one of broadcast, ntp, tsf"),
        ("harness_10pps",
         *_PAST_MEMBERSHIP["NodeSpec", "constellations", "items"],
         r"nodes\[0\]: constellations must each be one of GPS, BEIDOU"),
        ("harness_10pps",
         *_PAST_MEMBERSHIP["BroadcastParams", "clients", "uniqueItems"],
         r"traffic\[0\]\.params: clients must be distinct"),
        ("harness_10pps", *_PAST_MEMBERSHIP["TraceTemp", "points", "items"],
         r"temperature: points\[\*\]\[1\] must be in \[-273\.15, 1000\]"),
    ], ids=["unsorted-trace", "empty-segment", "unknown-traffic-kind",
            "unknown-constellation", "repeated-client", "trace-temperature"])
    def test_broken_rule_names_its_path(self, name, keys, value, match):
        with pytest.raises(SchemaError, match=f"^{match}$"):
            scenario.from_dict(_with(name, keys, value))


class TestTrafficParams:
    @pytest.mark.parametrize("name, key, value, match", [
        ("harness_10pps", "clinets", ["c2", "c3"], "unknown key 'clinets'"),
        ("harness_10pps", "server", "c9", "no node is named 'c9'"),
        ("harness_10pps", "path_delta_ns", {"c7": 5}, "no node is named 'c7'"),
        ("harness_10pps", "clients", ["c1"], "at least 2 clients"),
        ("harness_10pps", "clients", ["c1", "c1"], "clients must be distinct"),
        ("lte_ntp", "client", "nobody", "no node is named 'nobody'"),
        ("lte_ntp", "drop_prob", 1.0, "drop_prob must be in"),
        ("harness_10pps", "drop_prob", -0.3, "drop_prob must be in"),
        ("harness_10pps", "drop_prob", 1.5, "drop_prob must be in"),
        ("lte_ntp", "delay_up_ms", "slow", "expected a JSON number, got 'slow'"),
    ])
    def test_bad_params_rejected_at_load(self, name, key, value, match):
        data = scenario.to_dict(preset(name))
        data["traffic"][0]["params"][key] = value
        with pytest.raises(SchemaError, match=r"^traffic\[0\]\.params"
                           r"(\.\w+)?: .*" + match):
            scenario.from_dict(data)

    def test_unset_params_take_the_defaults(self):
        cfg = minimal(nodes=tuple(NodeSpec(name=n) for n in "abc"),
                      traffic=(TrafficSpec("broadcast", 1.0),
                               TrafficSpec("ntp", 1.0),
                               TrafficSpec("tsf", 1.0)))
        flood, ntp, tsf = (traffic_params(cfg, t) for t in cfg.traffic)
        assert (flood.server, flood.clients) == ("c", ("a", "b"))
        assert (flood.path_delta_ns, flood.drop_prob) == ({}, 0.0)
        assert (ntp.client, ntp.server, ntp.link) == ("a", "c", LinkModel())
        assert (tsf.n_nodes, tsf.spread_ppm, tsf.airtime_jitter_us) == \
            (20, 100.0, 2.0)


class TestTemperature:
    def test_constant(self):
        cfg = minimal(temperature=ConstantTemp(16.0))
        assert temperature_at(cfg, 0.0) == 16.0
        assert temperature_at(cfg, 99.0) == 16.0

    def test_range_endpoints(self):
        cfg = minimal(duration=86_400, temperature=RangeTemp(20, 25, 86_400),
                      visibility=(VisibilitySeg(0, 86_400, 8, 6),))
        assert temperature_at(cfg, 0.0) == pytest.approx(20.0)
        assert temperature_at(cfg, 43_200.0) == pytest.approx(25.0)

    def test_trace_interpolation(self):
        cfg = minimal(temperature=TraceTemp(((0.0, 10.0), (100.0, 20.0))))
        assert temperature_at(cfg, 50.0) == pytest.approx(15.0)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(-40, 85)),
                    min_size=2).map(sorted),
           st.data())
    def test_trace_lookup_matches_linear_scan(self, points, data):
        # Few distinct times, so repeated timestamps are common.
        pts = tuple((float(t), float(c)) for t, c in points)
        t_s = data.draw(st.one_of(st.sampled_from([t for t, _ in pts]),
                                  st.floats(-5.0, 25.0)))
        assert TraceTemp(pts).at(t_s) == _scan_trace(pts, t_s)

    @settings(derandomize=True, max_examples=300)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.25, 7.0, 7.1])
                              | st.floats(-1e4, 1e4),
                              st.floats(-273.15, 1000)),
                    min_size=2).map(sorted),
           st.data())
    def test_trace_lookup_is_the_keyed_bisection(self, points, data):
        # A few times recur often, so points share times; probes land on
        # the points, between them, and before and past the ends.
        pts = tuple(points)
        times = [t for t, _ in pts]
        t_s = data.draw(st.one_of(
            st.sampled_from(times), st.floats(times[0] - 10, times[-1] + 10),
            st.sampled_from([times[0] - 1, times[-1] + 1])))
        got = TraceTemp(pts).at(t_s)
        assert got.hex() == _keyed_bisect_trace(pts, t_s).hex()

    def test_trace_from_csv_file(self, tmp_path):
        (tmp_path / "temps.csv").write_text(
            "t_s,temp_c\n0,16.0\n50,18.0\n100,16.0\n")
        data = scenario.to_dict(minimal())
        data["temperature"] = {"kind": "trace", "file": "temps.csv"}
        (tmp_path / "cfg.json").write_text(json.dumps(data))
        cfg = scenario.load(tmp_path / "cfg.json")
        assert temperature_at(cfg, 25.0) == pytest.approx(17.0)

    def test_bad_trace_file(self, tmp_path):
        (tmp_path / "temps.csv").write_text("0,16.0,junk\n")
        data = scenario.to_dict(minimal())
        data["temperature"] = {"kind": "trace", "file": "temps.csv"}
        (tmp_path / "cfg.json").write_text(json.dumps(data))
        with pytest.raises(SchemaError):
            scenario.load(tmp_path / "cfg.json")


class TestVisibilityStats:
    def test_full_sky(self):
        stats = visibility_stats(minimal(), {"GPS", "BEIDOU"})
        assert stats.frac_nsat_ge_1 == 1.0
        assert stats.frac_nsat_ge_4 == 1.0

    def test_mixed_urban_aggregates(self):
        cfg = preset("mixed_urban")
        both = visibility_stats(cfg, {"GPS", "BEIDOU"})
        gps = visibility_stats(cfg, {"GPS"})
        assert both.frac_nsat_ge_4 == pytest.approx(0.496, abs=0.005)
        assert both.frac_nsat_ge_1 == pytest.approx(1.0, abs=0.005)
        assert gps.frac_nsat_ge_1 == pytest.approx(0.82, abs=0.005)

    def test_invariant_under_segment_split(self):
        whole = minimal()
        split = ScenarioConfig(name="mini", duration_s=100, visibility=(
            VisibilitySeg(0, 50, 8, 6), VisibilitySeg(50, 100, 8, 6)))
        assert visibility_stats(whole, {"GPS"}) == visibility_stats(
            split, {"GPS"})


class TestPresets:
    @pytest.mark.parametrize("name", scenario.PRESET_NAMES)
    def test_all_presets_valid_and_roundtrip(self, name):
        cfg = preset(name)
        again = scenario.loads(scenario.dumps(cfg))
        assert again == cfg

    def test_json_form_shares_no_mutable_value(self):
        cfg = preset("harness_10pps")
        data = scenario.to_dict(cfg)
        data["traffic"][0]["params"]["clients"].append("c3")
        assert cfg.traffic[0].params["clients"] == ["c1", "c2"]
        loaded = scenario.from_dict(data)
        data["traffic"][0]["params"]["clients"].clear()
        assert loaded.traffic[0].params["clients"] == ["c1", "c2", "c3"]

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("autobahn")

    def test_tunnel_outage_segment(self):
        cfg = preset("tunnel_5km")
        blocked = [s for s in cfg.visibility if s.nsat_gps + s.nsat_bds == 0]
        assert len(blocked) == 1
        assert blocked[0].t_end - blocked[0].t_start == pytest.approx(315.0)

    def test_lab_constant_16c_10h(self):
        cfg = preset("lab_16c")
        assert cfg.duration_s == 36_000
        assert isinstance(cfg.temperature, ConstantTemp)
        assert cfg.temperature.c == 16.0

    def test_300ppm_is_5hz(self):
        cfg = preset("harness_300ppm")
        assert cfg.traffic[0].rate_hz == pytest.approx(5.0)

    def test_presets_match_published_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        with open(os.path.join(DOCS, "scenario.schema.json")) as fh:
            schema = json.load(fh)
        for name in scenario.PRESET_NAMES:
            jsonschema.validate(scenario.to_dict(preset(name)), schema)

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "tunnel.json"
        cfg = preset("tunnel_5km")
        scenario.save(cfg, path)
        assert scenario.load(path) == cfg


def _scan_trace(pts, t_s):
    """Reference lookup: the first segment whose end is at or after t_s."""
    if t_s <= pts[0][0]:
        return pts[0][1]
    for (t0, c0), (t1, c1) in zip(pts, pts[1:]):
        if t_s <= t1:
            if t1 == t0:
                return c1
            return c0 + (c1 - c0) * (t_s - t0) / (t1 - t0)
    return pts[-1][1]


def _keyed_bisect_trace(pts, t_s):
    """The lookup as it was when it bisected the points themselves, keyed
    on their times."""
    if t_s <= pts[0][0]:
        return pts[0][1]
    i = bisect.bisect_left(pts, t_s, key=itemgetter(0))
    if i == len(pts):
        return pts[-1][1]
    (t0, c0), (t1, c1) = pts[i - 1], pts[i]
    return c0 + (c1 - c0) * (t_s - t0) / (t1 - t0)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([2**63, -(10**30), 10**400])
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


def _key_paths(doc, keys=()):
    """The path of every value in a JSON document, the root's included."""
    yield keys
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _key_paths(value, keys + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _key_paths(value, keys + (i,))


def _past_bounds(schema, doc, keys=()):
    """(path, value) just past each numeric bound the schema sets on a
    value of `doc`; a `oneOf` is followed into the branch of doc's kind,
    an array into its first item, a tuple into each of its items, and an
    object into the keys doc gives (a trace's `points`, not its `file`)."""
    for sub in schema.get("oneOf", ()):
        if sub["properties"]["kind"]["const"] == doc["kind"]:
            yield from _past_bounds(sub, doc, keys)
    for key, sub in schema.get("properties", {}).items():
        if key in doc:
            yield from _past_bounds(sub, doc[key], keys + (key,))
    if isinstance(schema.get("items"), dict):
        yield from _past_bounds(schema["items"], doc[0], keys + (0,))
    for i, sub in enumerate(schema.get("prefixItems", ())):
        yield from _past_bounds(sub, doc[i], keys + (i,))
    step = 1 if schema.get("type") == "integer" else 1e-6
    for bound, past in (("minimum", -step), ("exclusiveMinimum", 0),
                        ("maximum", step), ("exclusiveMaximum", 0)):
        if bound in schema:
            yield keys, schema[bound] + past


def _schema_paths(schema, keys=()):
    """The path of every property a JSON schema names; '[]' is any item."""
    for key, sub in schema.get("properties", {}).items():
        yield keys + (key,)
        yield from _schema_paths(sub, keys + (key,))
    if isinstance(schema.get("items"), dict):
        yield from _schema_paths(schema["items"], keys + ("[]",))
    for sub in schema.get("oneOf", ()):
        yield from _schema_paths(sub, keys)
