"""Seeded vehicle-drive input for the ``drive_replay`` workload.

The drive is one node in sentence+pulse mode over ``DURATION_S`` seconds:

* a 1 Hz temperature trace in a CSV file (``"kind": "trace", "file": ...``),
  so the scenario's temperature lookup runs against a long point list every
  simulated second, in the live run and again in replay;
* a temperature that keeps varying (a slow cabin swing plus a random walk),
  so replay's temperature defect stays visible as diverged rows instead of
  being hidden by a constant temperature;
* visibility churn: open sky, partial shadow (1-3 satellites: pulses and
  sentences continue, the fix is invalid) and short outages below the
  servo's 60 s holdover span;
* one outage of ``LONG_OUTAGE_S`` seconds, longer than
  ``MIN_HOLDOVER_SPAN_S``, so holdover engages and predicts.

The segment lengths are fixed and only their order, the gaps between them,
the satellite counts and the temperature come from the seed, so the work per
run does not depend on the seed.
"""

from __future__ import annotations

import json
import math
import os
import random

DURATION_S = 7200
LONG_OUTAGE_S = 240
SHORT_OUTAGES_S = (4, 7, 10, 15, 20, 30, 45)
SHADOWS_S = (20, 40, 60, 90, 120)
# Servo settles and every gap stays this long before the next event.
LEAD_S = 120
MIN_GAP_S = 30

NODE = {
    "name": "vehicle",
    "oscillator": {
        "f0_ppm": 0.08,
        "temp_coeff_ppm_per_c": 80_000.0 / 3600.0 / 4.0 / 1000.0,
        "ref_temp_c": 25.0,
        "noise_white_fm": 2e-9,
        "noise_flicker_fm": 5e-10,
        "noise_randomwalk_fm": 1e-11,
    },
    "servo": {"mode": "nmea+pps", "holdover_predict": True},
    "constellations": ["BEIDOU", "GPS"],
    "receiver": {"pps_half_width_ns": 1200, "pps_bias_ns": 533},
}


def _visibility(rng: random.Random) -> tuple[list[dict], int]:
    """Visibility segments and the number of outage seconds."""
    events = [("outage", LONG_OUTAGE_S)]
    events += [("outage", n) for n in SHORT_OUTAGES_S]
    events += [("shadow", n) for n in SHADOWS_S]
    rng.shuffle(events)
    busy = sum(n for _, n in events)
    spare = DURATION_S - LEAD_S - busy - MIN_GAP_S * len(events)
    cuts = sorted(rng.randrange(spare + 1) for _ in events)
    gaps = [b - a for a, b in zip([0, *cuts], cuts)]

    segs: list[dict] = []

    def add(t0: int, t1: int, gps: int, bds: int) -> None:
        segs.append({"t_start": float(t0), "t_end": float(t1),
                     "nsat_gps": gps, "nsat_bds": bds})

    t = 0
    lead = LEAD_S
    for (kind, length), gap in zip(events, gaps):
        open_s = lead + gap
        add(t, t + open_s, rng.randint(6, 9), rng.randint(4, 7))
        t += open_s
        if kind == "outage":
            add(t, t + length, 0, 0)
        else:
            add(t, t + length, rng.randint(1, 2), rng.randint(0, 1))
        t += length
        lead = MIN_GAP_S
    add(t, DURATION_S, rng.randint(6, 9), rng.randint(4, 7))
    outage_s = sum(n for kind, n in events if kind == "outage")
    return segs, outage_s


def _trace(rng: random.Random) -> list[str]:
    """1 Hz cabin temperature: a slow swing plus a bounded random walk."""
    base = rng.uniform(18.0, 26.0)
    swing = rng.uniform(3.0, 6.0)
    period = rng.uniform(2400.0, 4800.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    walk = 0.0
    lines = ["t_s,temp_c"]
    for t in range(DURATION_S + 1):
        walk = max(-3.0, min(3.0, walk + rng.gauss(0.0, 0.03)))
        c = base + swing * math.sin(2.0 * math.pi * t / period + phase) + walk
        lines.append(f"{t},{c:.4f}")
    return lines


def generate(seed: int, out_dir: str, schema_path: str) -> dict:
    """Write ``trace.csv`` and ``scenario.json`` for one seed.

    The scenario is validated against the published schema before use.
    Returns the scenario path and the counts the checks need.
    """
    import jsonschema

    rng = random.Random(seed)
    segs, outage_s = _visibility(rng)
    trace = _trace(rng)
    scenario = {
        "name": f"drive_{seed}",
        "duration_s": float(DURATION_S),
        "seed": seed,
        "temperature": {"kind": "trace", "file": "trace.csv"},
        "visibility": segs,
        "nodes": [NODE],
    }
    with open(schema_path, "r", encoding="utf-8") as fh:
        jsonschema.validate(scenario, json.load(fh))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(trace) + "\n")
    path = os.path.join(out_dir, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"scenario": path, "duration_s": DURATION_S,
            "visible_s": DURATION_S - outage_s}
