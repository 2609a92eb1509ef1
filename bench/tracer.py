"""Per-layer spans recorded from outside the package.

Each wrapper is installed on the name its caller actually looks up: a
module attribute for callers that write ``module.func(...)``, the importing
module's own global for callers that did ``from module import func``, and
the class attribute for methods. A wrapper on ``tsync.timebase.advance``
alone would record nothing, because ``engine`` calls its own binding.

Spans nest on one stack. A span's self time is its duration minus the time
covered by the spans opened inside it. Spans are aggregated per name in
memory (calls, self time, errors raised) and written out once, at the end
of the repetition: keeping one record per span would hold about two
million records on ``broadcast_100pps``.
"""

from __future__ import annotations

import math
import time


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.samples: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.noise_streams: list = []
        self._stack: list[list[int]] = []

    def wrap(self, name: str, fn, keep_samples: bool = False):
        """``fn`` inside a span called ``name``."""
        stack = self._stack
        clock = time.perf_counter_ns
        calls, self_ns, errors = self.calls, self.self_ns, self.errors
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)
        errors.setdefault(name, 0)
        samples = self.samples.setdefault(name, []) if keep_samples else None

        def span(*args, **kwargs):
            child = [0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                self_ns[name] += dt - child[0]
                if samples is not None:
                    samples.append(dt)

        return span

    def patch(self, owner, attr: str, name: str, keep_samples: bool = False):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), keep_samples))

    def install(self) -> None:
        """Wrap the public calls of every package module."""
        from tsync import engine, metrics, net, nmea, pps, scenario, servo, timebase

        # timebase: engine and net bound these with ``from .timebase import``.
        advance = self.wrap("timebase.advance", timebase.advance)
        for mod in (timebase, engine):
            mod.advance = advance
        read_clock = self.wrap("timebase.read_clock", timebase.read_clock)
        for mod in (timebase, engine, net):
            mod.read_clock = read_clock
        self._count_instances()
        init = self.wrap("timebase.noise_init", timebase.NoiseStream.__init__)
        streams = self.noise_streams

        def noise_init(stream, *args, **kwargs):
            init(stream, *args, **kwargs)
            streams.append(stream)

        timebase.NoiseStream.__init__ = noise_init

        # nmea, pps, servo, scenario, metrics: called as ``module.func``.
        self.patch(nmea, "generate", "nmea.generate")
        self.patch(nmea, "parse_sentence", "nmea.parse")
        self.patch(nmea, "extract_fix", "nmea.parse")
        self.patch(pps, "next_pps", "pps.next_pps")
        self.patch(pps, "label_pps", "pps.label_pps")
        self.patch(servo, "update", "servo.update")
        self.patch(servo, "enter_holdover", "servo.enter_holdover")
        self.patch(scenario, "temperature_at", "scenario.temperature_at")
        self.patch(scenario, "effective_nsat", "scenario.effective_nsat")
        self.patch(scenario, "load", "scenario.load")
        self.patch(scenario, "preset", "scenario.load")
        self.patch(metrics, "report", "metrics.report")

        # engine and net: the CLI calls ``engine.run_scenario``,
        # ``engine.run_replay`` and ``net.run_broadcast``; the loops call
        # the NodeSim methods.
        self.patch(engine, "run_scenario", "engine.run")
        self.patch(engine, "run_replay", "engine.replay")
        self.patch(engine.NodeSim, "step_boundary", "engine.step", keep_samples=True)
        self.patch(engine.NodeSim, "read_disciplined", "net.stamp")
        self.patch(net, "run_broadcast", "net.broadcast")
        self.patch(net, "pairwise_offsets", "net.pairwise")

    def _count_instances(self) -> None:
        """Count SimInstant constructions without opening a span."""
        from tsync.timebase import SimInstant

        counts = self.counts
        counts["timebase.siminstant"] = 0
        post_init = SimInstant.__post_init__

        def counted(inst):
            counts["timebase.siminstant"] += 1
            post_init(inst)

        SimInstant.__post_init__ = counted

    def summary(self) -> dict:
        """Aggregates to write at the end of the repetition."""
        allocated = used = 0
        for stream in self.noise_streams:
            if not getattr(stream, "_silent", True):
                allocated += stream._n
                used += stream._i
        steps = sorted(self.samples.get("engine.step", []))
        return {
            "calls": self.calls,
            "self_ns": self.self_ns,
            "errors": self.errors,
            "counts": self.counts,
            "noise_draws_used": used,
            "noise_steps_allocated": allocated,
            "step_ns_p50": _percentile(steps, 0.50),
            "step_ns_p99": _percentile(steps, 0.99),
        }


def _percentile(ordered: list[int], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    k = max(0, math.ceil(q * len(ordered)) - 1)
    return float(ordered[k])
