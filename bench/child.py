"""One repetition of a workload, in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

The spec names the package source directory, the CLI argument lists to run
one after another, where to send their standard output, whether to trace,
and where to write the result. Every command goes through the package's
own ``tsync`` entry point, in this one process, so the import is paid once.

Set-up ends when the first command has built its node simulators, that is,
just before the first simulated second. The result carries the monotonic
clock at that moment (the parent compares it with the clock it read just
before starting this process), the CPU time then and at the end, the exit
code of every command and the peak RSS of this process.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def _invoke(main, args: list[str]) -> int:
    """Exit code the ``tsync`` command line would return for ``args``."""
    import click

    try:
        main.main(args=args, prog_name="tsync", standalone_mode=False)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except Exception:  # noqa: BLE001 - reported as a failed command
        traceback.print_exc()
        return 1
    return 0


def run(spec: dict) -> dict:
    t0 = time.monotonic()
    import tsync.cli as cli
    import_s = time.monotonic() - t0
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the package under {src}")

    from tsync import engine

    ready: list[float] = []
    build = engine.build_node_sims

    def build_node_sims(cfg):
        sims = build(cfg)
        if not ready:
            ready.extend((time.monotonic(), time.process_time()))
        return sims

    engine.build_node_sims = build_node_sims

    tracer = None
    invoke = _invoke
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        invoke = tracer.wrap("cli", _invoke)

    codes = []
    with open(spec["stdout"], "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        for args in spec["commands"]:
            codes.append(invoke(cli.main, args))
    t_end, cpu_end = time.monotonic(), time.process_time()

    result = {
        "import_s": import_s,
        "codes": codes,
        "ready": ready[0] if ready else None,
        "cpu_ready": ready[1] if ready else None,
        "end": t_end,
        "cpu_end": cpu_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def main() -> None:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
