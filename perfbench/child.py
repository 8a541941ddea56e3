"""One ``kcorr run SESSION`` op of the session workload, in a fresh interpreter.

Usage: child.py SESSION OP_ID TRACE_PATH|- SPAWN_WALL_TIME

With a trace path, installs the benchmark's wrappers before calling
``kcorr.cli.main(["run", SESSION])`` and writes the span summary, the spans
and the start-up time (spawn to ``main``) there.  The exit code and stdout
are those of the CLI.
"""

import sys
import time


def main():
    path, op_id, trace_path, spawned = sys.argv[1:5]
    from kcorr import cli, config
    tracer = None
    if trace_path != "-":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
        tracer.op = op_id
    startup_s = time.time() - float(spawned)
    try:
        code = cli.main(["run", path])
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
            from pathlib import Path
            tracer_mod.write_json(Path(trace_path), {
                "summary": tracer.summary(), "startup_s": startup_s,
                "debug_after": config.debug_enabled(), **tracer.dump()})
    return code


if __name__ == "__main__":
    sys.exit(main())
