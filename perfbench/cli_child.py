"""Run one vspart command in this fresh interpreter, as the `vspart` script does.

    python3 perfbench/cli_child.py [--trace SPANS.json] [--probe PROBE.json] -- ARGV...

An uncaught exception gives a traceback and exit 1, like the installed
entry point.  With --trace, spans of the traced vspart functions are
recorded around `vspart.cli.run` and written to SPANS.json on exit.  With
--probe, the host-speed probe (hostspeed.py) samples this process from
before `import vspart` to exit, and its samples and stolen time are
written to PROBE.json.
"""

import json
import sys


def main() -> None:
    argv = sys.argv[1:]
    trace_file = probe_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
    if argv[:1] == ["--probe"]:
        probe_file, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    if probe_file is not None:
        from hostspeed import HostSpeed

        probe = HostSpeed()
        probe.start_timer()
        try:
            import vspart.cli

            code = vspart.cli.run(argv)
        finally:
            probe.stop_timer()
            with open(probe_file, "w", encoding="utf-8") as fh:
                json.dump(probe.export(), fh)
        sys.exit(code)

    import vspart.cli

    if trace_file is None:
        sys.exit(vspart.cli.run(argv))

    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    root = tracer.open("bench.child")
    try:
        code = vspart.cli.run(argv)
    finally:
        tracer.close(root)
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
