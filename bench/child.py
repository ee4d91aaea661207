"""One pass over a workload's command list, in a fresh interpreter.

Usage: python3 bench/child.py [SPEC_JSON]

The child first imports ggindex from the checkout's src/ and builds the CLI
parser, then writes "ready" on stdout; the parent times spawn-to-ready as
set-up. Without SPEC_JSON it exits there. Otherwise SPEC_JSON is
{"commands": [[argv...], ...], "spans": path or null}. Each command runs
through ggindex.cli.main(argv) with stdout and stderr captured, one after the
other. The child then writes one JSON line: wall and CPU time of the command
list (worker processes included), peak resident memory, and each command's
exit code (-1 if it raised) and stdout. With "spans" set, the pass runs
traced and the spans are written to that path at the end.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import ggindex.cli  # noqa: E402

ggindex.cli.build_parser()
if not Path(ggindex.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"ggindex was imported from {ggindex.__file__}, not from {SRC}")
sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run(commands: list[list[str]]) -> list[tuple[int, str]]:
    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = ggindex.cli.main(argv)
            except SystemExit as exc:  # argparse rejects arguments this way
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails this command, not the benchmark
                traceback.print_exc(file=sys.__stderr__)
                rc = -1
        results.append((rc, out.getvalue()))
    return results


def main() -> None:
    if len(sys.argv) < 2:
        return
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["spans"]:
        import spans  # found in this script's directory

        tracer = spans.Tracer()
        spans.install(tracer)

    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    results = run(spec["commands"])
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.dump(Path(spec["spans"]))
    report = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024,
        "commands": [{"exit_code": rc, "stdout": text} for rc, text in results],
    }
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
