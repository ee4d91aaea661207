"""Benchmark of the ggindex CLI: end-to-end metrics and a traced per-layer run.

Usage:
    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it benchmarks the package in src/.
Workloads, metrics and their bounds are listed in BENCHMARK.json.

Each workload is a list of CLI commands driven through ggindex.cli.main(argv)
as a closed loop: one client, each command waiting for the previous one. A
pass runs the whole list once in a fresh interpreter (bench/child.py).

--trace 0 measures the end-to-end metrics. It times set-up (interpreter start
to `import ggindex` plus build_parser() done) over several spawns, then runs
passes until the next one would end after --seconds, with at least two.
Each metric is the median over passes: wall_s (the command list),
cpu_s (user+sys, worker processes included), peak_rss_mb (the pass's
process) and setup_s.

--trace 1 runs one untraced pass and two traced passes and reports the
per-layer metrics (bench/spans.py) as the median of the traced passes. The
exact counts of the two traced passes must agree. trace.overhead_s is the
traced minus the untraced wall time. Spans are written to bench/out/.

Every command's exit code and stdout are checked (bench/checks.py); a
mismatch counts the command as failed, and the run then exits 1. Without
--workload, or with `all`, every workload runs untraced and traced (unless
--trace is given).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The machine (nproc, CPU model, Python version, load average at
start) is printed before it and stored with the result in bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

DEADLINE_S = 170  # every run must end within 180 s
SETUP_SPAWNS = 10
MIN_PASSES = 2
TRACED_PASSES = 2


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _read_until(fd: int, deadline: float, stop) -> bytes:
    buf = b""
    while not stop(buf):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise BenchError("a pass ran past the benchmark's deadline")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        buf += chunk
    return buf


def spawn(spec, deadline: float) -> tuple[float, dict | None]:
    """One child interpreter: (spawn-to-ready seconds, its report or None)."""
    argv = [sys.executable, str(BENCH / "child.py")]
    if spec is not None:
        argv.append(json.dumps(spec))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0, start_new_session=True
    )
    try:
        fd = proc.stdout.fileno()
        head = _read_until(fd, deadline, lambda b: b"\n" in b)
        setup = time.perf_counter() - t0
        if not head.startswith(b"ready\n"):
            raise BenchError("the program did not start (see stderr)")
        rest = head[len(b"ready\n"):] + _read_until(fd, deadline, lambda b: False)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0:
            raise BenchError(f"bench/child.py exited with {code}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    return setup, (json.loads(rest) if spec is not None else None)


def check_pass(wl, report: dict, digests: dict, graphs, first: bool) -> int:
    """Failed commands of one pass; the first pass sets seeded-output digests."""
    failed = 0
    for i, (cmd, res) in enumerate(zip(wl.commands, report["commands"])):
        rc, stdout = res["exit_code"], res["stdout"]
        expected = cmd.sha256 or digests.setdefault(i, checks.digest(stdout))
        problems = checks.check_command(cmd, rc, stdout, expected)
        if first:
            problems += checks.check_class_counts(cmd.argv, stdout)
            if cmd.argv[0] == "index":
                problems += checks.check_index_output(stdout, graphs)
        if problems:
            failed += 1
            print(f"FAILED {wl.name}: ggindex {' '.join(cmd.argv)}", file=sys.stderr)
            for p in problems:
                print(f"    {p}", file=sys.stderr)
    return failed


def run_workload(wl, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    graphs = workloads.prepare_inputs(ROOT, seed) if wl.seeded_inputs else None
    commands = [list(c.argv) for c in wl.commands]
    setups = [spawn(None, deadline)[0] for _ in range(SETUP_SPAWNS)]

    def one_pass(spans_path=None) -> dict:
        setup, report = spawn({"commands": commands, "spans": spans_path}, deadline)
        setups.append(setup)
        return report

    passes, traced, durations = [], [], []
    if trace:
        passes.append(one_pass())
        for k in range(TRACED_PASSES):
            path = OUT / f"spans-{wl.name}-seed{seed}-pass{k}.json"
            traced.append((one_pass(str(path)), path))
    else:
        start = time.monotonic()
        while len(passes) < MIN_PASSES or (
            time.monotonic() - start + statistics.median(durations) <= seconds
            and time.monotonic() + statistics.median(durations) < deadline
        ):
            t = time.monotonic()
            passes.append(one_pass())
            durations.append(time.monotonic() - t)

    digests: dict[int, str] = {}
    reports = passes + [r for r, _ in traced]
    failed = sum(
        check_pass(wl, r, digests, graphs, first=k == 0) for k, r in enumerate(reports)
    )
    attempted = len(wl.commands) * len(reports)

    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": setups,
    }
    if trace:
        layers = [spans.layer_metrics(spans.load_spans(path)) for _, path in traced]
        for a in layers[1:]:
            for problem in spans.count_mismatches(layers[0], a):
                failed += 1
                print(f"FAILED {wl.name}: traced counts differ: {problem}", file=sys.stderr)
        for key in layers[0]:
            samples[key] = [m[key] for m in layers]
        samples["cli.stdout_bytes"] = [
            sum(len(c["stdout"].encode("utf-8")) for c in r["commands"]) for r, _ in traced
        ]
        samples["trace.overhead_s"] = [r["wall_s"] - passes[0]["wall_s"] for r, _ in traced]
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
    }


def report_metrics(result: dict, specs: list[dict]) -> dict:
    """Print each metric by name and unit; return the result JSON's metrics."""
    out = {}
    for spec in specs:
        values = result["samples"][spec["name"]]
        value = statistics.median(values)
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        shown = " ".join(f"{v:.4g}" for v in values)
        print(f"  {spec['name']:<36} {value:>14.6g} {spec['unit']:<12} (median of {len(values)}: {shown})")
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Benchmark the ggindex CLI.")
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ggindex" / "cli.py").is_file():
        print(f"error: no ggindex package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    host = machine()
    print(
        f"# machine: nproc={host['nproc']} cpu={host['cpu']!r} "
        f"python={host['python']} loadavg={' '.join(map(str, host['loadavg']))}"
    )
    selected = names if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    attempted = failed = 0
    metrics = {}
    for name in selected:
        for trace in modes:
            try:
                result = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, trace)
            except BenchError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 2
            attempted += result["attempted"]
            failed += result["failed"]
            print(
                f"# {name} seed={args.seed} trace={int(trace)}: "
                f"{result['attempted']} commands, {result['failed']} failed, "
                f"error_rate {result['failed'] / result['attempted']:.4g}"
            )
            specs = bench["per_layer" if trace else "end_to_end"]
            found = report_metrics(result, specs)
            result.update(machine=host, metrics=found)
            path = OUT / f"result-{name}-seed{args.seed}-trace{int(trace)}.json"
            path.write_text(json.dumps(result, indent=1) + "\n", "utf-8")
            if len(selected) == 1 and len(modes) == 1:
                metrics = found
            else:
                metrics.update({f"{name}/{k}": v for k, v in found.items()})
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
