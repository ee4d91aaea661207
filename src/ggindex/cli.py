"""Batch command line: compute indices, build families, enumerate, verify.

Four subcommands. `index` reads graph6 or edge-list files and prints index
values per graph. `family` builds one parametric graph from a spec string
like CH:9 or KB:3,4. `enumerate` streams an exhaustive class as graph6.
`verify` runs one of the extremal/closed-form checks and reports pass/fail.

Output discipline: everything the run computes goes to stdout in the chosen
format (text, json or csv); progress and timing go to stderr. JSON and CSV
render floats with 10 significant digits, text mode with 4 decimals. A given
command line produces byte-identical stdout across runs and worker counts;
nothing time- or host-dependent is serialized.

`--out FILE` means one of two things, and `-` names stdout for every command.
For `index` and `verify` the file takes the formatted output in place of
stdout. For `family` and `enumerate` it takes the graph6 lines, whatever the
format, and stdout keeps the formatted report; `enumerate` then reports the
count in place of the list. With `--out -` those graph6 lines go to stdout
ahead of the report.

Input files are read by graphs.read_graphs, which names the file and line
of the first graph it cannot decode or build.

Exit status: 0 on success, 1 when a verification claim fails, 2 on any error
(bad arguments, malformed input, refused enumeration bounds).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Iterable, Optional, Sequence

from .enumeration import Constraints, enumerate_keys
from .extremal import (
    CLAIMS,
    AsymptoticRow,
    CheckRow,
    CrossoverRow,
    VerificationReport,
    verify,
)
from .families import FamilyError, construct, ngg_closed, parse_spec
from .graphs import read_graphs, to_graph6
from .indices import INDEX_FNS as _INDEX_FNS, TERMS, edge_splits, term_sum

OK, VERIFY_FAILED, ERROR = 0, 1, 2

_INDEX_NAMES = ",".join(_INDEX_FNS)


class CliError(ValueError):
    """Command-level usage problem not caught by argparse."""


# ------------------------------------------------------------- formatting ----

def _fmt(v: float) -> str:
    return format(v, ".4f")


class _JsonText(str):
    """Text that is already JSON; _json_emit writes it verbatim."""


def _json_emit(obj, out: list[str]) -> None:
    if isinstance(obj, _JsonText):
        out.append(obj)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(k))
            out.append(": ")
            _json_emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _json_emit(v, out)
        out.append("]")
    elif isinstance(obj, float):
        out.append(format(obj, ".10g"))
    else:
        out.append(json.dumps(obj))


def dump_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 10 sig digits."""
    out: list[str] = []
    _json_emit(obj, out)
    return "".join(out) + "\n"


def _csv_line(cells: Iterable) -> str:
    rendered = []
    for c in cells:
        if isinstance(c, float):
            c = format(c, ".10g")
        else:
            c = str(c)
        if any(ch in c for ch in ",\"\n"):
            c = '"' + c.replace('"', '""') + '"'
        rendered.append(c)
    return ",".join(rendered) + "\n"


def _write_output(text: str, out_path: Optional[str]) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------ orders ----

def parse_n_values(text: str) -> list[int]:
    """Accept N, A..B (inclusive), or a comma list of those."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise CliError(f"bad range {part!r}; expected forms: 8, 4..10, 5,7,9") from None
            if hi < lo:
                raise CliError(f"empty range {part!r}")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(part))
            except ValueError:
                raise CliError(f"bad order {part!r}; expected forms: 8, 4..10, 5,7,9") from None
    if not values:
        raise CliError(f"no orders given in {text!r}")
    return values


# ------------------------------------------------------------ subcommands ----

def _cmd_index(args) -> int:
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    bad = [w for w in which if w not in _INDEX_FNS]
    if bad or not which or len(set(which)) < len(which):
        raise CliError(f"--which takes a comma subset of {_INDEX_NAMES}, got {args.which!r}")
    if args.splits and args.format == "csv":
        raise CliError("--splits is not representable in csv; use json or text")
    need_splits = args.splits or any(TERMS[w].splits for w in which)

    records = []
    chunks = [_csv_line(["source", "line", "n", "m", *which])] if args.format == "csv" else []
    for path in args.inputs:
        if path == "-":
            label, lines = "<stdin>", sys.stdin.read().splitlines()
        else:
            with open(path, encoding="ascii") as fh:
                label, lines = path, fh.read().splitlines()
        for lineno, g in read_graphs(lines, label):
            splits = edge_splits(g) if need_splits else ()
            values = [term_sum(w, splits) if TERMS[w].splits else _INDEX_FNS[w](g) for w in which]
            if args.format == "json":
                rec = {"source": label, "line": lineno, "n": g.n, "m": g.m}
                rec.update(zip(which, values))
                if args.splits:
                    # one string per row: the rows are most of the output
                    rec["splits"] = [
                        _JsonText(f"[{s.edge[0]}, {s.edge[1]}, {s.n_u}, {s.n_v}]")
                        for s in splits
                    ]
                records.append(rec)
            elif args.format == "csv":
                chunks.append(_csv_line([label, lineno, g.n, g.m, *values]))
            else:
                vals = "  ".join(f"{w} {_fmt(v)}" for w, v in zip(which, values))
                chunks.append(f"{label}:{lineno}  n={g.n} m={g.m}  {vals}\n")
                if args.splits:
                    chunks.extend(
                        f"    edge {s.edge[0]}-{s.edge[1]}: n_u={s.n_u} n_v={s.n_v}\n"
                        for s in splits
                    )
    if args.format == "json":
        chunks.append(dump_json({"command": "index", "records": records}))
    # written only now, so a malformed graph anywhere leaves no partial output
    _write_output("".join(chunks), args.out)
    return OK


def _cmd_family(args) -> int:
    spec = parse_spec(args.spec)
    g = construct(spec)
    try:
        closed = ngg_closed(spec)
    except FamilyError:
        closed = None
    rec = {"spec": spec.text, "n": g.n, "m": g.m, "graph6": to_graph6(g), "ngg_closed": closed}
    if args.out:
        _write_output(rec["graph6"] + "\n", args.out)
    if args.format == "json":
        text = dump_json({"command": "family", **rec})
    elif args.format == "csv":
        text = _csv_line(rec) + _csv_line("" if v is None else v for v in rec.values())
    else:
        # a missing closed form drops its line
        text = "".join(
            f"{k.replace('_', '-')} {_fmt(v) if isinstance(v, float) else v}\n"
            for k, v in rec.items()
            if v is not None
        )
    sys.stdout.write(text)
    return OK


def _cmd_enumerate(args) -> int:
    if args.trees and args.cyclomatic not in (None, 0):
        raise CliError(f"--trees means --cyclomatic 0, not --cyclomatic {args.cyclomatic}")
    cons = Constraints(
        args.n,
        bipartite_only=args.bipartite,
        max_degree=args.max_degree,
        cyclomatic=0 if args.trees else args.cyclomatic,
    )
    keys = list(enumerate_keys(cons, max_n=args.max_n, workers=args.workers))
    # with --out the file takes the keys and stdout reports only their count;
    # text mode without --out prints the keys themselves as its report
    if args.out or args.format == "text":
        _write_output("".join(key + "\n" for key in keys), args.out)
    if args.format == "json":
        payload = {
            "command": "enumerate",
            # the flags as given: --trees and --cyclomatic 0 name one class
            "constraints": {
                "n": args.n,
                "bipartite": args.bipartite,
                "trees": args.trees,
                "max_degree": args.max_degree,
                "cyclomatic": args.cyclomatic,
            },
            "count": len(keys),
        }
        payload.update({"out": args.out} if args.out else {"graphs": keys})
        sys.stdout.write(dump_json(payload))
    elif args.format == "csv":
        column = ("count", len(keys)) if args.out else ("graph6", *keys)
        sys.stdout.write("".join(_csv_line([cell]) for cell in column))
    else:
        print(f"count {len(keys)}", file=sys.stderr)
    return OK


def _check_line(r: CheckRow) -> str:
    extra = f" [{r.note}]" if r.note else ""
    line = (
        f"  n={r.n}{extra} {r.label}: value={_fmt(r.value)}"
        f" witnesses={','.join(r.witnesses)}"
    )
    if r.expected:
        line += f" expected={','.join(r.expected)}"
    return line + f" classes={r.classes}\n"


def _crossover_line(r: CrossoverRow) -> str:
    return (
        f"  n={r.n} k={r.k}  C'={_fmt(r.ngg_cycle_pendant)}"
        f"  C''={_fmt(r.ngg_cycle_hook)}  {r.comparison}\n"
    )


def _asymptote_line(r: AsymptoticRow) -> str:
    return f"  n={r.n}  ngg={_fmt(r.ngg_path)}  residual={_fmt(r.residual)}\n"


_TEXT_LINE = {
    CheckRow: _check_line,
    CrossoverRow: _crossover_line,
    AsymptoticRow: _asymptote_line,
}


def _render_verify(report: VerificationReport, fmt: str) -> str:
    """JSON and CSV columns are the row's fields; CSV joins a tuple with ';'."""
    if fmt == "json":
        payload = {
            "command": "verify",
            "claim": report.claim,
            "passed": report.passed,
            "rows": [r._asdict() for r in report.rows],
        }
        if report.caveat:
            payload["caveat"] = report.caveat
        return dump_json(payload)
    if fmt == "csv":
        text = _csv_line(report.rows[0]._fields)
        for r in report.rows:
            text += _csv_line(";".join(c) if isinstance(c, tuple) else c for c in r)
        return text
    chunks = [f"claim {report.claim}: {'pass' if report.passed else 'FAIL'}\n"]
    if report.caveat:
        chunks.append(f"note: {report.caveat}\n")
    chunks.extend(_TEXT_LINE[type(r)](r) for r in report.rows)
    return "".join(chunks)


def _cmd_verify(args) -> int:
    ns = CLAIMS[args.claim].orders if args.n is None else parse_n_values(args.n)
    t0 = time.perf_counter()
    report = verify(
        args.claim,
        ns,
        max_degree=args.max_degree,
        max_n=args.max_n,
        workers=args.workers,
    )
    _write_output(_render_verify(report, args.format), args.out)
    print(f"verify {args.claim}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return OK if report.passed else VERIFY_FAILED


# ------------------------------------------------------------------ parser ----

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one and by main: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="ggindex",
        description="Distance-based graph indices: compute, construct, enumerate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers=False, max_n=False):
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default text)",
        )
        p.add_argument("--out", help="write the primary output to this file")
        if workers:
            p.add_argument(
                "--workers", type=int, default=1,
                help="enumeration shards, at most one per CPU (default 1)",
            )
        if max_n:
            p.add_argument(
                "--max-n", type=int, default=None,
                help="raise the feasibility bound for this run (also: GGINDEX_MAX_N)",
            )

    p = sub.add_parser("index", help="compute GG/NGG/ABC for graphs in files")
    p.add_argument("inputs", nargs="+", help="graph6 or edge-list files ('-' for stdin)")
    p.add_argument("--which", default=_INDEX_NAMES, help=f"comma subset of {_INDEX_NAMES}")
    p.add_argument("--splits", action="store_true", help="include per-edge n_u/n_v")
    common(p)
    p.set_defaults(fn=_cmd_index)

    p = sub.add_parser("family", help="construct one parametric family graph")
    p.add_argument("spec", help="family spec, e.g. P:7 C:8 K:5 KB:3,4 S:9 CP:9 CH:9 TH:4,2,2 AD:41,3")
    common(p)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("enumerate", help="stream an exhaustive isomorph-free class")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--bipartite", action="store_true")
    p.add_argument("--trees", action="store_true")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--cyclomatic", type=int, default=None)
    common(p, workers=True, max_n=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="run one extremal / closed-form check")
    p.add_argument("claim", choices=tuple(CLAIMS))
    p.add_argument("--n", default=None, help="orders: 8, 4..10, or 5,7,9 (claim default otherwise)")
    p.add_argument("--max-degree", type=int, default=3, help="degree bound for conjecture probes")
    common(p, workers=True, max_n=True)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be at least 1")
    try:
        return args.fn(args)
    # every error the package raises on bad input subclasses ValueError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
