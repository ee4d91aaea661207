"""Span recording around the program's layer boundaries, and self-time sums.

The tracer wraps public functions of the program from outside. Every module
attribute, and every module-level dict value, through which a caller looks a
function up is replaced by the wrapper, so calls made inside the package are
seen too. Spans stay in memory in parallel lists and are written out once,
at the end of the traced run.

A span's self time is its duration minus the part of its interval that its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Iterator

# (module, attribute, span name). Span names are "<layer>.<function>".
TARGETS = (
    ("ggindex.cli", "main", "cli.main"),
    ("ggindex.enumeration", "enumerate_connected", "enumeration.enumerate_connected"),
    ("ggindex.enumeration", "enumerate_trees", "enumeration.enumerate_trees"),
    ("ggindex.canon", "canon_full", "canon.canon_full"),
    ("ggindex.formats", "decode_graph6", "formats.decode_graph6"),
    ("ggindex.formats", "parse_edge_list_block", "formats.parse_edge_list_block"),
    ("ggindex.formats", "encode_graph6", "formats.encode_graph6"),
    ("ggindex.graphs", "build_graph", "graphs.build_graph"),
    ("ggindex.graphs", "all_pairs_distances", "graphs.all_pairs_distances"),
    ("ggindex.graphs", "canonical_form", "graphs.canonical_form"),
    ("ggindex.indices", "gg_index", "indices.gg_index"),
    ("ggindex.indices", "ngg_index", "indices.ngg_index"),
    ("ggindex.indices", "abc_index", "indices.abc_index"),
    ("ggindex.indices", "edge_splits", "indices.edge_splits"),
    ("ggindex.extremal", "find_extremal", "extremal.find_extremal"),
    ("ggindex.extremal", "exact_index_value", "radicals.exact_index_value"),
    ("ggindex.radicals", "RadicalSum.sign", "radicals.sign"),
)

# These return graph streams. Each item a stream yields is one span named
# STREAM_STEP with value 1; the final, empty step has value 0. A stream that
# decodes lazily is thus still charged to the enumeration layer.
STREAM_SOURCES = ("enumeration.enumerate_connected", "enumeration.enumerate_trees")
STREAM_STEP = "enumeration.next"


class Tracer:
    """Spans as parallel lists; a span's index is assigned when it opens."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[int] = []
        self._stack: list[int] = []
        self._pinned: list[object] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.values.append(0)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int, value: int = 0) -> None:
        self.ends[i] = time.perf_counter()
        self.values[i] = value
        self._stack.pop()

    def pin(self, obj: object) -> int:
        """id(obj), kept unique for the whole trace by holding obj alive."""
        self._pinned.append(obj)
        return id(obj)

    def wrap(self, name: str, fn: Callable) -> Callable:
        value_of = _VALUE_OF.get(name)
        streams = name in STREAM_SOURCES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            value = 0
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(self, args, result)
            finally:
                self.close(i, value)
            return self._stream(iter(result)) if streams else result

        return traced

    def _stream(self, it: Iterator) -> Iterator:
        while True:
            i = self.open(STREAM_STEP)
            value = 0
            try:
                item = next(it)
                value = 1
            except StopIteration:
                return
            finally:
                self.close(i, value)
            yield item

    def dump(self, path: Path) -> None:
        table = sorted(set(self.names))
        code = {n: k for k, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [code[n], p, round(s - t0, 7), round(e - t0, 7), v]
            for n, p, s, e, v in zip(
                self.names, self.parents, self.starts, self.ends, self.values
            )
        ]
        path.write_text(json.dumps({"names": table, "spans": spans}), "ascii")


def load_spans(path: Path) -> list[tuple[str, int, float, float, int]]:
    data = json.loads(path.read_text("ascii"))
    names = data["names"]
    return [(names[c], p, s, e, v) for c, p, s, e, v in data["spans"]]


def _graph_id(tracer: Tracer, args, result) -> int:
    return tracer.pin(args[0])


def _window_size(tracer: Tracer, args, result) -> int:
    return len(result.witnesses)


_VALUE_OF = {
    "indices.gg_index": _graph_id,
    "indices.ngg_index": _graph_id,
    "indices.abc_index": _graph_id,
    "indices.edge_splits": _graph_id,
    "extremal.find_extremal": _window_size,
}


def install(tracer: Tracer, targets=TARGETS) -> list[tuple[object, object, object]]:
    """Wrap each target wherever a ggindex module refers to it.

    Returns (container, key, original) patches for restore().
    """
    patches = []
    for module_name, attr, span in targets:
        owner = importlib.import_module(module_name)
        owner_attr = attr
        if "." in attr:
            cls_name, owner_attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, owner_attr)
        wrapper = tracer.wrap(span, original)
        if isinstance(owner, type):
            setattr(owner, owner_attr, wrapper)
            patches.append((owner, owner_attr, original))
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ggindex" or mod_name.startswith("ggindex.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patches.append((mod, key, original))
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            patches.append((value, k, original))
    return patches


def restore(patches: list[tuple[object, object, object]]) -> None:
    for container, key, original in reversed(patches):
        if isinstance(container, dict):
            container[key] = original
        else:
            setattr(container, key, original)


# ------------------------------------------------------------ arithmetic ----

def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][2]):
            lo, hi = max(spans[c][2], reach), min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _under(spans, layer: str) -> list[bool]:
    """Per span: whether some ancestor belongs to `layer`. Parents precede children."""
    flags = []
    for _, parent, _, _, _ in spans:
        flags.append(
            parent >= 0 and (flags[parent] or spans[parent][0].startswith(layer + "."))
        )
    return flags


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer counts and self times of one traced pass."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, _, _, _, _), s in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s

    def count(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    def self_of(prefix: str) -> float:
        return sum(v for n, v in self_s.items() if n.startswith(prefix))

    classes = sum(v for n, _, _, _, v in spans if n == STREAM_STEP)
    in_enum = _under(spans, "enumeration")
    enum_canon = sum(
        1 for (n, *_), f in zip(spans, in_enum) if f and n == "canon.canon_full"
    )
    in_indices = _under(spans, "indices")
    index_apsp = sum(
        1 for (n, *_), f in zip(spans, in_indices) if f and n == "graphs.all_pairs_distances"
    )
    index_graphs = len({v for n, _, _, _, v in spans if n.startswith("indices.")})
    windows = [v for n, _, _, _, v in spans if n == "extremal.find_extremal"]
    return {
        "canon.calls": count("canon.canon_full"),
        "canon.self_s": self_of("canon."),
        "enumeration.classes": classes,
        "enumeration.self_s": self_of("enumeration."),
        "enumeration.canon_calls_per_class": enum_canon / classes if classes else 0.0,
        "formats.calls": count(
            "formats.decode_graph6", "formats.parse_edge_list_block", "formats.encode_graph6"
        ),
        "formats.self_s": self_of("formats."),
        "graphs.build_calls": count("graphs.build_graph"),
        "graphs.build_s": self_of("graphs.build_graph"),
        "graphs.apsp_calls": count("graphs.all_pairs_distances"),
        "graphs.apsp_s": self_of("graphs.all_pairs_distances"),
        "graphs.canonical_form_calls": count("graphs.canonical_form"),
        "indices.self_s": self_of("indices."),
        "indices.apsp_per_graph": index_apsp / index_graphs if index_graphs else 0.0,
        "extremal.self_s": self_of("extremal."),
        "extremal.window_max": max(windows, default=0),
        "radicals.exact_calls": count("radicals.exact_index_value"),
        "radicals.exact_s": self_of("radicals.exact_index_value"),
        "radicals.sign_calls": count("radicals.sign"),
        "radicals.sign_s": self_of("radicals.sign"),
        "cli.self_s": self_of("cli."),
    }


# Counts that must come out identical from two traced passes of one workload.
EXACT_COUNTS = (
    "canon.calls",
    "enumeration.classes",
    "formats.calls",
    "graphs.build_calls",
    "graphs.apsp_calls",
    "graphs.canonical_form_calls",
    "radicals.exact_calls",
    "radicals.sign_calls",
)


def count_mismatches(a: dict, b: dict) -> list[str]:
    return [f"{k}: {a[k]} != {b[k]}" for k in EXACT_COUNTS if a[k] != b[k]]
