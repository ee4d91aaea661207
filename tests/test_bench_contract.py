"""The program names the benchmark's tracer (bench/spans.py) patches.

The tracer wraps module attributes and dict entries by name. A rename in the
package would leave those calls untraced, or stop the traced run, without any
test under tests/ noticing; these tests fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import ggindex.cli as cli
import ggindex.extremal as extremal
import ggindex.indices as indices
from ggindex.indices import abc_index, gg_index, ngg_index

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    # spans.py imports only the standard library, so it loads without bench/ on the path
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_spans().TARGETS


@pytest.mark.parametrize("module, attr, span", TARGETS, ids=[t[2] for t in TARGETS])
def test_trace_target_resolves(module, attr, span):
    owner = importlib.import_module(module)
    for name in attr.split("."):  # "RadicalSum.sign" is a dotted name
        owner = getattr(owner, name)
    assert callable(owner), span


@pytest.mark.parametrize(
    "table", [cli._INDEX_FNS, extremal._FLOAT_FN], ids=["cli", "extremal"]
)
def test_patched_index_tables(table):
    assert table == {"gg": gg_index, "ngg": ngg_index, "abc": abc_index}


def test_index_tables_are_one_dict():
    # the tracer replaces dict entries in place, so one patch reaches every binding
    assert cli._INDEX_FNS is indices.INDEX_FNS
    assert extremal._FLOAT_FN is indices.INDEX_FNS
