"""The public record classes: equality, hashing, immutability, pickling,
validation with its messages, and repr.

Graph, Constraints, FamilySpec, Objective, ExtremalResult,
VerificationReport, Check and Claim are compared, hashed, shared between
processes and printed by callers; these tests pin what they rely on."""

import pickle
import re

import pytest

from ggindex.enumeration import Constraints
from ggindex.extremal import (
    CLAIMS,
    Check,
    CheckRow,
    Claim,
    ExtremalError,
    ExtremalResult,
    Objective,
    VerificationReport,
)
from ggindex.families import FamilyError, FamilySpec, construct
from ggindex.graphs import Graph, GraphError, build_graph


def _frozen(obj, *names):
    """Assigning or deleting any of names on obj raises AttributeError."""
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def _round_trip(obj):
    """obj through every pickle protocol, each copy equal to it, of its
    class and with its hash."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(obj, protocol))
        assert type(copy) is type(obj) and copy == obj and hash(copy) == hash(obj)


# ------------------------------------------------------------------ Graph ----

def test_graph_equality_and_hash_ignore_edge_order_and_duplicates():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    same = (
        Graph(4, ((3, 2), (1, 0), (2, 1))),
        Graph(4, ((2, 3), (0, 1), (1, 0), (1, 2), (2, 1))),
        Graph(n=4, edges=[(2, 1), (3, 2), (0, 1)]),
        build_graph(4, [[1, 2], [0, 1], [3, 2]]),
    )
    for h in same:
        assert h == g and not h != g and hash(h) == hash(g)
        assert h.edges == ((0, 1), (1, 2), (2, 3)) and type(h.edges) is tuple
    assert len({g, *same}) == 1
    assert g != Graph(4, ((0, 1), (0, 2), (0, 3)))
    assert g != Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))


def test_graph_is_not_a_tuple_of_its_fields():
    g = Graph(2, ((0, 1),))
    assert not isinstance(g, tuple)
    assert g != (2, ((0, 1),)) and (2, ((0, 1),)) != g
    with pytest.raises(TypeError):
        len(g)
    with pytest.raises(TypeError):
        iter(g)


def test_graph_fields_and_cached_properties_cannot_be_assigned():
    g = Graph(3, ((0, 1), (1, 2)))
    assert g.adjacency_bits == (0b010, 0b101, 0b010) and g.degrees == (1, 2, 1)
    _frozen(g, "n", "edges", "adjacency_bits", "degrees", "label")
    assert g == Graph(3, ((0, 1), (1, 2)))
    assert g.adjacency_bits is g.adjacency_bits and g.degrees is g.degrees


def test_graph_pickles_with_its_cached_properties():
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    _round_trip(g)
    assert (g.adjacency_bits, g.degrees) == ((18, 5, 10, 20, 9), (2, 2, 2, 2, 2))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(g, protocol))
        assert vars(copy) == vars(g)
        assert copy.adjacency_bits == g.adjacency_bits and copy.degrees == g.degrees
        assert (copy.m, copy.max_degree) == (5, 2)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (0, (), "vertex count must be a positive integer, got 0"),
        (-2, (), "vertex count must be a positive integer, got -2"),
        ("3", ((0, 1), (1, 2)), "vertex count must be a positive integer, got '3'"),
        (2.0, ((0, 1),), "vertex count must be a positive integer, got 2.0"),
        (3, ((0, 1), (1,)), "edge (1,) is not a vertex pair"),
        (3, ((0, 1), 7), "edge 7 is not a vertex pair"),
        (3, ((0, 1), (1, 2, 0)), "edge (1, 2, 0) is not a vertex pair"),
        (3, ((0, 1), (1, 2.0)), "edge (1, 2.0) has non-integer endpoints"),
        (3, ((0, 0), (0, 1), (1, 2)), "self-loop at vertex 0"),
        (3, ((0, 1), (1, 3)), "edge (1, 3) out of range for n=3"),
        (3, ((-1, 0), (0, 1)), "edge (-1, 0) out of range for n=3"),
        (4, ((0, 1), (2, 3)), "graph is disconnected: vertex 2 is unreachable from vertex 0"),
        (2, (), "graph is disconnected: vertex 1 is unreachable from vertex 0"),
    ],
)
def test_graph_validation_messages(n, edges, message):
    # build_graph hands the edges to Graph as they are, so it refuses alike
    for build in (Graph, build_graph):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            build(n, edges)


def test_graph_repr():
    assert repr(Graph(1, ())) == "Graph(n=1, edges=())"
    assert repr(Graph(3, ((2, 1), (0, 1)))) == "Graph(n=3, edges=((0, 1), (1, 2)))"


# ------------------------------------------------------------ Constraints ----

def test_constraints_defaults_keywords_equality_and_hash():
    c = Constraints(5)
    assert (c.n, c.bipartite_only, c.max_degree, c.cyclomatic) == (5, False, None, None)
    assert c == Constraints(n=5, bipartite_only=False, max_degree=None, cyclomatic=None)
    assert c == Constraints(5, False, None, None) and hash(c) == hash(Constraints(5))
    assert c != Constraints(5, bipartite_only=True)
    assert c != Constraints(5, max_degree=3) and c != Constraints(5, cyclomatic=0)
    assert c != Constraints(6)


def test_constraints_as_set_members():
    # enumerate_keys tells whether constraint sets differ only in n by
    # copying each to n = 1 and counting the distinct copies
    bipartite = [Constraints(n, bipartite_only=True) for n in (4, 6, 5)]
    assert len({c._replace(n=1) for c in bipartite}) == 1
    assert len(set(bipartite)) == 3
    mixed = bipartite + [Constraints(5, max_degree=3)]
    assert {c._replace(n=1) for c in mixed} == {
        Constraints(1, bipartite_only=True),
        Constraints(1, max_degree=3),
    }
    assert Constraints(7, cyclomatic=0) in {Constraints(7, cyclomatic=0)}


def test_constraints_cannot_be_assigned():
    c = Constraints(5, max_degree=3)
    _frozen(c, "n", "bipartite_only", "max_degree", "cyclomatic", "label")


def test_constraints_pickle():
    for c in (Constraints(5), Constraints(9, True, 4, 2), Constraints(7, cyclomatic=0)):
        _round_trip(c)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 0}, "Constraints.n must be at least 1"),
        ({"n": -3}, "Constraints.n must be at least 1"),
        ({"n": 5, "max_degree": 0}, "max_degree must be at least 1"),
        ({"n": 5, "cyclomatic": -1}, "cyclomatic number cannot be negative"),
    ],
)
def test_constraints_validation_messages(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Constraints(**kwargs)


def test_a_one_field_copy_of_constraints_is_validated():
    with pytest.raises(ValueError, match="^Constraints.n must be at least 1$"):
        Constraints(5)._replace(n=0)
    with pytest.raises(ValueError, match="^max_degree must be at least 1$"):
        Constraints(5)._replace(max_degree=0)
    assert Constraints(5, max_degree=3)._replace(n=8) == Constraints(8, max_degree=3)


def test_constraints_repr():
    assert repr(Constraints(5)) == (
        "Constraints(n=5, bipartite_only=False, max_degree=None, cyclomatic=None)"
    )
    assert repr(Constraints(9, True, 4, 2)) == (
        "Constraints(n=9, bipartite_only=True, max_degree=4, cyclomatic=2)"
    )


# ------------------------------------------------------------- FamilySpec ----

def test_family_spec_normalizes_params_to_an_int_tuple():
    spec = FamilySpec("KB", (3, 4))
    for same in (FamilySpec("KB", [3, 4]), FamilySpec(code="KB", params=("3", 4.0))):
        assert same == spec and hash(same) == hash(spec)
        assert same.params == (3, 4) and type(same.params) is tuple
        assert all(type(p) is int for p in same.params)
    assert spec != FamilySpec("KB", (4, 3)) and spec.text == "KB:3,4"
    assert construct(FamilySpec("P", ["4"])) == construct(FamilySpec("P", (4,)))


def test_family_spec_cannot_be_assigned_and_pickles():
    spec = FamilySpec("TH", (4, 2, 2))
    _frozen(spec, "code", "params")
    _round_trip(spec)
    assert repr(spec) == "FamilySpec(code='TH', params=(4, 2, 2))"


@pytest.mark.parametrize(
    "code, params, message",
    [
        ("Q", (3,), "unknown family code 'Q'"),
        ("p", (3,), "unknown family code 'p'"),
        ("P", (), "family P takes 1 parameter(s), got 0"),
        ("KB", (3,), "family KB takes 2 parameter(s), got 1"),
        ("TH", (3, 2, 2, 1), "family TH takes 3 parameter(s), got 4"),
    ],
)
def test_family_spec_validation_messages(code, params, message):
    with pytest.raises(FamilyError, match=f"^{re.escape(message)}$"):
        FamilySpec(code, params)


def test_family_spec_rejects_a_non_integer_parameter():
    with pytest.raises(ValueError, match="invalid literal for int"):
        FamilySpec("P", ("x",))


# -------------------------------------------------------------- Objective ----

def test_objective_equality_hash_immutability_pickle_and_repr():
    obj = Objective("min", "ngg")
    assert obj == Objective(sense="min", index="ngg") and hash(obj) == hash(Objective("min", "ngg"))
    assert obj != Objective("max", "ngg") and obj != Objective("min", "gg")
    assert (obj.sense, obj.index) == ("min", "ngg")
    _frozen(obj, "sense", "index")
    _round_trip(obj)
    assert repr(obj) == "Objective(sense='min', index='ngg')"


@pytest.mark.parametrize(
    "sense, index, message",
    [
        ("mid", "gg", "objective sense must be min or max, got 'mid'"),
        ("MIN", "gg", "objective sense must be min or max, got 'MIN'"),
        ("min", "wiener", "objective index must be one of gg, ngg, abc, got 'wiener'"),
        ("max", None, "objective index must be one of gg, ngg, abc, got None"),
    ],
)
def test_objective_validation_messages(sense, index, message):
    with pytest.raises(ExtremalError, match=f"^{re.escape(message)}$"):
        Objective(sense, index)


# ------------------------------------------- results, reports and claims ----

def test_extremal_result_and_report_are_frozen_hashable_values():
    res = ExtremalResult(Objective("max", "gg"), 2.5, ("Bw",), ("Bw",), 1)
    same = ExtremalResult(
        objective=Objective("max", "gg"), value=2.5, witnesses=("Bw",),
        exact_witnesses=("Bw",), total_classes=1,
    )
    assert res == same and hash(res) == hash(same)
    assert res != ExtremalResult(Objective("max", "gg"), 2.5, ("Bw",), ("Bw",), 2)
    _frozen(res, "objective", "value", "witnesses", "exact_witnesses", "total_classes")
    _round_trip(res)
    assert repr(res) == (
        "ExtremalResult(objective=Objective(sense='max', index='gg'), value=2.5, "
        "witnesses=('Bw',), exact_witnesses=('Bw',), total_classes=1)"
    )

    row = CheckRow(4, True, "passed", 2.0, ("C~",), ("C~",), ("C~",), 6)
    report = VerificationReport("max-bipartite", (row,), True)
    assert report.caveat == ""
    assert report == VerificationReport(claim="max-bipartite", rows=(row,), passed=True, caveat="")
    assert hash(report) == hash(VerificationReport("max-bipartite", (row,), True))
    assert report != VerificationReport("max-bipartite", (row,), True, "evidence")
    _frozen(report, "claim", "rows", "passed", "caveat")
    _round_trip(report)
    assert repr(report).startswith("VerificationReport(claim='max-bipartite', rows=(CheckRow(")
    assert repr(report).endswith("), passed=True, caveat='')")


def test_check_and_claim_defaults_equality_and_immutability():
    check = Check(Objective("min", "ngg"))
    assert check.expected(5, 3) == () and check.accept is None and check.value is None
    assert check.note(5) == ""
    same = Check(Objective("min", "ngg"), check.expected, note=check.note)
    assert check == same and hash(check) == hash(same)
    assert check == Check(objective=same.objective, expected=same.expected, note=same.note)
    assert check != Check(Objective("max", "ngg"), check.expected, note=check.note)
    _frozen(check, "objective", "expected", "accept", "value", "note")

    claim = Claim(orders=(4, 5))
    assert claim.graph_class is None and claim.least(3) == 1 and claim.checks == ()
    assert claim.theorem is True and claim.scan is None and claim.pattern is None
    same = Claim((4, 5), least=claim.least)
    assert claim == same and hash(claim) == hash(same)
    assert claim != Claim((4, 6), least=claim.least)
    _frozen(claim, "orders", "graph_class", "least", "checks", "theorem", "scan", "pattern")
    for row in CLAIMS.values():
        assert type(row) is Claim and all(type(k) is Check for k in row.checks)


@pytest.mark.parametrize(
    "cls, good, bad, error",
    [
        (Constraints, (5, True, 3, None), (0, True, 3, None), ValueError),
        (FamilySpec, ("KB", (2, 3)), ("KB", (2,)), FamilyError),
        (Objective, ("min", "gg"), ("least", "gg"), ExtremalError),
    ],
    ids=["Constraints", "FamilySpec", "Objective"],
)
def test_every_construction_of_a_validated_record_validates(cls, good, bad, error):
    # the validated records are NamedTuples: _make, _replace and unpickling
    # (protocol 2 and up, the process pool's) go through the same checks
    record = cls(*good)
    assert isinstance(record, tuple) and tuple(record) == good
    assert cls._make(good) == record and record._replace() == record
    with pytest.raises(error):
        cls._make(bad)
    with pytest.raises(error):
        record._replace(**dict(zip(cls._fields, bad)))
    forged = tuple.__new__(cls, bad)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(error):
            pickle.loads(pickle.dumps(forged, protocol))
