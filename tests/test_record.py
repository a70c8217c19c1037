"""The value records: equality within a class, hashing, repr, refused
assignment, ``replace`` through the constructor, copy and pickle."""

import copy
import pickle

import pytest

from mfboundary.arrangement import IncidenceData, MultiPoint, ProjLine, generate_family
from mfboundary.calculus import MoveSpec
from mfboundary.errors import MFBoundaryError
from mfboundary.graph_core import Edge, PlumbingGraph, Vertex
from mfboundary.homology import AbelianGroup, SmithForm, smith_normal_form
from mfboundary.pipeline import ConjectureReport, boundary_graph, probe_conjecture
from mfboundary.record import Record, replace
from mfboundary.strings import StringGraph, build_string


def records():
    """(make, repr) pairs: make() builds a fresh record, and repr is the text
    the dataclass each class used to be printed for it."""
    inc = lambda: generate_family("near_pencil", 4)
    return [
        (lambda: Vertex("v0"),
         "Vertex(id='v0', genus=0, euler=None, mult=None, kind='plain', dec=None)"),
        (lambda: Vertex(id="s1_2#0", genus=2, euler=-3, mult=4, kind="string", dec=(1, 2, 3)),
         "Vertex(id='s1_2#0', genus=2, euler=-3, mult=4, kind='string', dec=(1, 2, 3))"),
        (lambda: Vertex("a1", mult=1, kind="arrowhead"),
         "Vertex(id='a1', genus=0, euler=None, mult=1, kind='arrowhead', dec=None)"),
        (lambda: Vertex("x'y\"z\n", euler=10**20),
         "Vertex(id='x\\'y\"z\\n', genus=0, euler=100000000000000000000, mult=None, "
         "kind='plain', dec=None)"),
        (lambda: Edge("v0", "w1"),
         "Edge(a='v0', b='w1', sign=1, edge_type=None, arrow=False)"),
        (lambda: Edge("v1", "a1", 1, None, True),
         "Edge(a='v1', b='a1', sign=1, edge_type=None, arrow=True)"),
        (lambda: Edge("x", "y", -1, 2, False),
         "Edge(a='x', b='y', sign=-1, edge_type=2, arrow=False)"),
        (lambda: PlumbingGraph((), ()), "PlumbingGraph(vertices=(), edges=())"),
        (lambda: boundary_graph(generate_family("generic", 2)),
         "PlumbingGraph(vertices=(Vertex(id='v0', genus=0, euler=0, mult=1, kind='line', "
         "dec=None), Vertex(id='v1', genus=0, euler=0, mult=1, kind='line', dec=None), "
         "Vertex(id='w0', genus=0, euler=2, mult=1, kind='point', dec=None)), "
         "edges=(Edge(a='v0', b='w0', sign=-1, edge_type=None, arrow=False), "
         "Edge(a='v1', b='w0', sign=-1, edge_type=None, arrow=False)))"),
        (lambda: ProjLine((1, 0, -2), 3), "ProjLine(coeffs=(1, 0, -2), label=3)"),
        (lambda: ProjLine.from_coeffs(["1/2", -3, 0], 1), "ProjLine(coeffs=(1, -6, 0), label=1)"),
        (inc, "IncidenceData(n=4, points=((0, 1, 2), (0, 3), (1, 3), (2, 3)))"),
        (lambda: IncidenceData(2, (MultiPoint((1, 0)),)), "IncidenceData(n=2, points=((0, 1),))"),
        (lambda: SmithForm(2, 3, (1, 2)), "SmithForm(rows=2, cols=3, factors=(1, 2))"),
        (lambda: smith_normal_form([[0, 0], [0, 0]]), "SmithForm(rows=2, cols=2, factors=())"),
        (lambda: AbelianGroup(0), "AbelianGroup(free_rank=0, torsion=())"),
        (lambda: AbelianGroup(3, [2, 4]), "AbelianGroup(free_rank=3, torsion=(2, 4))"),
        (lambda: AbelianGroup(1, (5,)), "AbelianGroup(free_rank=1, torsion=(5,))"),
        (lambda: build_string(1, 2, 7),
         "StringGraph(a=1, b=2, c=7, lam=5, m1=1, cf_terms=(2, 2, 3), interior_mults=(1, 1, 1), "
         "end_mults=(1, 2))"),
        (lambda: build_string(1, 3, 3),
         "StringGraph(a=1, b=3, c=3, lam=0, m1=1, cf_terms=(), interior_mults=(), "
         "end_mults=(1, 1))"),
        (lambda: build_string(3, 5, 7),
         "StringGraph(a=3, b=5, c=7, lam=3, m1=2, cf_terms=(3, 2, 2), interior_mults=(2, 3, 4), "
         "end_mults=(3, 5))"),
        (lambda: MoveSpec("blow_down_b", "v1"),
         "MoveSpec(kind='blow_down_b', target='v1', keep=None, flip=None, companion=None)"),
        (lambda: MoveSpec("split", "x", companion="y"),
         "MoveSpec(kind='split', target='x', keep=None, flip=None, companion='y')"),
        (lambda: MoveSpec(kind="two_alteration", target="s", flip="t"),
         "MoveSpec(kind='two_alteration', target='s', keep=None, flip='t', companion=None)"),
        (lambda: probe_conjecture(generate_family("generic", 4)),
         "ConjectureReport(n=4, group=AbelianGroup(free_rank=6, torsion=(4,)), "
         "betti_matches=True, flat_hypothesis=True, complement_euler=1, "
         "flat_prediction_ok=True, orders_divide_n=True, torsion_free=False, "
         "pencil_like=False, near_pencil_like=False, torsion_free_iff=True)"),
        (lambda: probe_conjecture(inc()),
         "ConjectureReport(n=4, group=AbelianGroup(free_rank=5, torsion=()), "
         "betti_matches=True, flat_hypothesis=True, complement_euler=0, "
         "flat_prediction_ok=True, orders_divide_n=True, torsion_free=True, "
         "pencil_like=False, near_pencil_like=True, torsion_free_iff=True)"),
    ]


RECORDS = records()
CLASSES = (Vertex, Edge, PlumbingGraph, ProjLine, IncidenceData, SmithForm, AbelianGroup,
           StringGraph, MoveSpec, ConjectureReport)
IDS = [f"{text.partition('(')[0]}{k}" for k, (_, text) in enumerate(RECORDS)]


def test_the_table_covers_every_record_class():
    assert {type(make()) for make, _ in RECORDS} == set(CLASSES)
    assert all(issubclass(cls, Record) for cls in CLASSES)


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_equality_holds_within_a_class_only(make, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a.__eq__(a._values(a)) is NotImplemented
    assert a != a._values(a)
    others = {make() for make, _ in RECORDS if type(make()) is not type(a)}
    assert a not in others and all(a.__eq__(o) is NotImplemented for o in others)


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_setattr_and_delattr_are_refused(make, text):
    a = make()
    for name in a._fields + ("_other",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda a: pickle.loads(pickle.dumps(a))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_records(make, text, clone):
    a = make()
    b = clone(a)
    assert type(b) is type(a) and b == a and hash(b) == hash(a) and repr(b) == text


@pytest.mark.parametrize("cls", [IncidenceData, AbelianGroup])
def test_the_records_kept_per_sample_have_no_instance_dict(cls):
    a = next(make() for make, _ in RECORDS if type(make()) is cls)
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_replace_with_no_change_rebuilds_an_equal_record(make, text):
    a = make()
    b = replace(a)
    assert b is not a and b == a and repr(b) == text
    with pytest.raises(TypeError):
        replace(a, no_such_field=1)


@pytest.mark.parametrize("record, changes, message", [
    (Vertex("v"), {"genus": -1}, "genus must be"),
    (Vertex("v"), {"kind": "arrowhead", "euler": 3}, "must not carry an Euler"),
    (Edge("a", "b"), {"sign": 0}, "sign must be"),
    (PlumbingGraph((Vertex("a"),), ()), {"edges": (Edge("a", "b"),)}, "unknown vertex 'b'"),
    (IncidenceData(2, (MultiPoint((0, 1)),)), {"n": 3}, "meets no point"),
    (SmithForm(2, 2, (1, 2)), {"factors": (2, 3)}, "out of order"),
    (AbelianGroup(1, (2,)), {"torsion": (2, 3)}, "invariant-factor form"),
    (AbelianGroup(1), {"free_rank": True}, "free rank must be"),
    (MoveSpec("split", "w0", companion="v0"), {"kind": "blow_down_a"},
     'does not read "companion"'),
    (MoveSpec("split", "w0"), {"kind": "teleport"}, "unknown move kind"),
])
def test_replace_runs_the_constructor_checks(record, changes, message):
    with pytest.raises(MFBoundaryError, match=message):
        replace(record, **changes)


@pytest.mark.parametrize("record, changes, made", [
    (Vertex("v", euler=1), {"euler": 2}, lambda: Vertex("v", euler=2)),
    (Edge("a", "b"), {"a": "b", "b": "a"}, lambda: Edge("b", "a")),
    (ProjLine((1, 0, 0), 0), {"label": 4}, lambda: ProjLine((1, 0, 0), 4)),
    (generate_family("pencil", 3), {"points": [MultiPoint(p) for p in ((1, 2), (0, 1), (0, 2))]},
     lambda: generate_family("generic", 3)),
    (build_string(1, 2, 7), {"lam": 0}, lambda: StringGraph(1, 2, 7, 0, 1, (2, 2, 3),
                                                           (1, 1, 1), (1, 2))),
    (AbelianGroup(1, (2,)), {"torsion": [2, 4]}, lambda: AbelianGroup(1, (2, 4))),
])
def test_replace_gives_what_the_constructor_gives(record, changes, made):
    assert replace(record, **changes) == made()


def test_the_base_constructor_takes_every_field_once():
    assert ProjLine(coeffs=(1, 0, 0), label=2) == ProjLine((1, 0, 0), 2)
    for args, kwargs in [((), {}), (((1, 0, 0),), {}), (((1, 0, 0), 2, 3), {}),
                         (((1, 0, 0), 2), {"label": 2}), (((1, 0, 0),), {"other": 2})]:
        with pytest.raises(TypeError, match=r"takes the fields \('coeffs', 'label'\)$"):
            ProjLine(*args, **kwargs)
