"""Curve configuration graphs: decorations, incidence edges, arrows."""

import pytest

from mfboundary.arrangement import IncidenceData, generate_family
from mfboundary.pipeline import build_gamma_c
from mfboundary.errors import InvalidSize, MFBoundaryError


def test_gamma_c_triangle_structure():
    gc = build_gamma_c(generate_family("generic", 3))
    ids = sorted(v.id for v in gc.vertices)
    assert ids == ["a0", "a1", "a2", "v0", "v1", "v2", "w0", "w1", "w2"]
    for v in gc.vertices:
        if v.kind == "line":
            assert v.dec == (1, 3, 1)
        elif v.kind == "point":
            assert v.dec == (2, 3, 1)
        else:
            assert v.kind == "arrowhead"
    type2 = [e for e in gc.edges if e.edge_type == 2]
    arrows = [e for e in gc.edges if e.arrow]
    assert len(type2) == 6  # sum of multiplicities
    assert len(arrows) == 3  # one per line
    assert all(e.edge_type == 1 for e in arrows)
    assert all(e.sign == 1 for e in gc.edges)


@pytest.mark.parametrize("fam,n,npoints", [
    ("generic", 5, 10), ("pencil", 6, 1), ("near_pencil", 6, 6),
])
def test_gamma_c_counts(fam, n, npoints):
    inc = generate_family(fam, n)
    gc = build_gamma_c(inc)
    lines = [v for v in gc.vertices if v.kind == "line"]
    points = [v for v in gc.vertices if v.kind == "point"]
    arrows = [v for v in gc.vertices if v.kind == "arrowhead"]
    assert (len(lines), len(points), len(arrows)) == (n, npoints, n)
    type2 = [e for e in gc.edges if e.edge_type == 2]
    assert len(type2) == sum(p.multiplicity for p in inc.points)
    # point decorations carry the true multiplicities
    mults = sorted(v.dec[0] for v in points)
    assert mults == sorted(inc.multiplicities)
    assert all(v.dec[1] == n for v in lines + points)


def test_gamma_c_point_order_matches_incidence():
    inc = generate_family("near_pencil", 5)
    gc = build_gamma_c(inc)
    for j, p in enumerate(inc.points):
        w = gc.vertex(f"w{j}")
        assert w.dec[0] == p.multiplicity
        touching = {e.a if e.b == w.id else e.b
                    for e in gc.edges_at(w.id) if e.edge_type == 2}
        assert touching == {f"v{i}" for i in p.lines}


ERRORS = [
    (lambda: build_gamma_c(IncidenceData(1, ())), InvalidSize, "need at least two lines, got n=1"),
]


@pytest.mark.parametrize("call,cls,message", ERRORS, ids=range(len(ERRORS)))
def test_error_branches_raise_their_class_and_message(call, cls, message):
    with pytest.raises(MFBoundaryError) as caught:
        call()
    assert type(caught.value) is cls and str(caught.value) == message
