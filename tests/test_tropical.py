import copy
import math
import os
import pickle
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import combinations

import pytest
from conftest import smooth_models
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tropcyl.classes import (
    CurveClass, class_from_profile, direction_contrib, divisor_class, intersect, zero_class,
)
from tropcyl import tropical
from tropcyl.counting import build_cylinder, elementary_cylinder, twig_components
from tropcyl.errors import (
    AffineInconsistent, NonRepresentable, NotPrimitiveCylinder, PathThroughOrigin,
    RayIndexOutOfRange, TropcylError, ZeroVector,
)
from tropcyl.lattice import det
from tropcyl.model import F1_RAYS, P1XP1_RAYS, P2_RAYS, build_model, cubic_model, refine_model
from tropcyl.tropical import (
    Classification,
    Cylinder,
    Edge,
    MappedTree,
    _twig_problems,
    canonical_spine_split,
    check_primitive,
    classify,
    cylinder_tree,
    extension_class,
    make_tree,
    spine_decomposition,
    structural_problems,
    tree_class,
)
from tropcyl.walls import is_wall_direction

F = Fraction


def _pt(x, y):
    return (F(x), F(y))


def single_leaf_cylinder_tree():
    """Spine legs of weight 1 toward rays 2 and 1, bending at (2,2), with a
    single twig leaf of weight (-1,-1)."""
    positions = {
        "b": _pt(2, 2),
        "a1": _pt(2, 3),
        "w": None,
        "v1": None,
        "v2": None,
        "t1": None,
    }
    edges = (
        Edge("b", "a1", (0, 1), F(1)),
        Edge("a1", "w", (0, 0), None),
        Edge("a1", "v1", (0, 1), None),
        Edge("b", "v2", (1, 0), None),
        Edge("b", "t1", (-1, -1), None),
    )
    marks = {"1": "v1", "2": "v2", "w": "w"}
    return make_tree(positions, edges, marks, interior=("w",), boundary=("1", "2"))


def branched_cylinder_tree():
    """Twig branching at the origin with leaves of degrees 2, 1, 1."""
    positions = {
        "b": _pt(2, 2),
        "a1": _pt(2, 3),
        "o": _pt(0, 0),
        "w": None,
        "v1": None,
        "v2": None,
        "t1": None,
        "t2": None,
        "t3": None,
    }
    edges = (
        Edge("b", "a1", (0, 1), F(1)),
        Edge("a1", "w", (0, 0), None),
        Edge("a1", "v1", (0, 1), None),
        Edge("b", "v2", (1, 0), None),
        Edge("b", "o", (-1, -1), F(2)),
        Edge("o", "t1", (-2, -2), None),
        Edge("o", "t2", (1, 0), None),
        Edge("o", "t3", (0, 1), None),
    )
    marks = {"1": "v1", "2": "v2", "w": "w"}
    return make_tree(positions, edges, marks, interior=("w",), boundary=("1", "2"))


def test_a_balanced_tree_has_no_deficits():
    assert single_leaf_cylinder_tree().deficits == {}
    assert branched_cylinder_tree().deficits == {}


def test_spine_only_bend_is_bending(cubic):
    positions = {"b": _pt(2, 2), "a1": _pt(2, 3), "w": None, "v1": None, "v2": None, "r": _pt(1, 1)}
    edges = (
        Edge("b", "a1", (0, 1), F(1)),
        Edge("a1", "w", (0, 0), None),
        Edge("a1", "v1", (0, 1), None),
        Edge("b", "v2", (1, 0), None),
        Edge("b", "r", (-1, -1), F(1)),
    )
    marks = {"1": "v1", "2": "v2", "w": "w"}
    tree = make_tree(positions, edges, {**marks, "f": "r"}, ("w",), ("1", "2"), ("f",))
    assert tree.deficits == {}
    # Without the finite leg the bend has weight sum (1, 1): a wall direction
    # on the cubic, whose line holds the bend.
    spine_only = make_tree(
        {k: v for k, v in positions.items() if k != "r"}, edges[:4], marks, ("w",), ("1", "2")
    )
    assert spine_only.deficits == {"b": (1, 1)}
    assert classify(cubic, spine_only) == Classification("spine", ())


def test_weight_mutation_leaves_a_deficit(cubic):
    positions = {
        "b": _pt(2, 2), "a1": _pt(2, 3), "w": None, "v1": None, "v2": None, "t1": None,
    }
    edges = (
        Edge("b", "a1", (0, 1), F(1)),
        Edge("a1", "w", (0, 0), None),
        Edge("a1", "v1", (0, 1), None),
        Edge("b", "v2", (1, 0), None),
        Edge("b", "t1", (-2, -2), None),
    )
    tree = make_tree(positions, edges, {"1": "v1", "2": "v2", "w": "w"}, interior=("w",), boundary=("1", "2"))
    assert tree.deficits == {"b": (-1, -1)}
    # On the cubic model every direction is a wall direction, and b lies on
    # the deficit's line: the spine check reads a bend along the wall, the
    # others an unbalanced vertex.
    reasons = classify(cubic, tree).reasons
    assert "cylinder: vertex b is unbalanced (deficit (-1, -1))" in reasons
    assert "tropical curve: vertex b is unbalanced (deficit (-1, -1))" in reasons
    assert not [r for r in reasons if r.startswith("spine: vertex b")]


def test_unbalanced_on_sparse_model():
    m = build_model(P2_RAYS, (1, 0, 0))
    positions = {"b": _pt(2, 2), "v1": None, "v2": None, "t1": None}
    edges = (
        Edge("b", "v1", (0, 1), None),
        Edge("b", "v2", (1, 0), None),
        Edge("b", "t1", (-2, -2), None),
    )
    tree = make_tree(positions, edges, {"1": "v1", "2": "v2"}, boundary=("1", "2"))
    assert tree.deficits == {"b": (-1, -1)}
    assert "spine: vertex b is unbalanced (deficit (-1, -1))" in classify(m, tree).reasons


class TestClassify:
    def test_primitive_cylinder(self, cubic):
        result = classify(cubic, single_leaf_cylinder_tree())
        assert result.kind == "cylinder"
        assert result.primitive is True
        assert result.cylinder.twig_type == ((-1, -1),)

    def test_non_primitive_cylinder(self, cubic):
        result = classify(cubic, branched_cylinder_tree())
        assert result.kind == "cylinder"
        assert result.primitive is False

    def test_mutation_is_invalid_with_reason(self, cubic):
        positions = {
            "b": _pt(2, 2), "a1": _pt(2, 3), "w": None, "v1": None, "v2": None, "t1": None,
        }
        edges = (
            Edge("b", "a1", (0, 1), F(1)),
            Edge("a1", "w", (0, 0), None),
            Edge("a1", "v1", (0, 1), None),
            Edge("b", "v2", (1, 0), None),
            Edge("b", "t1", (-2, -2), None),
        )
        tree = make_tree(positions, edges, {"1": "v1", "2": "v2", "w": "w"}, interior=("w",), boundary=("1", "2"))
        result = classify(cubic, tree)
        assert result.kind == "invalid"
        assert result.reasons

    def test_cylinder_tree_round_trip(self, cubic):
        cyl = build_cylinder(cubic, ((1, 0), (0, 1)), extended=True)
        tree = cylinder_tree(cubic, cyl)
        got = classify(cubic, tree)
        assert got.kind == "cylinder"
        assert sorted(got.cylinder.twig_type) == sorted(cyl.twig_type)


def _raw_tree(positions, edges, marks, interior=(), boundary=(), finite=()):
    """A mapped tree built without ``make_tree``'s structural check."""
    return MappedTree(
        tuple(sorted(positions.items())), tuple(edges), tuple(sorted(marks.items())),
        frozenset(interior), frozenset(boundary), frozenset(finite),
    )


def _spine_tree(bend, legs, extra=(), marks=None):
    """Spine legs from the bend with weights ``legs``: leg 1 runs through a1,
    one unit along it, where the constant leg w sits. ``extra`` adds
    (vertex, position, edge) triples."""
    p1, p2 = legs
    a1 = (bend[0] + p1[0], bend[1] + p1[1])
    positions = {"b": bend, "a1": a1, "w": None, "v1": None, "v2": None}
    edges = [
        Edge("b", "a1", p1, F(1)),
        Edge("a1", "w", (0, 0), None),
        Edge("a1", "v1", p1, None),
        Edge("b", "v2", p2, None),
    ]
    for v, p, e in extra:
        positions[v] = p
        edges.append(e)
    marks = marks or {"1": "v1", "2": "v2", "w": "w"}
    return _raw_tree(positions, edges, marks, interior=("w",), boundary=("1", "2"))


_LEAF = ("t1", None, Edge("b", "t1", (-1, -1), None))
_SPARSE = build_model(P2_RAYS, (1, 0, 0))


def _one_leaf_marked(interior=(), boundary=(), finite=()):
    """The cubic's extended one-leaf cylinder tree (leaf (1, 0)) with more
    labels added to each kind of mark, unchecked."""
    cubic = cubic_model()
    tree = cylinder_tree(cubic, build_cylinder(cubic, ((1, 0),), extended=True))
    return replace(
        tree, interior=tree.interior | set(interior), boundary=tree.boundary | set(boundary),
        finite=tree.finite | set(finite),
    )


REJECTIONS = {
    "unknown vertex": (lambda: _raw_tree(
        {"x": _pt(2, 2)}, [Edge("x", "q", (0, 1), None)], {}),
        "edge x-q references unknown vertex"),
    "infinite edge to a finite point": (lambda: _raw_tree(
        {"x": _pt(2, 2), "y": _pt(2, 3)}, [Edge("x", "y", (0, 1), None)], {}),
        "infinite edge x-y must end at infinity"),
    "infinite edge from infinity": (lambda: _raw_tree(
        {"x": None, "y": None}, [Edge("x", "y", (0, 1), None)], {}),
        "infinite edge x-y must start at a finite point"),
    "finite edge to infinity": (lambda: _raw_tree(
        {"x": _pt(2, 2), "y": None}, [Edge("x", "y", (0, 1), F(1))], {}),
        "finite edge x-y has an infinite endpoint"),
    "affinely inconsistent": (lambda: _raw_tree(
        {"x": _pt(2, 2), "y": _pt(2, 4)}, [Edge("x", "y", (0, 1), F(1))], {}),
        "edge x-y is affinely inconsistent"),
    "finite edge of weight zero": (lambda: _raw_tree(
        {"x": _pt(2, 2), "y": _pt(2, 2)}, [Edge("x", "y", (0, 0), F(1))], {}),
        "finite edge x-y has weight zero"),
    "mark at unknown vertex": (lambda: _raw_tree(
        {"r": _pt(1, 0), "t": None}, [Edge("r", "t", (1, 0), None)], {"r": "q"}),
        "mark r at unknown vertex"),
    "interior label not a mark": (lambda: _raw_tree(
        {"r": _pt(1, 0), "t": None}, [Edge("r", "t", (1, 0), None)], {"r": "r"}, interior=("q",)),
        "interior marks ['q'] are not marks of the tree"),
    "boundary label not a mark": (lambda: _raw_tree(
        {"r": _pt(1, 0), "t": None}, [Edge("r", "t", (1, 0), None)], {"r": "r"}, boundary=("q",)),
        "boundary marks ['q'] are not marks of the tree"),
    "finite label not a mark": (lambda: _raw_tree(
        {"r": _pt(1, 0), "t": None}, [Edge("r", "t", (1, 0), None)], {"r": "r"}, finite=("q",)),
        "finite marks ['q'] are not marks of the tree"),
    "nonpositive length": (lambda: _raw_tree(
        {"x": _pt(2, 2), "y": _pt(2, 1)}, [Edge("x", "y", (0, 1), F(-1))], {}),
        "edge x-y has nonpositive length"),
    "wrong edge count": (lambda: _raw_tree(
        {"x": _pt(2, 2), "y": _pt(2, 3), "z": _pt(5, 5)}, [Edge("x", "y", (0, 1), F(1))], {}),
        "graph is not a tree (wrong edge count)"),
    "not connected": (lambda: _raw_tree(
        {"x": _pt(2, 2), "y": _pt(2, 3), "z": _pt(5, 5)},
        [Edge("x", "y", (0, 1), F(1)), Edge("y", "x", (0, -1), F(1))], {}),
        "graph is not connected"),
    "mark not 1-valent": (lambda: _spine_tree(
        _pt(2, 2), ((0, 1), (1, 0)), [_LEAF], {"1": "b", "2": "v2", "w": "w"}),
        "mark 1 must sit at a 1-valent vertex"),
    "twig root infinite": (lambda: _raw_tree(
        {"o": _pt(1, 0), "r": None, "t": None},
        [Edge("o", "r", (1, 0), None), Edge("o", "t", (-1, 0), None)], {"r": "r"}),
        "twig: twig root must be finite"),
    "twig edge off a line through 0": (lambda: _raw_tree(
        {"r": _pt(1, 2), "t": None}, [Edge("r", "t", (1, 1), None)], {"r": "r"}),
        "twig: twig edge r-t does not lie on a line through the origin"),
    "twig edge off the walls": (lambda: _raw_tree(
        {"r": _pt(0, 1), "t": None}, [Edge("r", "t", (0, 1), None)], {"r": "r"}),
        "twig: twig edge r-t direction (0, 1) is not a wall direction"),
    # A spine sum of zero leaves the bend unbalanced, or the root edge of
    # weight zero.
    "no bend": (lambda: _spine_tree(_pt(2, 2), ((0, 1), (0, -1)), [_LEAF]),
        "cylinder: vertex b is unbalanced (deficit (-1, -1))"),
    "constant leg at the bend": (lambda: _raw_tree(
        {"b": _pt(2, 2), "w": None, "v1": None, "v2": None, "t1": None},
        [Edge("b", "w", (0, 0), None), Edge("b", "v1", (0, 1), None),
         Edge("b", "v2", (2, 1), None), Edge("b", "t1", (-2, -2), None)],
        {"1": "v1", "2": "v2", "w": "w"}, interior=("w",), boundary=("1", "2")),
        "cylinder: interior constant leg attaches at the bending vertex"),
    "bend off its wall": (lambda: _spine_tree(_pt(2, 3), ((0, 1), (1, 0))),
        "spine: vertex b bends away from its wall"),
    # The bend lies on the line of its deficit (1, 1), which is no wall.
    "spine deficit off the walls": (lambda: _spine_tree(_pt(2, 2), ((0, 1), (1, 0))),
        "spine: vertex b is unbalanced (deficit (1, 1))"),
    "unmarked 2-valent vertex": (lambda: _raw_tree(
        {"b": _pt(2, 2), "m": _pt(3, 2), "v1": None, "v2": None, "t1": None},
        [Edge("b", "m", (1, 0), F(1)), Edge("m", "v2", (1, 0), None),
         Edge("b", "v1", (0, 1), None), Edge("b", "t1", (-1, -1), None)],
        {"1": "v1", "2": "v2"}, boundary=("1", "2")),
        "tropical curve: vertex m is an unmarked 2-valent vertex; curve is not simple"),
    # Under balancing the spine sum is minus the twig's root edge, so the
    # twig clauses name a sum off the walls or a bend off its wall.
    "spine sum off the walls": (lambda: _spine_tree(_pt(2, 2), ((0, 1), (1, 0)), [_LEAF]),
        "cylinder: twig edge b-t1 direction (-1, -1) is not a wall direction"),
    "bend off the wall it bends along": (lambda: _spine_tree(
        _pt(2, 3), ((0, 1), (1, 0)), [("t1", None, Edge("b", "t1", (-2, -2), None))]),
        "cylinder: twig edge b-t1 does not lie on a line through the origin"),
    "spine leg of weight zero": (lambda: _spine_tree(_pt(2, 2), ((1, 1), (0, 0)), [_LEAF]),
        "cylinder: spine slope must be nonzero"),
    # Leg 1 turns at a1 and the bend is off by the opposite deficit, so the
    # legs balance the leaf and only the balancing clause rejects the tree.
    "spine unbalanced at two vertices": (lambda: _raw_tree(
        {"b": _pt(2, 2), "a1": _pt(2, 3), "w": None, "v1": None, "v2": None, "t1": None},
        [Edge("b", "a1", (0, 1), F(1)), Edge("a1", "w", (0, 0), None),
         Edge("a1", "v1", (1, 2), None), Edge("b", "v2", (0, -1), None),
         Edge("b", "t1", (-1, -1), None)],
        {"1": "v1", "2": "v2", "w": "w"}, interior=("w",), boundary=("1", "2")),
        "cylinder: vertex a1 is unbalanced (deficit (1, 1))"),
    "interior leg not constant": (lambda: _raw_tree(
        {"b": _pt(2, 2), "a1": _pt(2, 3), "w": None, "v1": None, "v2": None, "t1": None},
        [Edge("b", "a1", (0, 1), F(1)), Edge("a1", "w", (1, 0), None),
         Edge("a1", "v1", (0, 1), None), Edge("b", "v2", (1, 0), None),
         Edge("b", "t1", (-1, -1), None)],
        {"1": "v1", "2": "v2", "w": "w"}, interior=("w",), boundary=("1", "2")),
        "cylinder: interior leg must be an infinite constant leg"),
    # Every mark sits at w, which would put w's neighbour on the twig.
    "interior leg off the spine": (lambda: _raw_tree(
        {"a": _pt(1, 0), "w": _pt(2, 0), "t": None},
        [Edge("a", "w", (1, 0), F(1)), Edge("a", "t", (-1, 0), None)],
        {"1": "w", "2": "w", "w": "w"}, interior=("w",)),
        "marks 1 and 2 share vertex w"),
    # Infinite edges from b and c meet at x, which would join the two spine
    # legs and hang the twig at y from a point at infinity.
    "bend at infinity": (lambda: _raw_tree(
        {"b": _pt(2, 2), "a1": _pt(2, 3), "w": None, "v1": None, "x": None,
         "c": _pt(0, 1), "v2": None, "y": _pt(1, 0), "t": None},
        [Edge("b", "a1", (0, 1), F(1)), Edge("a1", "w", (0, 0), None),
         Edge("a1", "v1", (0, 1), None), Edge("b", "x", (1, 0), None),
         Edge("c", "x", (1, 0), None), Edge("c", "v2", (-1, 0), None),
         Edge("y", "x", (1, 0), None), Edge("y", "t", (-1, 0), None)],
        {"1": "v1", "2": "v2", "w": "w"}, interior=("w",), boundary=("1", "2")),
        "vertex x at infinity must be 1-valent"),
    "spine leg through the origin": (lambda: cylinder_tree(cubic_model(), Cylinder(
        (1, 1), (-2, -2), (F(-1, 2), F(-1, 2)), ((1, 0), (0, 1)), extended=True)),
        "cylinder: spine leg must not run through the origin"),
    # Marks are partitioned into interior, boundary and finite.
    "mark interior and boundary": (lambda: _one_leaf_marked(boundary=("w",)),
        "mark w has more than one kind: interior, boundary"),
    "mark boundary and finite": (lambda: _one_leaf_marked(finite=("2",)),
        "mark 2 has more than one kind: boundary, finite"),
    "mark of every kind": (lambda: _one_leaf_marked(interior=("1",), finite=("1",)),
        "mark 1 has more than one kind: interior, boundary, finite"),
}
_ON_SPARSE = {"twig edge off the walls", "spine sum off the walls", "spine deficit off the walls"}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejection_reasons(cubic, case):
    build, reason = REJECTIONS[case]
    model = _SPARSE if case in _ON_SPARSE else cubic
    result = classify(model, build())
    assert result.kind == "invalid"
    assert reason in result.reasons, result.reasons


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(_RATIONALS, _RATIONALS),
    st.fractions(min_value=F(1, 6), max_value=4, max_denominator=6),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda w: w != (0, 0)),
    st.tuples(_RATIONALS, _RATIONALS),
    st.booleans(),
)
def test_the_affine_check_agrees_with_fraction_arithmetic(start, length, w, off, land):
    """The structural check calls a finite edge affinely consistent exactly
    when start + length * w is its head, computed with Fractions; the head
    is that point or a random one, and coordinates may be ints."""
    exact = (start[0] + length * w[0], start[1] + length * w[1])
    head = exact if land else off
    tail = tuple(int(c) if c.denominator == 1 else c for c in start)
    problems = structural_problems(_raw_tree({"x": tail, "y": head}, [Edge("x", "y", w, length)], {}))
    assert ("edge x-y is affinely inconsistent" in problems) == (head != exact)


ONE_OF_EACH_KIND = {
    "cylinder": single_leaf_cylinder_tree,
    "twig": lambda: make_tree({"r": _pt(1, 0), "t": None}, [Edge("r", "t", (1, 0), None)], {"r": "r"}),
    "spine": lambda: _spine_tree(_pt(2, 2), ((0, 1), (1, 0))),
    "tropical_curve": lambda: make_tree(
        {"b": _pt(2, 2), "v1": None, "v2": None, "t1": None},
        [Edge("b", "v1", (0, 1), None), Edge("b", "v2", (1, 0), None), Edge("b", "t1", (-1, -1), None)],
        {"1": "v1", "2": "v2"}, boundary=("1", "2")),
    "invalid": REJECTIONS["no bend"][0],
}


@pytest.mark.parametrize("kind", sorted(ONE_OF_EACH_KIND))
def test_classify_reports_balancing_once(cubic, monkeypatch, kind):
    """Deficits are computed once per tree: every check of ``classify``
    reads the tree's cached map, and a twig split off it computes its own."""
    calls, real = [], MappedTree.deficits.func

    def counted(tree):
        calls.append(tree)
        return real(tree)

    prop = cached_property(counted)
    prop.__set_name__(MappedTree, "deficits")
    monkeypatch.setattr(MappedTree, "deficits", prop)
    tree = ONE_OF_EACH_KIND[kind]()
    assert classify(cubic, tree).kind == kind
    assert sum(t is tree for t in calls) == 1
    assert len(calls) == len({id(t) for t in calls})


_HASH_SEED_PROBE = """
from fractions import Fraction as F
from tropcyl.model import cubic_model
from tropcyl.tropical import Edge, classify, make_tree
tree = make_tree(
    {"a": (F(1), F(0)), "v1": None, "v2": None, "u": None},
    [Edge("a", "v1", (1, 2), None), Edge("a", "v2", (2, 1), None), Edge("a", "u", (-3, -3), None)],
    {"1": "v1", "t2": "v2"}, boundary=("1", "t2"),
)
print(classify(cubic_model(), tree).reasons)
"""


def test_invalid_reasons_do_not_depend_on_the_hash_seed():
    """The checks walk the marks in label order, so an ``invalid`` verdict
    lists its reasons in one order under every PYTHONHASHSEED."""
    src = os.path.dirname(os.path.dirname(tropical.__file__))
    outs = {
        subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in range(4)
    }
    assert len(outs) == 1, outs
    [out] = outs
    assert out.index("boundary mark 1 ") < out.index("boundary mark t2 ")


def test_lone_twig_classifies_as_twig(cubic):
    tree = make_tree({"r": _pt(1, 0), "t": None}, [Edge("r", "t", (1, 0), None)], {"r": "r"})
    assert classify(cubic, tree) == Classification("twig", ())


def test_zero_weight_twig_leg_is_invalid(cubic):
    """An unmarked constant leg at the bend is a twig edge of weight zero:
    classify names it instead of asking for its exceptional ray."""
    tree = _spine_tree(
        _pt(-1, -1), ((0, 1), (1, 0)), [("z", None, Edge("b", "z", (0, 0), None))]
    )
    result = classify(cubic, tree)
    assert result.kind == "invalid"
    assert "cylinder: twig edge b-z has weight zero" in result.reasons


def test_spine_decomposition_shapes(cubic):
    tree = single_leaf_cylinder_tree()
    spine, twigs = spine_decomposition(tree)
    assert "b" in spine and "a1" in spine
    assert len(twigs) == 1
    attach, twig = twigs[0]
    assert attach == "b"


def test_spine_decomposition_no_twigs(cubic):
    positions = {"b": _pt(2, 2), "a1": _pt(2, 3), "w": None, "v1": None, "v2": None}
    edges = (
        Edge("b", "a1", (0, 1), F(1)),
        Edge("a1", "w", (0, 0), None),
        Edge("a1", "v1", (0, 1), None),
        Edge("b", "v2", (1, 1), None),
    )
    tree = make_tree(positions, edges, {"1": "v1", "2": "v2", "w": "w"}, interior=("w",), boundary=("1", "2"))
    spine, twigs = spine_decomposition(tree)
    assert twigs == []
    assert spine == set(tree.pos)


class TestExtension:
    def test_no_crossing(self, cubic):
        assert extension_class(cubic, _pt(2, 2), (0, 1)).is_zero()

    def test_single_crossing(self, cubic):
        delta = extension_class(cubic, _pt(2, 2), (-1, 0))
        assert delta == divisor_class(cubic.fan, 2)

    def test_double_crossing_multiplicity(self, cubic):
        delta = extension_class(cubic, _pt(1, 2), (1, -2))
        assert delta == 2 * divisor_class(cubic.fan, 1)

    def test_origin_rejected(self, cubic):
        with pytest.raises(PathThroughOrigin):
            extension_class(cubic, _pt(1, 1), (-1, -1))

    def test_zero_exceptional_part(self, cubic):
        delta = extension_class(cubic, _pt(3, 1), (-1, -2))
        assert intersect(cubic, delta).dE_map == {}


def _reference_next_complement(fan, u):
    """Among fan rays r with det(u, r) = 1, the one at the smallest
    counterclockwise angle from u. They all lie in the open half plane left
    of u, where r comes before r' exactly when det(r, r') > 0."""
    return min(
        (r for r in fan.rays if det(u, r) == 1),
        key=cmp_to_key(lambda r, s: -det(r, s)),
    )


@settings(deadline=None, max_examples=30)
@given(smooth_models(), st.integers(1, 3), st.data())
def test_spine_split_on_a_ray_matches_the_complement_search(model, n, data):
    """On a ray u the split takes the fan ray r with det(u, r) = 1 at the
    smallest counterclockwise angle from u, found by search over the rays."""
    u = data.draw(st.sampled_from(model.fan.rays))
    w0 = (-n * u[0], -n * u[1])
    w2 = _reference_next_complement(model.fan, u)
    assert canonical_spine_split(model, w0) == ((n * u[0] - w2[0], n * u[1] - w2[1]), w2)


def test_canonical_spine_split_interior(cubic):
    p1, p2 = canonical_spine_split(cubic, (-1, -1))
    assert (p1[0] + p2[0], p1[1] + p2[1]) == (1, 1)
    assert {p1, p2} == {(1, 0), (0, 1)}


def test_canonical_spine_split_on_ray(cubic):
    p1, p2 = canonical_spine_split(cubic, (-1, 0))
    assert (p1[0] + p2[0], p1[1] + p2[1]) == (1, 0)
    assert p1 != (0, 0) and p2 != (0, 0)


HEXAGON_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
EXTENSION_MODELS = (
    cubic_model(),
    build_model(P1XP1_RAYS, (2, 1, 2, 1)),
    build_model(F1_RAYS, (1, 2, 1, 1)),
    build_model(HEXAGON_RAYS, (1, 2, 0, 1, 2, 1)),
)


def _reference_extension_class(model, x, p):
    """The crossing rule with t and s solved as fractions."""
    if p == (0, 0):
        raise ZeroVector("extension slope must be nonzero")
    if x == (F(0), F(0)):
        raise PathThroughOrigin("extension starts at the origin")
    total = zero_class(model)
    for i in range(1, model.m + 1):
        u = model.fan.ray(i)
        d = det(p, u)
        if d == 0:
            continue
        t = det(u, x) / F(d)
        s = det(p, x) / F(d)
        if t > 0:
            if s == 0:
                raise PathThroughOrigin("extension path passes through the origin")
            if s > 0:
                total = total + abs(d) * divisor_class(model.fan, i)
    return total


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
_nonzero_rationals = _rationals.filter(lambda q: q != 0)
_slopes = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0)),
    st.just((0, 0)),
)


@st.composite
def extension_inputs(draw):
    """A model, a point and a slope. The model is a fixed one or a random
    smooth one, whose rotated ray order puts the cyclic step back from ray 1
    to ray m in play. The point is a free nonzero point, a point on a ray, or
    a multiple of the slope (a path through the origin when the multiple is
    negative)."""
    model = draw(st.sampled_from(EXTENSION_MODELS) | smooth_models())
    p = draw(_slopes)
    kind = draw(st.sampled_from(("free", "on ray", "along slope")))
    if kind == "free":
        x = draw(st.tuples(_rationals, _rationals).filter(lambda v: v != (0, 0)))
    else:
        u = p if kind == "along slope" else draw(st.sampled_from(model.fan.rays))
        c = draw(_nonzero_rationals if kind == "along slope" else _nonzero_rationals.map(abs))
        x = (c * u[0], c * u[1])
    return model, x, p


def _outcome(fn, model, x, p):
    try:
        return fn(model, x, p)
    except (PathThroughOrigin, ZeroVector) as exc:
        return type(exc)


@settings(deadline=None, max_examples=300)
@given(extension_inputs())
def test_extension_class_matches_fraction_reference(case):
    """The kink of the entered cone gives the class of the crossing rule, and raise
    PathThroughOrigin and ZeroVector on exactly the same inputs."""
    model, x, p = case
    assert _outcome(extension_class, model, x, p) == _outcome(
        _reference_extension_class, model, x, p
    )


# ---------------------------------------------------------------------------
# The edge index against all-edges references.

INDEX_MODELS = (
    cubic_model(),
    build_model(P1XP1_RAYS, (1, 2, 1, 1)),
    build_model(F1_RAYS, (1, 2, 1, 1)),
    build_model(HEXAGON_RAYS, (1, 2, 0, 1, 2, 1)),
)


def _ref_incident(tree, v):
    return [e for e in tree.edges if v in (e.tail, e.head)]


def _ref_spine_decomposition(tree):
    """Fixed-point prune of the hull and an all-edges twig search."""
    pos = dict(tree.positions)
    marked = {v for _, v in tree.marks}
    spine = set(pos)
    changed = True
    while changed:
        changed = False
        for v in list(spine):
            ends = [e for e in tree.edges if e.tail in spine and e.head in spine]
            if v not in marked and sum(1 for e in ends if v in (e.tail, e.head)) <= 1:
                spine.discard(v)
                changed = True
    outside = set(pos) - spine
    twigs, visited = [], set()
    for edge in tree.edges:
        ends = {edge.tail, edge.head}
        if not (ends & spine and ends & outside) or (ends & outside).pop() in visited:
            continue
        attach, first_out = (ends & spine).pop(), (ends & outside).pop()
        comp, stack = {first_out}, [first_out]
        while stack:
            v = stack.pop()
            for e in _ref_incident(tree, v):
                for o in (e.tail, e.head):
                    if o in outside and o not in comp:
                        comp.add(o)
                        stack.append(o)
        visited |= comp
        verts = comp | {attach}
        twigs.append((attach, MappedTree(
            tuple(sorted((v, pos[v]) for v in verts)),
            tuple(e for e in tree.edges if e.tail in verts and e.head in verts),
            (("r", attach),),
            finite=frozenset({"r"}),
        )))
    return spine, twigs


def _index_trees():
    from itertools import combinations

    from tropcyl.counting import build_cylinder
    from tropcyl.deformation import build_deformation
    from tropcyl.errors import TropcylError

    yield single_leaf_cylinder_tree()
    yield branched_cylinder_tree()
    for model in INDEX_MODELS:
        dirs = model.exceptional_directions
        for t in (1, 2, 3):
            for twig in combinations(dirs, t):
                try:
                    fam = build_deformation(model, build_cylinder(model, twig, extended=True))
                except TropcylError:
                    continue
                for _name, tree in fam.curves:
                    yield tree
                    yield from (twig for _, twig in spine_decomposition(tree)[1])
                yield cylinder_tree(model, build_cylinder(model, twig))


def test_edge_index_matches_all_edges_scan():
    """incident, valency, leg, outgoing and spine_decomposition agree with the
    all-edges references on every family member, its twigs and the hand-built
    trees."""
    seen = 0
    for tree in _index_trees():
        seen += 1
        for v, _ in tree.positions:
            ref = _ref_incident(tree, v)
            assert tree.incident(v) == ref
            assert tree.valency(v) == len(ref)
            assert tree.outgoing(v) == [
                e.weight if e.tail == v else (-e.weight[0], -e.weight[1]) for e in ref
            ]
            if len(ref) == 1:
                e = ref[0]
                assert tree.leg(v) == (e, e.weight if e.head == v else (-e.weight[0], -e.weight[1]))
        assert spine_decomposition(tree) == _ref_spine_decomposition(tree)
    assert seen > 200


def test_cached_tree_views_keep_equality():
    """Filled caches leave equality and the hash to the fields, and a tree
    copies and pickles with them to an equal tree with equal views."""
    tree = single_leaf_cylinder_tree()
    twin = MappedTree(*(getattr(tree, f.name) for f in fields(tree)))
    assert tree.incident("b") and tree.problems == ()
    assert tree.pos["b"] == _pt(2, 2) and tree.mark_vertex["w"] == "w"
    assert tree == twin and hash(tree) == hash(twin)
    for copied in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert copied == tree and hash(copied) == hash(tree)
        assert (copied.pos, copied.mark_vertex) == (tree.pos, tree.mark_vertex)


# ---------------------------------------------------------------------------
# classify on random affinely consistent trees.

TREE_MODELS = (
    cubic_model(),
    build_model(P1XP1_RAYS, (1, 0, 2, 1)),
    build_model(F1_RAYS, (0, 1, 1, 0)),
)
_weights = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_lengths = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))


@st.composite
def affine_trees(draw):
    """A tree grown from a random rational root, which ``make_tree`` accepts:
    finite edges of nonzero weight and positive length, drawn either way
    round; infinite legs, constant ones included; some finite vertices
    balanced by one more leg; marks on random 1-valent vertices, each
    interior, boundary, finite or none of these."""
    positions = {"v0": draw(st.tuples(_rationals, _rationals))}
    edges, finite = [], ["v0"]
    for n in range(1, draw(st.integers(0, 7)) + 1):
        parent, v, w = draw(st.sampled_from(finite)), f"v{n}", draw(_weights)
        if w == (0, 0) or draw(st.booleans()):
            positions[v] = None
            edges.append(Edge(parent, v, w, None))
            continue
        length, p = draw(_lengths), positions[parent]
        positions[v] = (p[0] + length * w[0], p[1] + length * w[1])
        if draw(st.booleans()):
            edges.append(Edge(parent, v, w, length))
        else:
            edges.append(Edge(v, parent, (-w[0], -w[1]), length))
        finite.append(v)
    for k, v in enumerate(finite):
        out = [e.weight if e.tail == v else (-e.weight[0], -e.weight[1])
               for e in edges if v in (e.tail, e.head)]
        deficit = (-sum(w[0] for w in out), -sum(w[1] for w in out))
        if out and deficit != (0, 0) and draw(st.booleans()):
            positions[f"b{k}"] = None
            edges.append(Edge(v, f"b{k}", deficit, None))
    ends = sorted(v for v in positions if sum(v in (e.tail, e.head) for e in edges) == 1)
    marked = draw(st.lists(st.sampled_from(ends), unique=True)) if ends else []
    marks = {f"m{k}": v for k, v in enumerate(marked)}
    kinds = {m: draw(st.sampled_from(("interior", "boundary", "finite", None))) for m in marks}
    return make_tree(positions, edges, marks, *(
        [label for label, kind in kinds.items() if kind == name]
        for name in ("interior", "boundary", "finite")
    ))


@settings(deadline=None, max_examples=60)
@given(affine_trees())
def test_classify_is_total_on_affine_trees(tree):
    """Every tree ``make_tree`` accepts gets one of the five kinds."""
    for model in TREE_MODELS:
        assert classify(model, tree).kind in (
            "cylinder", "twig", "spine", "tropical_curve", "invalid"
        )


@settings(deadline=None, max_examples=100)
@given(smooth_models(), st.booleans(), st.data())
def test_the_canonical_cylinder_classifies_as_itself(model, extended, data):
    """The tree of a canonical cylinder with distinct leaves is a primitive
    cylinder, and ``classify`` reads back the cylinder, its leaves sorted."""
    dirs = model.exceptional_directions
    assume(dirs)
    t = data.draw(st.integers(1, min(3, len(dirs))))
    twig = tuple(data.draw(st.permutations(dirs))[:t])
    try:
        cyl = build_cylinder(model, twig, extended)
        tree = cylinder_tree(model, cyl)
    except TropcylError:
        assume(False)
    assert classify(model, tree) == Classification(
        "cylinder", (), replace(cyl, twig_type=tuple(sorted(twig))), True
    )


_small = st.integers(-2, 2)
_negative_rationals = st.fractions(min_value=-5, max_value=F(-1, 7), max_denominator=7)


@st.composite
def explicit_cylinder_trees(draw):
    """A model and the tree of a cylinder with a random explicit spine: one
    to three leaves toward exceptional rays, a random leg p1, p2 balancing
    it, the bend on the leaf-sum line (at a negative multiple of the sum for
    more than one leaf) or, for one leaf, anywhere; then, half of the time,
    one infinite edge's weight redrawn in -2..2."""
    model = draw(smooth_models().filter(lambda m: m.exceptional_directions))
    twig = tuple(draw(st.lists(st.sampled_from(model.exceptional_directions), min_size=1, max_size=3)))
    w0 = tropical.leaf_sum(twig)
    p1 = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    p2 = (-w0[0] - p1[0], -w0[1] - p1[1])
    if len(twig) == 1 and draw(st.booleans()):
        bend = draw(st.tuples(_rationals, _rationals))
    else:
        c = draw(_rationals if len(twig) == 1 else _negative_rationals)
        bend = (c * w0[0], c * w0[1])
    try:
        tree = cylinder_tree(model, Cylinder(p1, p2, bend, twig, draw(st.booleans())))
    except TropcylError:
        assume(False)
    if draw(st.booleans()):
        k = draw(st.sampled_from([k for k, e in enumerate(tree.edges) if e.length is None]))
        edges = list(tree.edges)
        edges[k] = replace(edges[k], weight=draw(st.tuples(_small, _small)))
        tree = replace(tree, edges=tuple(edges))
    return model, tree


@settings(deadline=None, max_examples=200)
@given(explicit_cylinder_trees())
def test_a_cylinder_bends_along_its_wall(case):
    """What a cylinder verdict implies at the bend b: the spine legs' weight
    sum there is a nonzero wall direction through b, and neither spine leg
    has weight zero. ``classify`` checks none of this directly: balancing,
    the twig clauses and ``Cylinder.spine_problem`` imply it."""
    model, tree = case
    assume(classify(model, tree).kind == "cylinder")
    sum_ = (0, 0)
    for e in tree.incident("b"):
        if {e.tail, e.head} & {"a1", "v2"}:
            w = e.weight if e.tail == "b" else (-e.weight[0], -e.weight[1])
            sum_ = (sum_[0] + w[0], sum_[1] + w[1])
    assert sum_ != (0, 0) and is_wall_direction(model, sum_)
    assert det(tree.pos["b"], sum_) == 0
    for label in ("1", "2"):
        assert tree.leg(tree.mark_vertex[label])[1] != (0, 0)


def test_make_tree_refuses_a_structural_problem():
    """A vertex at infinity ending two edges: both problems are reported. A
    label given two or three kinds of mark is refused, one problem per
    label."""
    with pytest.raises(
        AffineInconsistent,
        match="^graph is not a tree \\(wrong edge count\\); vertex x at infinity must be 1-valent$",
    ):
        make_tree({"a": _pt(0, 0), "x": None}, [Edge("a", "x", (1, 0)), Edge("a", "x", (0, 1))], {})
    tree = _one_leaf_marked()
    args = (tree.pos, tree.edges, tree.mark_vertex)
    with pytest.raises(AffineInconsistent, match="^mark 1 has more than one kind: interior, boundary, finite$"):
        make_tree(*args, {"1", "w"}, {"1", "2"}, {"1"})
    with pytest.raises(
        AffineInconsistent,
        match="^mark 1 has more than one kind: interior, boundary; "
        "mark w has more than one kind: interior, finite$",
    ):
        make_tree(*args, {"1", "w"}, {"1", "2"}, {"w"})


def test_a_cylinder_without_leaves_is_not_primitive(cubic):
    """``check_primitive`` returns the failed clause and the gate raises it."""
    cyl = Cylinder((1, 0), (0, 1), _pt(-1, -1), ())
    assert check_primitive(cubic, cyl) == "cylinder has no twig leaves"
    with pytest.raises(NotPrimitiveCylinder, match="^cylinder has no twig leaves$"):
        twig_components(cubic, cyl)


def test_a_twig_without_its_root_mark(cubic):
    tree = single_leaf_cylinder_tree()
    assert _twig_problems(cubic, tree) == [
        "twig must carry exactly one root mark"
    ]


def test_a_twig_with_a_finite_leaf(cubic):
    """Only the root of a twig may be finite: a 1-valent vertex at a finite
    point is reported."""
    twig = MappedTree(
        (("a", _pt(1, 0)), ("b", _pt(2, 0))),
        (Edge("a", "b", (1, 0), F(1)),),
        (("r", "a"),),
        finite=frozenset({"r"}),
    )
    problems = _twig_problems(cubic, twig)
    assert "twig vertex b is finite but only the root may be" in problems


def test_extension_from_the_origin_refused(cubic):
    with pytest.raises(PathThroughOrigin, match="^extension starts at the origin$"):
        extension_class(cubic, _pt(0, 0), (1, 0))


def test_spine_decomposition_peels_an_unmarked_component():
    """A tree built without ``make_tree`` and with no marks: the path
    a - b - c has no hull, so every vertex is peeled; a is queued at the
    start and again when b goes, and its second pass finds no neighbor."""
    tree = MappedTree(
        (("a", _pt(0, 0)), ("b", _pt(1, 0)), ("c", _pt(2, 0))),
        (Edge("a", "b", (1, 0), F(1)), Edge("b", "c", (1, 0), F(1))),
        (),
    )
    assert spine_decomposition(tree) == (set(), [])


def _legs_class(model, cyl, pairs):
    """The class an extended cylinder's tree should carry: dD sums
    ``direction_contrib`` over the two spine slopes, and each leaf pair
    meets the leaf once."""
    dD = [a + b for a, b in zip(*(direction_contrib(model.fan, p) for p in (cyl.p1, cyl.p2)))]
    return CurveClass(model.fan.rays, tuple(dD), tuple(sorted((ij, 1) for ij in pairs.values())))


@settings(deadline=None, max_examples=60)
@given(smooth_models(), st.data())
def test_tree_class_reads_the_spine_legs_and_the_leaf_pairs(model, data):
    """On every extended canonical cylinder with at most three leaves, and on
    each leaf's extended elementary cylinder, ``tree_class`` is the sum of
    ``direction_contrib`` over the spine slopes plus one meeting per leaf
    pair, a component drawn per exceptional ray."""
    dirs = model.exceptional_directions
    assume(dirs)
    js = {}
    for u in dirs:
        i = model.fan.ray_index(u)
        js[i] = data.draw(st.integers(1, model.multiplicity(i)))
    for i, j in js.items():
        cyl = replace(elementary_cylinder(model, i), extended=True)
        pairs = {"t1": (i, j)}
        assert tree_class(model, cylinder_tree(model, cyl), pairs) == _legs_class(model, cyl, pairs)
    for t in range(1, min(3, len(dirs)) + 1):
        for twig in combinations(dirs, t):
            try:
                cyl = build_cylinder(model, twig, extended=True)
            except ZeroVector:
                continue
            pairs = {
                f"t{s}": (model.fan.ray_index(w), js[model.fan.ray_index(w)])
                for s, w in enumerate(twig, start=1)
            }
            assert tree_class(model, cylinder_tree(model, cyl), pairs) == _legs_class(model, cyl, pairs)


def _tripod(legs):
    """A tree on the cubic's fan: infinite legs of the given weights, named
    by key, from a vertex at the origin."""
    positions = {"o": _pt(0, 0), **{v: None for v in legs}}
    return make_tree(positions, [Edge("o", v, w, None) for v, w in legs.items()], {})


@pytest.mark.parametrize(
    "legs, pairs, expected",
    [
        pytest.param(
            {"a": (2, 0), "b": (0, 2), "c": (-2, -2)}, {"a": (1, 1)},
            ((0, 2, 2), (((1, 1), 2),)), id="weight-2-leaf",
        ),
        pytest.param(
            {"a": (1, 0), "a2": (1, 0), "b": (0, 2), "c": (-2, -2)}, {"a": (1, 1), "a2": (1, 1)},
            ((0, 2, 2), (((1, 1), 2),)), id="two-leaves-one-pair",
        ),
        pytest.param(
            {"a": (2, 0), "b": (0, 2), "c": (-2, -2)}, {"a": (2, 1)},
            NonRepresentable, id="pair-on-the-wrong-ray",
        ),
        pytest.param(
            {"a": (2, 0), "b": (0, 2), "c": (-2, -2)}, {"a": (4, 1)},
            RayIndexOutOfRange, id="ray-index-past-m",
        ),
    ],
)
def test_tree_class_on_hand_built_legs(cubic, legs, pairs, expected):
    """A paired leg meets E_ij content(w) times, and entries naming one pair
    add up; a pair off its leg's ray breaks sum_i d_i u_i = 0, and a ray
    index past m is refused as ``exceptional_class`` refuses it."""
    tree = _tripod(legs)
    if isinstance(expected, type):
        with pytest.raises(expected):
            tree_class(cubic, tree, pairs)
    else:
        beta = tree_class(cubic, tree, pairs)
        assert (beta.dD, beta.dE) == expected


@pytest.mark.parametrize("key", ["t9", "w", "b"])
def test_tree_class_refuses_a_key_that_ends_no_leg(cubic, key):
    """On the cubic's extended one-leaf cylinder, a pairs key naming no
    vertex (t9), a constant leg (w) or a vertex in the plane (b) is refused
    by name instead of leaving the leaf unpaired."""
    tree = cylinder_tree(cubic, build_cylinder(cubic, ((1, 0),), extended=True))
    with pytest.raises(NonRepresentable, match=f"^pairs key '{key}' ends no infinite nonconstant leg$"):
        tree_class(cubic, tree, {key: (1, 1)})


def _pushforward(model, beta):
    """A class on a refinement of the model's fan, pushed forward to the
    model: the dD entry of each ray r adds that many times
    ``direction_contrib(model.fan, r)``, which is e_r on a ray of the model,
    and dE keeps its pairs, their ray matched by vector."""
    dD = [0] * model.m
    for r, v in zip(beta.rays, beta.dD):
        dD = [a + v * b for a, b in zip(dD, direction_contrib(model.fan, r))]
    dE = {(model.fan.ray_index(beta.rays[i - 1]), j): v for (i, j), v in beta.dE}
    return class_from_profile(model, dD, dE)


@st.composite
def refined_cylinders(draw):
    """A model from ``smooth_models``, a primitive d on none of its rays, up
    to three of its exceptional directions as a twig type, and a component
    j_s per leaf."""
    model = draw(smooth_models())
    dirs = model.exceptional_directions
    assume(dirs)
    grid = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if math.gcd(x, y) == 1]
    d = draw(st.sampled_from([v for v in grid if model.fan.ray_index(v) is None]))
    twig = tuple(draw(st.permutations(dirs))[: draw(st.integers(1, min(3, len(dirs))))])
    js = tuple(draw(st.integers(1, model.multiplicity(model.fan.ray_index(w)))) for w in twig)
    return model, d, twig, js


@settings(deadline=None, max_examples=100)
@given(refined_cylinders())
@example((build_model(((1, 0), (0, 1), (-1, 2), (0, -1)), (0, 0, 1, 0)), (1, -1), ((-1, 2),), (1,)))
def test_tree_class_pushes_forward_from_a_refinement(case):
    """A fixed canonical cylinder tree carries, on ``refine_model(M, d)``
    and pushed forward to M, the class it carries on M: the toric blowup
    changes the fan, not the curve. The example is F2 refined by (1, -1),
    where the reader gives dD (1, 0, 0, 2) + E_31 on both fans."""
    model, d, twig, js = case
    try:
        cyl = build_cylinder(model, twig, extended=True)
    except ZeroVector:
        assume(False)
    tree, fine = cylinder_tree(model, cyl), refine_model(model, d)

    def pairs(m):
        return {f"t{s}": (m.fan.ray_index(w), j) for s, (w, j) in enumerate(zip(twig, js), start=1)}

    assert _pushforward(model, tree_class(fine, tree, pairs(fine))) == tree_class(model, tree, pairs(model))
