import copy
import pickle
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcyl.classes import divisor_class, intersect, zero_class
from tropcyl.errors import PathThroughOrigin, ZeroVector
from tropcyl.lattice import det
from tropcyl.model import F1_RAYS, P1XP1_RAYS, P2_RAYS, build_model, cubic_model
from tropcyl.tropical import (
    BALANCED,
    BENDING,
    UNBALANCED,
    Classification,
    Edge,
    MappedTree,
    canonical_spine_split,
    classify,
    cylinder_tree,
    extension_class,
    make_tree,
    spine_decomposition,
    unimodular_complement,
    validate_balancing,
)

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


def test_balancing_statuses(cubic):
    tree = single_leaf_cylinder_tree()
    reports = {r.vertex: r for r in validate_balancing(cubic, tree)}
    # The full curve is balanced at the bend; dropping the twig leaves the
    # spine-only sum (1,1), a bending direction.
    assert reports["b"].status == BALANCED
    assert reports["a1"].status == BALANCED


def test_spine_only_bend_is_bending(cubic):
    positions = {"b": _pt(2, 2), "a1": _pt(2, 3), "w": None, "v1": None, "v2": None, "r": _pt(1, 1)}
    edges = (
        Edge("b", "a1", (0, 1), F(1)),
        Edge("a1", "w", (0, 0), None),
        Edge("a1", "v1", (0, 1), None),
        Edge("b", "v2", (1, 0), None),
        Edge("b", "r", (-1, -1), F(1)),
    )
    marks = {"1": "v1", "2": "v2", "w": "w", "f": "r"}
    tree = make_tree(positions, edges, marks, interior=("w",), boundary=("1", "2"), finite=("f",))
    reports = {r.vertex: r for r in validate_balancing(cubic, tree)}
    assert reports["b"].status == BALANCED
    # Without the finite leg the bend has weight sum (1,1), which is a wall.
    spine_only = make_tree(
        {k: v for k, v in positions.items() if k != "r"},
        edges[:4],
        {"1": "v1", "2": "v2", "w": "w"},
        interior=("w",),
        boundary=("1", "2"),
    )
    reports = {r.vertex: r for r in validate_balancing(cubic, spine_only)}
    assert reports["b"].status == BENDING
    assert reports["b"].deficit == (1, 1)


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
    reports = {r.vertex: r for r in validate_balancing(cubic, tree)}
    # On the cubic model every direction is supported, so the deficit is
    # reported as bending rather than unbalanced.
    assert reports["b"].status == BENDING
    assert reports["b"].deficit == (-1, -1)


def test_unbalanced_on_sparse_model():
    from tropcyl.model import build_model, P2_RAYS

    m = build_model(P2_RAYS, (1, 0, 0))
    positions = {"b": _pt(2, 2), "v1": None, "v2": None, "t1": None}
    edges = (
        Edge("b", "v1", (0, 1), None),
        Edge("b", "v2", (1, 0), None),
        Edge("b", "t1", (-2, -2), None),
    )
    tree = make_tree(positions, edges, {"1": "v1", "2": "v2"}, boundary=("1", "2"))
    reports = {r.vertex: r for r in validate_balancing(m, tree)}
    assert reports["b"].status == UNBALANCED
    assert reports["b"].deficit == (-1, -1)


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
        from tropcyl.counting import build_cylinder

        cyl = build_cylinder(cubic, ((1, 0), (0, 1)), extended=True)
        tree = cylinder_tree(cubic, cyl)
        got = classify(cubic, tree)
        assert got.kind == "cylinder"
        assert sorted(got.cylinder.twig_type) == sorted(cyl.twig_type)


def _raw_tree(positions, edges, marks, interior=(), boundary=()):
    """A mapped tree built without ``make_tree``'s structural check."""
    return MappedTree(
        tuple(sorted(positions.items())), tuple(edges), tuple(sorted(marks.items())),
        frozenset(interior), frozenset(boundary),
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

REJECTIONS = {
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
    "no bend": (lambda: _spine_tree(_pt(2, 2), ((0, 1), (0, -1)), [_LEAF]),
        "cylinder: bending vertex has balanced spine weights; no bend"),
    "constant leg at the bend": (lambda: _raw_tree(
        {"b": _pt(2, 2), "w": None, "v1": None, "v2": None, "t1": None},
        [Edge("b", "w", (0, 0), None), Edge("b", "v1", (0, 1), None),
         Edge("b", "v2", (2, 1), None), Edge("b", "t1", (-2, -2), None)],
        {"1": "v1", "2": "v2", "w": "w"}, interior=("w",), boundary=("1", "2")),
        "cylinder: interior constant leg attaches at the bending vertex"),
    "bend off its wall": (lambda: _spine_tree(_pt(2, 3), ((0, 1), (1, 0))),
        "spine: vertex b bends away from its wall"),
    "unmarked 2-valent vertex": (lambda: _raw_tree(
        {"b": _pt(2, 2), "m": _pt(3, 2), "v1": None, "v2": None, "t1": None},
        [Edge("b", "m", (1, 0), F(1)), Edge("m", "v2", (1, 0), None),
         Edge("b", "v1", (0, 1), None), Edge("b", "t1", (-1, -1), None)],
        {"1": "v1", "2": "v2"}, boundary=("1", "2")),
        "tropical curve: vertex m is an unmarked 2-valent vertex; curve is not simple"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejection_reasons(cubic, case):
    build, reason = REJECTIONS[case]
    model = _SPARSE if case == "twig edge off the walls" else cubic
    result = classify(model, build())
    assert result.kind == "invalid"
    assert reason in result.reasons, result.reasons


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


def test_unimodular_complement_is_unimodular(cubic):
    from tropcyl.lattice import det

    for w in ((1, 0), (1, 1), (2, 1), (-1, -1), (3, -1)):
        c = unimodular_complement(cubic.fan, w)
        from tropcyl.lattice import primitive_part

        assert abs(det(primitive_part(w)[0], c)) == 1


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
    """A model, a point and a slope. The point is a free nonzero point, a
    point on a ray, or a multiple of the slope (a path through the origin
    when the multiple is negative)."""
    model = draw(st.sampled_from(EXTENSION_MODELS))
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
    """The integer sign tests give the class of the fraction formula, and raise
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


def test_cached_tree_views_are_read_only_and_keep_equality():
    tree = single_leaf_cylinder_tree()
    twin = MappedTree(*(getattr(tree, f.name) for f in fields(tree)))
    assert tree.incident("b") and tree.problems == ()
    assert tree == twin and hash(tree) == hash(twin)
    for view in (tree.pos, tree.mark_vertex):
        with pytest.raises(TypeError):
            view["b"] = None
    assert tree.pos["b"] == _pt(2, 2)
    assert copy.deepcopy(tree) == tree and pickle.loads(pickle.dumps(tree)) == tree


def test_spine_split_cache_keys_on_ray_order():
    """A rotated fan gets the same split, read through its own cache entry."""
    from tropcyl.tropical import _spine_split

    for model in INDEX_MODELS:
        rays = model.fan.rays
        rotated = build_model(rays[1:] + rays[:1], model.blowups[1:] + model.blowups[:1])
        for w in rays + ((1, 1), (-1, -1), (2, -1)):
            want = _spine_split.__wrapped__(rays, w)
            assert canonical_spine_split(model, w) == want
            assert canonical_spine_split(rotated, w) == want
