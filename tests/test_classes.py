import json
import pickle
from dataclasses import FrozenInstanceError
from operator import add, sub

import pytest
from conftest import exceptional_class, smooth_models
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcyl import config as cfg
from tropcyl.classes import (
    CurveClass,
    class_from_profile,
    divisor_class,
    intersect,
    make_class,
    toric_profile,
    zero_class,
)
from tropcyl.counting import ElementaryCountTable, build_cylinder, contributing_classes
from tropcyl.errors import (
    ComponentOutOfRange,
    LengthMismatch,
    ModelMismatch,
    NonRepresentable,
    NotSmooth,
    RayIndexOutOfRange,
)
from tropcyl.lattice import Fan, det, validate_fan
from tropcyl.model import F1_RAYS, P1XP1_RAYS, P2_RAYS, build_model, cubic_model


def intersection_matrix(rays):
    """Intersection numbers D_i . D_j of the toric boundary divisors of a smooth
    fan, where u_{i-1} + u_{i+1} = a_i u_i with a_i = -(D_i^2) = det(u_{i-1}, u_{i+1}):
    the reference ``toric_profile`` is checked against."""
    validate_fan(rays)
    m = len(rays)
    mat = [[0] * m for _ in range(m)]
    for i in range(m):
        mat[i][i] = -det(rays[(i - 1) % m], rays[(i + 1) % m])
        mat[i][(i + 1) % m] += 1
        mat[i][(i - 1) % m] += 1
    return tuple(tuple(r) for r in mat)


def test_intersection_matrix_p2():
    assert intersection_matrix(P2_RAYS) == ((1, 1, 1), (1, 1, 1), (1, 1, 1))


def test_intersection_matrix_p1xp1():
    m = intersection_matrix(P1XP1_RAYS)
    for i in range(4):
        assert m[i][i] == 0
        assert m[i][(i + 1) % 4] == 1
        assert m[i][(i + 2) % 4] == 0


def test_intersection_matrix_f1():
    m = intersection_matrix(F1_RAYS)
    # (1,0) + (0,1) = 1 * (1,1), so the (1,1) divisor has self-intersection -1.
    assert m[1][1] == -1


@settings(deadline=None, max_examples=40)
@given(smooth_models())
def test_intersection_matrix_rows_are_relations(model):
    """D_i meets every principal divisor sum_j <m, u_j> D_j in degree 0, so
    sum_j (D_i . D_j) u_j = 0 for every row i."""
    rays = model.fan.rays
    for row in intersection_matrix(rays):
        assert tuple(sum(c * u[k] for c, u in zip(row, rays)) for k in (0, 1)) == (0, 0)


@settings(deadline=None, max_examples=40)
@given(smooth_models(), st.data())
def test_toric_profile_is_the_intersection_matrix_product(model, data):
    """The O(m) tridiagonal profile equals the full matrix-vector product."""
    rays = model.fan.rays
    toric = data.draw(st.tuples(*[st.integers(-9, 9)] * model.m))
    full = tuple(sum(c * t for c, t in zip(row, toric)) for row in intersection_matrix(rays))
    assert toric_profile(rays, toric) == full


def test_make_class_on_a_many_ray_fan_builds_no_matrix():
    """toric_profile reads each a_i off the neighbouring rays, so a class on
    a fan of m rays costs O(m), not an m x m intersection matrix."""
    fan = Fan(tuple((1, k) for k in range(2001)) + ((0, 1), (-1, -1)))
    d = divisor_class(fan, 501)  # (1, 500): a_i = det((1, 499), (1, 501)) = 2
    assert d.dD[499:502] == (1, -2, 1) and sum(map(abs, d.dD)) == 4
    assert make_class(fan.rays, (0,) * fan.m).is_zero()


@st.composite
def smooth_class(draw, model):
    toric = draw(st.tuples(*[st.integers(-4, 4)] * model.m))
    exc = {pair: draw(st.integers(-2, 2)) for pair in model.exceptional_pairs}
    return make_class(model.fan.rays, toric, exc)


@settings(deadline=None, max_examples=40)
@given(smooth_models(), st.data())
def test_class_contract(model, data):
    """Classes are immutable values: arithmetic round-trips, equal classes
    hash equally, and a class is tied to its ray tuple."""
    a, b = data.draw(smooth_class(model)), data.draw(smooth_class(model))
    back = (a + b) - b
    assert back == a and hash(back) == hash(a)
    prof = intersect(model, a)
    same = class_from_profile(model, prof.dD, prof.dE_map)
    assert same == a and hash(same) == hash(a)
    rays = model.fan.rays
    moved = CurveClass(rays[1:] + rays[:1], a.dD, a.dE)
    assert moved != a
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ModelMismatch):
            op(a, moved)
    with pytest.raises(AttributeError):
        a.note = 1
    # A listing row's class and a multiple are built apart from a sum's.
    built = [a, 3 * a]
    if model.exceptional_directions:
        table = ElementaryCountTable(tuple((p, ((a, 1),)) for p in model.exceptional_pairs))
        cyl = build_cylinder(model, model.exceptional_directions[:1])
        built.append(contributing_classes(model, cyl, table)[-1][1])
    for c in built:
        with pytest.raises(FrozenInstanceError):
            c.dD = b.dD
        assert not hasattr(c, "__dict__")
        copied = pickle.loads(pickle.dumps(c))
        assert copied == c and hash(copied) == hash(c)


@settings(deadline=None, max_examples=40)
@given(smooth_models(), st.data())
def test_wire_format_round_trips(model, data):
    """A class is its profile: the wire format writes dD and dE as stored,
    reads them back to an equal class, and ``intersect`` returns the class."""
    b = data.draw(smooth_class(model))
    wire = cfg.profile_to_dict(model, b)
    assert wire == {"dD": list(b.dD), "dE": [[i, j, c] for (i, j), c in b.dE]}
    back = cfg.parse_profile(json.loads(json.dumps(wire)), model)
    assert back == b and hash(back) == hash(b)
    assert intersect(model, b) is b


@st.composite
def coefficients(draw, model, rays):
    """A toric part and nonzero exceptional coefficients on a random subset
    of the pairs over the given rays."""
    toric = draw(st.tuples(*[st.integers(-4, 4)] * model.m))
    pairs = [p for p in model.exceptional_pairs if p[0] in rays]
    support = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return toric, {p: draw(st.sampled_from((-2, -1, 1, 2))) for p in support}


@pytest.mark.parametrize("layout", ["a-before-b", "b-before-a", "interleaved", "cancelling"])
@settings(deadline=None, max_examples=60)
@given(smooth_models(), st.data())
def test_sum_is_canonical(layout, model, data):
    """a + b and a - b are the classes of the summed coefficients, with dE
    strictly sorted by pair and free of zeros, whether the summands'
    exceptional pairs lie in disjoint runs (either order), interleave, or
    cancel."""
    split = data.draw(st.integers(1, model.m + 1))
    low, high = range(1, split), range(split, model.m + 1)
    every = range(1, model.m + 1)
    a_rays, b_rays = {
        "a-before-b": (low, high),
        "b-before-a": (high, low),
        "interleaved": (every, every),
        "cancelling": (every, every),
    }[layout]
    ta, ea = data.draw(coefficients(model, a_rays))
    if layout == "cancelling":
        tb, eb = tuple(-t for t in ta), {p: -c for p, c in ea.items()}
    else:
        tb, eb = data.draw(coefficients(model, b_rays))
    rays = model.fan.rays
    a, b = make_class(rays, ta, ea), make_class(rays, tb, eb)
    for got, op in ((a + b, add), (a - b, sub)):
        exc = {p: op(ea.get(p, 0), eb.get(p, 0)) for p in ea.keys() | eb.keys()}
        want = make_class(rays, tuple(map(op, ta, tb)), exc)
        assert got == want and hash(got) == hash(want)
        assert all(p < q for (p, _), (q, _) in zip(got.dE, got.dE[1:]))
        assert all(v for _, v in got.dE)
        assert class_from_profile(model, got.dD, got.dE) == got
    if layout == "cancelling":
        assert (a + b).is_zero()


def test_intersection_matrix_refuses_a_non_smooth_fan():
    with pytest.raises(NotSmooth):
        intersection_matrix(((1, 0), (1, 2), (-1, -1)))


def test_intersect_strict_transform(cubic):
    beta = divisor_class(cubic.fan, 1) - exceptional_class(cubic, 3, 1)
    prof = intersect(cubic, beta)
    assert prof.dD == (1, 1, 0)
    assert prof.dE_map == {(3, 1): 1}


def test_intersect_exceptional_class(cubic):
    prof = intersect(cubic, exceptional_class(cubic, 1, 1))
    assert prof.dD == (1, 0, 0)
    assert prof.dE_map == {(1, 1): -1}


def test_intersect_zero(cubic):
    prof = intersect(cubic, zero_class(cubic))
    assert prof.dD == (0, 0, 0)
    assert prof.dE == ()


def test_class_from_profile_inverts(cubic):
    beta = class_from_profile(cubic, (1, 1, 0), {(3, 1): 1})
    assert beta == divisor_class(cubic.fan, 1) - exceptional_class(cubic, 3, 1)


def test_class_from_profile_zero(cubic):
    assert class_from_profile(cubic, (0, 0, 0), {}) == zero_class(cubic)


def test_class_from_profile_non_representable(cubic):
    with pytest.raises(NonRepresentable):
        class_from_profile(cubic, (1, 0, 0), {})


def test_class_from_profile_checks_zero_entries(cubic):
    with pytest.raises(ComponentOutOfRange):
        class_from_profile(cubic, (0, 0, 0), {(1, 9): 0})


MODELS = [
    cubic_model(),
    build_model(P1XP1_RAYS, (2, 1, 2, 1)),
    build_model(F1_RAYS, (1, 2, 1, 1)),
]


@st.composite
def model_and_class(draw):
    model = draw(st.sampled_from(MODELS))
    toric = tuple(
        draw(st.integers(min_value=-4, max_value=4)) for _ in range(model.m)
    )
    exc = {}
    for pair in model.exceptional_pairs:
        c = draw(st.integers(min_value=-2, max_value=2))
        if c:
            exc[pair] = c
    return model, make_class(model.fan.rays, toric, exc)


@given(model_and_class())
def test_profile_round_trip(mc):
    model, beta = mc
    prof = intersect(model, beta)
    assert class_from_profile(model, prof.dD, prof.dE_map) == beta


@given(model_and_class(), model_and_class())
def test_intersect_is_linear(mc1, mc2):
    model, a = mc1
    model2, b = mc2
    if model is not model2:
        return
    pa, pb, ps = intersect(model, a), intersect(model, b), intersect(model, a + b)
    assert ps.dD == tuple(x + y for x, y in zip(pa.dD, pb.dD))
    combined = dict(pa.dE_map)
    for k, v in pb.dE_map.items():
        combined[k] = combined.get(k, 0) + v
    assert {k: v for k, v in combined.items() if v} == ps.dE_map


HEXAGON_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
FANS = [
    cubic_model(),
    build_model(P1XP1_RAYS, (2, 1, 2, 1)),
    build_model(F1_RAYS, (1, 2, 1, 1)),
    build_model(HEXAGON_RAYS, (1, 2, 0, 1, 2, 1)),
]
small = st.integers(min_value=-4, max_value=4)


@st.composite
def model_vector_exc(draw):
    model = draw(st.sampled_from(FANS))
    v = tuple(draw(small) for _ in range(model.m))
    exc = {pair: draw(small) for pair in model.exceptional_pairs}
    return model, v, exc


@given(model_vector_exc(), small, small)
def test_class_is_toric_part_modulo_relations(mve, mx, my):
    """Adding the principal divisor sum_i <m, u_i> D_i does not change the class."""
    model, v, exc = mve
    rays = model.fan.rays
    shifted = tuple(a + mx * u[0] + my * u[1] for a, u in zip(v, rays))
    a, b = make_class(rays, shifted, exc), make_class(rays, v, exc)
    assert a == b
    assert hash(a) == hash(b)


@given(model_vector_exc(), st.data())
def test_profile_representable_iff_balanced(mve, data):
    """A profile is a class's exactly when the toric intersections left after
    removing the exceptional rows satisfy sum_i d_i u_i = 0."""
    model, v, exc = mve
    prof = intersect(model, make_class(model.fan.rays, v, exc))
    unit = st.integers(min_value=-1, max_value=1)
    shift = data.draw(st.one_of(st.just((0,) * model.m), st.tuples(*[unit] * model.m)))
    dD = tuple(a + b for a, b in zip(prof.dD, shift))
    d = list(dD)
    for (i, _j), c in prof.dE:
        d[i - 1] += c
    balanced = all(sum(x * u[k] for x, u in zip(d, model.fan.rays)) == 0 for k in (0, 1))
    if not balanced:
        with pytest.raises(NonRepresentable):
            class_from_profile(model, dD, prof.dE_map)
        return
    back = intersect(model, class_from_profile(model, dD, prof.dE_map))
    assert (back.dD, back.dE) == (dD, prof.dE)


def test_class_constructors_check_lengths_and_indices(cubic):
    with pytest.raises(LengthMismatch, match="^toric part length does not match ray count$"):
        make_class(cubic.fan.rays, (1, 0))
    with pytest.raises(LengthMismatch, match="^dD length does not match ray count$"):
        class_from_profile(cubic, (1, 1, 1, 1), {})
    for i in (0, 4):
        with pytest.raises(RayIndexOutOfRange, match=f"^ray index {i} out of range 1..3$"):
            divisor_class(cubic.fan, i)
        with pytest.raises(RayIndexOutOfRange, match=f"^ray index {i} out of range 1..3$"):
            make_class(cubic.fan.rays, (0, 0, 0), {(i, 1): 1})
