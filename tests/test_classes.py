import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropcyl.classes import (
    class_from_profile,
    compatibility_intersections,
    divisor_class,
    exceptional_class,
    intersect,
    intersection_matrix,
    make_class,
    zero_class,
)
from tropcyl.errors import ComponentOutOfRange, NonRepresentable, RayIndexOutOfRange
from tropcyl.model import F1_RAYS, P1XP1_RAYS, P2_RAYS, build_model, cubic_model


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


def test_compatibility_intersections(cubic):
    assert compatibility_intersections(cubic, [(1, 1), (2, 1)]) == (1, 1, 0)
    assert compatibility_intersections(cubic, []) == (0, 0, 0)
    assert compatibility_intersections(cubic, [(3, 2)]) == (0, 0, 2)


def test_compatibility_bad_ray(cubic):
    with pytest.raises(RayIndexOutOfRange):
        compatibility_intersections(cubic, [(4, 1)])


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
