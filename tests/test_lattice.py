import math
import re

import pytest
from conftest import smooth_models
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropcyl.errors import AlreadyRay, NotComplete, NotPrimitive, NotSmooth, TooFewRays, ZeroVector
from tropcyl.lattice import (
    Fan,
    cone_coordinates,
    cone_of,
    content,
    det,
    norm,
    primitive_part,
    refine_fan,
    validate_fan,
)

P2 = ((1, 0), (0, 1), (-1, -1))


def test_valid_p2_fan():
    validate_fan(P2)


def test_valid_square_fan():
    validate_fan(((1, 0), (0, 1), (-1, 0), (0, -1)))


def test_non_smooth_fan_rejected():
    with pytest.raises(NotSmooth):
        validate_fan(((1, 0), (-1, 1), (-1, -1)))


def test_too_few_rays():
    with pytest.raises(TooFewRays):
        validate_fan(((1, 0), (-1, 0)))


def test_zero_or_non_primitive_ray_rejected():
    for rays, message, index in (
        (((1, 0), (0, 0), (-1, -1)), "zero vector is not a ray", 2),
        (((1, 0), (0, 1), (-2, -2)), "ray 3 = (-2, -2) is not primitive", 3),
    ):
        with pytest.raises(NotPrimitive, match=f"^{re.escape(message)}$") as exc:
            validate_fan(rays)
        assert exc.value.index == index


def test_rays_that_wind_twice_rejected():
    """Every adjacent pair is unimodular, but the rays go round twice."""
    with pytest.raises(NotComplete, match="^rays do not wrap around the origin exactly once$"):
        validate_fan(P2 + P2)


def test_fan_equality_compares_rays_by_position():
    """A rotated fan numbers its rays differently, so it is another fan."""
    a = Fan(((1, 0), (0, 1), (-1, -1)))
    b = Fan(((0, 1), (-1, -1), (1, 0)))
    c = Fan(((-1, -1), (1, 0), (0, 1)))
    assert a != b and b != c and a != c
    assert len({a, b, c}) == 3
    assert a == Fan(((1, 0), (0, 1), (-1, -1)))
    assert hash(a) == hash(Fan(((1, 0), (0, 1), (-1, -1))))
    # Stored order is the input order.
    assert b.rays[0] == (0, 1)


class TestConeCoordinates:
    def test_on_ray(self):
        fan = Fan(P2)
        assert cone_coordinates(fan, (1, 0)) == (1, 1, 0)

    def test_interior(self):
        fan = Fan(P2)
        assert cone_coordinates(fan, (3, 3)) == (1, 3, 3)

    def test_third_cone(self):
        # (0,1) + 2(-1,-1) = (-2,-1)
        fan = Fan(P2)
        assert cone_coordinates(fan, (-2, -1)) == (2, 1, 2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            cone_coordinates(Fan(P2), (0, 0))

    def test_the_last_cone_takes_what_the_others_leave(self):
        """Cone m, from u_m to u_1, holds u_m and the vectors past it, but
        not u_1, which cone 1 reports."""
        fan = Fan(P2)
        assert [cone_of(fan, v) for v in ((0, -1), (-1, -1), (1, -1), (1, 0))] == [3, 3, 3, 1]


def test_norm_degree_family():
    """Degrees of the three-leaf family: 2+n, 1+n, n."""
    fan = Fan(P2)
    for n in range(6):
        assert norm(fan, (2 + n, 0)) == 2 + n
        assert norm(fan, (1 + n, 0)) == 1 + n
        if n > 0:
            assert norm(fan, (-n, -n)) == n


def test_norm_interior():
    assert norm(Fan(P2), (1, 1)) == 2


def test_norm_on_ray_is_lattice_index():
    fan = Fan(P2)
    assert norm(fan, (3, 0)) == 3
    assert norm(fan, (-2, -2)) == 2


def test_refine_fan_single_insertion():
    fan, inserted = refine_fan(Fan(P2), (1, 1))
    assert fan == Fan(((1, 0), (1, 1), (0, 1), (-1, -1)))
    assert inserted == ((1, 1),)


def test_refine_fan_already_ray():
    with pytest.raises(AlreadyRay):
        refine_fan(Fan(P2), (1, 0))


def test_refine_fan_refuses_a_zero_or_non_primitive_direction():
    with pytest.raises(ZeroVector, match="^cannot insert the zero vector$"):
        refine_fan(Fan(P2), (0, 0))
    with pytest.raises(NotPrimitive, match=r"^direction \(2, 2\) is not primitive$"):
        refine_fan(Fan(P2), (2, 2))


def test_refine_fan_iterated_subdivision():
    fan, inserted = refine_fan(Fan(P2), (2, 1))
    assert fan == Fan(((1, 0), (2, 1), (1, 1), (0, 1), (-1, -1)))
    assert set(inserted) == {(2, 1), (1, 1)}


def _complement(u):
    """Some w with det(u, w) = 1 for primitive u = (x, y), from x * s = 1 mod |y|."""
    x, y = u
    if y == 0:
        return (0, x)
    s = pow(x, -1, abs(y))
    return ((x * s - 1) // y, s)


def _refine_by_rescan(fan, d):
    """Reference: insert d into its cone, then split the first cone of
    determinant k > 1 by the w with det(u, w) = 1 and 0 < det(w, v) < k,
    rescanning from the start after every split."""
    rays = list(fan.rays)
    rays.insert(cone_of(fan, d), d)
    inserted = [d]
    changed = True
    while changed:
        changed = False
        for j in range(len(rays)):
            u, v = rays[j], rays[(j + 1) % len(rays)]
            k = det(u, v)
            if k > 1:
                w0 = _complement(u)
                c = (det(w0, v) % k - det(w0, v)) // k
                w = (w0[0] + c * u[0], w0[1] + c * u[1])
                rays.insert(j + 1, w)
                inserted.append(w)
                changed = True
                break
    return tuple(rays), inserted


@settings(deadline=None, max_examples=200)
@given(smooth_models(), st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
def test_refine_fan_matches_the_rescan_loop(model, d):
    """The Stern-Brocot mediants are the rays the rescan loop inserts, in the
    same places: same ray tuple, d first, same inserted set."""
    assume(math.gcd(*d) == 1 and d not in model.fan.rays)
    rays, inserted = _refine_by_rescan(model.fan, d)
    fan, got = refine_fan(model.fan, d)
    assert fan.rays == rays
    assert got[0] == d and len(got) == len(inserted) and set(got) == set(inserted)


vectors = st.tuples(
    st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30)
).filter(lambda v: v != (0, 0))

fans = st.sampled_from(
    [
        Fan(P2),
        Fan(((1, 0), (0, 1), (-1, 0), (0, -1))),
        Fan(((1, 0), (1, 1), (0, 1), (-1, -1))),
    ]
)


@given(fans, vectors)
def test_cone_coordinates_reconstruct(fan, v):
    i, a, b = cone_coordinates(fan, v)
    u, w = fan.ray(i), fan.ray(i + 1)
    assert a >= 0 and b >= 0
    assert (a * u[0] + b * w[0], a * u[1] + b * w[1]) == v


@given(fans, vectors, st.integers(min_value=1, max_value=5))
def test_norm_scales(fan, v, k):
    assert norm(fan, (k * v[0], k * v[1])) == k * norm(fan, v)


@given(fans, vectors)
def test_ray_parallel_norm_is_content(fan, v):
    p, c = primitive_part(v)
    if fan.ray_index(p) is not None:
        assert norm(fan, v) == c == content(v)
