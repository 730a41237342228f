import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropcyl.errors import AlreadyRay, NotSmooth, TooFewRays, ZeroVector
from tropcyl.lattice import (
    Fan,
    cone_coordinates,
    content,
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


def test_refine_fan_iterated_subdivision():
    fan, inserted = refine_fan(Fan(P2), (2, 1))
    assert fan == Fan(((1, 0), (2, 1), (1, 1), (0, 1), (-1, -1)))
    assert set(inserted) == {(2, 1), (1, 1)}


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
