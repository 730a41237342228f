import pytest
from hypothesis import strategies as st

from tropcyl.classes import intersect, make_class
from tropcyl.lattice import Fan, refine_fan, vadd
from tropcyl.model import F1_RAYS, P1XP1_RAYS, P2_RAYS, build_model, cubic_model


# A smooth complete fan with twelve rays, for leaf-count work bounds.
TWELVE_RAYS = (
    (1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1),
    (-1, 0), (-1, -1), (-1, -2), (0, -1), (1, -1), (2, -1),
)


def exceptional_class(model, i, j):
    """The class of the exceptional curve E_ij, its pair checked on the model."""
    return intersect(model, make_class(model.fan.rays, (0,) * model.m, {(i, j): 1}))


@pytest.fixture
def cubic():
    return cubic_model()


@pytest.fixture
def p2_plain():
    return build_model(P2_RAYS, (1, 1, 1))


@pytest.fixture
def p1xp1():
    return build_model(P1XP1_RAYS, (2, 1, 2, 1))


@pytest.fixture
def f1():
    return build_model(F1_RAYS, (1, 2, 1, 1))


def _hirzebruch(a):
    return ((1, 0), (0, 1), (-1, a), (0, -1))


@st.composite
def smooth_models(draw, max_l=3):
    """A random smooth complete model. Every smooth complete toric surface is
    P2 or a Hirzebruch surface F_a followed by toric blowups, each inserting
    u_i + u_{i+1} between adjacent rays: here a <= 5, up to three blowups, a
    rotated ray order and multiplicities 0..max_l."""
    rays = draw(st.just(P2_RAYS) | st.integers(0, 5).map(_hirzebruch))
    fan = Fan(rays)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, fan.m))
        fan, _ = refine_fan(fan, vadd(fan.ray(i), fan.ray(i + 1)))
    k = draw(st.integers(0, fan.m - 1))
    rays = fan.rays[k:] + fan.rays[:k]
    return build_model(rays, draw(st.tuples(*[st.integers(0, max_l)] * len(rays))))
