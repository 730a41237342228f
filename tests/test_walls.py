from itertools import combinations

import pytest
from conftest import smooth_models
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcyl.errors import ZeroVector
from tropcyl.lattice import det, dot
from tropcyl.model import F1_RAYS, P1XP1_RAYS, P2_RAYS, build_model, cubic_model
from tropcyl.walls import RULES, _cone, generate_walls, is_wall_direction

HEXAGON_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
BOX = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if (x, y) != (0, 0)]


def test_step0_is_exceptional_directions(cubic):
    walls = generate_walls(cubic, 0, 10)
    assert walls.step_set(0) == {(1, 0), (0, 1), (-1, -1)}


def test_step1_additions(cubic):
    walls = generate_walls(cubic, 1, 10)
    assert walls.step_set(1) == {(1, 1), (-1, 0), (0, -1)}


def test_step2_pair_sum_rule(cubic):
    walls = generate_walls(cubic, 2, 3, rule="pair_sum")
    step2 = walls.step_set(2)
    assert {(2, 1), (1, 2), (-2, -1), (-1, -2)} <= step2
    # The literal pair-sum rule also produces the two diagonal rays.
    assert (1, -1) in step2 and (-1, 1) in step2


def test_step2_support_rule(cubic):
    # (-1,1) = 2(0,1) + (-1,-1) is a supported combination with coefficient
    # sum 3, so the diagonals are genuine step-2 walls under this rule too.
    walls = generate_walls(cubic, 2, 3, rule="support")
    assert walls.step_set(2) == {
        (2, 1), (1, 2), (-2, -1), (-1, -2), (1, -1), (-1, 1),
    }


def test_single_wall_never_scatters():
    m = build_model(P2_RAYS, (1, 0, 0))
    for rule in ("pair_sum", "support"):
        walls = generate_walls(m, 5, 10, rule=rule)
        assert [d for d, _ in walls.directions] == [(1, 0)]


def test_toric_model_has_no_walls():
    m = build_model(P2_RAYS, (0, 0, 0))
    for rule in RULES:
        assert generate_walls(m, 3, 10, rule).directions == ()


@pytest.mark.parametrize("rule", RULES)
def test_generation_stops_at_fixpoint(rule):
    huge = generate_walls(cubic_model(), 10**5, 10, rule)
    assert huge.steps == 10**5
    assert huge.directions == generate_walls(cubic_model(), 31, 10, rule).directions


def test_support_rule_keeps_sign():
    # Only the first quadrant is a nonnegative combination of (1,0) and (0,1);
    # is_wall_direction still accepts (-1,-1) up to sign.
    m = build_model(P1XP1_RAYS, (1, 1, 0, 0))
    walls = generate_walls(m, 20, 4, "support")
    assert all(x >= 0 and y >= 0 for (x, y), _ in walls.directions)
    assert len(walls.directions) == 7
    assert is_wall_direction(m, (-1, -1))


def test_membership_examples(cubic):
    assert is_wall_direction(cubic, (2, 1))
    assert is_wall_direction(cubic, (-2, -1))
    m = build_model(P2_RAYS, (1, 0, 0))
    assert not is_wall_direction(m, (0, 1))
    m2 = build_model(P2_RAYS, (1, 1, 0))
    assert is_wall_direction(m2, (-1, -1))


def test_membership_zero_rejected(cubic):
    with pytest.raises(ZeroVector):
        is_wall_direction(cubic, (0, 0))


def test_determinism(cubic):
    a = generate_walls(cubic, 3, 8, rule="pair_sum")
    b = generate_walls(cubic, 3, 8, rule="pair_sum")
    assert a.directions == b.directions


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=2, max_value=8),
    st.sampled_from(["pair_sum", "support"]),
)
def test_monotone_in_steps_and_bound(n, bound, rule):
    model = cubic_model()
    small = set(generate_walls(model, n, bound, rule).by_direction)
    more_steps = set(generate_walls(model, n + 1, bound, rule).by_direction)
    bigger_bound = set(generate_walls(model, n, bound + 2, rule).by_direction)
    assert small <= more_steps
    assert small <= bigger_bound


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=3), st.sampled_from(["pair_sum", "support"]))
def test_generated_walls_are_supported(n, rule):
    model = cubic_model()
    walls = generate_walls(model, n, 8, rule)
    for d, _ in walls.directions:
        assert is_wall_direction(model, d)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([P2_RAYS, P1XP1_RAYS, F1_RAYS, HEXAGON_RAYS]).flatmap(
        lambda rays: st.tuples(
            st.just(rays), st.tuples(*[st.integers(min_value=0, max_value=2)] * len(rays))
        )
    ),
    st.integers(min_value=1, max_value=8),
)
def test_rules_pinned_to_each_other(model_data, bound):
    """The two rules agree through step 2; at saturation they give the same
    direction set and no direction comes later under pair_sum."""
    model = build_model(*model_data)
    for n in range(3):
        assert (
            generate_walls(model, n, bound, "pair_sum").directions
            == generate_walls(model, n, bound, "support").directions
        )
    steps = 4 * bound + 4
    pair = generate_walls(model, steps, bound, "pair_sum").by_direction
    support = generate_walls(model, steps, bound, "support").by_direction
    assert pair.keys() == support.keys()
    assert all(pair[d] <= support[d] for d in pair)


def test_steps_unordered_on_f3():
    """Off the fixed fans pair_sum can come a step later: support reaches
    (-1, 6) = 2 (-1, 3) + (1, 0) and (1, 3) = (-1, 3) + 2 (1, 0) at step 2,
    pair_sum at step 3. Both rules still saturate to the same 48 directions."""
    model = build_model(((1, 0), (0, 1), (-1, 3), (0, -1)), (1, 3, 2, 2))
    pair = generate_walls(model, 40, 6, "pair_sum").by_direction
    support = generate_walls(model, 40, 6, "support").by_direction
    assert len(pair) == 48 and pair.keys() == support.keys()
    assert {d: (pair[d], support[d]) for d in pair if pair[d] > support[d]} == {
        (-1, 6): (3, 2),
        (1, 3): (3, 2),
    }


def _pairwise_in_cone(gens, q):
    """Reference: q is a positive multiple of a nonnegative combination of at
    most two of gens (Caratheodory in the plane), tried pair by pair."""
    if any(det(u, q) == 0 and dot(u, q) > 0 for u in gens):
        return True
    # q = (a u + b v) / det(u, v) with a = det(q, v) and b = det(u, q).
    return any(
        (dd := det(u, v)) != 0 and det(q, v) * dd >= 0 and det(u, q) * dd >= 0
        for u, v in combinations(gens, 2)
    )


@pytest.mark.parametrize("rays, blowups, expected", [
    pytest.param(P2_RAYS, (0, 0, 0), lambda x, y: False, id="empty"),
    pytest.param(P1XP1_RAYS, (1, 0, 0, 0), lambda x, y: y == 0 and x > 0, id="ray"),
    pytest.param(P1XP1_RAYS, (1, 0, 1, 0), lambda x, y: y == 0, id="line"),
    pytest.param(P1XP1_RAYS, (1, 1, 1, 0), lambda x, y: y >= 0, id="half-plane"),
    pytest.param(HEXAGON_RAYS, (0, 1, 1, 1, 0, 0), lambda x, y: y >= max(x, 0), id="sector"),
    pytest.param(P2_RAYS, (2, 2, 2), lambda x, y: True, id="plane"),
])
def test_cone_shapes(rays, blowups, expected):
    """Each shape the supported cone can take: the one-sided test that
    ``support`` filters with, and the up-to-sign ``is_wall_direction``."""
    model = build_model(rays, blowups)
    inside = _cone(model.exceptional_directions)
    assert [q for q in BOX if inside(q)] == [q for q in BOX if expected(*q)]
    assert [q for q in BOX if is_wall_direction(model, q)] == [
        (x, y) for x, y in BOX if expected(x, y) or expected(-x, -y)
    ]


@settings(deadline=None, max_examples=60)
@given(smooth_models(max_l=1))
def test_membership_matches_pairwise_reference(model):
    gens = model.exceptional_directions
    inside = _cone(gens)
    for q in BOX:
        assert inside(q) == _pairwise_in_cone(gens, q), q
        assert is_wall_direction(model, q) == (
            _pairwise_in_cone(gens, q) or _pairwise_in_cone(gens, (-q[0], -q[1]))
        ), q


@settings(deadline=None, max_examples=100)
@given(smooth_models(), st.integers(min_value=1, max_value=6))
def test_saturated_pair_sum_lies_in_support(model, bound):
    """On random smooth models, each rule run to its own fixpoint: every
    pair_sum direction is a support direction, and every support direction
    lies in the supported cone. The sets can differ (see the next test)."""
    pair = generate_walls(model, 10**4, bound, "pair_sum").by_direction
    support = generate_walls(model, 10**4, bound, "support").by_direction
    assert pair.keys() <= support.keys()
    gens = model.exceptional_directions
    assert all(_pairwise_in_cone(gens, d) for d in support)


def test_saturated_sets_differ_when_the_bound_cuts_every_pair_sum():
    """(0, 1) = (2 (-1, 2) + (2, 1)) / 5 and (1, 1) = ((-1, 2) + 3 (2, 1)) / 5
    are rays, so support reaches them at bound 1. Every sum of two distinct
    walls, (1, 3), has norm 3, so pair_sum never leaves the two generators."""
    model = build_model(((0, 1), (-1, 2), (0, -1), (1, 0), (2, 1), (1, 1)), (0, 1, 0, 0, 2, 0))
    pair = generate_walls(model, 10**4, 1, "pair_sum").by_direction
    support = generate_walls(model, 10**4, 1, "support").by_direction
    assert pair == {(-1, 2): 0, (2, 1): 0}
    assert support == {(-1, 2): 0, (2, 1): 0, (0, 1): 2, (1, 1): 3}
