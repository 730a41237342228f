from itertools import combinations, product
from math import gcd

import pytest
from conftest import smooth_models
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcyl.errors import ZeroVector
from tropcyl.lattice import det, dot, primitive_part, vadd
from tropcyl.model import F1_RAYS, P1XP1_RAYS, P2_RAYS, build_model, cubic_model
from tropcyl.walls import (
    RULES,
    _cone,
    _directions,
    _primitive_within,
    generate_walls,
    is_wall_direction,
)

HEXAGON_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
F5_RAYS = ((1, 0), (0, 1), (-1, 5), (0, -1))
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


def test_gcd_pass_takes_primitive_parts():
    """Both rules reduce their sums through one gcd pass: each nonzero
    vector keeps its sign and loses its content, and the zero sum is dropped."""
    vectors = [(2, 4), (-3, 6), (0, -5), (0, 0), (1, 1), (1, 2)]
    assert _directions(vectors) == {(1, 2), (-1, 2), (0, -1), (1, 1)}


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
    small = set(dict(generate_walls(model, n, bound, rule).directions))
    more_steps = set(dict(generate_walls(model, n + 1, bound, rule).directions))
    bigger_bound = set(dict(generate_walls(model, n, bound + 2, rule).directions))
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
    pair = dict(generate_walls(model, steps, bound, "pair_sum").directions)
    support = dict(generate_walls(model, steps, bound, "support").directions)
    assert pair.keys() == support.keys()
    assert all(pair[d] <= support[d] for d in pair)


def test_steps_unordered_on_f3():
    """Off the fixed fans pair_sum can come a step later: support reaches
    (-1, 6) = 2 (-1, 3) + (1, 0) and (1, 3) = (-1, 3) + 2 (1, 0) at step 2,
    pair_sum at step 3. Both rules still saturate to the same 48 directions."""
    model = build_model(((1, 0), (0, 1), (-1, 3), (0, -1)), (1, 3, 2, 2))
    pair = dict(generate_walls(model, 40, 6, "pair_sum").directions)
    support = dict(generate_walls(model, 40, 6, "support").directions)
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
    pair = dict(generate_walls(model, 10**4, bound, "pair_sum").directions)
    support = dict(generate_walls(model, 10**4, bound, "support").directions)
    assert pair.keys() <= support.keys()
    gens = model.exceptional_directions
    assert all(_pairwise_in_cone(gens, d) for d in support)


def test_saturated_sets_differ_when_the_bound_cuts_every_pair_sum():
    """(0, 1) = (2 (-1, 2) + (2, 1)) / 5 and (1, 1) = ((-1, 2) + 3 (2, 1)) / 5
    are rays, so support reaches them at bound 1. Every sum of two distinct
    walls, (1, 3), has norm 3, so pair_sum never leaves the two generators."""
    model = build_model(((0, 1), (-1, 2), (0, -1), (1, 0), (2, 1), (1, 1)), (0, 1, 0, 0, 2, 0))
    pair = dict(generate_walls(model, 10**4, 1, "pair_sum").directions)
    support = dict(generate_walls(model, 10**4, 1, "support").directions)
    assert pair == {(-1, 2): 0, (2, 1): 0}
    assert support == {(-1, 2): 0, (2, 1): 0, (0, 1): 2, (1, 1): 3}


def _plain_primitive_within(fan, bound):
    """Reference: every lattice point a u + b v of a cone (u, v) with a >= 1,
    b >= 0 and a + b <= bound whose coordinates have gcd 1."""
    out = set()
    for u, v in zip(fan.rays, fan.rays[1:] + fan.rays[:1]):
        for a in range(1, bound + 1):
            for b in range(bound + 1 - a):
                x, y = a * u[0] + b * v[0], a * u[1] + b * v[1]
                if gcd(x, y) == 1:
                    out.add((x, y))
    return out


@settings(deadline=None, max_examples=50)
@given(smooth_models())
def test_primitive_within_matches_a_per_cone_gcd_loop(model):
    for bound in range(1, 13):
        want = _plain_primitive_within(model.fan, bound)
        assert _primitive_within(model.fan, bound) == want, bound


def _reference_walls(model, steps, bound, rule):
    """Reference: pair_sum pairs every fresh wall with every wall found so
    far, and support takes the primitive part of every sum of exactly n
    generators; each runs to its step count or to a step that adds nothing."""
    gens, allowed = model.exceptional_directions, _plain_primitive_within(model.fan, bound)
    if rule == "pair_sum":
        found, fresh = dict.fromkeys(gens, 0), set(gens)
        for n in range(1, steps + 1):
            sums = {vadd(d1, d2) for d1 in fresh for d2 in found} - {(0, 0)}
            new = ({primitive_part(s)[0] for s in sums} & allowed) - found.keys()
            if not new:
                break
            found.update(dict.fromkeys(new, n))
            fresh = new
        return found
    todo = set(filter(_cone(gens), allowed))
    found, sums = {}, {(0, 0)}
    for n in range(steps + 1):
        sums = {vadd(s, u) for s in sums for u in gens}
        reached = todo & {primitive_part(s)[0] for s in sums - {(0, 0)}}
        found.update(dict.fromkeys(reached, n))
        todo -= reached
        if not todo:
            break
    return found


@settings(deadline=None, max_examples=300)
@given(
    smooth_models(),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([0, 1, 2, 3, 10**4]),
)
def test_rules_match_reference_loops(model, bound, steps):
    for rule in RULES:
        assert dict(generate_walls(model, steps, bound, rule).directions) == _reference_walls(
            model, steps, bound, rule
        ), rule


@pytest.mark.parametrize("bits_per_wall", [
    pytest.param(10**12, id="mask"),
    pytest.param(0, id="paired"),
])
@pytest.mark.parametrize("steps", [2, 10**4])
@pytest.mark.parametrize("model, bound", [
    pytest.param(cubic_model(), 16, id="cubic"),
    pytest.param(build_model(F5_RAYS, (1, 1, 1, 1)), 12, id="F5"),
    pytest.param(build_model(HEXAGON_RAYS, (0, 1, 1, 1, 0, 0)), 12, id="hexagon-part"),
])
def test_pair_sum_matches_reference_past_the_property_bound(
    monkeypatch, model, bound, steps, bits_per_wall
):
    """Past the property's bound of 8, with the sums forced from the bit mask
    and from plain pairing: on F5 the walls reach negative coordinates and
    the top row of the sumset's box."""
    monkeypatch.setattr("tropcyl.walls.MASK_BITS_PER_WALL", bits_per_wall)
    assert dict(generate_walls(model, steps, bound, "pair_sum").directions) == _reference_walls(
        model, steps, bound, "pair_sum"
    )


def _refuse(*args):
    raise AssertionError("this sum builder must not run here")


F100000_RAYS = ((1, 0), (0, 1), (-1, 10**5), (0, -1))


@pytest.mark.parametrize("model, bound, refused", [
    pytest.param(cubic_model(), 16, "_paired_sums", id="cubic-mask"),
    pytest.param(build_model(F100000_RAYS, (1, 1, 1, 1)), 10, "_mask_sums", id="F100000-paired"),
    pytest.param(build_model(F100000_RAYS, (1, 1, 0, 0)), 10, "_paired_sums",
                 id="F100000-half-mask"),
])
def test_pair_sum_builds_no_mask_over_a_mostly_empty_box(monkeypatch, model, bound, refused):
    """On F_100000 at bound 10 the 128 possible walls lie in a sumset box of
    41 x 4 000 001 bits, so pair_sum pairs them rather than shift a 20 MB
    mask per wall. With only (1, 0) and (0, 1) supported the steep ray lies
    outside the supported cone and the box shrinks to 41 x 41 bits, 51 per
    possible wall (the cubic's at bound 16 holds 18); those take the mask.
    Each matches the reference at the fixpoint."""
    monkeypatch.setattr(f"tropcyl.walls.{refused}", _refuse)
    assert dict(generate_walls(model, 10**4, bound, "pair_sum").directions) == _reference_walls(
        model, 10**4, bound, "pair_sum"
    )


def _gcd_pass_vectors(monkeypatch, model, steps, bound, rule):
    """Every vector one generate_walls hands to ``walls._directions``, in order."""
    seen = []

    def counting(vectors):
        vectors = list(vectors)
        seen.extend(vectors)
        return _directions(vectors)

    monkeypatch.setattr("tropcyl.walls._directions", counting)
    generate_walls(model, steps, bound, rule)
    monkeypatch.undo()
    return seen


def test_pair_sum_stops_at_its_last_productive_step(monkeypatch):
    """Once every direction of the supported cone within the bound is found,
    pair_sum tries no more pairs: a step count past its last productive step
    costs nothing, also when the cone is not the whole plane."""
    for model in (cubic_model(), build_model(HEXAGON_RAYS, (0, 1, 1, 1, 0, 0))):
        last = generate_walls(model, 10**5, 10, "pair_sum").directions[-1][1]
        at_last = _gcd_pass_vectors(monkeypatch, model, last, 10, "pair_sum")
        assert at_last
        assert len(at_last) == len(_gcd_pass_vectors(monkeypatch, model, 10**5, 10, "pair_sum"))


@pytest.mark.parametrize("model", [
    pytest.param(cubic_model(), id="cubic"),
    pytest.param(build_model(HEXAGON_RAYS, (1, 0, 2, 0, 1, 1)), id="hexagon"),
])
def test_support_expands_each_lattice_point_once(monkeypatch, model):
    calls = _gcd_pass_vectors(monkeypatch, model, 10**5, 8, "support")
    assert calls and len(calls) == len(set(calls))


def test_generate_walls_refuses_bad_arguments(cubic):
    with pytest.raises(ValueError, match="^unknown wall rule 'pairs'$"):
        generate_walls(cubic, 1, 5, rule="pairs")
    for steps, norm_bound in ((-1, 5), (1, 0)):
        with pytest.raises(ValueError, match="^steps must be >= 0 and norm_bound >= 1$"):
            generate_walls(cubic, steps, norm_bound)


GL2_SMALL = [
    ((a, b), (c, d)) for a, b, c, d in product(range(-3, 4), repeat=4) if abs(a * d - b * c) == 1
]


def _act(A, v):
    return (A[0][0] * v[0] + A[0][1] * v[1], A[1][0] * v[0] + A[1][1] * v[1])


@settings(deadline=None, max_examples=200)
@given(
    smooth_models(),
    st.sampled_from(GL2_SMALL),
    st.integers(1, 8),
    st.sampled_from((0, 1, 2, 3, 10**4)),
)
def test_walls_commute_with_gl2(model, A, bound, steps):
    """For A in GL2(Z), both rules on the transported model give the
    transported (direction, step) set. A reflection (det A = -1) reverses
    the cyclic order of the rays, so the transported rays are listed in
    reverse order, each with its blowups."""
    rays, blowups = tuple(_act(A, u) for u in model.fan.rays), model.blowups
    if A[0][0] * A[1][1] - A[0][1] * A[1][0] == -1:
        rays, blowups = rays[::-1], blowups[::-1]
    moved = build_model(rays, blowups)
    for rule in RULES:
        want = {(_act(A, d), s) for d, s in generate_walls(model, steps, bound, rule).directions}
        assert set(generate_walls(moved, steps, bound, rule).directions) == want
