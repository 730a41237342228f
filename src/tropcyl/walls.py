"""Wall structures generated from the exceptional ray directions.

Two generation rules are supported:

* ``pair_sum`` (default): walls start as the ray directions with positive
  blowup multiplicity; each step adds the primitive directions of d1 + d2
  over unordered pairs of distinct walls with d1 != -d2.
* ``support``: every primitive direction that is a positive multiple (same
  sign, not up to sign) of a nonzero nonnegative integer combination of the
  supported ray generators; the step of a direction is the minimal total
  coefficient sum minus one.

Both rules start from the primitive directions of the supported cone within
the bound and stop when a step adds nothing or every one of them is found.
pair_sum keeps its walls as one integer bit mask over a box
|x| <= rx, |y| <= ry that holds every possible wall (see ``_pair_sum``). A
step ORs the mask, shifted by each fresh wall, into one sumset, and the run
decodes each sum once. So its cost follows the wall count times the box area
in machine words, not the square of the wall count in Python additions. On a
fan with a large ray coordinate (Hirzebruch F_k with k in the hundreds) the
box is mostly empty, and past MASK_BITS_PER_WALL bits per possible wall
pair_sum pairs its walls instead. support expands each lattice point once,
adding integer pairs inline. Both take the primitive parts of a step's sums
in one gcd pass (``_directions``). On the four fixed fans of the property
tests (P2, P1xP1, F1, the hexagon) they agree through step 2, and from step 3
pair_sum may reach a direction sooner (cubic model, bound >= 5: 12 against 6
directions at step 3), so there a direction's pair_sum step is at most its
support step. Neither holds on every fan: on F3 (rays (1,0), (0,1), (-1,3),
(0,-1), multiplicities (1,3,2,2), bound 6) support reaches (-1,6) = 2(-1,3) +
(1,0) at step 2 and pair_sum, which never adds a wall to itself, at step 3.
At the fixpoint support holds every primitive direction of the supported cone
within the bound, and pair_sum a subset of them. The two sets agree on the
four fixed fans but not on every smooth fan, since every pair_sum route to a
direction may pass through walls past the bound: on rays (0,1), (-1,2),
(0,-1), (1,0), (2,1), (1,1) with multiplicities (0,1,0,0,2,0) and bound 1,
support adds the rays (0,1) and (1,1), while the only pair sum, (1,3), has
norm 3.

Membership queries (``is_wall_direction``) compare up to sign and are the
authority for balancing checks. Every wall lies in the closed cone spanned by
the supported rays. Those rays are a subsequence of the fan's rays, so they
come in counterclockwise order, and the cone is everything outside the one
cyclic gap of angle >= pi between consecutive supported rays: empty without
supported rays, the whole plane without such a gap, a closed half-plane for
one gap of exactly pi, a line for two, and otherwise a closed sector (a ray
when only one ray is supported). Finding the gap costs O(g) once per tuple of
g supported rays (a bounded cache keyed on the tuple); after the cache lookup
a one-sided test costs at most two determinants, and is_wall_direction makes
two. ``support`` filters its candidates with the one-sided test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import ZeroVector
from .lattice import Fan, Vec, det, dot
from .model import ToricModel

RULES = ("pair_sum", "support")


@dataclass(frozen=True)
class WallStructure:
    model: ToricModel
    steps: int
    norm_bound: int
    rule: str
    directions: tuple[tuple[Vec, int], ...]  # (direction, step), deterministic order

    def step_set(self, n: int) -> frozenset[Vec]:
        """Directions first appearing at step n."""
        return frozenset(d for d, s in self.directions if s == n)


def is_wall_direction(model: ToricModel, d: Vec) -> bool:
    """True when some nonzero Z>=0-combination of supported rays is parallel to d.

    Comparison is up to sign; d may be non-primitive but must be nonzero.
    """
    if d == (0, 0):
        raise ZeroVector("zero vector has no direction")
    inside = _cone(model.exceptional_directions)  # every cone test is positively homogeneous
    return inside(d) or inside((-d[0], -d[1]))


@lru_cache(maxsize=256)
def _cone(gens: tuple[Vec, ...]):
    """Membership test of the closed cone spanned by gens, which are distinct
    primitive vectors in counterclockwise order: a nonzero q passes when it is
    a positive multiple of a nonzero Z>=0-combination of gens."""
    if not gens:
        return lambda q: False
    if len(gens) == 1:
        (u,) = gens
        return lambda q: det(u, q) == 0 and dot(u, q) > 0
    # The gap u -> v between consecutive gens is at least pi wide when v is
    # not strictly counterclockwise of u within a half turn.
    gaps = [
        (u, v) for u, v in zip(gens, gens[1:] + gens[:1])
        if det(u, v) < 0 or (det(u, v) == 0 and dot(u, v) < 0)
    ]
    if not gaps:
        return lambda q: True
    (u, v), *rest = gaps
    if rest:  # two gaps of exactly pi: the line through u
        return lambda q: det(u, q) == 0
    if det(u, v) == 0:  # the closed half-plane clockwise of u
        return lambda q: det(u, q) <= 0
    return lambda q: det(v, q) >= 0 and det(q, u) >= 0  # the sector from v to u


def generate_walls(
    model: ToricModel, steps: int, norm_bound: int, rule: str = "pair_sum"
) -> WallStructure:
    """Generate the wall structure up to the given step, pruned by fan norm."""
    if rule not in RULES:
        raise ValueError(f"unknown wall rule {rule!r}")
    if steps < 0 or norm_bound < 1:
        raise ValueError("steps must be >= 0 and norm_bound >= 1")
    gens = model.exceptional_directions
    inside = _cone(gens)
    todo = set(filter(inside, _primitive_within(model.fan, norm_bound)))
    if rule == "pair_sum":
        found = _pair_sum(gens, steps, todo, [r for r in model.fan.rays if inside(r)], norm_bound)
    else:
        found = _support(gens, steps, todo)
    ordered = sorted(found.items(), key=lambda it: (it[1], it[0]))
    return WallStructure(model, steps, norm_bound, rule, tuple(ordered))


# pair_sum sums through a bit mask while the sumset's box holds at most this
# many bits per possible wall, and by plain pairing past it. On Hirzebruch F_k
# the two cost the same near 1000 bits per wall at bound 10 and near 2500 at
# bound 40 (Python 3.11.7, 2 shared vCPUs). The cap also holds a step's mask
# and decoding strings to about 4 kB per possible wall.
MASK_BITS_PER_WALL = 2048


def _pair_sum(gens, steps: int, todo: set[Vec], rays: list[Vec], bound: int) -> dict[Vec, int]:
    """Semi-naive pair sums: a step pairs each fresh wall with every wall
    found before it, so each unordered pair is summed once. Every wall lies
    in gens | todo and within the box |x| <= rx, |y| <= ry, where rx and ry
    are the bound times the largest |x| and |y| of ``rays``, the fan's rays
    in the supported cone: the cone's edges are supported rays, so a wall of
    fan norm <= bound lies in a fan cone whose two rays are both in it. When
    the box of the sums, |x| <= 2 rx and |y| <= 2 ry, holds at most
    MASK_BITS_PER_WALL bits per possible wall, the sums come from a bit-mask
    sumset (``_mask_sums``), and otherwise from plain pairing
    (``_paired_sums``), which a steep fan's mostly empty box makes cheaper."""
    found = dict.fromkeys(gens, 0)
    todo -= found.keys()
    rx = bound * max((abs(x) for x, _ in rays), default=0)
    ry = bound * max((abs(y) for _, y in rays), default=0)
    if (4 * rx + 1) * (4 * ry + 1) <= MASK_BITS_PER_WALL * (len(found) + len(todo)):
        sums_with_earlier = _mask_sums(rx, ry)
    else:
        sums_with_earlier = _paired_sums()
    fresh = gens
    for n in range(1, steps + 1):
        if not fresh or not todo:
            break
        fresh = _directions(sums_with_earlier(fresh)) & todo
        found.update(dict.fromkeys(fresh, n))
        todo -= fresh
    return found


def _paired_sums():
    """A step function that sums each fresh wall with every wall passed to
    it before, one Python addition per pair."""
    walls: list[Vec] = []

    def step(fresh):
        old = len(walls)
        walls.extend(fresh)
        return {(x + a, y + b) for i, (x, y) in enumerate(walls[old:], old) for a, b in walls[:i]}

    return step


def _mask_sums(rx: int, ry: int):
    """A step function that returns, of the sums of each fresh wall with
    every wall passed to it before, those no earlier step made; an earlier
    step already checked their primitive parts against ``todo``, which only
    shrinks. A vector (x, y) within the box |x| <= rx, |y| <= ry is bit
    (x + rx) * wd + y + ry, so a wall's mask shifted by another wall's bit
    holds their sum at (x + 2 rx) * wd + y + 2 ry: with wd = 4 ry + 1 no
    sum's y carries into its x. A step costs the box's bits in machine words
    per fresh wall, not a Python addition per pair."""
    wd = 4 * ry + 1
    mask = sums = 0

    def step(fresh):
        nonlocal mask, sums
        before = sums
        for x, y in fresh:
            bit = (x + rx) * wd + y + ry
            sums |= mask << bit
            mask |= 1 << bit
        made = (divmod(m.start(), wd) for m in re.finditer("1", bin(sums ^ before)[:1:-1]))
        return ((q - 2 * rx, r - 2 * ry) for q, r in made)

    return step


def _support(gens, steps: int, todo: set[Vec]) -> dict[Vec, int]:
    """Step n - 1 for each direction within the bound that a sum of n
    generators first reaches, for n <= steps + 1, breadth first: a point first
    reached at n is one generator past a point first reached at n - 1."""
    found: dict[Vec, int] = {}
    frontier, seen = {(0, 0)}, {(0, 0)}
    for n in range(steps + 1):
        if not todo:
            break
        frontier = {(x + a, y + b) for x, y in frontier for a, b in gens} - seen
        seen |= frontier
        reached = todo & _directions(frontier)
        found.update(dict.fromkeys(reached, n))
        todo -= reached
    return found


def _directions(vectors) -> set[Vec]:
    """The primitive parts of the nonzero vectors, one gcd each; a zero
    vector has gcd 0 and is dropped."""
    return {(x // g, y // g) for x, y in vectors if (g := gcd(x, y))}


def _primitive_within(fan: Fan, bound: int) -> set[Vec]:
    """Primitive vectors of fan norm <= bound: a u_i + b u_{i+1} with a >= 1,
    b >= 0, a + b <= bound and gcd(a, b) = 1, as every cone is unimodular."""
    pairs = _coprime_pairs(bound)
    return {
        (a * u0 + b * v0, a * u1 + b * v1)
        for (u0, u1), (v0, v1) in zip(fan.rays, fan.rays[1:] + fan.rays[:1])
        for a, b in pairs
    }


@lru_cache(maxsize=64)
def _coprime_pairs(bound: int) -> tuple[tuple[int, int], ...]:
    """The (a, b) with a >= 1, b >= 0, a + b <= bound and gcd(a, b) = 1.
    Cached because callers ask for a few bounds many times: with the cache,
    the walls-fixpoint benchmark's run_s is 1.8% lower (lower in 6 of 6
    alternating pairs of runs; Python 3.11.7, 2 shared vCPUs)."""
    return tuple(
        (a, b) for a in range(1, bound + 1) for b in range(bound + 1 - a) if gcd(a, b) == 1
    )
