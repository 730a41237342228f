"""Wall structures generated from the exceptional ray directions.

Two generation rules are supported:

* ``pair_sum`` (default): walls start as the ray directions with positive
  blowup multiplicity; each step adds the primitive directions of d1 + d2
  over unordered pairs of distinct walls with d1 != -d2.
* ``support``: every primitive direction that is a positive multiple (same
  sign, not up to sign) of a nonzero nonnegative integer combination of the
  supported ray generators; the step of a direction is the minimal total
  coefficient sum minus one.

Both rules stop at their fixpoint, so steps past it cost nothing. On the four
fixed fans of the property tests (P2, P1xP1, F1, the hexagon) they agree
through step 2, and from step 3 pair_sum may reach a direction sooner (cubic
model, bound >= 5: 12 against 6 directions at step 3), so there a direction's
pair_sum step is at most its support step. Neither holds on every fan: on F3
(rays (1,0), (0,1), (-1,3), (0,-1), multiplicities (1,3,2,2), bound 6) support
reaches (-1,6) = 2(-1,3) + (1,0) at step 2 and pair_sum, which never adds a
wall to itself, at step 3. At the fixpoint support holds every primitive
direction of the supported cone within the bound, and pair_sum a subset of
them. The two sets agree on the four fixed fans but not on every smooth fan,
since every pair_sum route to a direction may pass through walls past the
bound: on rays (0,1), (-1,2), (0,-1), (1,0), (2,1), (1,1) with multiplicities
(0,1,0,0,2,0) and bound 1, support adds the rays (0,1) and (1,1), while the
only pair sum, (1,3), has norm 3.

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

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .lattice import Fan, Vec, det, dot, primitive_part, vadd
from .model import ToricModel

RULES = ("pair_sum", "support")


@dataclass(frozen=True)
class WallStructure:
    model: ToricModel
    steps: int
    norm_bound: int
    rule: str
    directions: tuple[tuple[Vec, int], ...]  # (direction, step), deterministic order

    @property
    def by_direction(self) -> dict[Vec, int]:
        return dict(self.directions)

    def step_set(self, n: int) -> frozenset[Vec]:
        """Directions first appearing at step n."""
        return frozenset(d for d, s in self.directions if s == n)


def is_wall_direction(model: ToricModel, d: Vec) -> bool:
    """True when some nonzero Z>=0-combination of supported rays is parallel to d.

    Comparison is up to sign; d may be non-primitive but must be nonzero.
    """
    p, _ = primitive_part(d)
    inside = _cone(model.exceptional_directions)
    return inside(p) or inside((-p[0], -p[1]))


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
    generate = _pair_sum if rule == "pair_sum" else _support
    found = generate(model.fan, model.exceptional_directions, steps, norm_bound)
    ordered = sorted(found.items(), key=lambda it: (it[1], it[0]))
    return WallStructure(model, steps, norm_bound, rule, tuple(ordered))


def _pair_sum(fan: Fan, gens, steps: int, bound: int) -> dict[Vec, int]:
    """Semi-naive pair sums: a step pairs only the previous step's walls with
    all walls, since pairs of two older walls were tried one step earlier."""
    allowed = _primitive_within(fan, bound)
    found = dict.fromkeys(gens, 0)
    fresh = set(gens)
    for n in range(1, steps + 1):
        sums = {vadd(d1, d2) for d1 in fresh for d2 in found} - {(0, 0)}
        new = ({primitive_part(s)[0] for s in sums} & allowed) - found.keys()
        if not new:
            break
        found.update(dict.fromkeys(new, n))
        fresh = new
    return found


def _support(fan: Fan, gens, steps: int, bound: int) -> dict[Vec, int]:
    """Step n - 1 for each direction within the bound that a sum of n
    generators first reaches, for n <= steps + 1."""
    inside = _cone(gens)
    todo = {d for d in _primitive_within(fan, bound) if inside(d)}
    found: dict[Vec, int] = {}
    sums = {(0, 0)}
    for n in range(steps + 1):
        sums = {vadd(s, u) for s in sums for u in gens}
        reached = todo & {primitive_part(s)[0] for s in sums - {(0, 0)}}
        found.update(dict.fromkeys(reached, n))
        todo -= reached
        if not todo:
            break
    return found


def _primitive_within(fan: Fan, bound: int) -> set[Vec]:
    """Primitive vectors of fan norm <= bound: a u_i + b u_{i+1} with a >= 1,
    b >= 0, a + b <= bound and gcd(a, b) = 1, as every cone is unimodular."""
    return {
        (a * u[0] + b * v[0], a * u[1] + b * v[1])
        for u, v in zip(fan.rays, fan.rays[1:] + fan.rays[:1])
        for a in range(1, bound + 1)
        for b in range(bound + 1 - a)
        if gcd(a, b) == 1
    }
