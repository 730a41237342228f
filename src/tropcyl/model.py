"""Toric models: a smooth complete fan plus blowup multiplicities per ray.

A model (Sigma, l) describes the blowup Y of the smooth complete toric
surface Y_t at l_i distinct generic points on each boundary divisor D_i,
with exceptional curves E_ij for 1 <= j <= l_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import LengthMismatch, NegativeMultiplicity, RayIndexOutOfRange
from .lattice import Fan, Vec, refine_fan


@dataclass(frozen=True)
class ToricModel:
    fan: Fan
    blowups: tuple[int, ...]

    def __post_init__(self):
        if len(self.blowups) != self.fan.m:
            raise LengthMismatch(
                f"{len(self.blowups)} multiplicities for {self.fan.m} rays"
            )
        for i, l in enumerate(self.blowups):
            if l < 0:
                raise NegativeMultiplicity(i + 1)

    @property
    def m(self) -> int:
        return self.fan.m

    def multiplicity(self, i: int) -> int:
        """Blowup multiplicity at the 1-based ray index i."""
        if not 1 <= i <= self.m:
            raise RayIndexOutOfRange(f"ray index {i} out of range 1..{self.m}")
        return self.blowups[i - 1]

    def exceptional_ray(self, w: Vec) -> int | None:
        """1-based index of the ray that w heads toward when that ray carries
        exceptional components, else None. Raises ZeroVector on w = 0."""
        i = self.fan.ray_index(w)
        return i if i is not None and self.blowups[i - 1] > 0 else None

    @property
    def exceptional_pairs(self) -> tuple[tuple[int, int], ...]:
        """All (i, j) with 1 <= j <= l_i, in lexicographic order."""
        return tuple(
            (i, j)
            for i in range(1, self.m + 1)
            for j in range(1, self.blowups[i - 1] + 1)
        )

    @cached_property
    def exceptional_directions(self) -> tuple[Vec, ...]:
        """Ray generators u_i with l_i > 0."""
        return tuple(
            self.fan.rays[i] for i in range(self.m) if self.blowups[i] > 0
        )

    @property
    def is_toric(self) -> bool:
        return all(l == 0 for l in self.blowups)


def build_model(rays, blowups) -> ToricModel:
    return ToricModel(Fan(tuple(tuple(r) for r in rays)), tuple(blowups))


def refine_model(model: ToricModel, d: Vec) -> ToricModel:
    """Refine the fan by inserting d; inserted rays carry multiplicity 0."""
    fan2, _ = refine_fan(model.fan, d)
    by_ray = {u: l for u, l in zip(model.fan.rays, model.blowups)}
    return ToricModel(fan2, tuple(by_ray.get(u, 0) for u in fan2.rays))


P2_RAYS = ((1, 0), (0, 1), (-1, -1))
P1XP1_RAYS = ((1, 0), (0, 1), (-1, 0), (0, -1))
F1_RAYS = ((1, 0), (1, 1), (0, 1), (-1, -1))


def cubic_model() -> ToricModel:
    """The degree-3 del Pezzo model: two blowup points on each line of the triangle."""
    return build_model(P2_RAYS, (2, 2, 2))
