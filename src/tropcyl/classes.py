"""Curve classes on a blown-up toric surface and their intersection profiles.

A class beta = pi^* beta_t + sum c_ij E_ij on the blowup Y of the toric
surface Y_t is stored by its intersection numbers: ``dt`` holds
d_i = beta . D_{t,i} for the pulled-back toric boundary divisors, and ``exc``
the coefficients c_ij. On a smooth complete fan the intersection pairing on
Pic(Y_t) is unimodular, so d fixes beta_t, and a vector d in Z^m occurs
exactly when sum_i d_i u_i = 0 (dualize 0 -> M -> Z^m -> Pic(Y_t) -> 0).
Equality is syntactic, and a profile is inverted by checking that relation.
``intersection_matrix`` is cyclic tridiagonal, so a toric class sum_k t_k D_{t,k}
has d_i = -det(u_{i-1}, u_{i+1}) t_i + t_{i-1} + t_{i+1}, read in O(m).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

from .errors import (
    ComponentOutOfRange,
    LengthMismatch,
    ModelMismatch,
    NonRepresentable,
    RayIndexOutOfRange,
)
from .lattice import Fan, Vec, cone_coordinates, det, validate_fan
from .model import ToricModel


@lru_cache(maxsize=64)
def intersection_matrix(rays: tuple[Vec, ...]) -> tuple[tuple[int, ...], ...]:
    """Intersection numbers D_i . D_j of the toric boundary divisors of a smooth
    fan, where u_{i-1} + u_{i+1} = a_i u_i with a_i = -(D_i^2) = det(u_{i-1}, u_{i+1})."""
    validate_fan(rays)
    m = len(rays)
    mat = [[0] * m for _ in range(m)]
    for i in range(m):
        mat[i][i] = -det(rays[(i - 1) % m], rays[(i + 1) % m])
        mat[i][(i + 1) % m] += 1
        mat[i][(i - 1) % m] += 1
    return tuple(tuple(r) for r in mat)


@dataclass(frozen=True)
class CurveClass:
    """A curve class by its intersection numbers.

    ``dt[i]`` is the class's intersection with D_{t,i+1}, the pullback of the
    toric boundary divisor; ``exc`` maps (i, j) to the coefficient of E_ij,
    zero entries omitted. Immutable; hashed once, from (dt, exc), when built.
    """

    # Not slots=True: on Python 3.10/3.11 its copy raises TypeError on a new name.
    __slots__ = ("rays", "dt", "exc", "_hash")
    rays: tuple[Vec, ...]
    dt: tuple[int, ...]
    exc: frozenset[tuple[tuple[int, int], int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.dt, self.exc)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return CurveClass, (self.rays, self.dt, self.exc)

    def __add__(self, other: "CurveClass") -> "CurveClass":
        return self._plus(other, add)

    def __sub__(self, other: "CurveClass") -> "CurveClass":
        return self._plus(other, sub)

    def __rmul__(self, c: int) -> "CurveClass":
        exc = _nonzero((k, c * v) for k, v in self.exc)
        return CurveClass(self.rays, tuple(c * a for a in self.dt), exc)

    def _plus(self, other: "CurveClass", op) -> "CurveClass":
        if self.rays != other.rays:
            raise ModelMismatch("classes live on different fans")
        dt = tuple(map(op, self.dt, other.dt))
        if not other.exc:  # a toric summand leaves the exceptional part alone
            return CurveClass(self.rays, dt, self.exc)
        exc = dict(self.exc)
        for k, v in other.exc:
            exc[k] = op(exc.get(k, 0), v)
        return CurveClass(self.rays, dt, _nonzero(exc.items()))

    def is_zero(self) -> bool:
        return not any(self.dt) and not self.exc


def _nonzero(items) -> frozenset:
    return frozenset((k, v) for k, v in items if v != 0)


def make_class(rays, toric, exc=None) -> CurveClass:
    """The class pi^*(sum_i toric_i D_{t,i}) + sum exc_ij E_ij."""
    rays = tuple(tuple(r) for r in rays)
    if len(toric) != len(rays):
        raise LengthMismatch("toric part length does not match ray count")
    return CurveClass(rays, toric_profile(rays, toric), _nonzero((exc or {}).items()))


def zero_class(model: ToricModel) -> CurveClass:
    return make_class(model.fan.rays, (0,) * model.m)


def divisor_class(fan: Fan, i: int) -> CurveClass:
    """The class of the toric boundary divisor D_i (1-based, no exceptional part)."""
    if not 1 <= i <= fan.m:
        raise RayIndexOutOfRange(f"ray index {i} out of range 1..{fan.m}")
    v = [0] * fan.m
    v[i - 1] = 1
    return make_class(fan.rays, v)


def exceptional_class(model: ToricModel, i: int, j: int) -> CurveClass:
    """The class of the exceptional curve E_ij."""
    _check_pair(model, i, j)
    return make_class(model.fan.rays, (0,) * model.m, {(i, j): 1})


def _check_pair(model: ToricModel, i: int, j: int) -> None:
    if not 1 <= i <= model.m:
        raise RayIndexOutOfRange(f"ray index {i} out of range 1..{model.m}")
    if not 1 <= j <= model.multiplicity(i):
        raise ComponentOutOfRange(
            f"component {j} out of range 1..{model.multiplicity(i)} at ray {i}"
        )


@dataclass(frozen=True)
class IntersectionProfile:
    """Intersection numbers with strict-transform boundary and exceptional curves."""

    dD: tuple[int, ...]
    dE: tuple[tuple[tuple[int, int], int], ...]

    @property
    def dE_map(self) -> dict[tuple[int, int], int]:
        return dict(self.dE)


def toric_profile(rays: tuple[Vec, ...], toric: tuple[int, ...]) -> tuple[int, ...]:
    """Intersections of a toric class with each D_{t,i}, row by tridiagonal row."""
    mat = intersection_matrix(rays)
    m = len(rays)
    return tuple(mat[i][i] * toric[i] + toric[i - 1] + toric[(i + 1) % m] for i in range(m))


def intersect(model: ToricModel, beta: CurveClass) -> IntersectionProfile:
    """Profile of beta against the strict transforms D_i = D_{t,i} - sum_j E_ij
    and all E_ij: dD_i = d_i + sum_j c_ij and dE_ij = -c_ij."""
    if beta.rays != model.fan.rays:
        raise ModelMismatch("class does not live on this model's fan")
    dD = list(beta.dt)
    for (i, j), c in beta.exc:
        _check_pair(model, i, j)
        dD[i - 1] += c
    dE = tuple(sorted(((i, j), -c) for (i, j), c in beta.exc))
    return IntersectionProfile(tuple(dD), dE)


def class_from_profile(model: ToricModel, dD, dE) -> CurveClass:
    """Invert ``intersect``: recover the class with the given profile.

    Every listed pair is checked, zero entries included. Raises
    NonRepresentable when the toric intersections left after removing the
    exceptional contributions violate sum_i d_i u_i = 0.
    """
    if len(dD) != model.m:
        raise LengthMismatch("dD length does not match ray count")
    dt = list(dD)
    exc = {}
    for (i, j), v in dict(dE).items():
        _check_pair(model, i, j)
        dt[i - 1] += v
        exc[(i, j)] = -v
    rays = model.fan.rays
    if any(sum(d * u[k] for d, u in zip(dt, rays)) for k in (0, 1)):
        raise NonRepresentable("profile is not in the intersection image")
    return CurveClass(rays, tuple(dt), _nonzero(exc.items()))


def compatibility_intersections(model: ToricModel, legs) -> tuple[int, ...]:
    """Sum of boundary-leg multiplicities per ray; legs are (ray_index, mult)."""
    out = [0] * model.m
    for i, mult in legs:
        if not 1 <= i <= model.m:
            raise RayIndexOutOfRange(f"ray index {i} out of range 1..{model.m}")
        out[i - 1] += mult
    return tuple(out)


def direction_contrib(fan: Fan, w: Vec) -> tuple[int, ...]:
    """Boundary profile of an end direction: w = a u_i + b u_{i+1} contributes
    a to D_i and b to D_{i+1}."""
    i, a, b = cone_coordinates(fan, w)
    out = [0] * fan.m
    out[i - 1] += a
    out[i % fan.m] += b
    return tuple(out)
