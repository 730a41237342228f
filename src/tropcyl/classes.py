"""Curve classes on a blown-up toric surface, stored as intersection profiles.

A class beta = pi^* beta_t + sum c_ij E_ij on the blowup Y of the toric
surface Y_t is stored as the profile the wire format carries: ``dD`` holds
beta . D_i for the strict transforms D_i = D_{t,i} - sum_j E_ij, and ``dE``
holds beta . E_ij = -c_ij. The relation is read on d_i = dD_i + sum_j dE_ij
= beta . D_{t,i}: on a smooth complete fan the intersection pairing on
Pic(Y_t) is unimodular, so d fixes beta_t, and a vector d in Z^m occurs
exactly when sum_i d_i u_i = 0 (dualize 0 -> M -> Z^m -> Pic(Y_t) -> 0).
Equality is syntactic, and a profile is read back by checking that relation.
The intersection matrix D_{t,i} . D_{t,j} is cyclic tridiagonal, so a toric
class sum_k t_k D_{t,k} has d_i = -det(u_{i-1}, u_{i+1}) t_i + t_{i-1} + t_{i+1},
read in O(m) (``toric_profile``) and no matrix is built.
A sum costs O(m) for ``dD``; its ``dE`` is ``dE_sum`` of the two sorted
runs: their concatenation when their pairs do not interleave, and a dict
merge otherwise. ``dE_join`` makes that choice once for every pair of runs
whose pairs lie in two known spans (``dE_span``), as a listing does once
per leaf (``counting.CylinderCount.contributing``). Every class, a sum's or
a listing row's, is built through its slots' setters, bound once, which
write past the frozen ``__setattr__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .errors import (
    ComponentOutOfRange,
    LengthMismatch,
    ModelMismatch,
    NonRepresentable,
    RayIndexOutOfRange,
)
from .lattice import Fan, Vec, cone_coordinates, det
from .model import ToricModel


@dataclass(frozen=True, init=False)
class CurveClass:
    """A curve class by its intersection profile.

    ``dD[i]`` is the class's intersection with D_{i+1}, the strict transform
    of the toric boundary divisor; ``dE`` lists ((i, j), beta . E_ij) sorted
    by pair, zero entries omitted. Immutable. Hashed from (dD, dE) on first
    use and the hash kept, so a class that is never a key, such as a listing
    row, is never hashed.
    """

    # Not slots=True: on Python 3.10/3.11 its copy raises TypeError on a new name.
    __slots__ = ("rays", "dD", "dE", "_hash")
    rays: tuple[Vec, ...]
    dD: tuple[int, ...]
    dE: tuple[tuple[tuple[int, int], int], ...]

    def __init__(self, rays, dD, dE) -> None:
        _set_rays(self, rays)
        _set_dD(self, dD)
        _set_dE(self, dE)
        _set_hash(self, None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.dD, self.dE))
            _set_hash(self, h)
        return h

    def __reduce__(self):
        return CurveClass, (self.rays, self.dD, self.dE)

    def __add__(self, other: "CurveClass") -> "CurveClass":
        return self._plus(other, add)

    def __sub__(self, other: "CurveClass") -> "CurveClass":
        return self._plus(other, sub)

    def __rmul__(self, c: int) -> "CurveClass":
        dE = tuple((k, c * v) for k, v in self.dE) if c else ()
        return CurveClass(self.rays, tuple(c * a for a in self.dD), dE)

    def _plus(self, other: "CurveClass", op) -> "CurveClass":
        if self.rays != other.rays:
            raise ModelMismatch("classes live on different fans")
        dD = tuple(map(op, self.dD, other.dD))
        return CurveClass(self.rays, dD, dE_sum(self.dE, _signed(other.dE, op)))

    @property
    def dE_map(self) -> dict[tuple[int, int], int]:
        return dict(self.dE)

    def is_zero(self) -> bool:
        return not any(self.dD) and not self.dE


# The slots' own setters, bound once: they write past the frozen __setattr__
# without looking a name up.
_set_rays, _set_dD, _set_dE, _set_hash = (
    CurveClass.__dict__[n].__set__ for n in ("rays", "dD", "dE", "_hash")
)


def dE_sum(a: tuple, b: tuple) -> tuple:
    """The ``dE`` of a sum, from the summands' sorted runs: one run when the
    other is empty (a toric summand), their concatenation when their pairs do
    not interleave, and otherwise a merge with zero entries dropped."""
    if not b:
        return a
    if not a or a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    dE = dict(a)
    for k, v in b:
        dE[k] = dE.get(k, 0) + v
    return _canonical(dE.items())


def dE_span(runs) -> tuple | None:
    """The smallest and the largest pair of sorted runs, None when all are empty."""
    runs = [r for r in runs if r]
    return (min(r[0][0] for r in runs), max(r[-1][0] for r in runs)) if runs else None


def dE_join(met, span):
    """``dE_sum`` of a run whose pairs lie in the span ``met`` and one whose
    pairs lie in ``span``, chosen once for every such pair of runs: their
    concatenation when either span is None or the second lies above the
    first, the mirrored one when it lies below, and ``dE_sum`` otherwise."""
    if met is None or span is None or met[1] < span[0]:
        return add
    if span[1] < met[0]:
        return _dE_before
    return dE_sum


def _dE_before(a: tuple, b: tuple) -> tuple:
    """Run b joined before run a."""
    return b + a


def _signed(dE: tuple, op) -> tuple:
    """``dE`` as a summand under ``op``: its values negated for a difference."""
    return dE if op is add or not dE else tuple((k, -v) for k, v in dE)


def _canonical(items) -> tuple:
    """``dE`` entries sorted by pair, zero entries dropped."""
    return tuple(sorted([kv for kv in items if kv[1]]))


def make_class(rays, toric, exc=None) -> CurveClass:
    """The class pi^*(sum_i toric_i D_{t,i}) + sum exc_ij E_ij: dD_i is
    ``toric_profile``_i + sum_j exc_ij and dE_ij = -exc_ij. The rays are taken
    to be a ``Fan``'s; j needs a model and is checked by ``intersect``."""
    rays = tuple(tuple(r) for r in rays)
    m = len(rays)
    if len(toric) != m:
        raise LengthMismatch("toric part length does not match ray count")
    dD = list(toric_profile(rays, toric))
    dE = []
    for (i, j), c in (exc or {}).items():
        if not 1 <= i <= m:
            raise RayIndexOutOfRange(f"ray index {i} out of range 1..{m}")
        dD[i - 1] += c
        dE.append(((i, j), -c))
    return CurveClass(rays, tuple(dD), _canonical(dE))


def zero_class(model: ToricModel) -> CurveClass:
    return make_class(model.fan.rays, (0,) * model.m)


def divisor_class(fan: Fan, i: int) -> CurveClass:
    """The class of the toric boundary divisor D_i (1-based, no exceptional part)."""
    if not 1 <= i <= fan.m:
        raise RayIndexOutOfRange(f"ray index {i} out of range 1..{fan.m}")
    v = [0] * fan.m
    v[i - 1] = 1
    return make_class(fan.rays, v)


def _check_pair(model: ToricModel, i: int, j: int) -> None:
    if not 1 <= i <= model.m:
        raise RayIndexOutOfRange(f"ray index {i} out of range 1..{model.m}")
    if not 1 <= j <= model.multiplicity(i):
        raise ComponentOutOfRange(
            f"component {j} out of range 1..{model.multiplicity(i)} at ray {i}"
        )


def toric_profile(rays: tuple[Vec, ...], toric: tuple[int, ...]) -> tuple[int, ...]:
    """Intersections of a toric class with each D_{t,i}, row by tridiagonal
    row, a_i read off the neighbouring rays rather than a built matrix."""
    m = len(rays)
    return tuple(
        toric[i - 1] + toric[(i + 1) % m] - det(rays[i - 1], rays[(i + 1) % m]) * toric[i]
        for i in range(m)
    )


def intersect(model: ToricModel, beta: CurveClass) -> CurveClass:
    """Check beta against the model, its fan and every exceptional pair it
    meets, and return it: a class is its own intersection profile."""
    if beta.rays != model.fan.rays:
        raise ModelMismatch("class does not live on this model's fan")
    for (i, j), _v in beta.dE:
        _check_pair(model, i, j)
    return beta


def class_from_profile(model: ToricModel, dD, dE) -> CurveClass:
    """Invert ``intersect``: the class with the given profile on the model.

    Every listed pair is checked, zero entries included. Raises
    NonRepresentable when d_i = dD_i + sum_j dE_ij, the intersections with
    the pulled-back boundary, violate sum_i d_i u_i = 0.
    """
    if len(dD) != model.m:
        raise LengthMismatch("dD length does not match ray count")
    dE = dict(dE)
    d = list(dD)
    for (i, j), v in dE.items():
        _check_pair(model, i, j)
        d[i - 1] += v
    rays = model.fan.rays
    if any(sum(x * u[k] for x, u in zip(d, rays)) for k in (0, 1)):
        raise NonRepresentable("profile is not in the intersection image")
    return CurveClass(rays, tuple(dD), _canonical(dE.items()))


def direction_contrib(fan: Fan, w: Vec) -> tuple[int, ...]:
    """Boundary profile of an end direction: w = a u_i + b u_{i+1} contributes
    a to D_i and b to D_{i+1}."""
    i, a, b = cone_coordinates(fan, w)
    out = [0] * fan.m
    out[i - 1] += a
    out[i % fan.m] += b
    return tuple(out)
