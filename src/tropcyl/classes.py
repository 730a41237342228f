"""Curve classes on a blown-up toric surface and their intersection profiles.

The toric part of a class lives in Z^m modulo the rank-2 relation lattice
spanned by ((u_1.x, ..., u_m.x)) and ((u_1.y, ..., u_m.y)); representatives
are normalized with a Hermite-form reduction so equality is syntactic.
Exceptional parts are finitely supported maps (i, j) -> Z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ComponentOutOfRange,
    LengthMismatch,
    ModelMismatch,
    NonRepresentable,
    RayIndexOutOfRange,
)
from .lattice import Fan, Vec, cone_coordinates, vadd
from .model import ToricModel


def _hnf_2rows(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of an integer matrix with two rows."""
    a, b = [list(r) for r in rows]
    n = len(a)
    # Find the first column where (a, b) has a nonzero entry and clear below.
    out = []
    col = 0
    work = [a, b]
    for _ in range(2):
        # Move a row with the leftmost nonzero pivot to the front.
        while col < n and all(r[col] == 0 for r in work):
            col += 1
        if col == n:
            break
        # gcd-reduce all rows on this column into one.
        while True:
            nz = [r for r in work if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            r0, r1 = nz[0], nz[1]
            q = r1[col] // r0[col]
            for k in range(n):
                r1[k] -= q * r0[k]
        pivot_row = next(r for r in work if r[col] != 0)
        if pivot_row[col] < 0:
            for k in range(n):
                pivot_row[k] = -pivot_row[k]
        out.append(pivot_row)
        work = [r for r in work if r is not pivot_row]
    # Reduce earlier rows by later pivots (entries above a pivot in [0, pivot)).
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            pcol = next(k for k in range(n) if out[j][k] != 0)
            q = out[i][pcol] // out[j][pcol]
            if q:
                for k in range(n):
                    out[i][k] -= q * out[j][k]
    return out


@lru_cache(maxsize=64)
def _relation_basis(rays: tuple[Vec, ...]) -> tuple[tuple[int, ...], ...]:
    rows = [[u[0] for u in rays], [u[1] for u in rays]]
    return tuple(tuple(r) for r in _hnf_2rows(rows))


def _reduce_toric(rays: tuple[Vec, ...], v: list[int]) -> tuple[int, ...]:
    v = list(v)
    n = len(v)
    for row in _relation_basis(rays):
        pcol = next(k for k in range(n) if row[k] != 0)
        q = v[pcol] // row[pcol]
        if q:
            for k in range(n):
                v[k] -= q * row[k]
    return tuple(v)


@lru_cache(maxsize=64)
def intersection_matrix(rays: tuple[Vec, ...]) -> tuple[tuple[int, ...], ...]:
    """Intersection numbers D_i . D_j of the toric boundary divisors."""
    m = len(rays)
    mat = [[0] * m for _ in range(m)]
    for i in range(m):
        prev = rays[(i - 1) % m]
        nxt = rays[(i + 1) % m]
        s = vadd(prev, nxt)
        # prev + nxt = a * u_i with a = -(D_i^2).
        u = rays[i]
        if u[0] != 0:
            a, rem = divmod(s[0], u[0])
        else:
            a, rem = divmod(s[1], u[1])
        assert rem == 0 and (a * u[0], a * u[1]) == s
        mat[i][i] = -a
        mat[i][(i + 1) % m] += 1
        mat[i][(i - 1) % m] += 1
    return tuple(tuple(r) for r in mat)


@dataclass(frozen=True)
class CurveClass:
    """A curve class, split into a toric part and exceptional multiples.

    ``toric`` is the canonical representative in Z^m; ``exc`` maps (i, j) to
    the coefficient of E_ij, zero entries omitted.
    """

    rays: tuple[Vec, ...]
    toric: tuple[int, ...]
    exc: frozenset[tuple[tuple[int, int], int]] = field(default_factory=frozenset)

    @property
    def exc_map(self) -> dict[tuple[int, int], int]:
        return dict(self.exc)

    def __add__(self, other: "CurveClass") -> "CurveClass":
        self._check(other)
        toric = tuple(a + b for a, b in zip(self.toric, other.toric))
        return make_class(self.rays, toric, _merge(self.exc_map, other.exc_map, 1))

    def __sub__(self, other: "CurveClass") -> "CurveClass":
        self._check(other)
        toric = tuple(a - b for a, b in zip(self.toric, other.toric))
        return make_class(self.rays, toric, _merge(self.exc_map, other.exc_map, -1))

    def __neg__(self) -> "CurveClass":
        return make_class(
            self.rays, tuple(-a for a in self.toric), {k: -v for k, v in self.exc}
        )

    def __rmul__(self, c: int) -> "CurveClass":
        return make_class(
            self.rays, tuple(c * a for a in self.toric), {k: c * v for k, v in self.exc}
        )

    def _check(self, other: "CurveClass") -> None:
        if self.rays != other.rays:
            raise ModelMismatch("classes live on different fans")

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.toric) and not self.exc


def _merge(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return out


def make_class(rays, toric, exc=None) -> CurveClass:
    rays = tuple(tuple(r) for r in rays)
    if len(toric) != len(rays):
        raise LengthMismatch("toric part length does not match ray count")
    reduced = _reduce_toric(rays, list(toric))
    items = frozenset((k, v) for k, v in (exc or {}).items() if v != 0)
    return CurveClass(rays, reduced, items)


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
    """Intersections of a toric class with each D_{t,i}."""
    mat = intersection_matrix(rays)
    m = len(rays)
    return tuple(sum(mat[i][k] * toric[k] for k in range(m)) for i in range(m))


def intersect(model: ToricModel, beta: CurveClass) -> IntersectionProfile:
    """Profile of beta against the strict transforms D_i and all E_ij."""
    if beta.rays != model.fan.rays:
        raise ModelMismatch("class does not live on this model's fan")
    for (i, j), _ in beta.exc:
        _check_pair(model, i, j)
    gamma_d = toric_profile(model.fan.rays, beta.toric)
    exc = beta.exc_map
    dD = []
    for i in range(1, model.m + 1):
        row = sum(c for (k, _j), c in exc.items() if k == i)
        dD.append(gamma_d[i - 1] + row)
    dE = tuple(sorted(((i, j), -c) for (i, j), c in exc.items()))
    return IntersectionProfile(tuple(dD), dE)


def class_from_profile(model: ToricModel, dD, dE) -> CurveClass:
    """Invert ``intersect``: recover the class with the given profile.

    Raises NonRepresentable when no class has toric intersections matching dD
    after removing the exceptional contributions.
    """
    if len(dD) != model.m:
        raise LengthMismatch("dD length does not match ray count")
    dE = dict(dE)
    for (i, j), v in dE.items():
        _check_pair(model, i, j)
    exc = {(i, j): -v for (i, j), v in dE.items() if v != 0}
    target = []
    for i in range(1, model.m + 1):
        row = sum(c for (k, _j), c in exc.items() if k == i)
        target.append(dD[i - 1] - row)
    toric = _solve_toric_profile(model.fan.rays, tuple(target))
    return make_class(model.fan.rays, toric, exc)


@lru_cache(maxsize=64)
def _quotient_columns(rays: tuple[Vec, ...]) -> tuple[int, ...]:
    """Indices of the free (non-pivot) columns of the relation lattice."""
    pivots = []
    n = len(rays)
    for row in _relation_basis(rays):
        pivots.append(next(k for k in range(n) if row[k] != 0))
    return tuple(k for k in range(n) if k not in pivots)


@lru_cache(maxsize=4096)
def _solve_toric_profile(
    rays: tuple[Vec, ...], target: tuple[int, ...]
) -> tuple[int, ...]:
    """Find v in Z^m, supported on the free columns, with Q v = target."""
    mat = intersection_matrix(rays)
    cols = _quotient_columns(rays)
    m = len(rays)
    # Exact Gaussian elimination on the m x (len(cols) + 1) augmented system.
    aug = [
        [Fraction(mat[r][c]) for c in cols] + [Fraction(target[r])] for r in range(m)
    ]
    ncols = len(cols)
    row = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    # Consistency of the remaining rows.
    for r in range(row, m):
        if aug[r][ncols] != 0:
            raise NonRepresentable("profile is not in the intersection image")
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    if any(x.denominator != 1 for x in sol):
        raise NonRepresentable("profile needs non-integral toric coefficients")
    full = [0] * m
    for c, x in zip(cols, sol):
        full[c] = int(x)
    return tuple(full)


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


def pullback_class(
    model: ToricModel, refined: ToricModel, beta: CurveClass
) -> CurveClass:
    """Translate a class to a refinement of the model.

    The pullback meets each surviving strict transform with the original
    multiplicity and every inserted ray's divisor in 0.
    """
    prof = intersect(model, beta)
    by_ray = {u: prof.dD[k] for k, u in enumerate(model.fan.rays)}
    dD = tuple(by_ray.get(u, 0) for u in refined.fan.rays)
    dE = {}
    for (i, j), v in prof.dE_map.items():
        new_i = refined.fan.ray_index(model.fan.rays[i - 1])
        dE[(new_i, j)] = v
    return class_from_profile(refined, dD, dE)
