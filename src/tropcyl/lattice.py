"""Exact lattice geometry in rank 2: vectors, smooth complete fans, norms.

Vectors are plain ``(x, y)`` tuples of ints (or Fractions for points in the
plane); all arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AlreadyRay,
    NotComplete,
    NotPrimitive,
    NotSmooth,
    TooFewRays,
    ZeroVector,
)

Vec = tuple[int, int]
Point = tuple[Fraction, Fraction]


def det(u, v) -> int | Fraction:
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def vadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def vscale(c, u):
    return (c * u[0], c * u[1])


def content(v: Vec) -> int:
    """gcd of the coordinates; 0 for the zero vector."""
    return math.gcd(abs(v[0]), abs(v[1]))


def is_primitive(v: Vec) -> bool:
    return content(v) == 1


def primitive_part(v: Vec) -> tuple[Vec, int]:
    """Return (direction, multiple) with v = multiple * direction, direction primitive.

    Raises ZeroVector on the zero vector.
    """
    c = content(v)
    if c == 0:
        raise ZeroVector("zero vector has no direction")
    return (v[0] // c, v[1] // c), c


def _angle_key(v: Vec) -> int:
    """Index of the half-open half plane containing v, for exact angular sorting.

    0 for the upper half plane including the positive x-axis, 1 for the rest.
    """
    x, y = v
    if y > 0 or (y == 0 and x > 0):
        return 0
    return 1


def angle_less(u: Vec, v: Vec) -> bool:
    """Exact strict comparison of angles in [0, 2*pi), measured from (1, 0)."""
    hu, hv = _angle_key(u), _angle_key(v)
    if hu != hv:
        return hu < hv
    return det(u, v) > 0


@dataclass(frozen=True, eq=False)
class Fan:
    """A smooth complete fan in rank 2, given by its cyclically ordered rays.

    Ray indices are 1-based and follow the order the rays were given in.
    Equality and hashing ignore the cyclic rotation: two fans are equal when
    their canonical rotations (lexicographically smallest ray first) agree.
    """

    rays: tuple[Vec, ...]

    def __post_init__(self):
        validate_fan(self.rays)

    @property
    def canonical_rotation(self) -> tuple[Vec, ...]:
        return _normalize_rotation(self.rays)

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return self.canonical_rotation == other.canonical_rotation

    def __hash__(self):
        return hash(self.canonical_rotation)

    @property
    def m(self) -> int:
        return len(self.rays)

    def ray(self, i: int) -> Vec:
        """Ray generator by 1-based cyclic index."""
        return self.rays[(i - 1) % self.m]

    def ray_index(self, v: Vec) -> int | None:
        """1-based index of the ray spanned by v (positive direction), or None."""
        d, _ = primitive_part(v)
        for i, u in enumerate(self.rays):
            if u == d:
                return i + 1
        return None


def _normalize_rotation(rays: tuple[Vec, ...]) -> tuple[Vec, ...]:
    start = min(range(len(rays)), key=lambda i: rays[i])
    return rays[start:] + rays[:start]


def validate_fan(rays) -> None:
    """Check primitivity, smoothness, cyclic order, and completeness.

    Raises NotPrimitive, TooFewRays, NotSmooth, or NotComplete.
    """
    if len(rays) < 3:
        raise TooFewRays(f"a complete fan needs at least 3 rays, got {len(rays)}")
    for i, u in enumerate(rays):
        if u == (0, 0):
            raise NotPrimitive("zero vector is not a ray", index=i + 1)
        if not is_primitive(u):
            raise NotPrimitive(f"ray {i + 1} = {u} is not primitive", index=i + 1)
    m = len(rays)
    for i in range(m):
        d = det(rays[i], rays[(i + 1) % m])
        if d != 1:
            raise NotSmooth(i + 1)
    descents = sum(
        1 for i in range(m) if not angle_less(rays[i], rays[(i + 1) % m])
    )
    if descents != 1:
        raise NotComplete("rays do not wrap around the origin exactly once")


def cone_of(fan: Fan, v) -> int:
    """1-based index i of the cone spanned by rays i, i+1 containing v.

    A vector on the ray u_i reports cone i (coefficient b = 0 there).
    Raises ZeroVector on the zero vector.
    """
    if v[0] == 0 and v[1] == 0:
        raise ZeroVector("zero vector lies in every cone")
    m = fan.m
    for i in range(m):
        a = det(v, fan.rays[(i + 1) % m])
        b = det(fan.rays[i], v)
        if a > 0 and b >= 0:
            return i + 1
    raise NotComplete("no cone contains the vector; fan is not complete")


def cone_coordinates(fan: Fan, v):
    """Return (i, a, b) with v = a * u_i + b * u_{i+1}, a, b >= 0.

    Works for integer vectors (integer coordinates) and rational points.
    """
    i = cone_of(fan, v)
    u, w = fan.ray(i), fan.ray(i + 1)
    a = det(v, w)
    b = det(u, v)
    return i, a, b


def norm(fan: Fan, v) -> int:
    """Fan norm: a + b in cone coordinates; 0 for the zero vector.

    On a ray this equals the gcd of the coordinates.
    """
    if v[0] == 0 and v[1] == 0:
        return 0
    _, a, b = cone_coordinates(fan, v)
    return a + b


def _complement(u: Vec) -> Vec:
    """Some integer vector w with det(u, w) = 1, for primitive u."""
    x, y = u
    # Solve x*b - y*a = 1 for (a, b) via the extended euclidean algorithm.
    g, s, t = _ext_gcd(x, -y)
    assert g in (1, -1)
    if g == -1:
        s, t = -s, -t
    # x*s + (-y)*t = 1, so w = (t, s) gives det(u, w) = x*s - y*t = 1.
    return (t, s)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def refine_fan(fan: Fan, d: Vec) -> tuple[Fan, tuple[Vec, ...]]:
    """Insert the primitive direction d and resubdivide to a smooth fan.

    Returns the refined fan together with the tuple of inserted ray directions
    (d first, then any rays added to restore smoothness).
    Raises NotPrimitive, ZeroVector, or AlreadyRay.
    """
    if d == (0, 0):
        raise ZeroVector("cannot insert the zero vector")
    if not is_primitive(d):
        raise NotPrimitive(f"direction {d} is not primitive")
    if d in fan.rays:
        raise AlreadyRay(f"{d} is already a ray")
    i = cone_of(fan, d)
    rays = list(fan.rays)
    pos = (i - 1) % len(rays)
    rays.insert(pos + 1, d)
    inserted = [d]
    # Restore smoothness by repeatedly subdividing any cone of determinant > 1.
    changed = True
    while changed:
        changed = False
        m = len(rays)
        for j in range(m):
            u, v = rays[j], rays[(j + 1) % m]
            k = det(u, v)
            if k > 1:
                w0 = _complement(u)
                # Choose w = w0 + c*u with det(w, v) in (0, k).
                r = det(w0, v) % k
                if r == 0:
                    r = k
                c = (r - det(w0, v)) // k
                w = vadd(w0, vscale(c, u))
                rays.insert(j + 1, w)
                inserted.append(w)
                changed = True
                break
    return Fan(tuple(rays)), tuple(inserted)
