"""Primitive cylinder counts: elementary tables, the closed-form product
count, and the independent splitting sum.

The count of a primitive cylinder factors over its twig leaves: the closed
form is the product measure of the leaf measures (class -> count, read off
the elementary table at the leaf's exceptional components), shifted by the
spine extension class. ``cylinder_count`` reads a cylinder's leaf measures
and shift once into a ``CylinderCount``, which the closed form, its listing
and the deformation replay share; ``splitting_measure`` stays an
independent oracle and enumerates from the table itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

from . import classes as cls
from .errors import ComponentOutOfRange, OutOfPrimitiveScope
from .lattice import Vec, primitive_part
from .model import ToricModel, build_model
from .tropical import Cylinder, canonical_spine_split, check_primitive, extension_class, leaf_sum

Support = dict[cls.CurveClass, int]


@dataclass(frozen=True)
class ElementaryCountTable:
    """Counts of elementary cylinders: (i, j) -> ((class, count), ...).

    The default table supports, for each exceptional component E_ij, exactly
    the canonical elementary class with count 1.
    """

    entries: tuple[tuple[tuple[int, int], tuple[tuple[cls.CurveClass, int], ...]], ...]

    @cached_property
    def by_pair(self) -> dict[tuple[int, int], tuple[tuple[cls.CurveClass, int], ...]]:
        return dict(self.entries)

    def count(self, i: int, j: int, beta: cls.CurveClass) -> int:
        for c, n in self.by_pair.get((i, j), ()):
            if c == beta:
                return n
        return 0


def default_table(model: ToricModel) -> ElementaryCountTable:
    entries = []
    for i, j in model.exceptional_pairs:
        entries.append(((i, j), ((elementary_class(model, i, j), 1),)))
    return ElementaryCountTable(tuple(entries))


def elementary_cylinder(model: ToricModel, i: int) -> Cylinder:
    """The canonical elementary cylinder for the leaf direction u_i: bend at
    u_i / 2, spine slopes given by the canonical split of -u_i."""
    w = model.fan.ray(i)
    if model.multiplicity(i) == 0:
        raise OutOfPrimitiveScope(f"ray {i} carries no exceptional components")
    p1, p2 = canonical_spine_split(model, w)
    return Cylinder(p1, p2, (Fraction(w[0], 2), Fraction(w[1], 2)), (w,), extended=False)


def spine_extension_shift(model: ToricModel, cyl: Cylinder) -> cls.CurveClass:
    """Sum of the extension classes of the two spine legs, from the bend."""
    return extension_class(model, cyl.bend, cyl.p1) + extension_class(
        model, cyl.bend, cyl.p2
    )


def extended_boundary_profile(model: ToricModel, cyl: Cylinder) -> tuple[int, ...]:
    """Boundary intersections of the extended cylinder, by cone decomposition
    of the two spine slopes."""
    a = cls.direction_contrib(model.fan, cyl.p1)
    b = cls.direction_contrib(model.fan, cyl.p2)
    return tuple(x + y for x, y in zip(a, b))


@lru_cache(maxsize=256)
def _elementary_data(rays: tuple[Vec, ...], blowups: tuple[int, ...], i: int):
    """Extension shift and classes (j = 1 .. l_i) of the elementary cylinder at
    u_i; keyed on the ray order, which fixes the ray indices (Fan equality does not)."""
    model = build_model(rays, blowups)
    cyl = elementary_cylinder(model, i)
    shift = spine_extension_shift(model, cyl)
    profile = extended_boundary_profile(model, cyl)
    return shift, tuple(
        cls.class_from_profile(model, profile, {(i, j): 1}) - shift
        for j in range(1, model.multiplicity(i) + 1)
    )


def elementary_extension_shift(model: ToricModel, i: int) -> cls.CurveClass:
    return _elementary_data(model.fan.rays, model.blowups, i)[0]


def elementary_class(model: ToricModel, i: int, j: int) -> cls.CurveClass:
    """The unique class supported by the default table at (i, j): meets E_ij
    once, no other exceptional curve, toric part fixed by the extended
    elementary cylinder's boundary profile."""
    classes = _elementary_data(model.fan.rays, model.blowups, i)[1]
    if not 1 <= j <= len(classes):
        raise ComponentOutOfRange(f"component {j} out of range 1..{len(classes)} at ray {i}")
    return classes[j - 1]


def twig_components(model: ToricModel, cyl: Cylinder) -> tuple[int, ...]:
    """Ray index i(s) for each twig leaf; leaves must head toward rays with
    positive blowup multiplicity."""
    out = []
    for w in cyl.twig_type:
        i = model.exceptional_ray(w)
        if i is None:
            raise OutOfPrimitiveScope(
                f"leaf {w} does not head toward an exceptional ray"
            )
        out.append(i)
    return tuple(out)


def _leaf_entries(model: ToricModel, i: int, table: ElementaryCountTable):
    """Every (j, class, count) the table lists at a pair (i, j), j <= l_i."""
    by_pair, js = table.by_pair, range(1, model.multiplicity(i) + 1)
    return tuple((j, c, n) for j in js for c, n in by_pair.get((i, j), ()))


def measure(terms) -> Support:
    """Sum (class, count) terms per class; classes whose counts cancel drop out."""
    out: Support = {}
    for c, n in terms:
        out[c] = out.get(c, 0) + n
    return {c: n for c, n in out.items() if n != 0}


def convolve(a: Support, b: Support) -> Support:
    """The product measure pushed forward along class addition."""
    return measure((ca + cb, na * nb) for ca, na in a.items() for cb, nb in b.items())


def _scope_profile(model: ToricModel, beta: cls.CurveClass) -> cls.IntersectionProfile:
    prof = cls.intersect(model, beta)
    if any(v not in (0, 1) for _, v in prof.dE):
        raise OutOfPrimitiveScope("class meets an exceptional curve with multiplicity > 1")
    return prof


@dataclass(frozen=True, eq=False)
class CylinderCount:
    """The count data of one primitive cylinder under one table.

    ``comps`` holds the ray index i(s) of each twig leaf, ``shift`` the spine
    extension class, ``leaves`` per leaf every (j, class, count) the table
    lists at (i(s), j), j <= l_i, and ``measures`` per leaf those counts
    summed per class. Built once by ``cylinder_count``; the closed form, its
    listing and the deformation replay all read it.
    """

    model: ToricModel
    cyl: Cylinder
    shift: cls.CurveClass
    comps: tuple[int, ...]
    leaves: tuple[tuple[tuple[int, cls.CurveClass, int], ...], ...]
    measures: tuple[Support, ...]

    @cached_property
    def contributing(self) -> tuple[tuple[tuple[int, ...], cls.CurveClass, int], ...]:
        """The closed form term by term; see ``contributing_classes``."""
        rows = [((), self.shift, 1)]
        for leaf in self.leaves:
            rows = [(ch + (j,), b + c, n * k) for ch, b, n in rows for j, c, k in leaf]
        return tuple(rows)

    def count(self, beta: cls.CurveClass) -> int:
        """The closed-form count at beta; see ``count_primitive_cylinder``."""
        _scope_profile(self.model, beta)
        target = beta - self.shift if self.cyl.extended else beta
        *first, last = self.measures
        residual: Support = {target: 1}
        for supp in first:
            residual = measure((r - c, w * n) for r, w in residual.items() for c, n in supp.items())
        return sum(w * last.get(r, 0) for r, w in residual.items())


def cylinder_count(
    model: ToricModel, cyl: Cylinder, table: ElementaryCountTable | None = None
) -> CylinderCount:
    """Check that the cylinder is primitive and read its count data once."""
    check_primitive(model, cyl)
    if table is None:
        table = default_table(model)
    shift = spine_extension_shift(model, cyl)
    comps = twig_components(model, cyl)
    leaves = tuple(_leaf_entries(model, i, table) for i in comps)
    measures = tuple(measure((c, n) for _j, c, n in leaf) for leaf in leaves)
    return CylinderCount(model, cyl, shift, comps, leaves, measures)


def contributing_classes(
    model: ToricModel, cyl: Cylinder, table: ElementaryCountTable | None = None
) -> tuple[tuple[tuple[int, ...], cls.CurveClass, int], ...]:
    """The closed form term by term: an entry picks, per leaf s, a component
    j_s and a class the table lists at (i(s), j_s), and holds (j_1, ..., j_t),
    the spine extension shift plus the picked classes, and the product of
    their counts. A class's closed-form count (the product measure of the
    leaf measures) is the sum of its entries, for every table ``parse_table``
    accepts; the default table gives one entry per (j_s), counted 1. Classes
    come from the table's summands, not the boundary profile, so the closed
    form and the splitting sum index the same classes on every model.
    """
    return cylinder_count(model, cyl, table).contributing


def count_primitive_cylinder(
    model: ToricModel,
    cyl: Cylinder,
    beta: cls.CurveClass,
    table: ElementaryCountTable | None = None,
) -> int:
    """Closed-form count: the mass at beta of the product measure of the leaf
    measures shifted by the spine extension class, for every table
    ``parse_table`` accepts. The first t - 1 leaf measures are subtracted from
    beta in turn and the last is one lookup, so no class is listed. An
    infinitesimal cylinder is matched at the extended level beta + shift.
    A class outside the primitive scope is rejected before the cylinder.
    """
    _scope_profile(model, beta)
    return cylinder_count(model, cyl, table).count(beta)


def splitting_measure(
    model: ToricModel, cyl: Cylinder, table: ElementaryCountTable | None = None
) -> Support:
    """Independent oracle: every decomposition into one table class per leaf,
    enumerated factor by factor, its count the product of the elementary
    counts, summed per class. Classes are keyed at the cylinder's level:
    shifted by the spine extension class when the cylinder is extended."""
    check_primitive(model, cyl)
    if table is None:
        table = default_table(model)
    comps = twig_components(model, cyl)
    base = spine_extension_shift(model, cyl) if cyl.extended else cls.zero_class(model)
    by_pair = table.by_pair
    factors = [
        [(c, n) for j in range(1, model.multiplicity(i) + 1) for c, n in by_pair.get((i, j), ())]
        for i in comps
    ]
    rows = [(base, 1)]
    for factor in factors:
        rows = [(acc + c, prod * n) for acc, prod in rows for c, n in factor if n]
    return measure(rows)


def splitting_sum(
    model: ToricModel,
    cyl: Cylinder,
    beta: cls.CurveClass,
    table: ElementaryCountTable | None = None,
) -> int:
    """The oracle's count at beta: one lookup in ``splitting_measure``."""
    return splitting_measure(model, cyl, table).get(beta, 0)


def count_spine(
    model: ToricModel,
    spine: Cylinder,
    beta: cls.CurveClass,
    table: ElementaryCountTable | None = None,
) -> int:
    """Count over twig types compatible with the class: the dE pattern of
    beta forces the leaf set; incompatible patterns either count 0 (wrong
    bend direction) or fall outside the primitive method's scope."""
    prof = _scope_profile(model, beta)
    rays_hit = [i for (i, _j), v in prof.dE if v == 1]
    if len(set(rays_hit)) != len(rays_hit):
        raise OutOfPrimitiveScope(
            "class needs two twig leaves in the same direction; not primitive"
        )
    if not rays_hit:
        return 0
    cyl = replace(spine, twig_type=tuple(sorted(model.fan.ray(i) for i in rays_hit)))
    return count_primitive_cylinder(model, cyl, beta, table) if cyl.balanced else 0


def build_cylinder(model: ToricModel, twig_type, extended: bool = False) -> Cylinder:
    """Canonical cylinder for a twig type: bend on the ray opposite the leaf
    sum, spine slopes from the canonical split."""
    twig = tuple(tuple(w) for w in twig_type)
    w0 = leaf_sum(twig)
    p1, p2 = canonical_spine_split(model, w0)
    neg, _ = primitive_part((-w0[0], -w0[1]))
    return Cylinder(p1, p2, (Fraction(neg[0]), Fraction(neg[1])), twig, extended)
