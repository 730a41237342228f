"""Primitive cylinder counts: elementary tables, the closed-form product
count, and the independent splitting sum.

The count of a primitive cylinder factors over its twig leaves: the closed
form is the product measure of the leaf measures (class -> count, read off
the elementary table at the leaf's exceptional components), shifted by the
spine extension class. See ``CylinderCount`` for what the closed form and
the oracle share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add

from . import classes as cls
from .errors import ComponentOutOfRange, ModelMismatch, NotPrimitiveCylinder, OutOfPrimitiveScope
from .lattice import primitive_part
from .model import ToricModel
from .tropical import Cylinder, canonical_spine_split, check_primitive, cylinder_tree
from .tropical import extension_class, leaf_sum, tree_class

Support = dict[cls.CurveClass, int]
Groups = tuple[tuple[set[tuple[int, int]], dict[frozenset, list]], ...]
# Per leaf: its distinct dD vectors, and per row (j, dD index, dE, count).
LeafParts = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int, tuple, int], ...]]

# Cylinders whose count data one table keeps, the oldest dropped first.
CYLINDER_MEMO_SIZE = 256


@dataclass(frozen=True)
class ElementaryCountTable:
    """Counts of elementary cylinders: (i, j) -> ((class, count), ...).

    The default table supports, for each exceptional component E_ij, exactly
    the canonical elementary class with count 1. A table keeps one memo of
    ``CylinderCount`` data; see there.
    """

    entries: tuple[tuple[tuple[int, int], tuple[tuple[cls.CurveClass, int], ...]], ...]

    @cached_property
    def by_pair(self) -> dict[tuple[int, int], tuple[tuple[cls.CurveClass, int], ...]]:
        return dict(self.entries)

    @cached_property
    def _cylinders(self) -> dict[tuple[ToricModel, Cylinder], tuple]:
        """``cylinder_count`` data by (model, cylinder), oldest first."""
        return {}


def default_table(model: ToricModel, rays: tuple[int, ...] | None = None) -> ElementaryCountTable:
    """The canonical elementary class, counted 1, at every exceptional pair,
    or only at the pairs of the given rays."""
    return ElementaryCountTable(tuple(
        ((i, j), ((elementary_class(model, i, j), 1),))
        for i in (range(1, model.m + 1) if rays is None else sorted(rays))
        for j in range(1, model.multiplicity(i) + 1)
    ))


def elementary_cylinder(model: ToricModel, i: int) -> Cylinder:
    """The canonical one-leaf cylinder ``build_cylinder(model, (u_i,))`` with
    its bend moved from -u_i to u_i / 2, a side the abstract leaves open."""
    w = model.fan.ray(i)
    if model.multiplicity(i) == 0:
        raise OutOfPrimitiveScope(f"ray {i} carries no exceptional components")
    return replace(build_cylinder(model, (w,)), bend=(Fraction(w[0], 2), Fraction(w[1], 2)))


def spine_extension_shift(model: ToricModel, cyl: Cylinder) -> cls.CurveClass:
    """Sum of the extension classes of the two spine legs, from the bend. Its
    dD is their part of ``tree_class`` minus g(cyl): the linear pieces of
    ``direction_contrib`` on the cones the two legs enter, at their slopes."""
    return extension_class(model, cyl.bend, cyl.p1) + extension_class(
        model, cyl.bend, cyl.p2
    )


@lru_cache(maxsize=256)
def _elementary_data(model: ToricModel, i: int):
    """Extension shift and classes (j = 1 .. l_i) of the elementary cylinder at u_i."""
    cyl = elementary_cylinder(model, i)
    shift = spine_extension_shift(model, cyl)
    tree = cylinder_tree(model, replace(cyl, extended=True))
    return shift, tuple(
        tree_class(model, tree, {"t1": (i, j)}) - shift
        for j in range(1, model.multiplicity(i) + 1)
    )


def elementary_extension_shift(model: ToricModel, i: int) -> cls.CurveClass:
    return _elementary_data(model, i)[0]


def elementary_class(model: ToricModel, i: int, j: int) -> cls.CurveClass:
    """The unique class supported by the default table at (i, j): meets E_ij
    once, no other exceptional curve, toric part fixed by the extended
    elementary cylinder's boundary profile."""
    classes = _elementary_data(model, i)[1]
    if not 1 <= j <= len(classes):
        raise ComponentOutOfRange(f"component {j} out of range 1..{len(classes)} at ray {i}")
    return classes[j - 1]


def twig_components(model: ToricModel, cyl: Cylinder) -> tuple[int, ...]:
    """The primitive gate: ``check_primitive``'s verdict, then the ray index
    i(s) of each twig leaf, which must head toward a ray with positive blowup
    multiplicity."""
    problem = check_primitive(model, cyl)
    if problem:
        raise NotPrimitiveCylinder(problem)
    out = []
    for w in cyl.twig_type:
        i = model.exceptional_ray(w)
        if i is None:
            raise OutOfPrimitiveScope(
                f"leaf {w} does not head toward an exceptional ray"
            )
        out.append(i)
    return tuple(out)


def measure(terms) -> Support:
    """Sum (class, count) terms per class; classes whose counts cancel drop out."""
    out: Support = {}
    for c, n in terms:
        out[c] = out.get(c, 0) + n
    return {c: n for c, n in out.items() if n != 0}


def convolve(a: Support, b: Support) -> Support:
    """The product measure pushed forward along class addition."""
    return measure((ca + cb, na * nb) for ca, na in a.items() for cb, nb in b.items())


def check_multiplicities(beta: cls.CurveClass) -> cls.CurveClass:
    """beta; raises ``OutOfPrimitiveScope`` when beta meets an exceptional
    curve with multiplicity other than 0 or 1."""
    if any(v != 1 for _, v in beta.dE):
        raise OutOfPrimitiveScope("class meets an exceptional curve with multiplicity > 1 or < 0")
    return beta


def scope_profile(model: ToricModel, beta: cls.CurveClass) -> cls.CurveClass:
    """beta, checked by ``intersect`` and then ``check_multiplicities``."""
    return check_multiplicities(cls.intersect(model, beta))


@dataclass(frozen=True, eq=False)
class CylinderCount:
    """The count data of one primitive cylinder under one table.

    ``_read`` is the one read of a cylinder, shared with the oracle
    ``splitting_measure``: ``comps``, the ray index i(s) of each twig leaf
    through the primitive gate ``twig_components``; ``base``, the class the
    closed form starts from at the cylinder's level, the spine extension
    class when the cylinder is extended and zero when it is not; and per
    leaf every (j, class, count) the table lists at (i(s), j), j <= l_i,
    from the default table at the leaves' rays when none is given. The
    record keeps those rows as ``parts``, a leaf's distinct dD vectors and
    per row (j, dD index, dE, count), as ``spans``, the smallest and the
    largest pair a leaf's rows meet (``classes.dE_span``), and as
    ``measures``, their counts summed per class. The oracle folds the rows itself and never reads the
    record. The closed form, its listing, the replay and the CLI read it, at
    the cylinder's level.

    A table's memo keeps, by (model, cylinder as given), every field but the
    model and the cylinder, for at most ``CYLINDER_MEMO_SIZE`` cylinders,
    the oldest dropped first; a cylinder that raises is not kept, and
    without a table nothing is. ``cylinder_count`` builds a fresh record per
    call, so these fields are shared across calls and never written, while
    the listing (``contributing``, ``listed``) belongs to the record. Every
    per-leaf field follows the cylinder's leaf order, so two leaf orders of
    one cylinder are two entries.

    A single-class query prunes by exceptional support. A pair is private to
    leaf s < t when some class of leaf s meets it and no class of a later
    leaf does; later subtractions leave a residual's part on those pairs
    alone, so only the classes of leaf s with that same part can complete it.
    With the default table, or any table whose classes meet only their own
    ray's pairs, one residual survives each leaf and a query makes t
    subtractions, however large t is.
    """

    model: ToricModel
    cyl: Cylinder
    base: cls.CurveClass
    comps: tuple[int, ...]
    measures: tuple[Support, ...]
    parts: tuple[LeafParts, ...] = field(repr=False)
    spans: tuple[tuple | None, ...] = field(repr=False)
    _groups: Groups = field(repr=False)

    @cached_property
    def contributing(self) -> tuple[tuple[tuple[int, ...], cls.CurveClass, int], ...]:
        """The closed form term by term, listed by parts; see
        ``contributing_classes``. dD and dE add independently: the dD of a
        row is ``base``'s plus one distinct dD vector per leaf, summed once
        per combination of those vectors (once per listing under the default
        table, whose classes at one ray share their dD), and its dE joins the
        leaves' runs in leaf order, by one join per leaf (``classes.dE_join``
        of the span of the pairs met so far and the leaf's span): the
        concatenation after or before the row's run when the leaf's span lies
        above or below, ``dE_sum`` when they overlap. The rows and their
        order are those of a fold of class sums. Each row builds its class
        once, at the end, and hashes it only if it is used as a key."""
        rows = [((), 0, self.base.dE, 1)]
        sums = [self.base.dD]
        met = cls.dE_span([self.base.dE])
        for (dDs, leaf), span in zip(self.parts, self.spans):
            join = cls.dE_join(met, span)
            # A row's index into ``sums`` holds one dD index per leaf, in mixed radix.
            w = len(dDs)
            rows = [
                (ch + (j,), i * w + g, join(e, f), n * k)
                for ch, i, e, n in rows
                for j, g, f, k in leaf
            ]
            sums = [tuple(map(add, a, d)) for a in sums for d in dDs]
            if span:
                met = span if met is None else (min(met[0], span[0]), max(met[1], span[1]))
        rays = self.model.fan.rays
        return tuple([(ch, cls.CurveClass(rays, sums[i], e), n) for ch, i, e, n in rows])

    @cached_property
    def listed(self) -> Support:
        """The ``contributing`` entries summed per class."""
        return measure((b, n) for _choice, b, n in self.contributing)

    def count(self, beta: cls.CurveClass) -> int:
        """The closed-form count at beta; see ``count_primitive_cylinder``."""
        scope_profile(self.model, beta)
        return self._mass(beta)

    def _mass(self, beta: cls.CurveClass) -> int:
        """``count`` at a class already checked to be in the primitive scope."""
        residual: Support = {beta - self.base: 1}
        for private, groups in self._groups:
            residual = measure(
                (r - c, w * n)
                for r, w in residual.items()
                for c, n in groups.get(_part(r, private), ())
            )
        last = self.measures[-1]
        return sum(w * last.get(r, 0) for r, w in residual.items())


def _leaf_parts(rows) -> LeafParts:
    """A leaf's distinct dD vectors, and per row (j, the index of its dD
    among them, its dE, its count)."""
    index: dict[tuple[int, ...], int] = {}
    parts = tuple((j, index.setdefault(c.dD, len(index)), c.dE, n) for j, c, n in rows)
    return tuple(index), parts


def _part(c: cls.CurveClass, pairs: set[tuple[int, int]]) -> frozenset:
    """The exceptional part of a class on the given pairs."""
    return frozenset(kv for kv in c.dE if kv[0] in pairs)


def _private_groups(measures: tuple[Support, ...]) -> Groups:
    """Per leaf s < t: its private pairs, and its (class, count) terms
    grouped by each class's exceptional part on them."""
    *first, last = measures
    later = {p for c in last for p, _v in c.dE}
    out = []
    for supp in reversed(first):
        met = {p for c in supp for p, _v in c.dE}
        private, groups = met - later, {}
        for c, n in supp.items():
            groups.setdefault(_part(c, private), []).append((c, n))
        out.append((private, groups))
        later |= met
    return tuple(out[::-1])


def _read(model: ToricModel, cyl: Cylinder, table: ElementaryCountTable | None):
    """The cylinder's comps, base and per-leaf table rows; see ``CylinderCount``.
    A row whose class lives on another fan raises ``ModelMismatch``, on
    every leaf, before either path folds a row."""
    comps = twig_components(model, cyl)
    by_pair = (default_table(model, comps) if table is None else table).by_pair
    base = spine_extension_shift(model, cyl) if cyl.extended else cls.zero_class(model)
    leaves = tuple(
        tuple((j, c, n) for j in range(1, model.multiplicity(i) + 1) for c, n in by_pair.get((i, j), ()))
        for i in comps
    )
    if any(c.rays != model.fan.rays for rows in leaves for _j, c, _n in rows):
        raise ModelMismatch("a table class does not live on this model's fan")
    return comps, base, leaves


def cylinder_count(
    model: ToricModel, cyl: Cylinder, table: ElementaryCountTable | None = None
) -> CylinderCount:
    """A fresh ``CylinderCount`` over the table's memo entry for the cylinder."""
    memo = {} if table is None else table._cylinders
    data = memo.get((model, cyl))
    if data is None:
        comps, base, leaves = _read(model, cyl, table)
        parts = tuple(_leaf_parts(rows) for rows in leaves)
        spans = tuple(cls.dE_span([c.dE for _j, c, _n in rows]) for rows in leaves)
        measures = tuple(measure((c, n) for _j, c, n in rows) for rows in leaves)
        data = (base, comps, measures, parts, spans, _private_groups(measures))
        if len(memo) >= CYLINDER_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[(model, cyl)] = data
    return CylinderCount(model, cyl, *data)


def contributing_classes(
    model: ToricModel, cyl: Cylinder, table: ElementaryCountTable | None = None
) -> tuple[tuple[tuple[int, ...], cls.CurveClass, int], ...]:
    """The closed form term by term: an entry picks, per leaf s, a component
    j_s and a class the table lists at (i(s), j_s), and holds (j_1, ..., j_t),
    the cylinder's base plus the picked classes, and the product of their
    counts. A class's closed-form count (the product measure of the leaf
    measures) is the sum of its entries, for every table ``parse_table``
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
    measures shifted by the base, for every table ``parse_table`` accepts.
    The first t - 1 leaf measures are subtracted from beta in turn and the
    last is one lookup, so no class is listed; ``CylinderCount`` says how
    each leaf prunes the residuals. A class outside the primitive scope is
    rejected before the cylinder.
    """
    scope_profile(model, beta)
    return cylinder_count(model, cyl, table)._mass(beta)


def splitting_measure(
    model: ToricModel, cyl: Cylinder, table: ElementaryCountTable | None = None
) -> Support:
    """Independent oracle: every decomposition into the base and one table
    class per leaf, enumerated factor by factor from ``_read``'s rows, its
    count the product of the elementary counts, summed per class."""
    _comps, base, leaves = _read(model, cyl, table)
    rows = [(base, 1)]
    for leaf in leaves:
        rows = [(acc + c, prod * n) for acc, prod in rows for _j, c, n in leaf]
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
    bend direction) or fall outside the primitive method's scope. The leaves
    are listed in ray-index order, as in ``model.exceptional_directions``, so
    the cylinder is the one ``build_cylinder`` makes from those directions
    and shares its memo entry."""
    rays_hit = [i for (i, _j), _v in scope_profile(model, beta).dE]
    if len(set(rays_hit)) != len(rays_hit):
        raise OutOfPrimitiveScope(
            "class needs two twig leaves in the same direction; not primitive"
        )
    if not rays_hit:
        return 0
    cyl = replace(spine, twig_type=tuple(model.fan.ray(i) for i in rays_hit))
    return cylinder_count(model, cyl, table)._mass(beta) if cyl.balanced else 0


def build_cylinder(model: ToricModel, twig_type, extended: bool = False) -> Cylinder:
    """Canonical cylinder for a twig type: bend on the ray opposite the leaf
    sum, spine slopes from the canonical split."""
    twig = tuple(tuple(w) for w in twig_type)
    w0 = leaf_sum(twig)
    p1, p2 = canonical_spine_split(model, w0)
    neg, _ = primitive_part((-w0[0], -w0[1]))
    return Cylinder(p1, p2, (Fraction(neg[0]), Fraction(neg[1])), twig, extended)
