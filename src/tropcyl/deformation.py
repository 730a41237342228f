"""Deformation families and the induction replay behind the cylinder count.

Starting from an extended cylinder V with t twig leaves, the replay builds
three interlocking families of mapped trees: L_k (the cylinder with the
first k - 1 leaves forgotten), M_k (the elementary spine for leaf k), and
N_k (the elementary cylinder for leaf k with both twig anchors marked).
M_k and N_k are L_2 and L_1 of the elementary cylinder, so one builder
makes every member and one rule gives every member's counting measure.
Counts with fixed curve class satisfy, for each k, a splitting identity
relating L_k to L_{k+1} through M_k and N_k; chaining the t identities
turns the count of V into a product of elementary counts. The identities
are witnessed combinatorially by a path of glued stable domains whose two
branches coincide at gluing parameter r = 0.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from . import classes as cls
from .counting import (
    CylinderCount,
    ElementaryCountTable,
    Support,
    convolve,
    cylinder_count,
    elementary_cylinder,
    elementary_extension_shift,
    measure,
    twig_components,
)
from .errors import AnchorOnWall, AnchorOrderViolation, NotATropicalCurve
from .lattice import Point, Vec, det, primitive_part
from .model import ToricModel, refine_model
from .tropical import (
    Cylinder,
    Edge,
    MappedTree,
    check_primitive,
    classify,
    make_tree,
    spine_decomposition,
    spine_skeleton,
)

_ORIGIN = (Fraction(0), Fraction(0))


def _ray_param(u: Vec, x: Point) -> Fraction:
    """The scalar c with x = c * u, or raise AnchorOrderViolation."""
    c = Fraction(x[0], u[0]) if u[0] else Fraction(x[1], u[1])
    if (Fraction(u[0]) * c, Fraction(u[1]) * c) != tuple(x):
        raise AnchorOrderViolation(f"anchor {x} does not lie on the ray through {u}")
    return c


_ATTACH_CANDIDATES = (
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(1, 4),
    Fraction(3, 7),
    Fraction(1, 5),
    Fraction(2, 7),
    Fraction(1, 6),
    Fraction(3, 8),
    Fraction(1, 7),
)


def _pick_attach(bend: Point, p1: Vec, wall_dirs) -> Fraction:
    """Deterministic attach parameter whose point avoids the leaf wall lines
    and the origin."""
    for q in _ATTACH_CANDIDATES:
        x = (bend[0] + q * p1[0], bend[1] + q * p1[1])
        if x == _ORIGIN:
            continue
        if all(det(w, x) != 0 for w in wall_dirs):
            return q
    raise AnchorOnWall("no attach point off the leaf wall lines was found")


def family_tree_L(model: ToricModel, cyl: Cylinder, k: int, *, _suffix: str = "") -> MappedTree:
    """The k-th member of the L family, 1 <= k <= t + 1: leaves 1 .. k - 1
    are forgotten, their t-marks are boundary legs carrying the leaf weight.

    L_1 is the extended cylinder with both anchor marks interior on every
    leaf: g_s at vg_s = u_s and t_s at vt_s = 2 u_s, lattice parameters 1
    and 2 on the leaf ray; L_{t+1} has no leaves left. Every vertex and mark
    name ends in ``_suffix``, which keeps the elementary members M_k and N_k
    apart from the L members they are glued to.
    """
    comps = twig_components(model, cyl)
    t = len(comps)
    if not 1 <= k <= t + 1:
        raise AnchorOrderViolation(f"family index {k} out of range 1..{t + 1}")
    leaf_dirs = [model.fan.ray(i) for i in comps]
    attach = _pick_attach(cyl.bend, cyl.p1, leaf_dirs)
    # One leaf grows from the bend, which sits on its ray; more grow from 0.
    base = _ray_param(leaf_dirs[0], cyl.bend) if t == 1 else Fraction(0)
    if base >= 1:
        raise AnchorOrderViolation(f"anchor parameter 1 on leaf 1 must exceed {base}")
    positions, edges, marks, root = spine_skeleton(cyl, attach, suffix=_suffix)
    interior = {"w" + _suffix}
    boundary = {"1" + _suffix, "2" + _suffix}
    for s, u in enumerate(leaf_dirs, start=1):
        vg, g, vt, tm, lf = (f"{name}{s}{_suffix}" for name in ("vg", "g", "vt", "t", "lf"))
        positions[vg] = (Fraction(u[0]), Fraction(u[1]))
        edges.append(Edge(root, vg, u, 1 - base))
        positions[g] = None
        edges.append(Edge(vg, g, (0, 0), None))
        marks[g] = g
        interior.add(g)
        positions[tm] = None
        marks[tm] = tm
        if s < k:
            # Forgotten leaf: the t-mark is a boundary leg with the leaf weight.
            edges.append(Edge(vg, tm, u, None))
            boundary.add(tm)
        else:
            positions[vt] = (Fraction(2 * u[0]), Fraction(2 * u[1]))
            edges.append(Edge(vg, vt, u, Fraction(1)))
            edges.append(Edge(vt, tm, (0, 0), None))
            interior.add(tm)
            positions[lf] = None
            edges.append(Edge(vt, lf, u, None))
    return make_tree(positions, edges, marks, interior, boundary, frozenset())


def refine_for_slopes(model: ToricModel, slopes) -> ToricModel:
    """Refine the fan until every given slope spans a ray; inserted rays
    carry no exceptional components."""
    out = model
    dirs = sorted({primitive_part(w)[0] for w in slopes if w != (0, 0)})
    for d in dirs:
        if out.fan.ray_index(d) is None:
            out = refine_model(out, d)
    return out


@dataclass(frozen=True)
class DeformationFamily:
    """All members of the replay: the cylinder V and the trees L_1 .. L_{t+1},
    M_1 .. M_t, N_1 .. N_t, indexed by name."""

    model: ToricModel
    cylinder: Cylinder
    comps: tuple[int, ...]
    curves: tuple[tuple[str, MappedTree], ...]

    @property
    def t(self) -> int:
        return len(self.comps)

    @cached_property
    def by_name(self) -> Mapping[str, MappedTree]:
        return MappingProxyType(dict(self.curves))

    @cached_property
    def domains(self) -> Mapping[str, AbstractTree]:
        """The stable domain of every member, by name, each computed once."""
        return MappingProxyType({name: stable_domain(tree) for name, tree in self.curves})

    def __getstate__(self):
        """The fields only, as for ``MappedTree``."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def build_deformation(model: ToricModel, cyl: Cylinder) -> DeformationFamily:
    """Construct and validate every member of the deformation family.

    M_k and N_k are L_2 and L_1 of the extended elementary cylinder for leaf
    k. Each tree is classified over a fan refined so the spine slopes span
    rays: a member with no leaf left (L_{t+1}, M_k) must be a spine and every
    other member a tropical curve, or NotATropicalCurve is raised.
    """
    check_primitive(model, cyl)
    cyl = replace(cyl, extended=True)
    comps = twig_components(model, cyl)
    t = len(comps)
    elems = {i: replace(elementary_cylinder(model, i), extended=True) for i in comps}
    # (name, tree, whether every leaf is forgotten)
    members = [(f"L{k}", family_tree_L(model, cyl, k), k == t + 1) for k in range(1, t + 2)]
    for k, i in enumerate(comps, start=1):
        members += [
            (f"M{k}", family_tree_L(model, elems[i], 2, _suffix="p"), True),
            (f"N{k}", family_tree_L(model, elems[i], 1, _suffix="p"), False),
        ]
    slopes = [cyl.p1, cyl.p2] + [p for e in elems.values() for p in (e.p1, e.p2)]
    refined = refine_for_slopes(model, slopes)
    for name, tree, leafless in members:
        kind = classify(refined, tree).kind
        expected = "spine" if leafless else "tropical_curve"
        if kind != expected:
            raise NotATropicalCurve(
                f"family member {name} classifies as {kind}, expected {expected}"
            )
    curves = tuple((name, tree) for name, tree, _ in members)
    return DeformationFamily(model, cyl, comps, curves)


def _family_L(shift: cls.CurveClass, measures) -> list[Support]:
    """[L_1, ..., L_{t+1}] of a cylinder with this spine extension class and
    these leaf measures: L_k keeps leaves k .. t, so the measures are suffix
    products, built in one backward pass of t convolutions."""
    out = [{shift: 1}]
    for leaf in reversed(measures):
        out.append(convolve(out[-1], leaf))
    return out[::-1]


def member_measures(cc: CylinderCount) -> dict[str, Support]:
    """The counting measure of every family member, by name.

    One rule covers every member: the member cylinder's spine extension class
    convolved with the leaf measures it keeps. M_k and N_k are L_2 and L_1 of
    the elementary cylinder for leaf k, whose only leaf measure is the
    cylinder's k-th. Classes are recorded at the extended level. Anchors sit
    on their leaf rays, and extending along a ray crosses no ray, so
    forgetting a leaf adds no extension class and no measure depends on them.
    """
    supp = {f"L{k}": m for k, m in enumerate(_family_L(cc.shift, cc.measures), start=1)}
    for k, (i, leaf) in enumerate(zip(cc.comps, cc.measures), start=1):
        supp[f"N{k}"], supp[f"M{k}"] = _family_L(elementary_extension_shift(cc.model, i), (leaf,))
    return supp


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ReplayReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        return [
            f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}" for c in self.checks
        ]


def _fmt_support(model: ToricModel, supp: Support) -> str:
    """A measure as ``dD [...] Eij:c count n`` terms, one per class."""
    terms = []
    for c, n in supp.items():
        prof = cls.intersect(model, c)
        dE = "".join(f" E{i}{j}:{v}" for (i, j), v in prof.dE)
        terms.append(f"dD {list(prof.dD)}{dE} count {n}")
    return "{" + ", ".join(sorted(terms)) + "}"


def replay_induction(
    model: ToricModel,
    cyl: Cylinder,
    beta: cls.CurveClass | None = None,
    table: ElementaryCountTable | None = None,
) -> ReplayReport:
    """Replay the induction on the extended cylinder: ``replay_count`` of its
    count data."""
    return replay_count(cylinder_count(model, replace(cyl, extended=True), table), beta)


def replay_count(cc: CylinderCount, beta: cls.CurveClass | None = None) -> ReplayReport:
    """Replay the induction: per-step splitting identities, both endpoints,
    and (when a class is given) agreement with the closed-form count.

    All comparisons are exact equalities of counting measures, each read
    from ``member_measures`` of the cylinder's count data. L1 is the closed
    form, the spine extension class convolved with every leaf measure;
    endpoint-initial compares it with the per-class sums of the
    ``contributing`` entries. The checks hold for every table
    ``parse_table`` accepts, not only the canonical one.
    """
    model, t = cc.model, len(cc.comps)
    supp = member_measures(cc)
    checks: list[IdentityCheck] = []
    for k in range(1, t + 1):
        lhs = convolve(supp[f"L{k}"], supp[f"M{k}"])
        rhs = convolve(supp[f"L{k + 1}"], supp[f"N{k}"])
        ok = lhs == rhs
        detail = "measures agree" if ok else (
            f"lhs {_fmt_support(model, lhs)} != rhs {_fmt_support(model, rhs)}"
        )
        checks.append(IdentityCheck(f"splitting-{k}", ok, detail))
    agg = measure((c, n) for _choice, c, n in cc.contributing)
    ok = supp["L1"] == agg
    checks.append(
        IdentityCheck(
            "endpoint-initial",
            ok,
            "L1 matches the cylinder's contributing classes"
            if ok
            else f"L1 {_fmt_support(model, supp['L1'])} != {_fmt_support(model, agg)}",
        )
    )
    final = {cc.shift: 1}
    ok = supp[f"L{t + 1}"] == final
    checks.append(
        IdentityCheck(
            "endpoint-final",
            ok,
            "last member is the pure extension class"
            if ok
            else f"L{t + 1} is {_fmt_support(model, supp[f'L{t + 1}'])}",
        )
    )
    if beta is not None:
        key = beta if cc.cyl.extended else beta + cc.shift
        got = supp["L1"].get(key, 0)
        want = cc.count(beta)
        checks.append(
            IdentityCheck(
                "closed-form",
                got == want,
                f"replayed count {got}, closed form {want}",
            )
        )
    return ReplayReport(tuple(checks))


# ---------------------------------------------------------------------------
# Stable domains and the degeneration path.


@dataclass(frozen=True)
class AbstractTree:
    """A finite labeled tree: edges with a length (None for the glued edge at
    infinite parameter), and mark labels attached to vertices."""

    edges: tuple[tuple[str, str, Fraction | None], ...]
    legs: tuple[tuple[str, str], ...]  # label -> vertex

    @property
    def vertices(self) -> set[str]:
        vs = {v for e in self.edges for v in e[:2]}
        vs.update(v for _, v in self.legs)
        return vs

    def canonical(self):
        """Canonical encoding (labels and edge lengths), rooted at the vertex
        that carries the smallest leg label.

        Two trees with distinct leg labels, as every tree this module builds
        has, get the same encoding exactly when a label- and length-preserving
        isomorphism maps one to the other: it must fix that vertex.
        """
        adj: dict[str, list[tuple[str, Fraction | None]]] = {}
        for a, b, ln in self.edges:
            adj.setdefault(a, []).append((b, ln))
            adj.setdefault(b, []).append((a, ln))
        legs_at: dict[str, list[str]] = {}
        for label, v in self.legs:
            legs_at.setdefault(v, []).append(label)
        return _encode(min(self.legs)[1], None, adj, legs_at)


def _encode(v: str, parent: str | None, adj, legs_at) -> tuple:
    """The encoding of the subtree at v, away from parent. A module-level
    function, not a closure over the tables, so it forms no reference cycle."""
    items = [("leg", label) for label in sorted(legs_at.get(v, ()))]
    kids = []
    for o, ln in adj.get(v, ()):
        if o == parent:
            continue
        key = (0, ln) if ln is not None else (1,)
        kids.append(("edge", key, _encode(o, v, adj, legs_at)))
    return tuple(items) + tuple(sorted(kids))


def stable_domain(tree: MappedTree) -> AbstractTree:
    """Forget the map: the convex hull of the marked legs, marked legs turned
    into labels at their attachment vertices, then unmarked 2-valent vertices
    smoothed away."""
    hull, _ = spine_decomposition(tree)
    mark_vertex = tree.mark_vertex
    endpoint = {v: label for label, v in mark_vertex.items()}
    legs: dict[str, str] = {}
    edges: list[tuple[str, str, Fraction | None]] = []
    for e in tree.edges:
        if e.tail not in hull or e.head not in hull:
            continue
        if e.head in endpoint:
            legs[endpoint[e.head]] = e.tail
        elif e.tail in endpoint:
            legs[endpoint[e.tail]] = e.head
        else:
            edges.append((e.tail, e.head, e.length))
    marked = set(legs.values())
    changed = True
    while changed:
        changed = False
        degree: dict[str, list[int]] = {}
        for idx, (a, b, _ln) in enumerate(edges):
            degree.setdefault(a, []).append(idx)
            degree.setdefault(b, []).append(idx)
        for v, inc in degree.items():
            if v in marked or len(inc) != 2:
                continue
            i1, i2 = inc
            a1, b1, l1 = edges[i1]
            a2, b2, l2 = edges[i2]
            o1 = a1 if b1 == v else b1
            o2 = a2 if b2 == v else b2
            ln = None if l1 is None or l2 is None else l1 + l2
            for idx in sorted((i1, i2), reverse=True):
                edges.pop(idx)
            edges.append((o1, o2, ln))
            changed = True
            break
    return AbstractTree(tuple(edges), tuple(sorted(legs.items())))


def _prefixed(tree: AbstractTree, prefix: str) -> AbstractTree:
    return AbstractTree(
        tuple((prefix + a, prefix + b, ln) for a, b, ln in tree.edges),
        tuple((label, prefix + v) for label, v in tree.legs),
    )


def glue_domains(
    a: AbstractTree,
    b: AbstractTree,
    leg_a: str,
    leg_b: str,
    r: Fraction | None,
) -> AbstractTree:
    """Join two domains by a bridge of length r between the carriers of two
    legs, those legs removed and leg_a moved to the midpoint. r = 0 contracts
    the bridge; r = None leaves it infinite."""
    a = _prefixed(a, "a.")
    b = _prefixed(b, "b.")
    va = dict(a.legs)[leg_a]
    vb = dict(b.legs)[leg_b]
    legs = [(l, v) for l, v in a.legs if l != leg_a]
    legs += [(l, v) for l, v in b.legs if l != leg_b]
    edges = list(a.edges) + list(b.edges)
    if r == 0:
        ren = {va: "mid", vb: "mid"}
        edges = [(ren.get(x, x), ren.get(y, y), ln) for x, y, ln in edges]
        legs = [(l, ren.get(v, v)) for l, v in legs]
    else:
        half = None if r is None else r / 2
        edges.append((va, "mid", half))
        edges.append(("mid", vb, half))
    legs.append((leg_a, "mid"))
    return AbstractTree(tuple(edges), tuple(sorted(legs)))


def _swap_legs(tree: AbstractTree, l1: str, l2: str) -> AbstractTree:
    ren = {l1: l2, l2: l1}
    return AbstractTree(
        tree.edges, tuple(sorted((ren.get(l, l), v) for l, v in tree.legs))
    )


@dataclass(frozen=True)
class DegenerationStep:
    """The two glued domains at one value of the parameter r.

    first glues L_k with M_k; second glues L_{k+1} with N_k and swaps the
    t-labels so both carry the same 2t + 7 marks. At r = 0 the two trees
    coincide, which is what lets the two identities be chained.
    """

    k: int
    r: Fraction | None
    first: AbstractTree
    second: AbstractTree

    @property
    def coincide(self) -> bool:
        return self.first.canonical() == self.second.canonical()


def degeneration_path(fam: DeformationFamily, k: int, r: Fraction | None) -> DegenerationStep:
    if not 1 <= k <= fam.t:
        raise KeyError(f"step index {k} out of range 1..{fam.t}")
    by = fam.domains
    first = glue_domains(by[f"L{k}"], by[f"M{k}"], f"g{k}", "g1p", r)
    second = glue_domains(by[f"L{k + 1}"], by[f"N{k}"], f"g{k}", "g1p", r)
    second = _swap_legs(second, f"t{k}", "t1p")
    expect = 2 * fam.t + 7
    for tree in (first, second):
        assert len(tree.legs) == expect
    return DegenerationStep(k, r, first, second)
