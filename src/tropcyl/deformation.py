"""Deformation families and the induction replay behind the cylinder count.

Starting from an extended cylinder V with t twig leaves, the replay builds
three interlocking families of mapped trees: L_k (the cylinder with the
first k - 1 leaves forgotten), M_k (the elementary spine for leaf k), and
N_k (the elementary cylinder for leaf k with both twig anchors marked).
M_k and N_k are L_2 and L_1 of the elementary cylinder, so one builder,
``family_L``, makes every member, and one rule gives every member's
counting measure. M_k and N_k, with their kinds and stable domains, come
from a bounded memo (256 entries) kept per (model, leaf ray), classified
there over the fan refined by the elementary cylinder's slopes; a family
classifies only its t + 1 L members, over the fan refined by its own
cylinder's slopes. Memo entries and the cached dicts and sets of trees and
families are shared and must not be written.
Counts with fixed curve class satisfy, for each k, a splitting identity
relating L_k to L_{k+1} through M_k and N_k; chaining the t identities
turns the count of V into a product of elementary counts. The identities
are witnessed combinatorially by a path of glued stable domains whose two
branches coincide at gluing parameter r = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

from . import classes as cls
from .counting import (
    CylinderCount,
    ElementaryCountTable,
    Support,
    convolve,
    cylinder_count,
    elementary_cylinder,
    elementary_extension_shift,
    twig_components,
)
from .errors import AnchorOnWall, AnchorOrderViolation, NotATropicalCurve
from .lattice import Point, Vec, det, primitive_part
from .model import ToricModel, refine_model
from .tropical import (
    Cylinder,
    Edge,
    MappedTree,
    classify,
    make_tree,
    spine_decomposition,
    spine_skeleton,
)

_ORIGIN = (Fraction(0), Fraction(0))


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


def family_L(
    model: ToricModel, cyl: Cylinder, suffix: str = ""
) -> tuple[tuple[int, ...], tuple[MappedTree, ...]]:
    """The leaf components of a cylinder and its L members (L_1, ..., L_{t+1}).

    L_k forgets leaves 1 .. k - 1: their t-marks are boundary legs carrying
    the leaf weight. L_1 is the extended cylinder with both anchor marks
    interior on every leaf: g_s at vg_s = n u_s and t_s at vt_s = (n + 1) u_s
    on the leaf ray, with n = 1, or n = floor(c) + 1 for one leaf grown from
    a bend c u_1 with c >= 1; L_{t+1} has no leaves left. The spine and each
    leaf's edges are built once and one loop assembles the members. Every
    vertex and mark name ends in ``suffix``, which keeps the elementary
    members M_k and N_k apart from the L members they are glued to.
    """
    comps = twig_components(model, cyl)
    leaf_dirs = [model.fan.ray(i) for i in comps]
    attach = _pick_attach(cyl.bend, cyl.p1, leaf_dirs)
    # One leaf grows from the bend, which sits on its ray; more grow from 0.
    base = cyl.bend_param if len(comps) == 1 else Fraction(0)
    if base is None:
        raise AnchorOrderViolation(
            f"anchor {cyl.bend} does not lie on the ray through {leaf_dirs[0]}"
        )
    n = max(1, math.floor(base) + 1)
    positions, edges, marks, root = spine_skeleton(cyl, attach, suffix=suffix)
    interior = {"w" + suffix}
    # Per leaf, what a member adds when it forgets or keeps the leaf.
    forgot, kept = [], []
    for s, u in enumerate(leaf_dirs, start=1):
        vg, g, vt, tm, lf = (f"{name}{s}{suffix}" for name in ("vg", "g", "vt", "t", "lf"))
        positions.update({vg: (Fraction(n * u[0]), Fraction(n * u[1])), g: None, tm: None})
        marks.update({g: g, tm: tm})
        interior.add(g)
        shared = (Edge(root, vg, u, n - base), Edge(vg, g, (0, 0), None))
        forgot.append((tm, shared + (Edge(vg, tm, u, None),)))
        at = {vt: (Fraction((n + 1) * u[0]), Fraction((n + 1) * u[1])), lf: None}
        ends = (Edge(vg, vt, u, Fraction(1)), Edge(vt, tm, (0, 0), None), Edge(vt, lf, u, None))
        kept.append((tm, at, shared + ends))
    members = []
    for k in range(len(comps) + 1):  # L_{k+1} forgets the first k leaves
        member_pos, member_edges = dict(positions), list(edges)
        inner, boundary = set(interior), {"1" + suffix, "2" + suffix}
        for tm, leaf_edges in forgot[:k]:
            member_edges += leaf_edges
            boundary.add(tm)
        for tm, leaf_pos, leaf_edges in kept[k:]:
            member_pos.update(leaf_pos)
            member_edges += leaf_edges
            inner.add(tm)
        members.append(make_tree(member_pos, member_edges, marks, inner, boundary))
    return comps, tuple(members)


@lru_cache(maxsize=256)
def _elementary_members(model: ToricModel, i: int):
    """The extended elementary cylinder for ray i; its L_2 and L_1 (M and N
    of every family with a leaf at ray i, suffixed ``p``); their kinds, as
    ``classify`` gives them over the model refined by the elementary
    cylinder's own two slopes; and their stable domains. Each is built,
    checked and classified once per (model, ray)."""
    elem = replace(elementary_cylinder(model, i), extended=True)
    N, M = family_L(model, elem, "p")[1]
    refined = refine_for_slopes(model, (elem.p1, elem.p2))
    kinds = classify(refined, M).kind, classify(refined, N).kind
    return elem, M, N, *kinds, stable_domain(M), stable_domain(N)


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
    M_1 .. M_t, N_1 .. N_t as (name, tree) pairs."""

    model: ToricModel
    cylinder: Cylinder
    comps: tuple[int, ...]
    curves: tuple[tuple[str, MappedTree], ...]

    @property
    def t(self) -> int:
        return len(self.comps)

    @cached_property
    def domains(self) -> dict[str, AbstractTree]:
        """The stable domain of every member, by name: each L member's
        computed once, each M and N member's read from the elementary memo.
        The dict is shared by every reader and must not be written."""
        out = {name: stable_domain(tree) for name, tree in self.curves if name[0] == "L"}
        for k, i in enumerate(self.comps, start=1):
            *_, out[f"M{k}"], out[f"N{k}"] = _elementary_members(self.model, i)
        return out


def build_deformation(model: ToricModel, cyl: Cylinder) -> DeformationFamily:
    """Construct and validate every member of the deformation family.

    The L members come from ``family_L`` and are classified over the model
    refined by the cylinder's own two slopes. M_k and N_k are L_2 and L_1 of
    the extended elementary cylinder for leaf k, read with their kinds from
    a memo kept per (model, ray). Then, in the order L_1 .. L_{t+1}, M_1,
    N_1, ..., a member with no leaf left (L_{t+1}, M_k) must be a spine and
    every other member a tropical curve, or NotATropicalCurve is raised.

    Refining a fan inserts rays with l = 0, which leaves ``exceptional_ray``
    and ``is_wall_direction`` unchanged, so ``classify`` reads the fan only
    through ``ray_index`` of boundary legs. Every boundary leg runs along a
    ray u_s of the model or one slope of its own cylinder, a ray of every
    fan refined by that cylinder's slopes, so no kind depends on which such
    fan classifies it.
    """
    cyl = replace(cyl, extended=True)
    comps, Ls = family_L(model, cyl)
    # (name, tree, its kind when the memo has it, whether every leaf is forgotten)
    members = [(f"L{k}", tree, None, k == len(Ls)) for k, tree in enumerate(Ls, start=1)]
    for k, i in enumerate(comps, start=1):
        _, m, n, m_kind, n_kind, *_ = _elementary_members(model, i)
        members += [(f"M{k}", m, m_kind, True), (f"N{k}", n, n_kind, False)]
    refined = refine_for_slopes(model, (cyl.p1, cyl.p2))
    for name, tree, kind, leafless in members:
        kind = kind or classify(refined, tree).kind
        expected = "spine" if leafless else "tropical_curve"
        if kind != expected:
            raise NotATropicalCurve(
                f"family member {name} classifies as {kind}, expected {expected}"
            )
    curves = tuple((name, tree) for name, tree, *_ in members)
    return DeformationFamily(model, cyl, comps, curves)


def member_measures(cc: CylinderCount) -> dict[str, Support]:
    """The counting measure of every family member, by name.

    One rule covers every member: the member cylinder's base convolved with
    the leaf measures it keeps, built in one backward pass (L_k keeps leaves
    k .. t). M_k and N_k are L_2 and L_1 of the extended elementary cylinder
    for leaf k, whose only leaf measure is the cylinder's k-th. The L members
    are recorded at the cylinder's level, from ``cc.base``. Anchors sit on
    their leaf rays, and extending along a ray crosses no ray, so forgetting
    a leaf adds no extension class and no measure depends on them.
    """
    t = len(cc.comps)
    supp = {f"L{t + 1}": {cc.base: 1}}
    for k in range(t, 0, -1):
        leaf = cc.measures[k - 1]
        supp[f"L{k}"] = convolve(supp[f"L{k + 1}"], leaf)
        supp[f"M{k}"] = {elementary_extension_shift(cc.model, cc.comps[k - 1]): 1}
        supp[f"N{k}"] = convolve(supp[f"M{k}"], leaf)
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


def _fmt_support(supp: Support) -> str:
    """A measure as ``dD [...] Eij:c count n`` terms, one per class."""
    terms = []
    for c, n in supp.items():
        dE = "".join(f" E{i}{j}:{v}" for (i, j), v in c.dE)
        terms.append(f"dD {list(c.dD)}{dE} count {n}")
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
    from ``member_measures`` of the cylinder's count data, at the cylinder's
    level. L1 is the closed form, the base convolved with every leaf measure;
    endpoint-initial compares it with the summed listing ``cc.listed``. The
    checks hold for every table ``parse_table`` accepts, not only the
    canonical one.
    """
    t = len(cc.comps)
    supp = member_measures(cc)
    sides = [
        (
            f"splitting-{k}",
            convolve(supp[f"L{k}"], supp[f"M{k}"]),
            convolve(supp[f"L{k + 1}"], supp[f"N{k}"]),
        )
        for k in range(1, t + 1)
    ]
    sides.append(("endpoint-initial", supp["L1"], cc.listed))
    sides.append(("endpoint-final", supp[f"L{t + 1}"], {cc.base: 1}))
    checks = []
    for name, lhs, rhs in sides:
        detail = "measures agree"
        if lhs != rhs:
            detail = f"lhs {_fmt_support(lhs)} != rhs {_fmt_support(rhs)}"
        checks.append(IdentityCheck(name, lhs == rhs, detail))
    if beta is not None:
        got = supp["L1"].get(beta, 0)
        want = cc.count(beta)
        detail = f"replayed count {got}, closed form {want}"
        checks.append(IdentityCheck("closed-form", got == want, detail))
    return ReplayReport(tuple(checks))


# ---------------------------------------------------------------------------
# Stable domains and the degeneration path.


@dataclass(frozen=True)
class AbstractTree:
    """A finite labeled tree: edges with a length (None for the glued edge at
    infinite parameter), and mark labels attached to vertices."""

    edges: tuple[tuple[str, str, Fraction | None], ...]
    legs: tuple[tuple[str, str], ...]  # label -> vertex

    @cached_property
    def vertices(self) -> frozenset[str]:
        """Every vertex an edge or a leg names, computed once per tree."""
        vs = {v for e in self.edges for v in e[:2]}
        vs.update(v for _, v in self.legs)
        return frozenset(vs)

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
    """The encoding of the subtree at v, away from parent, each edge length
    keyed by its (numerator, denominator) so that sorting compares ints. A
    module-level function, not a closure over the tables, so it forms no
    reference cycle."""
    items = [("leg", label) for label in sorted(legs_at.get(v, ()))]
    kids = []
    for o, ln in adj.get(v, ()):
        if o == parent:
            continue
        key = (0, ln.numerator, ln.denominator) if ln is not None else (1,)
        kids.append(("edge", key, _encode(o, v, adj, legs_at)))
    return tuple(items) + tuple(sorted(kids))


def stable_domain(tree: MappedTree) -> AbstractTree:
    """Forget the map: the convex hull of the marked legs, marked legs turned
    into labels at their attachment vertices, then every unmarked 2-valent
    vertex spliced out in one pass, the lengths of its two edges adding."""
    hull, _ = spine_decomposition(tree)
    mark_vertex = tree.mark_vertex
    endpoint = {v: label for label, v in mark_vertex.items()}
    legs: dict[str, str] = {}
    edges: list[tuple[str, str, Fraction | None] | None] = []
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
    inc: dict[str, list[int]] = {}
    for idx, (a, b, _ln) in enumerate(edges):
        inc.setdefault(a, []).append(idx)
        inc.setdefault(b, []).append(idx)
    # Splicing v leaves every other degree unchanged; the joined edge takes
    # the first edge's slot and the second's is emptied.
    for v, pair in inc.items():
        if v in marked or len(pair) != 2:
            continue
        i, j = pair
        (a1, b1, l1), (a2, b2, l2) = edges[i], edges[j]
        o1, o2 = (a1 if b1 == v else b1), (a2 if b2 == v else b2)
        edges[i] = (o1, o2, None if l1 is None or l2 is None else l1 + l2)
        edges[j] = None
        inc[o2][inc[o2].index(j)] = i
    return AbstractTree(tuple(e for e in edges if e), tuple(sorted(legs.items())))


def glue_domains(
    a: AbstractTree, b: AbstractTree, leg_a: str, leg_b: str, r: Fraction | None
) -> AbstractTree:
    """Join two domains by a bridge of length r between the carriers of two
    legs, those legs removed and leg_a moved to the midpoint. r = 0 contracts
    the bridge; r = None leaves it infinite. The domains must share no vertex
    name and neither may use ``mid``: family members keep theirs apart by the
    elementary members' ``p`` suffix."""
    verts_a, verts_b = a.vertices, b.vertices
    clash = (verts_a & verts_b) | ({"mid"} & (verts_a | verts_b))
    if clash:
        raise ValueError(f"cannot glue domains that share or use vertex names {sorted(clash)}")
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
    return AbstractTree(tree.edges, tuple(sorted((ren.get(l, l), v) for l, v in tree.legs)))


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
