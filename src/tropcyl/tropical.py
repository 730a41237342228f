"""Mapped trees, spines, twigs, and tropical cylinders.

A mapped tree is a metric tree together with an affine map to the plane:
vertices carry rational positions (or None when at infinity), edges carry
integral weight vectors and positive rational lengths (None for infinite
edges). Marked legs are 1-valent vertices addressed by labels, partitioned
into interior (I), boundary (B), and finite (F) marks.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from . import classes as cls
from .errors import AffineInconsistent, NotPrimitiveCylinder, PathThroughOrigin, ZeroVector
from .lattice import Fan, Point, Vec, _complement, cone_coordinates, det, norm, primitive_part
from .model import ToricModel
from .walls import is_wall_direction


@dataclass(frozen=True)
class Edge:
    tail: str
    head: str
    weight: Vec
    length: Fraction | None = None  # None marks an infinite edge


@dataclass(frozen=True)
class MappedTree:
    positions: tuple[tuple[str, Point | None], ...]
    edges: tuple[Edge, ...]
    marks: tuple[tuple[str, str], ...]  # label -> vertex
    interior: frozenset[str] = frozenset()
    boundary: frozenset[str] = frozenset()
    finite: frozenset[str] = frozenset()

    @cached_property
    def pos(self) -> Mapping[str, Point | None]:
        return MappingProxyType(dict(self.positions))

    @cached_property
    def mark_vertex(self) -> Mapping[str, str]:
        return MappingProxyType(dict(self.marks))

    @cached_property
    def _incidence(self) -> dict[str, tuple[int, ...]]:
        """Vertex -> positions in ``edges`` of its incident edges, in order."""
        out: dict[str, list[int]] = {}
        for k, e in enumerate(self.edges):
            out.setdefault(e.tail, []).append(k)
            if e.head != e.tail:
                out.setdefault(e.head, []).append(k)
        return {v: tuple(ks) for v, ks in out.items()}

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """``structural_problems`` of this tree, computed once."""
        return tuple(structural_problems(self))

    def __getstate__(self):
        """The fields only: cached views are rebuilt, and a mapping proxy
        cannot be pickled or deep-copied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def incident(self, v: str) -> list[Edge]:
        return [self.edges[k] for k in self._incidence.get(v, ())]

    def valency(self, v: str) -> int:
        return len(self._incidence.get(v, ()))

    def leg(self, v: str) -> tuple[Edge, Vec]:
        """The edge at the 1-valent vertex v and its weight pointing toward v."""
        e = self.edges[self._incidence.get(v, ())[0]]
        return e, e.weight if e.head == v else (-e.weight[0], -e.weight[1])

    def outgoing(self, v: str) -> list[Vec]:
        out = []
        for e in self.incident(v):
            if e.tail == v:
                out.append(e.weight)
            else:
                out.append((-e.weight[0], -e.weight[1]))
        return out


def make_tree(positions, edges, marks, interior=(), boundary=(), finite=()) -> MappedTree:
    tree = MappedTree(
        tuple(sorted(positions.items())),
        tuple(edges),
        tuple(sorted(marks.items())),
        frozenset(interior),
        frozenset(boundary),
        frozenset(finite),
    )
    if tree.problems:
        raise AffineInconsistent("; ".join(tree.problems))
    return tree


def structural_problems(tree: MappedTree) -> list[str]:
    """Structural and affine-consistency failures, empty when well formed."""
    out = []
    pos = tree.pos
    verts = set(pos)
    for e in tree.edges:
        if e.tail not in verts or e.head not in verts:
            out.append(f"edge {e.tail}-{e.head} references unknown vertex")
            continue
        pt, ph = pos[e.tail], pos[e.head]
        if e.length is None:
            if ph is not None:
                out.append(f"infinite edge {e.tail}-{e.head} must end at infinity")
            if pt is None:
                out.append(f"infinite edge {e.tail}-{e.head} must start at a finite point")
        else:
            if e.length <= 0:
                out.append(f"edge {e.tail}-{e.head} has nonpositive length")
            if pt is None or ph is None:
                out.append(f"finite edge {e.tail}-{e.head} has an infinite endpoint")
            else:
                expect = (pt[0] + e.length * e.weight[0], pt[1] + e.length * e.weight[1])
                if expect != ph:
                    out.append(
                        f"edge {e.tail}-{e.head} is affinely inconsistent"
                    )
            if e.weight == (0, 0):
                out.append(f"finite edge {e.tail}-{e.head} has weight zero")
    if len(tree.edges) != len(verts) - 1:
        out.append("graph is not a tree (wrong edge count)")
    else:
        seen = set()
        stack = [next(iter(verts))] if verts else []
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            for e in tree.incident(v):
                o = e.head if e.tail == v else e.tail
                if o in verts:
                    stack.append(o)
        if seen != verts:
            out.append("graph is not connected")
    for label, v in tree.marks:
        if v not in verts:
            out.append(f"mark {label} at unknown vertex")
        elif tree.valency(v) != 1:
            out.append(f"mark {label} must sit at a 1-valent vertex")
    labels = {label for label, _ in tree.marks}
    for name, subset in (("interior", tree.interior), ("boundary", tree.boundary), ("finite", tree.finite)):
        extra = subset - labels
        if extra:
            out.append(f"{name} marks {sorted(extra)} are not marks of the tree")
    return out


BALANCED = "balanced"
BENDING = "bending"
UNBALANCED = "unbalanced"


@dataclass(frozen=True)
class VertexReport:
    vertex: str
    status: str
    deficit: Vec


def validate_balancing(model: ToricModel, tree: MappedTree) -> tuple[VertexReport, ...]:
    """Per-vertex balancing report for vertices of valency > 1.

    A nonzero weight sum parallel to a wall direction is ``bending``.
    """
    reports = []
    for v, p in tree.positions:
        if tree.valency(v) <= 1:
            continue
        s = (0, 0)
        for w in tree.outgoing(v):
            s = (s[0] + w[0], s[1] + w[1])
        if s == (0, 0):
            reports.append(VertexReport(v, BALANCED, s))
        elif is_wall_direction(model, s):
            reports.append(VertexReport(v, BENDING, s))
        else:
            reports.append(VertexReport(v, UNBALANCED, s))
    return tuple(reports)


def spine_decomposition(tree: MappedTree) -> tuple[set[str], list[tuple[str, MappedTree]]]:
    """Split into the convex hull of the marked legs and the attached twigs.

    Returns the spine's vertex set and a list of (attachment vertex, twig);
    each twig is rooted by a mark ``r`` at the attachment vertex.
    """
    pos, edges, inc = tree.pos, tree.edges, tree._incidence
    marked = {v for _, v in tree.marks}

    def other(k: int, v: str) -> str:
        return edges[k].head if edges[k].tail == v else edges[k].tail

    # Peel unmarked vertices of degree <= 1 until the hull of the marks remains.
    degree = {v: sum(1 for k in inc.get(v, ()) if other(k, v) in pos) for v in pos}
    spine = set(pos)
    stack = [v for v in pos if v not in marked and degree[v] <= 1]
    while stack:
        v = stack.pop()
        if v not in spine:
            continue
        spine.discard(v)
        for k in inc.get(v, ()):
            o = other(k, v)
            if o in spine:
                degree[o] -= 1
                if degree[o] <= 1 and o not in marked:
                    stack.append(o)
    twigs = []
    visited: set[str] = set()
    for e in edges:
        if (e.tail in spine) == (e.head in spine) or not (e.tail in pos and e.head in pos):
            continue
        attach, first_out = (e.tail, e.head) if e.tail in spine else (e.head, e.tail)
        if first_out in visited:
            continue
        comp = {first_out}
        stack = [first_out]
        while stack:
            v = stack.pop()
            for k in inc[v]:
                o = other(k, v)
                if o in pos and o not in spine and o not in comp:
                    comp.add(o)
                    stack.append(o)
        visited |= comp
        tw_vertices = comp | {attach}
        tw_edges = sorted(
            {k for v in tw_vertices for k in inc[v] if other(k, v) in tw_vertices}
        )
        twig = MappedTree(
            tuple(sorted((v, pos[v]) for v in tw_vertices)),
            tuple(edges[k] for k in tw_edges),
            (("r", attach),),
            finite=frozenset({"r"}),
        )
        twigs.append((attach, twig))
    return spine, twigs


@dataclass(frozen=True)
class Cylinder:
    """Geometric data of a tropical cylinder: a 2-leg spine with one twig."""

    p1: Vec
    p2: Vec
    bend: Point
    twig_type: tuple[Vec, ...]
    extended: bool = False

    @property
    def leaf_sum(self) -> Vec:
        return (sum(w[0] for w in self.twig_type), sum(w[1] for w in self.twig_type))


def check_primitive(model: ToricModel, cyl: Cylinder) -> None:
    if not cyl.twig_type:
        raise NotPrimitiveCylinder("cylinder has no twig leaves")
    degrees = [norm(model.fan, w) for w in cyl.twig_type]
    if any(d != 1 for d in degrees):
        raise NotPrimitiveCylinder(f"twig leaf degrees {degrees} are not all 1")
    dirs = [primitive_part(w)[0] for w in cyl.twig_type]
    if len(set(dirs)) != len(dirs):
        raise NotPrimitiveCylinder("twig leaf directions are not pairwise distinct")


@dataclass(frozen=True)
class Classification:
    kind: str  # cylinder | twig | spine | tropical_curve | invalid
    reasons: tuple[str, ...] = ()
    cylinder: Cylinder | None = None
    primitive: bool | None = None


def _twig_problems(model: ToricModel, twig: MappedTree, root_label: str = "r") -> list[str]:
    """Failures of the twig clauses: image in the wall set, leaves to the
    exceptional boundary, balancing, only the root finite."""
    out = []
    pos = twig.pos
    root = twig.mark_vertex.get(root_label)
    if root is None:
        return [f"twig has no root mark {root_label!r}"]
    if pos[root] is None:
        out.append("twig root must be finite")
    for v, p in twig.positions:
        if v == root:
            continue
        if twig.valency(v) == 1 and p is not None:
            out.append(f"twig vertex {v} is finite but only the root may be")
    for e in twig.edges:
        a = pos[e.tail]
        if e.weight == (0, 0):
            out.append(f"twig edge {e.tail}-{e.head} has weight zero")
            continue
        if a is not None and det(a, e.weight) != 0:
            out.append(f"twig edge {e.tail}-{e.head} does not lie on a line through the origin")
        if not is_wall_direction(model, e.weight):
            out.append(f"twig edge {e.tail}-{e.head} direction {e.weight} is not a wall direction")
        if e.length is None and model.exceptional_ray(e.weight) is None:
            out.append(
                f"twig leaf toward {e.weight} does not reach an exceptional boundary point"
            )
    for rep in validate_balancing(model, twig):
        if rep.status != BALANCED:
            out.append(f"twig vertex {rep.vertex} is unbalanced (deficit {rep.deficit})")
    return out


def _leaf_weights(twig: MappedTree) -> tuple[Vec, ...]:
    leaves = []
    for e in twig.edges:
        if e.length is None:
            leaves.append(e.weight)
    return tuple(sorted(leaves))


def classify(model: ToricModel, tree: MappedTree) -> Classification:
    """Decide whether the tree is a cylinder, twig, spine, or tropical curve.

    Clause-level failure reasons accompany an ``invalid`` verdict.
    """
    if tree.problems:
        return Classification("invalid", tree.problems)

    cyl_reasons, cyl = _try_cylinder(model, tree)
    if not cyl_reasons:
        primitive = True
        try:
            check_primitive(model, cyl)
        except NotPrimitiveCylinder:
            primitive = False
        return Classification("cylinder", (), cyl, primitive)

    twig_reasons = _try_twig(model, tree)
    if not twig_reasons:
        return Classification("twig", ())

    spine_reasons = _try_spine(model, tree)
    if not spine_reasons:
        return Classification("spine", ())

    curve_reasons = _try_curve(model, tree)
    if not curve_reasons:
        return Classification("tropical_curve", ())

    reasons = tuple(
        f"{kind}: {r}"
        for kind, rs in (
            ("cylinder", cyl_reasons),
            ("twig", twig_reasons),
            ("spine", spine_reasons),
            ("tropical curve", curve_reasons),
        )
        for r in rs
    )
    return Classification("invalid", reasons)


def _try_cylinder(model: ToricModel, tree: MappedTree):
    out: list[str] = []
    marks = tree.mark_vertex
    pos = tree.pos
    leg_labels = [l for l in marks if l not in tree.interior]
    if len(leg_labels) != 2:
        out.append(f"needs exactly two marked spine legs, found {len(leg_labels)}")
    if len(tree.interior) != 1:
        out.append("needs exactly one interior constant leg")
    if out:
        return out, None
    wlabel = next(iter(tree.interior))
    wvert = marks[wlabel]
    wedge, _ = tree.leg(wvert)
    if wedge.weight != (0, 0) or wedge.length is not None:
        out.append("interior leg must be an infinite constant leg")
    spine_verts, twigs = spine_decomposition(tree)
    if len(twigs) != 1:
        out.append(f"needs exactly one twig, found {len(twigs)}")
        return out, None
    attach, twig = twigs[0]
    if pos[attach] is None:
        return out + ["bending vertex must be finite"], None
    tw_problems = _twig_problems(model, twig)
    out.extend(tw_problems)
    # Spine-side weights at the bending vertex.
    spine_sum = (0, 0)
    twig_vertices = {v for v, _ in twig.positions} - {attach}
    for e in tree.incident(attach):
        other = e.head if e.tail == attach else e.tail
        if other in twig_vertices:
            continue
        w = e.weight if e.tail == attach else (-e.weight[0], -e.weight[1])
        spine_sum = (spine_sum[0] + w[0], spine_sum[1] + w[1])
    if spine_sum == (0, 0):
        out.append("bending vertex has balanced spine weights; no bend")
    else:
        if not is_wall_direction(model, spine_sum):
            out.append(f"spine weight sum {spine_sum} at the bend is not parallel to a wall")
        if det(pos[attach], spine_sum) != 0:
            out.append("bending vertex does not lie on the wall it bends along")
    # Full-curve balancing at the bend and plain balancing elsewhere.
    for rep in validate_balancing(model, tree):
        if rep.vertex == attach:
            if rep.status != BALANCED:
                out.append(
                    f"bending vertex fails full-curve balancing (deficit {rep.deficit})"
                )
        elif rep.status != BALANCED:
            out.append(f"vertex {rep.vertex} is unbalanced (deficit {rep.deficit})")
    # The constant leg must attach to the spine away from the bend.
    wattach = wedge.tail if wedge.head == wvert else wedge.head
    if wattach == attach:
        out.append("interior constant leg attaches at the bending vertex")
    if wattach in twig_vertices:
        out.append("interior constant leg must attach to the spine")
    # Spine legs: both marked, nonzero weights.
    legs = {}
    extended = False
    for label in leg_labels:
        e, w = tree.leg(marks[label])
        if w == (0, 0):
            out.append(f"spine leg {label} has weight zero")
        legs[label] = w
        if e.length is None:
            extended = True
    if out:
        return out, None
    p1, p2 = (legs[l] for l in sorted(legs))
    cyl = Cylinder(p1, p2, pos[attach], _leaf_weights(twig), extended)
    return out, cyl


def _try_twig(model: ToricModel, tree: MappedTree) -> list[str]:
    out = []
    labels = set(tree.mark_vertex)
    if len(labels) != 1:
        out.append("twig must carry exactly one root mark")
        return out
    root_label = next(iter(labels))
    out.extend(_twig_problems(model, tree, root_label))
    return out


def _try_spine(model: ToricModel, tree: MappedTree) -> list[str]:
    out = []
    pos = tree.pos
    marks = tree.mark_vertex
    marked_vertices = set(marks.values())
    for v, p in tree.positions:
        if tree.valency(v) == 1 and p is None and v not in marked_vertices:
            out.append(f"unmarked infinite leg at {v}; spines meet the boundary only at marks")
    for label in tree.interior:
        e = tree.incident(marks[label])[0]
        if e.weight != (0, 0) or e.length is not None:
            out.append(f"interior mark {label} must sit on an infinite constant leg")
    for label in tree.boundary:
        e, w = tree.leg(marks[label])
        d_ok = w != (0, 0) and model.fan.ray_index(w) is not None
        if e.length is not None or not d_ok:
            out.append(f"boundary mark {label} must be an infinite leg along a fan ray")
    for label in tree.finite:
        v = marks[label]
        if pos[v] is None:
            out.append(f"finite mark {label} must sit at a finite point")
    for rep in validate_balancing(model, tree):
        if rep.status == UNBALANCED:
            out.append(f"vertex {rep.vertex} is unbalanced (deficit {rep.deficit})")
        elif rep.status == BENDING:
            v = rep.vertex
            if pos[v] is None or det(pos[v], rep.deficit) != 0:
                out.append(f"vertex {v} bends away from its wall")
    return out


def _try_curve(model: ToricModel, tree: MappedTree) -> list[str]:
    out = []
    pos = tree.pos
    marks = tree.mark_vertex
    marked_vertices = set(marks.values())
    for label, v in tree.marks:
        e = tree.incident(v)[0]
        if e.length is not None:
            out.append(f"marked leg {label} must be infinite in an extended curve")
    for label in tree.interior:
        e = tree.incident(marks[label])[0]
        if e.weight != (0, 0):
            out.append(f"interior mark {label} must be a constant leg")
    for label in tree.boundary:
        _, w = tree.leg(marks[label])
        if w == (0, 0) or model.fan.ray_index(w) is None:
            out.append(f"boundary mark {label} must point along a fan ray")
    for v, p in tree.positions:
        if tree.valency(v) == 1 and p is None and v not in marked_vertices:
            _, w = tree.leg(v)
            if w == (0, 0):
                out.append(f"unmarked constant leg at {v}")
                continue
            if model.exceptional_ray(w) is None:
                out.append(
                    f"unmarked leg at {v} does not reach an exceptional boundary point"
                )
        if tree.valency(v) == 2 and p is not None and v not in marked_vertices:
            ws = tree.outgoing(v)
            if ws[0] == (-ws[1][0], -ws[1][1]):
                out.append(f"vertex {v} is an unmarked 2-valent vertex; curve is not simple")
    for rep in validate_balancing(model, tree):
        if rep.status != BALANCED:
            out.append(f"vertex {rep.vertex} is unbalanced (deficit {rep.deficit})")
    return out


def extension_class(model: ToricModel, x: Point, p: Vec) -> cls.CurveClass:
    """Curve class picked up by extending affinely from x to infinity with slope p.

    Each transverse crossing of a ray rho contributes |det(u_rho, p)| times the
    class of D_{t,rho}. Raises PathThroughOrigin when the open path hits 0.
    """
    if p == (0, 0):
        raise ZeroVector("extension slope must be nonzero")
    if x == (0, 0):
        raise PathThroughOrigin("extension starts at the origin")
    # x + t p = s u_rho solves to t = det(u, x) / d and s = det(p, x) / d with
    # d = det(p, u); X is x times a positive integer, so the signs of t and s
    # are those of det(u, X) * d and det(p, X) * d.
    X = (x[0].numerator * x[1].denominator, x[1].numerator * x[0].denominator)
    coeffs = [0] * model.m
    for k, u in enumerate(model.fan.rays):
        d = det(p, u)
        if d == 0 or det(u, X) * d <= 0:
            continue
        s = det(p, X) * d
        if s == 0:
            raise PathThroughOrigin("extension path passes through the origin")
        if s > 0:
            coeffs[k] = abs(d)
    return cls.make_class(model.fan.rays, coeffs)


def unimodular_complement(fan, w: Vec) -> Vec:
    """The canonical complement: |det(w, w')| = 1 with smallest fan norm,
    ties broken by lexicographic order."""
    d, _ = primitive_part(w)
    c0 = _complement(d)
    best = None
    for base in (c0, (-c0[0], -c0[1])):
        for k in range(-6 - 2 * norm(fan, c0), 7 + 2 * norm(fan, c0)):
            cand = (base[0] + k * d[0], base[1] + k * d[1])
            key = (norm(fan, cand), cand)
            if best is None or key < best:
                best = key
    return best[1]


def canonical_spine_split(model: ToricModel, w0: Vec) -> tuple[Vec, Vec]:
    """Deterministic split of -w0 into two nonzero leg slopes p1 + p2 = -w0,
    preferring slopes along fan rays."""
    return _spine_split(model.fan.rays, (w0[0], w0[1]))


@lru_cache(maxsize=256)
def _spine_split(rays: tuple[Vec, ...], w0: Vec) -> tuple[Vec, Vec]:
    """``canonical_spine_split`` keyed on the ray order, which fixes the ray
    indices (Fan equality does not)."""
    fan = Fan(rays)
    neg = (-w0[0], -w0[1])
    if neg == (0, 0):
        raise ZeroVector("leaf weights sum to zero; no bend direction")
    i, a, b = cone_coordinates(fan, neg)
    u, v = fan.ray(i), fan.ray(i + 1)
    if a > 0 and b > 0:
        return (a * u[0], a * u[1]), (b * v[0], b * v[1])
    # -w0 lies on a ray; legs parallel to the wall line would extend through
    # the origin, so split off a transverse unimodular complement instead.
    w2 = unimodular_complement(fan, w0)
    p1 = (neg[0] - w2[0], neg[1] - w2[1])
    return p1, w2


def spine_skeleton(
    cyl: Cylinder, attach: Fraction, leg_length: Fraction | None = None, suffix: str = ""
):
    """The spine of a cylinder as tree parts, every name ending in suffix.

    Leg 1 runs from the bend b through a1, where the interior constant leg w
    sits at distance attach, to v1; leg 2 runs from b to v2; marks w, 1 and 2.
    The legs are infinite when leg_length is None. Returns (positions, edges,
    marks, root): the twig grows from root, which is b for one leaf and
    otherwise a vertex o at the origin, joined to b by the leaf sum.
    """
    b, a1, w, v1, v2, o = (name + suffix for name in ("b", "a1", "w", "v1", "v2", "o"))
    bend, p1, p2 = cyl.bend, cyl.p1, cyl.p2
    at = (bend[0] + attach * p1[0], bend[1] + attach * p1[1])
    positions: dict[str, Point | None] = {b: bend, a1: at, w: None, v1: None, v2: None}
    edges = [Edge(b, a1, p1, attach), Edge(a1, w, (0, 0), None)]
    if leg_length is None:
        edges += [Edge(a1, v1, p1, None), Edge(b, v2, p2, None)]
    else:
        rest = leg_length - attach
        positions[v1] = (at[0] + rest * p1[0], at[1] + rest * p1[1])
        positions[v2] = (bend[0] + leg_length * p2[0], bend[1] + leg_length * p2[1])
        edges += [Edge(a1, v1, p1, rest), Edge(b, v2, p2, leg_length)]
    marks = {w: w, "1" + suffix: v1, "2" + suffix: v2}
    if len(cyl.twig_type) == 1:
        return positions, edges, marks, b
    w0 = cyl.leaf_sum
    positions[o] = (Fraction(0), Fraction(0))
    lam = -bend[0] / Fraction(w0[0]) if w0[0] else -bend[1] / Fraction(w0[1])
    edges.append(Edge(b, o, w0, lam))
    return positions, edges, marks, o


def cylinder_tree(model: ToricModel, cyl: Cylinder) -> MappedTree:
    """Materialize a cylinder as a mapped tree with marks 1, 2 (spine legs)
    and w (interior constant leg on leg 1). The legs are infinite when the
    cylinder is extended and have length 1/4 otherwise; w sits at distance
    1/2, or halfway along leg 1."""
    leg_length = None if cyl.extended else Fraction(1, 4)
    attach = Fraction(1, 2) if cyl.extended else leg_length / 2
    positions, edges, marks, root = spine_skeleton(cyl, attach, leg_length)
    for s, wleaf in enumerate(cyl.twig_type, start=1):
        positions[f"t{s}"] = None
        edges.append(Edge(root, f"t{s}", wleaf, None))
    boundary = frozenset({"1", "2"}) if cyl.extended else frozenset()
    finite = frozenset() if cyl.extended else frozenset({"1", "2"})
    return make_tree(positions, edges, marks, {"w"}, boundary, finite)
