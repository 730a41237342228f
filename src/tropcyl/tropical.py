"""Mapped trees, spines, twigs, and tropical cylinders.

A mapped tree is a metric tree together with an affine map to the plane:
vertices carry rational positions (or None when at infinity), edges carry
integral weight vectors and positive rational lengths (None for infinite
edges). Marked legs are 1-valent vertices addressed by labels, partitioned
into interior (I), boundary (B), and finite (F) marks. A tree's cached
views (``pos``, ``mark_vertex``, ``deficits``) are plain dicts shared by
every reader and must not be written.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import classes as cls
from .errors import AffineInconsistent, NonRepresentable, PathThroughOrigin, ZeroVector
from .lattice import Point, Vec, cone_coordinates, cone_of, det, dot, norm, primitive_part, vadd
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
    def pos(self) -> dict[str, Point | None]:
        return dict(self.positions)

    @cached_property
    def mark_vertex(self) -> dict[str, str]:
        return dict(self.marks)

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
    def deficits(self) -> dict[str, Vec]:
        """Vertex of valency > 1 -> its nonzero outgoing weight sum, in the
        order of ``positions``: the vertices where the tree does not balance."""
        out = {}
        for v, _p in self.positions:
            if self.valency(v) > 1 and (s := leaf_sum(self.outgoing(v))) != (0, 0):
                out[v] = s
        return out

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """``structural_problems`` of this tree, computed once."""
        return tuple(structural_problems(self))

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
            elif not _lands(pt, e.length, e.weight, ph):
                out.append(f"edge {e.tail}-{e.head} is affinely inconsistent")
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
    for v, p in tree.positions:
        if p is None and tree.valency(v) != 1:
            out.append(f"vertex {v} at infinity must be 1-valent")
    first_mark: dict[str, str] = {}
    kinds = (("interior", tree.interior), ("boundary", tree.boundary), ("finite", tree.finite))
    for label, v in tree.marks:
        if len(named := [name for name, subset in kinds if label in subset]) > 1:
            out.append(f"mark {label} has more than one kind: {', '.join(named)}")
        if v not in verts:
            out.append(f"mark {label} at unknown vertex")
        elif tree.valency(v) != 1:
            out.append(f"mark {label} must sit at a 1-valent vertex")
        if v in first_mark:
            out.append(f"marks {first_mark[v]} and {label} share vertex {v}")
        first_mark.setdefault(v, label)
    labels = {label for label, _ in tree.marks}
    for name, subset in kinds:
        extra = subset - labels
        if extra:
            out.append(f"{name} marks {sorted(extra)} are not marks of the tree")
    return out


def _lands(p: Point, length: Fraction, w: Vec, q: Point) -> bool:
    """Whether p + length * w = q, both coordinates cross-multiplied by the
    positive denominators as ints, with no Fraction built."""
    (x, y), (qx, qy), n, d = p, q, length.numerator, length.denominator
    dx, dy = x.denominator * d, y.denominator * d
    return (
        (x.numerator * d + n * w[0] * x.denominator) * qx.denominator == qx.numerator * dx
        and (y.numerator * d + n * w[1] * y.denominator) * qy.denominator == qy.numerator * dy
    )


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
    # A vertex queued twice has no neighbor left in the hull when it comes up
    # again, so its second pass changes nothing.
    stack = [v for v in pos if v not in marked and degree[v] <= 1]
    while stack:
        v = stack.pop()
        spine.discard(v)
        for k in inc.get(v, ()):
            o = other(k, v)
            if o in spine:
                degree[o] -= 1
                if degree[o] <= 1 and o not in marked:
                    stack.append(o)
    # A peeled component meets the hull by at most one edge: a second would
    # close a cycle through the hull, and no vertex on a cycle is peeled. So
    # each edge leaving the hull starts its own twig.
    twigs = []
    for e in edges:
        if (e.tail in spine) == (e.head in spine) or not (e.tail in pos and e.head in pos):
            continue
        attach, first_out = (e.tail, e.head) if e.tail in spine else (e.head, e.tail)
        comp = {first_out}
        stack = [first_out]
        while stack:
            v = stack.pop()
            for k in inc[v]:
                o = other(k, v)
                if o in pos and o not in spine and o not in comp:
                    comp.add(o)
                    stack.append(o)
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
        return leaf_sum(self.twig_type)

    @property
    def balanced(self) -> bool:
        """Whether the spine legs balance the twig: p1 + p2 = -(leaf sum)."""
        return vadd(vadd(self.p1, self.p2), self.leaf_sum) == (0, 0)

    @property
    def bend_param(self) -> Fraction | None:
        """The scalar c with bend = c * (leaf sum), or None when the bend is
        off that line or the leaves sum to zero."""
        w0, (x, y) = self.leaf_sum, self.bend
        if w0 == (0, 0) or det(self.bend, w0) != 0:
            return None
        return Fraction(x) / w0[0] if w0[0] else Fraction(y) / w0[1]

    def spine_problem(self) -> tuple[str | None, str] | None:
        """The first clause, in the order checked below, that this cylinder's
        spine fails, as (the Cylinder field it concerns, None for the balance;
        message), or None."""
        w0, legs = self.leaf_sum, (("p1", self.p1), ("p2", self.p2))
        neg = (-w0[0], -w0[1])
        for name, p in legs:
            if p == (0, 0):
                return name, "spine slope must be nonzero"
        if w0 == (0, 0):
            return "twig_type", "leaf weights sum to zero; no bend direction"
        if not self.balanced:
            return None, f"spine slopes must sum to -(leaf sum) = {neg}"
        c = self.bend_param
        if len(self.twig_type) == 1 and not c:
            return "bend", f"bend must be a nonzero point on the line of the leaf {w0}"
        if len(self.twig_type) > 1 and (c is None or c >= 0):
            return "bend", f"bend must be a positive multiple of -(leaf sum) = {neg}"
        for name, p in legs:
            if det(self.bend, p) == 0 and dot(self.bend, p) < 0:
                return name, "spine leg must not run through the origin"
        return None


def leaf_sum(twig_type) -> Vec:
    """The sum of weight vectors: a twig type's leaves, or a vertex's edges."""
    return (sum(w[0] for w in twig_type), sum(w[1] for w in twig_type))


def check_primitive(model: ToricModel, cyl: Cylinder) -> str | None:
    """The first primitivity clause the twig fails, as a message, or None."""
    if not cyl.twig_type:
        return "cylinder has no twig leaves"
    degrees = [norm(model.fan, w) for w in cyl.twig_type]
    if any(d != 1 for d in degrees):
        return f"twig leaf degrees {degrees} are not all 1"
    dirs = [primitive_part(w)[0] for w in cyl.twig_type]
    if len(set(dirs)) != len(dirs):
        return "twig leaf directions are not pairwise distinct"
    return None


@dataclass(frozen=True)
class Classification:
    kind: str  # cylinder | twig | spine | tropical_curve | invalid
    reasons: tuple[str, ...] = ()
    cylinder: Cylinder | None = None
    primitive: bool | None = None


def _twig_problems(model: ToricModel, twig: MappedTree) -> list[str]:
    """Failures of the twig clauses: image in the wall set, leaves to the
    exceptional boundary, balancing, only the root finite. The root is the
    twig's one mark."""
    if len(twig.mark_vertex) != 1:
        return ["twig must carry exactly one root mark"]
    out = []
    pos = twig.pos
    [root] = twig.mark_vertex.values()
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
    for v, s in twig.deficits.items():
        out.append(f"twig vertex {v} is unbalanced (deficit {s})")
    return out


def classify(model: ToricModel, tree: MappedTree) -> Classification:
    """Decide whether the tree is a cylinder, twig, spine, or tropical curve.

    The four checks run in that order, and the first that passes gives the
    kind. Clause-level failure reasons of all four accompany an ``invalid``
    verdict.
    """
    if tree.problems:
        return Classification("invalid", tree.problems)
    cyl_reasons, cyl = _try_cylinder(model, tree)
    if not cyl_reasons:
        return Classification("cylinder", (), cyl, check_primitive(model, cyl) is None)
    failed = [("cylinder", cyl_reasons)]
    for kind, check in (("twig", _twig_problems), ("spine", _try_spine), ("tropical_curve", _try_curve)):
        reasons = check(model, tree)
        if not reasons:
            return Classification(kind, ())
        failed.append((kind.replace("_", " "), reasons))
    return Classification("invalid", tuple(f"{kind}: {r}" for kind, rs in failed for r in rs))


def _try_cylinder(model: ToricModel, tree: MappedTree):
    """Failures of the cylinder clauses and, when there are none, the
    cylinder. The spine's own clauses are ``Cylinder.spine_problem``'s. No
    clause reads the bend: where the tree balances, the spine weights there
    sum to minus the twig's root edge, which the twig clauses keep a nonzero
    wall direction on a line through the origin."""
    out: list[str] = []
    marks = tree.mark_vertex
    leg_labels = sorted(l for l in marks if l not in tree.interior)
    if len(leg_labels) != 2:
        out.append(f"needs exactly two marked spine legs, found {len(leg_labels)}")
    if len(tree.interior) != 1:
        out.append("needs exactly one interior constant leg")
    if out:
        return out, None
    wvert = marks[next(iter(tree.interior))]
    wedge, _ = tree.leg(wvert)
    if wedge.weight != (0, 0) or wedge.length is not None:
        out.append("interior leg must be an infinite constant leg")
    _, twigs = spine_decomposition(tree)
    if len(twigs) != 1:
        out.append(f"needs exactly one twig, found {len(twigs)}")
        return out, None
    attach, twig = twigs[0]
    out.extend(_twig_problems(model, twig))
    # The twig clause reports the twig's vertices; this reports the rest.
    for v, s in tree.deficits.items():
        if v == attach or v not in twig.pos:
            out.append(f"vertex {v} is unbalanced (deficit {s})")
    # The constant leg is on the spine, as each mark has its own vertex; it
    # must attach away from the bend.
    wattach = wedge.tail if wedge.head == wvert else wedge.head
    if wattach == attach:
        out.append("interior constant leg attaches at the bending vertex")
    if out:
        return out, None
    (e1, p1), (e2, p2) = (tree.leg(marks[l]) for l in leg_labels)
    leaves = tuple(sorted(e.weight for e in twig.edges if e.length is None))
    extended = e1.length is None or e2.length is None
    cyl = Cylinder(p1, p2, tree.pos[attach], leaves, extended)
    problem = cyl.spine_problem()
    return ([problem[1]], None) if problem else ([], cyl)


def _try_spine(model: ToricModel, tree: MappedTree) -> list[str]:
    out = []
    pos = tree.pos
    marked_vertices = set(tree.mark_vertex.values())
    for v, p in tree.positions:
        if p is None and v not in marked_vertices:
            out.append(f"unmarked infinite leg at {v}; spines meet the boundary only at marks")
    for label, v in tree.marks:
        e, w = tree.leg(v)
        if label in tree.interior and (w != (0, 0) or e.length is not None):
            out.append(f"interior mark {label} must sit on an infinite constant leg")
        if label in tree.boundary and (
            e.length is not None or w == (0, 0) or model.fan.ray_index(w) is None
        ):
            out.append(f"boundary mark {label} must be an infinite leg along a fan ray")
        if label in tree.finite and pos[v] is None:
            out.append(f"finite mark {label} must sit at a finite point")
    for v, s in tree.deficits.items():
        if not is_wall_direction(model, s):
            out.append(f"vertex {v} is unbalanced (deficit {s})")
        elif det(pos[v], s) != 0:
            out.append(f"vertex {v} bends away from its wall")
    return out


def _try_curve(model: ToricModel, tree: MappedTree) -> list[str]:
    out = []
    marked_vertices = set(tree.mark_vertex.values())
    for label, v in tree.marks:
        e, w = tree.leg(v)
        if e.length is not None:
            out.append(f"marked leg {label} must be infinite in an extended curve")
        if label in tree.interior and w != (0, 0):
            out.append(f"interior mark {label} must be a constant leg")
        if label in tree.boundary and (w == (0, 0) or model.fan.ray_index(w) is None):
            out.append(f"boundary mark {label} must point along a fan ray")
    for v, p in tree.positions:
        if p is None and v not in marked_vertices:
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
    for v, s in tree.deficits.items():
        out.append(f"vertex {v} is unbalanced (deficit {s})")
    return out


def extension_class(model: ToricModel, x: Point, p: Vec) -> cls.CurveClass:
    """Curve class picked up by extending affinely from x to infinity with slope p.

    contrib = ``classes.direction_contrib`` is linear on each cone (u_i,
    u_{i+1}), by L_i: a u_i + b u_{i+1} -> a e_i + b e_{i+1} for any signs.
    The class is the kink contrib(p) - L_i(p) on the cone i that the path
    x + eps p enters, in d-coordinates: each ray u_k it crosses adds
    |det(u_k, p)| D_{t,k}. Raises PathThroughOrigin when the path hits 0.
    """
    if p == (0, 0):
        raise ZeroVector("extension slope must be nonzero")
    if x == (0, 0):
        raise PathThroughOrigin("extension starts at the origin")
    # X is x times a positive integer: the same cone, without Fractions.
    X = (x[0].numerator * x[1].denominator, x[1].numerator * x[0].denominator)
    if det(X, p) == 0 and dot(X, p) < 0:
        raise PathThroughOrigin("extension path passes through the origin")
    fan = model.fan
    i = cone_of(fan, X)
    if det(fan.ray(i), X) == 0 and det(fan.ray(i), p) < 0:
        i = i - 1 or fan.m  # from the ray u_i the path enters the cone before
    d = list(cls.direction_contrib(fan, p))
    d[i - 1] -= det(p, fan.ray(i + 1))
    d[i % fan.m] -= det(fan.ray(i), p)
    return cls.CurveClass(fan.rays, tuple(d), ())


def tree_class(model: ToricModel, tree: MappedTree, pairs) -> cls.CurveClass:
    """The class the tree carries: ``pairs`` maps a vertex at infinity to
    (i, j), and a leg of weight w ending there meets E_ij content(w) times
    (one pair's entries add up); every other infinite nonconstant leg adds
    ``classes.direction_contrib`` of w to dD. Raises NonRepresentable for a
    key of ``pairs`` that ends no infinite nonconstant leg, and when
    sum_i d_i u_i != 0, as for an unbalanced tree or a pair off its leg's ray."""
    dD, dE, unpaired = [0] * model.m, {}, set(pairs)
    for v, p in tree.positions:
        w = (0, 0) if p is not None else tree.leg(v)[1]
        if w != (0, 0) and v in pairs:
            dE[pairs[v]] = dE.get(pairs[v], 0) + primitive_part(w)[1]
            unpaired.discard(v)
        elif w != (0, 0):
            dD = [a + b for a, b in zip(dD, cls.direction_contrib(model.fan, w))]
    if unpaired:
        raise NonRepresentable(f"pairs key {min(unpaired)!r} ends no infinite nonconstant leg")
    return cls.class_from_profile(model, dD, dE)


def canonical_spine_split(model: ToricModel, w0: Vec) -> tuple[Vec, Vec]:
    """Deterministic split of -w0 into two nonzero leg slopes p1 + p2 = -w0,
    preferring slopes along fan rays."""
    fan = model.fan
    neg = (-w0[0], -w0[1])
    if neg == (0, 0):
        raise ZeroVector("leaf weights sum to zero; no bend direction")
    i, a, b = cone_coordinates(fan, neg)
    u, v = fan.ray(i), fan.ray(i + 1)
    if a > 0 and b > 0:
        return (a * u[0], a * u[1]), (b * v[0], b * v[1])
    # -w0 lies on the ray u; legs parallel to the wall line would extend
    # through the origin, so split off a transverse unimodular complement
    # instead: the next ray counterclockwise, det(u, v) = 1 in a smooth fan.
    # Unlike an order on coordinates, this choice commutes with SL2(Z).
    return (neg[0] - v[0], neg[1] - v[1]), v


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
    c = cyl.bend_param
    if c is None:
        raise AffineInconsistent(f"bend {bend} is off the line of the leaf sum {cyl.leaf_sum}")
    positions[o] = (Fraction(0), Fraction(0))
    edges.append(Edge(b, o, cyl.leaf_sum, -c))
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
