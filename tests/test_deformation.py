import copy
import gc
import json
import pickle
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from conftest import smooth_models
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropcyl.classes import exceptional_class, zero_class
from tropcyl.counting import (
    ElementaryCountTable,
    build_cylinder,
    contributing_classes,
    convolve,
    cylinder_count,
    default_table,
    elementary_cylinder,
    elementary_extension_shift,
)
from tropcyl.deformation import (
    _ATTACH_CANDIDATES,
    AbstractTree,
    _elementary_members,
    _pick_attach,
    build_deformation,
    degeneration_path,
    family_L,
    glue_domains,
    member_measures,
    refine_for_slopes,
    replay_count,
    replay_induction,
    stable_domain,
)
from tropcyl.errors import (
    AffineInconsistent,
    AnchorOnWall,
    AnchorOrderViolation,
    NotATropicalCurve,
    ZeroVector,
)
from tropcyl.model import F1_RAYS, P1XP1_RAYS, build_model, cubic_model
from tropcyl.tropical import (
    Classification,
    Cylinder,
    Edge,
    classify,
    cylinder_tree,
    extension_class,
    make_tree,
    spine_decomposition,
    tree_class,
)

F = Fraction
HEXAGON_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
MODELS = (
    cubic_model(),
    build_model(P1XP1_RAYS, (1, 2, 1, 1)),
    build_model(F1_RAYS, (1, 2, 1, 1)),
    build_model(HEXAGON_RAYS, (1, 2, 0, 1, 2, 1)),
)
# F2, whose one-leaf cylinder at (0, -1) has a nonzero spine extension shift.
F2 = build_model(((1, 0), (0, 1), (-1, 2), (0, -1)), (1, 1, 1, 1))


def _cyl(model, twig):
    return build_cylinder(model, twig, extended=True)


def _draw_cylinder(model, data):
    """A canonical extended cylinder of up to three distinct exceptional
    leaves of the model; the draw is rejected when the leaves sum to zero."""
    dirs = sorted(model.exceptional_directions)
    assume(dirs)
    t = data.draw(st.integers(1, min(3, len(dirs))))
    try:
        return _cyl(model, tuple(data.draw(st.permutations(dirs))[:t]))
    except ZeroVector:
        assume(False)


@pytest.fixture
def fresh_elementary_memo():
    """An empty elementary-member memo, emptied again afterwards, so that no
    tree built while a test patches what the memo calls outlives the test."""
    _elementary_members.cache_clear()
    yield
    _elementary_members.cache_clear()


def test_build_t2_family_counts(cubic):
    fam = build_deformation(cubic, _cyl(cubic, ((1, 0), (0, 1))))
    names = [name for name, _ in fam.curves]
    assert sum(1 for n in names if n.startswith("L")) == 3
    assert sum(1 for n in names if n.startswith("M")) == 2
    assert sum(1 for n in names if n.startswith("N")) == 2


def test_build_t1_family(cubic):
    fam = build_deformation(cubic, _cyl(cubic, ((-1, -1),)))
    assert {name for name, _ in fam.curves} == {"L1", "L2", "M1", "N1"}
    # The final family carries no twig legs.
    l2 = dict(fam.curves)["L2"]
    unmarked_infinite = [
        e for e in l2.edges
        if l2.pos[e.head] is None and e.head not in {v for _, v in l2.marks}
    ]
    assert unmarked_infinite == []


def test_anchor_order_violation(cubic, p1xp1):
    """The anchors of a one-leaf cylinder sit at the first integer parameter
    past its bend c, and the next: a bend at or past parameter 1 on the leaf
    ray moves them out to floor(c) + 1 and floor(c) + 2, and the family still
    coincides at r = 0. A bend off the ray's line is refused."""
    for model, c in product((cubic, p1xp1), (F(1), F(3), F(7, 2), F(10))):
        cyl = Cylinder((0, 1), (-1, -1), (c, F(0)), ((1, 0),), extended=True)
        fam = build_deformation(model, cyl)
        n = int(c) + 1
        assert [name for name, _ in fam.curves] == ["L1", "L2", "M1", "N1"]
        l1 = dict(fam.curves)["L1"]
        assert (l1.pos["vg1"], l1.pos["vt1"]) == ((n, 0), (n + 1, 0))
        assert {e.length for e in l1.edges if e.head == "vg1"} == {n - c}
        assert degeneration_path(fam, 1, F(0)).coincide
    cyl = Cylinder((0, 1), (-1, -1), (F(1, 2), F(1, 3)), ((1, 0),), extended=True)
    with pytest.raises(AnchorOrderViolation, match=r"does not lie on the ray through \(1, 0\)$"):
        build_deformation(cubic, cyl)


def test_opposite_leaves_raise_a_library_error(p1xp1):
    """Leaves that sum to zero give no bend parameter: the tree builders
    refuse the cylinder with a library error, not a division by zero."""
    cyl = Cylinder((0, 1), (0, -1), (F(1), F(1)), ((1, 0), (-1, 0)), extended=True)
    for build in (cylinder_tree, build_deformation):
        with pytest.raises(AffineInconsistent, match="off the line of the leaf sum"):
            build(p1xp1, cyl)


def test_default_anchor_parameters(cubic):
    """Each leaf's anchors sit at lattice parameters 1 and 2 on its ray, in the
    L members and in the elementary members alike."""
    fam = build_deformation(cubic, _cyl(cubic, ((1, 0), (0, 1))))
    pos = dict(fam.curves)["L1"].pos
    assert (pos["vg1"], pos["vt1"]) == ((1, 0), (2, 0))
    assert (pos["vg2"], pos["vt2"]) == ((0, 1), (0, 2))
    n2 = dict(fam.curves)["N2"].pos
    assert (n2["vg1p"], n2["vt1p"]) == ((0, 1), (0, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_anchor_on_its_ray_adds_no_class(data):
    """Extending from c * u_i along u_i crosses no ray, for every c > 0, so a
    forgotten leaf adds no extension class wherever its anchors sit on its ray."""
    model = data.draw(st.sampled_from(MODELS))
    u = data.draw(st.sampled_from(model.fan.rays))
    c = data.draw(st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6))
    assert extension_class(model, (c * u[0], c * u[1]), u) == zero_class(model)


def test_elementary_members(cubic):
    """M_k and N_k are L_2 and L_1 of the elementary cylinder for leaf k, their
    names suffixed by p: M_k forgets the leaf and is a spine, N_k keeps both
    anchor marks interior and is a tropical curve."""
    cyl = _cyl(cubic, ((1, 0), (0, 1)))
    fam = build_deformation(cubic, cyl)
    slopes = [cyl.p1, cyl.p2]
    for w in cyl.twig_type:
        e = elementary_cylinder(cubic, cubic.fan.ray_index(w))
        slopes += [e.p1, e.p2]
    refined = refine_for_slopes(cubic, slopes)
    labels = {"wp", "1p", "2p", "g1p", "t1p"}
    curves = dict(fam.curves)
    for k in (1, 2):
        m, n = curves[f"M{k}"], curves[f"N{k}"]
        assert set(m.mark_vertex) == set(n.mark_vertex) == labels
        assert (m.interior, m.boundary) == ({"wp", "g1p"}, {"1p", "2p", "t1p"})
        assert (n.interior, n.boundary) == ({"wp", "g1p", "t1p"}, {"1p", "2p"})
        assert classify(refined, m).kind == "spine"
        assert classify(refined, n).kind == "tropical_curve"


def test_replay_contributing_class(cubic):
    cyl = _cyl(cubic, ((1, 0), (0, 1)))
    _, beta, _ = contributing_classes(cubic, cyl)[0]
    report = replay_induction(cubic, cyl, beta)
    assert report.ok, "\n".join(report.lines())
    names = [c.name for c in report.checks]
    assert names.count("splitting-1") == 1 and names.count("splitting-2") == 1
    assert "endpoint-initial" in names and "endpoint-final" in names


def test_replay_t3(p1xp1):
    cyl = _cyl(p1xp1, ((1, 0), (0, 1), (0, -1)))
    _, beta, _ = contributing_classes(p1xp1, cyl)[0]
    report = replay_induction(p1xp1, cyl, beta)
    assert report.ok, "\n".join(report.lines())


def test_replay_is_table_agnostic(cubic):
    base = default_table(cubic)
    skewed = ElementaryCountTable(
        tuple(
            (pair, tuple((c, n * (2 + k)) for c, n in counts))
            for k, (pair, counts) in enumerate(base.entries)
        )
    )
    cyl = _cyl(cubic, ((1, 0), (-1, -1)))
    _, beta, _ = contributing_classes(cubic, cyl, skewed)[0]
    report = replay_induction(cubic, cyl, beta, skewed)
    assert report.ok, "\n".join(report.lines())


def test_family_support_endpoint(cubic):
    cyl = _cyl(cubic, ((1, 0), (0, 1)))
    supp = member_measures(cylinder_count(cubic, cyl, default_table(cubic)))["L3"]
    assert len(supp) == 1
    assert list(supp.values()) == [1]
    assert list(supp.keys()) == [cylinder_count(cubic, cyl).base]


@pytest.mark.parametrize("model", MODELS + (F2,))
def test_member_measures_follow_one_rule(monkeypatch, model):
    """Every member is its cylinder's spine extension class convolved with the
    leaf measures it keeps, left to right: L_k keeps leaves k .. t of the
    cylinder, M_k and N_k are L_2 and L_1 of the elementary cylinder for leaf
    k. The L members take t convolutions and the N members t more."""
    from tropcyl import deformation

    calls = _counting_calls(monkeypatch, deformation, "convolve")
    twigs = [
        twig
        for t in (1, 2, 3)
        for twig in combinations(model.exceptional_directions, t)
        if (sum(w[0] for w in twig), sum(w[1] for w in twig)) != (0, 0)
    ]
    for twig in twigs:
        cc = cylinder_count(model, _cyl(model, twig))
        t = len(cc.comps)
        calls.clear()
        supp = deformation.member_measures(cc)
        assert len(calls) == 2 * t
        expect = {}
        for k in range(1, t + 2):
            expect[f"L{k}"] = {cc.base: 1}
            for leaf in cc.measures[k - 1:]:
                expect[f"L{k}"] = convolve(expect[f"L{k}"], leaf)
        for k, (i, leaf) in enumerate(zip(cc.comps, cc.measures), start=1):
            expect[f"M{k}"] = {elementary_extension_shift(model, i): 1}
            expect[f"N{k}"] = convolve(expect[f"M{k}"], leaf)
        assert supp == expect


@pytest.mark.parametrize("name", ["V", "L0", "L4", "M0", "M", "N3", "X1", "l1"])
def test_family_support_unknown_name(cubic, name):
    cyl = _cyl(cubic, ((1, 0), (0, 1)))
    with pytest.raises(KeyError):
        member_measures(cylinder_count(cubic, cyl))[name]


def test_replay_reports_a_corrupted_member(capsys, tmp_path, monkeypatch, cubic):
    """A member measure off by a factor of 2 fails its splitting identity:
    the report prints both sides term by term and ``verify`` exits 5."""
    from tropcyl import cli, deformation

    real = deformation.member_measures

    def doubled_m1(cc):
        supp = real(cc)
        supp["M1"] = {c: 2 * n for c, n in supp["M1"].items()}
        return supp

    monkeypatch.setattr(deformation, "member_measures", doubled_m1)
    cyl = _cyl(cubic, ((1, 0), (0, 1)))
    report = replay_count(cylinder_count(cubic, cyl), contributing_classes(cubic, cyl)[0][1])
    assert not report.ok
    failed = [line for line in report.lines() if line.startswith("FAIL")]
    term = r"dD \[-?\d+(, -?\d+)*\]( E\d\d:-?\d+)* count \d+"
    assert len(failed) == 1
    assert re.fullmatch(
        rf"FAIL splitting-1: lhs \{{{term}(, {term})*\}} != rhs \{{{term}(, {term})*\}}",
        failed[0],
    ), failed[0]
    assert " count 2" in failed[0].split(" != ")[0]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"twig_type": [[1, 0], [0, 1]]}))
    assert cli.main(["verify", str(spec)]) == 5
    assert "error: splitting-1: lhs {dD [" in capsys.readouterr().err


def test_replay_reports_a_corrupted_initial_member(capsys, tmp_path, monkeypatch, cubic):
    """L_1 .. L_t and N_t off by a factor of 2 still satisfy every splitting
    identity; only the endpoints see it. endpoint-initial compares L1 with
    the summed listing, and ``verify`` exits 5 on it."""
    from tropcyl import cli, deformation

    real = deformation.member_measures

    def doubled(cc):
        supp = real(cc)
        t = len(cc.comps)
        for name in [f"L{k}" for k in range(1, t + 1)] + [f"N{t}"]:
            supp[name] = {c: 2 * n for c, n in supp[name].items()}
        return supp

    monkeypatch.setattr(deformation, "member_measures", doubled)
    cyl = _cyl(cubic, ((1, 0), (0, 1)))
    report = replay_count(cylinder_count(cubic, cyl), contributing_classes(cubic, cyl)[0][1])
    failed = [c.name for c in report.checks if not c.ok]
    assert failed == ["endpoint-initial", "closed-form"]
    line = next(line for line in report.lines() if "endpoint-initial" in line)
    assert line.startswith("FAIL endpoint-initial: lhs {dD [") and " count 2" in line
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"twig_type": [[1, 0], [0, 1]]}))
    assert cli.main(["verify", str(spec)]) == 5
    assert capsys.readouterr().err.startswith("error: endpoint-initial: lhs {dD [")


class TestDegenerationPath:
    def test_branches_coincide_at_zero(self, cubic):
        fam = build_deformation(cubic, _cyl(cubic, ((1, 0), (0, 1))))
        step = degeneration_path(fam, 1, F(0))
        assert step.coincide

    def test_branches_differ_at_positive_length(self, cubic):
        fam = build_deformation(cubic, _cyl(cubic, ((1, 0), (0, 1))))
        step = degeneration_path(fam, 1, F(3, 2))
        assert not step.coincide

    def test_infinite_length(self, cubic):
        fam = build_deformation(cubic, _cyl(cubic, ((1, 0), (0, 1))))
        step = degeneration_path(fam, 2, None)
        assert not step.coincide

    def test_leg_count_is_2t_plus_7(self, cubic, p1xp1):
        for model, twig in (
            (cubic, ((1, 0), (0, 1))),
            (p1xp1, ((1, 0), (0, 1), (0, -1))),
        ):
            fam = build_deformation(model, _cyl(model, twig))
            t = fam.t
            for k in range(1, t + 1):
                step = degeneration_path(fam, k, F(1))
                assert len(step.first.legs) == 2 * t + 7
                assert len(step.second.legs) == 2 * t + 7


def test_replay_computes_extension_classes_once(p1xp1, monkeypatch):
    """With the elementary data cached, a replay extends the two spine legs
    of the cylinder and nothing else: at most 2 extension classes."""
    from tropcyl import counting, tropical

    cyl = _cyl(p1xp1, ((1, 0), (0, 1), (0, -1)))
    beta = contributing_classes(p1xp1, cyl)[0][1]
    assert replay_induction(p1xp1, cyl, beta).ok  # fills counting._elementary_data
    real = tropical.extension_class
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (tropical, counting):
        monkeypatch.setattr(module, "extension_class", counted)
    for cls_ in (None, beta):
        calls.clear()
        assert replay_induction(p1xp1, cyl, cls_).ok
        assert len(calls) <= 2


def test_canonical_leaves_no_cyclic_garbage(p1xp1):
    """Encoding a stable domain builds no reference cycle, so its tables are
    freed on return rather than at the next collection."""
    fam = build_deformation(p1xp1, _cyl(p1xp1, ((1, 0), (0, 1), (0, -1))))
    assert len(fam.domains) == 3 * fam.t + 1
    gc.collect()
    gc.disable()
    try:
        assert degeneration_path(fam, 1, F(0)).coincide
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stable_domain_smooths_unmarked_two_valent_vertices():
    """B loses its unmarked leg to the hull, and X and D each join two finite
    edges: all three are smoothed away, their lengths adding, while the
    marked vertices A, C and E keep their legs."""
    positions = {
        "A": (F(0), F(0)), "B": (F(1), F(0)), "C": (F(3), F(0)),
        "X": (F(4), F(-1)), "D": (F(3), F(1)), "E": (F(4), F(1)),
        "a": None, "c": None, "e": None, "z": None,
    }
    edges = [
        Edge("A", "a", (0, 0)),
        Edge("A", "B", (1, 0), F(1)),
        Edge("B", "z", (0, 1)),
        Edge("B", "C", (1, 0), F(2)),
        Edge("C", "c", (0, 0)),
        Edge("C", "X", (1, -1), F(1)),
        Edge("D", "X", (1, -2), F(1)),
        Edge("D", "E", (1, 0), F(1)),
        Edge("E", "e", (0, 0)),
    ]
    tree = make_tree(positions, edges, {"a": "a", "c": "c", "e": "e"})
    dom = stable_domain(tree)
    assert dom.legs == (("a", "A"), ("c", "C"), ("e", "E"))
    assert sorted((sorted((x, y)), ln) for x, y, ln in dom.edges) == [
        (["A", "C"], F(3)),
        (["C", "E"], F(3)),
    ]


def test_stable_domain_reads_a_leg_written_from_its_end():
    """A marked leg written from the mark's vertex toward the hull is
    attached to the same vertex as one written the other way."""
    positions = {"A": (F(0), F(0)), "B": (F(1), F(0)), "a": (F(-1), F(0)), "b": None}
    rest = [Edge("A", "B", (1, 0), F(1)), Edge("B", "b", (1, 0))]
    for leg in (Edge("A", "a", (-1, 0), F(1)), Edge("a", "A", (1, 0), F(1))):
        dom = stable_domain(make_tree(positions, [leg, *rest], {"a": "a", "b": "b"}, finite=("a",)))
        assert dom.legs == (("a", "A"), ("b", "B")) and dom.edges == (("A", "B", F(1)),)


def test_no_attach_point_at_the_origin():
    """The first candidate puts the attach point on the origin, so the next
    one is taken."""
    q0, q1 = _ATTACH_CANDIDATES[:2]
    assert _pick_attach((-q0, F(0)), (1, 0), ()) == q1


def _stable_domain_by_rescan(tree):
    """Reference: the hull and legs as stable_domain takes them, then one
    splice at a time, rebuilding the degree table after each."""
    hull, _ = spine_decomposition(tree)
    endpoint = {v: label for label, v in tree.mark_vertex.items()}
    legs, edges = {}, []
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
        degree = {}
        for idx, (a, b, _ln) in enumerate(edges):
            degree.setdefault(a, []).append(idx)
            degree.setdefault(b, []).append(idx)
        for v, inc in degree.items():
            if v in marked or len(inc) != 2:
                continue
            (a1, b1, l1), (a2, b2, l2) = edges[inc[0]], edges[inc[1]]
            o1 = a1 if b1 == v else b1
            o2 = a2 if b2 == v else b2
            for idx in sorted(inc, reverse=True):
                edges.pop(idx)
            edges.append((o1, o2, None if l1 is None or l2 is None else l1 + l2))
            changed = True
            break
    return AbstractTree(tuple(edges), tuple(sorted(legs.items())))


@settings(max_examples=40, deadline=None)
@given(smooth_models(), st.data())
def test_stable_domain_matches_the_rescan_loop(model, data):
    """On every member of a random family, the one-pass smoothing gives the
    domain the rescan loop gives, up to the canonical encoding."""
    dirs = sorted(model.exceptional_directions)
    assume(dirs)
    t = data.draw(st.integers(1, min(3, len(dirs))))
    twig = tuple(data.draw(st.permutations(dirs))[:t])
    try:
        fam = build_deformation(model, _cyl(model, twig))
    except ZeroVector:
        assume(False)
    for name, tree in fam.curves:
        got, want = stable_domain(tree), _stable_domain_by_rescan(tree)
        assert got.legs == want.legs, name
        assert got.canonical() == want.canonical(), name


def test_glue_refuses_shared_vertex_names(cubic):
    """Gluing needs disjoint vertex names: an L member glued to itself, or to
    a domain with a vertex named mid, is refused."""
    fam = build_deformation(cubic, _cyl(cubic, ((1, 0), (0, 1))))
    l1, m1 = fam.domains["L1"], fam.domains["M1"]
    with pytest.raises(ValueError, match="share or use vertex names"):
        glue_domains(l1, l1, "g1", "g1", F(1))
    mid = AbstractTree((("mid", "x", F(1)),), (("g1p", "x"),))
    with pytest.raises(ValueError, match=r"\['mid'\]"):
        glue_domains(l1, mid, "g1", "g1p", F(0))
    assert len(glue_domains(l1, m1, "g1", "g1p", F(0)).legs) == len(l1.legs) + len(m1.legs) - 1


def _all_roots_form(tree):
    """The minimum encoding over every root: the reference canonical form."""
    adj, legs_at = {}, {}
    for a, b, ln in tree.edges:
        adj.setdefault(a, []).append((b, ln))
        adj.setdefault(b, []).append((a, ln))
    for label, v in tree.legs:
        legs_at.setdefault(v, []).append(label)

    def enc(v, parent):
        kids = [
            ("edge", (0, ln) if ln is not None else (1,), enc(o, v))
            for o, ln in adj.get(v, ()) if o != parent
        ]
        return tuple(("leg", label) for label in sorted(legs_at.get(v, ()))) + tuple(sorted(kids))

    return min(enc(v, None) for v in sorted(tree.vertices))


@st.composite
def _labelled_trees(draw):
    """A random tree with distinct leg labels, as edges (child, parent, length)."""
    n = draw(st.integers(1, 7))
    lengths = st.sampled_from((None, F(1), F(2), F(1, 2)))
    edges = [(f"v{i}", f"v{draw(st.integers(0, i - 1))}", draw(lengths)) for i in range(1, n)]
    labels = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5, unique=True))
    legs = [(label, f"v{draw(st.integers(0, n - 1))}") for label in labels]
    return edges, legs


@settings(max_examples=100, deadline=None)
@given(_labelled_trees(), _labelled_trees(), st.data())
def test_canonical_agrees_with_all_roots_form(tree, unrelated, data):
    """Rooting at the smallest leg label decides equality as the minimum over
    every root does, on relabelled and re-rooted copies and on unrelated trees."""
    edges, legs = tree
    names = sorted({v for e in edges for v in e[:2]} | {v for _, v in legs})
    perm = dict(zip(names, data.draw(st.permutations(names))))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    copy_edges = [
        (perm[y], perm[x], ln) if flip else (perm[x], perm[y], ln)
        for (x, y, ln), flip in zip(edges, flips)
    ]
    copy_edges = data.draw(st.permutations(copy_edges))
    copy_legs = [(label, perm[v]) for label, v in legs]
    if len(legs) > 1 and data.draw(st.booleans()):
        # Swap the vertices of two labels: usually a different tree.
        (la, va), (lb, vb) = copy_legs[:2]
        copy_legs[:2] = [(la, vb), (lb, va)]
    first = AbstractTree(tuple(edges), tuple(sorted(legs)))
    for other in (
        AbstractTree(tuple(copy_edges), tuple(sorted(copy_legs))),
        AbstractTree(tuple(unrelated[0]), tuple(sorted(unrelated[1]))),
    ):
        same = first.canonical() == other.canonical()
        assert same == (_all_roots_form(first) == _all_roots_form(other))


def _counting_calls(monkeypatch, module, name):
    """Count the calls of module.name, a function the code under test looks
    up in that module."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("model", MODELS[:3])
def test_build_deformation_checks_each_member_once(monkeypatch, fresh_elementary_memo, model):
    """make_tree runs the structural check, classify reuses it and the
    elementary members are built and classified once per (model, ray), so
    each distinct member is checked and classified once: a first build
    checks and classifies all 3t + 1 members, and a second build, of a
    cylinder that shares the leaf (0, 1), only its L members and the
    elementary members of its new leaf."""
    from tropcyl import deformation, tropical

    checked = _counting_calls(monkeypatch, tropical, "structural_problems")
    classified = _counting_calls(monkeypatch, deformation, "classify")
    new = min(set(model.exceptional_directions) - {(1, 0), (0, 1)})
    seen = set()
    for twig, want_checked in ((((1, 0), (0, 1)), 7), (((0, 1), new), 5)):
        checked.clear()
        classified.clear()
        fam = build_deformation(model, _cyl(model, twig))
        members = [tree for _, tree in fam.curves]
        fresh = [
            tree for name, tree in fam.curves
            if name[0] == "L" or fam.comps[int(name[1:]) - 1] not in seen
        ]
        assert len(members) == 3 * fam.t + 1 and len(fresh) == want_checked
        assert sorted(id(args[0]) for args in checked) == sorted(map(id, fresh))
        assert sorted(id(args[1]) for args in classified) == sorted(map(id, fresh))
        seen.update(fam.comps)


def test_degeneration_path_builds_each_stable_domain_once(monkeypatch, fresh_elementary_memo, p1xp1):
    """The L members' domains are built once per family; the elementary
    members' come with the memo entry the build filled."""
    from tropcyl import deformation

    fam = build_deformation(p1xp1, _cyl(p1xp1, ((1, 0), (0, 1), (0, -1))))
    built = _counting_calls(monkeypatch, deformation, "stable_domain")
    for k in range(1, fam.t + 1):
        for r in (None, F(1), F(0)):
            assert degeneration_path(fam, k, r).coincide == (r == 0)
    assert fam.t == 3 and [id(args[0]) for args in built] == [
        id(tree) for name, tree in fam.curves if name[0] == "L"
    ]


@settings(max_examples=30, deadline=None)
@given(smooth_models(), st.data())
def test_a_warm_elementary_memo_builds_the_same_family(model, data):
    """A family built over a warm memo equals one built over an empty memo,
    member by member and domain by domain, and its degeneration paths agree;
    the memo's M and N trees are L_2 and L_1 of the elementary cylinder."""
    cyl = _draw_cylinder(model, data)
    _elementary_members.cache_clear()
    cold = build_deformation(model, cyl)
    cold_domains = dict(cold.domains)
    warm = build_deformation(model, cyl)
    assert warm == cold
    warm_curves = dict(warm.curves)
    for name, tree in cold.curves:
        assert warm_curves[name] == tree
        assert warm.domains[name] == cold_domains[name] == stable_domain(tree)
    for k in range(1, cold.t + 1):
        for r in (None, F(1), F(0)):
            assert degeneration_path(warm, k, r).coincide == degeneration_path(cold, k, r).coincide
    for i in cold.comps:
        elem, m, n, *_ = _elementary_members(model, i)
        assert elem == replace(elementary_cylinder(model, i), extended=True)
        assert family_L(model, elem, "p") == ((i,), (n, m))


@settings(max_examples=60, deadline=None)
@given(smooth_models(), st.data())
def test_each_member_classifies_as_over_the_family_fan(model, data):
    """The kind the build uses for each member, an L member's over the fan
    refined by its cylinder's slopes and an elementary member's from the
    memo, equals its kind over the family fan, refined by the cylinder's
    slopes and every elementary slope."""
    cyl = _draw_cylinder(model, data)
    fam = build_deformation(model, cyl)
    elems = [_elementary_members(model, i) for i in fam.comps]
    family_fan = refine_for_slopes(model, [cyl.p1, cyl.p2] + [p for e, *_ in elems for p in (e.p1, e.p2)])
    own_fan = refine_for_slopes(model, (cyl.p1, cyl.p2))
    used = {name: classify(own_fan, tree).kind for name, tree in fam.curves if name[0] == "L"}
    for k, (_e, _m, _n, m_kind, n_kind, *_) in enumerate(elems, start=1):
        used.update({f"M{k}": m_kind, f"N{k}": n_kind})
    assert used == {name: classify(family_fan, tree).kind for name, tree in fam.curves}


@settings(max_examples=60, deadline=None)
@given(smooth_models(), st.data())
def test_each_step_coincides_exactly_at_zero(model, data):
    """Every step of every family's degeneration path coincides at r = 0 and
    at no other of r = None, 1, 1/2: the encoding keys lengths by numerator
    and denominator, so 1/2 and 1 stay apart."""
    fam = build_deformation(model, _draw_cylinder(model, data))
    for k in range(1, fam.t + 1):
        for r in (None, F(1), F(1, 2), F(0)):
            assert degeneration_path(fam, k, r).coincide == (r == 0)


def test_degeneration_path_refuses_a_step_out_of_range(cubic):
    fam = build_deformation(cubic, _cyl(cubic, ((1, 0), (0, 1))))
    for k in (0, fam.t + 1):
        with pytest.raises(KeyError, match=f"step index {k} out of range 1..2"):
            degeneration_path(fam, k, F(0))


def test_a_member_that_classifies_wrong_is_refused(monkeypatch, fresh_elementary_memo, cubic):
    """build_deformation raises when classify does not give a member its
    expected kind. The memo starts and ends empty, so the verdicts the
    patched classify gives the elementary members do not outlive the test."""
    from tropcyl import deformation

    monkeypatch.setattr(deformation, "classify", lambda model, tree: Classification("invalid"))
    with pytest.raises(
        NotATropicalCurve, match="^family member L1 classifies as invalid, expected tropical_curve$"
    ):
        build_deformation(cubic, _cyl(cubic, ((1, 0), (0, 1))))


def test_no_attach_point_off_the_leaf_walls(cubic):
    """With the bend on the line of p1, and p1 along the leaf's wall, every
    candidate attach point lies on that wall line."""
    cyl = Cylinder((1, 0), (-2, 0), (F(1), F(0)), ((1, 0),), extended=True)
    for build in (lambda: family_L(cubic, cyl), lambda: build_deformation(cubic, cyl)):
        with pytest.raises(AnchorOnWall, match="^no attach point off the leaf wall lines was found$"):
            build()


def test_family_domains_are_built_once_and_keep_equality(cubic):
    """``domains`` is computed once; a family with it filled copies and
    pickles to an equal family with equal domains."""
    fam = build_deformation(cubic, _cyl(cubic, ((-1, -1),)))
    assert fam.domains is fam.domains
    for twin in (copy.deepcopy(fam), pickle.loads(pickle.dumps(fam))):
        assert twin == fam and twin.domains == fam.domains


@settings(max_examples=60, deadline=None)
@given(smooth_models(), st.data())
def test_a_forgotten_leaf_adds_its_exceptional_class(model, data):
    """For any components j_s, ``tree_class`` of the L members of a canonical
    cylinder steps by E_{i(k) j_k}: L_k pairs the leaf leg lf_s of each leaf
    it keeps, and L_{k+1} keeps leaf k's t-mark as a boundary leg along
    u_{i(k)}, which adds e_{i(k)} to dD in place of the pair. L_1 carries
    the class of the cylinder's own tree, its leaves t_s so paired."""
    cyl = _draw_cylinder(model, data)
    comps, members = family_L(model, cyl)
    pairs = [(i, data.draw(st.integers(1, model.multiplicity(i)))) for i in comps]
    classes = [
        tree_class(model, tree, {f"lf{s}": ij for s, ij in enumerate(pairs, start=1) if s >= k})
        for k, tree in enumerate(members, start=1)
    ]
    leaves = {f"t{s}": ij for s, ij in enumerate(pairs, start=1)}
    assert classes[0] == tree_class(model, cylinder_tree(model, cyl), leaves)
    for k, (i, j) in enumerate(pairs):
        assert classes[k + 1] == classes[k] + exceptional_class(model, i, j)
