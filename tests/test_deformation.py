import copy
import gc
import json
import pickle
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcyl.classes import zero_class
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
    AbstractTree,
    build_deformation,
    degeneration_path,
    member_measures,
    refine_for_slopes,
    replay_count,
    replay_induction,
    stable_domain,
)
from tropcyl.errors import AnchorOrderViolation
from tropcyl.model import F1_RAYS, P1XP1_RAYS, build_model, cubic_model
from tropcyl.tropical import Cylinder, Edge, classify, extension_class, make_tree

F = Fraction
HEXAGON_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
MODELS = (
    cubic_model(),
    build_model(P1XP1_RAYS, (1, 2, 1, 1)),
    build_model(F1_RAYS, (1, 2, 1, 1)),
    build_model(HEXAGON_RAYS, (1, 2, 0, 1, 2, 1)),
)


def _cyl(model, twig):
    return build_cylinder(model, twig, extended=True)


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
    l2 = fam.by_name["L2"]
    unmarked_infinite = [
        e for e in l2.edges
        if l2.pos[e.head] is None and e.head not in {v for _, v in l2.marks}
    ]
    assert unmarked_infinite == []


def test_anchor_order_violation(cubic):
    """The anchor g of a one-leaf cylinder sits at parameter 1 on the leaf ray;
    a bend at or past it is refused."""
    for x in (1, 3):
        cyl = Cylinder((0, 1), (-1, -1), (F(x), F(0)), ((1, 0),), extended=True)
        with pytest.raises(AnchorOrderViolation, match=f"on leaf 1 must exceed {x}$"):
            build_deformation(cubic, cyl)


def test_default_anchor_parameters(cubic):
    """Each leaf's anchors sit at lattice parameters 1 and 2 on its ray, in the
    L members and in the elementary members alike."""
    fam = build_deformation(cubic, _cyl(cubic, ((1, 0), (0, 1))))
    pos = fam.by_name["L1"].pos
    assert (pos["vg1"], pos["vt1"]) == ((1, 0), (2, 0))
    assert (pos["vg2"], pos["vt2"]) == ((0, 1), (0, 2))
    n2 = fam.by_name["N2"].pos
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
    for k in (1, 2):
        m, n = fam.by_name[f"M{k}"], fam.by_name[f"N{k}"]
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
    assert list(supp.keys()) == [cylinder_count(cubic, cyl).shift]


@pytest.mark.parametrize("model", MODELS)
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
            expect[f"L{k}"] = {cc.shift: 1}
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
    """B loses its unmarked leg to the hull, X joins two infinite edges and D
    joins an infinite edge to a finite one: all three are smoothed away,
    finite lengths adding and any infinite length making the sum infinite,
    while the marked vertices A, C and E keep their legs."""
    positions = {
        "A": (F(0), F(0)), "B": (F(1), F(0)), "C": (F(3), F(0)),
        "D": (F(3), F(1)), "E": (F(4), F(1)),
        "a": None, "c": None, "e": None, "z": None, "X": None,
    }
    edges = [
        Edge("A", "a", (0, 0)),
        Edge("A", "B", (1, 0), F(1)),
        Edge("B", "z", (0, 1)),
        Edge("B", "C", (1, 0), F(2)),
        Edge("C", "c", (0, 0)),
        Edge("C", "X", (1, -1)),
        Edge("D", "X", (1, 1)),
        Edge("D", "E", (1, 0), F(1)),
        Edge("E", "e", (0, 0)),
    ]
    tree = make_tree(positions, edges, {"a": "a", "c": "c", "e": "e"})
    dom = stable_domain(tree)
    assert dom.legs == (("a", "A"), ("c", "C"), ("e", "E"))
    assert sorted((sorted((x, y)), ln) for x, y, ln in dom.edges) == [
        (["A", "C"], F(3)),
        (["C", "E"], None),
    ]


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
def test_build_deformation_checks_each_member_once(monkeypatch, model):
    """make_tree runs the structural check and classify reuses it, so each
    member is checked once; every member is still classified."""
    from tropcyl import deformation, tropical

    checked = _counting_calls(monkeypatch, tropical, "structural_problems")
    classified = _counting_calls(monkeypatch, deformation, "classify")
    fam = build_deformation(model, _cyl(model, ((1, 0), (0, 1))))
    members = [tree for _, tree in fam.curves]
    assert len(members) == 3 * fam.t + 1
    assert sorted(id(args[0]) for args in checked) == sorted(map(id, members))
    assert sorted(id(args[1]) for args in classified) == sorted(map(id, members))


def test_degeneration_path_builds_each_stable_domain_once(monkeypatch, p1xp1):
    from tropcyl import deformation

    fam = build_deformation(p1xp1, _cyl(p1xp1, ((1, 0), (0, 1), (0, -1))))
    built = _counting_calls(monkeypatch, deformation, "stable_domain")
    for k in range(1, fam.t + 1):
        for r in (None, F(1), F(0)):
            assert degeneration_path(fam, k, r).coincide == (r == 0)
    assert fam.t == 3 and len(built) <= 3 * fam.t + 1


def test_family_views_are_read_only(cubic):
    fam = build_deformation(cubic, _cyl(cubic, ((-1, -1),)))
    assert fam.by_name is fam.by_name and fam.domains is fam.domains
    for view in (fam.by_name, fam.domains):
        with pytest.raises(TypeError):
            view["L1"] = None
    assert copy.deepcopy(fam) == fam and pickle.loads(pickle.dumps(fam)) == fam
