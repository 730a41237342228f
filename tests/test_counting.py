import gc
from dataclasses import replace
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from conftest import TWELVE_RAYS, exceptional_class, smooth_models
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropcyl.classes import (
    CurveClass,
    class_from_profile,
    dE_sum,
    divisor_class,
    intersect,
    make_class,
    zero_class,
)
from tropcyl import classes, counting
from tropcyl.config import parse_cylinder_spec
from tropcyl.counting import (
    CYLINDER_MEMO_SIZE,
    ElementaryCountTable,
    build_cylinder,
    contributing_classes,
    count_primitive_cylinder,
    count_spine,
    cylinder_count,
    default_table,
    elementary_class,
    elementary_cylinder,
    elementary_extension_shift,
    measure,
    spine_extension_shift,
    splitting_measure,
    splitting_sum,
    twig_components,
)
from tropcyl.deformation import member_measures, replay_count
from tropcyl.errors import (
    ComponentOutOfRange,
    ModelMismatch,
    NotPrimitiveCylinder,
    OutOfPrimitiveScope,
    TropcylError,
    ZeroVector,
)
from tropcyl.lattice import cone_of, det
from tropcyl.model import P1XP1_RAYS, P2_RAYS, build_model
from tropcyl.tropical import Cylinder, cylinder_tree, leaf_sum, tree_class


def test_default_table_supports_one_class_per_pair(cubic):
    table = default_table(cubic)
    assert list(table.by_pair) == list(cubic.exceptional_pairs)
    for (i, j), counts in table.by_pair.items():
        assert counts == ((elementary_class(cubic, i, j), 1),)


def test_table_lookup_miss(cubic):
    """A pair lists only its own elementary class, and a pair past l_i lists nothing."""
    by_pair = default_table(cubic).by_pair
    listed = {c for c, _n in by_pair[(3, 1)]}
    assert elementary_class(cubic, 3, 2) not in listed
    assert make_class(cubic.fan.rays, (0, 0, 0)) not in listed
    assert (3, cubic.multiplicity(3) + 1) not in by_pair


def test_elementary_class_profile(cubic):
    beta = elementary_class(cubic, 3, 1)
    prof = intersect(cubic, beta)
    assert prof.dE_map == {(3, 1): 1}


def test_contributing_single_leaf(cubic):
    cyl = build_cylinder(cubic, ((-1, -1),))
    entries = contributing_classes(cubic, cyl)
    assert len(entries) == 2
    assert all(n == 1 for _, _, n in entries)
    b1, b2 = entries[0][1], entries[1][1]
    assert intersect(cubic, b1).dD == intersect(cubic, b2).dD
    assert intersect(cubic, b1).dE_map == {(3, 1): 1}
    assert intersect(cubic, b2).dE_map == {(3, 2): 1}


def test_contributing_two_leaves(cubic):
    cyl = build_cylinder(cubic, ((1, 0), (0, 1)))
    entries = contributing_classes(cubic, cyl)
    assert len(entries) == 4
    assert all(n == 1 for _, _, n in entries)


def test_contributing_single_component():
    m = build_model(P2_RAYS, (1, 0, 0))
    cyl = build_cylinder(m, ((1, 0),))
    assert len(contributing_classes(m, cyl)) == 1


def test_count_matches_contributing_entry(cubic):
    cyl = build_cylinder(cubic, ((-1, -1),))
    for _, beta, n in contributing_classes(cubic, cyl):
        assert count_primitive_cylinder(cubic, cyl, beta) == n


def test_count_zero_off_support(cubic):
    cyl = build_cylinder(cubic, ((-1, -1),))
    beta = contributing_classes(cubic, cyl)[0][1] + divisor_class(cubic.fan, 1)
    assert count_primitive_cylinder(cubic, cyl, beta) == 0
    assert splitting_sum(cubic, cyl, beta) == 0


def test_repeated_leaf_rejected(cubic):
    cyl = Cylinder((1, 0), (1, 0), (Fraction(-1), Fraction(0)), ((1, 0), (1, 0)), extended=True)
    with pytest.raises(NotPrimitiveCylinder):
        count_primitive_cylinder(cubic, cyl, make_class(cubic.fan.rays, (0, 0, 0)))


def test_out_of_scope_class(cubic):
    cyl = build_cylinder(cubic, ((-1, -1),))
    beta = class_from_profile(cubic, (2, 2, 0), {(3, 1): 2})
    with pytest.raises(OutOfPrimitiveScope):
        count_primitive_cylinder(cubic, cyl, beta)


def test_a_negative_exceptional_intersection_is_out_of_scope(cubic):
    """A class that meets E_31 -1 times is outside the primitive scope, for a
    query and a spine query alike."""
    cyl = build_cylinder(cubic, ((-1, -1),))
    beta = class_from_profile(cubic, (0, 0, 1), {(3, 1): -1})
    for query, c in ((count_primitive_cylinder, cyl), (count_spine, replace(cyl, twig_type=()))):
        with pytest.raises(OutOfPrimitiveScope, match="multiplicity > 1 or < 0"):
            query(cubic, c, beta)


def test_scope_checked_before_primitivity(cubic):
    """A class meeting E_31 twice on a cylinder with a repeated leaf is out of
    scope before the cylinder is found not primitive."""
    cyl = Cylinder((1, 0), (1, 0), (Fraction(-1), Fraction(0)), ((1, 0), (1, 0)), extended=True)
    beta = class_from_profile(cubic, (2, 2, 0), {(3, 1): 2})
    with pytest.raises(OutOfPrimitiveScope):
        count_primitive_cylinder(cubic, cyl, beta)


def test_one_intersection_profile_per_query(cubic, monkeypatch):
    """A single-class query checks the class's scope once, through one
    ``intersect`` call, and ``CylinderCount.count`` still checks it."""
    calls = []
    monkeypatch.setattr("tropcyl.classes.intersect", lambda *a: calls.append(a) or intersect(*a))
    cyl = build_cylinder(cubic, ((-1, -1),))
    _, beta, n = contributing_classes(cubic, cyl)[0]
    spine = Cylinder(cyl.p1, cyl.p2, cyl.bend, (), cyl.extended)
    for query in (count_primitive_cylinder, count_spine):
        calls.clear()
        assert query(cubic, spine if query is count_spine else cyl, beta) == n
        assert len(calls) == 1, query.__name__
    with pytest.raises(OutOfPrimitiveScope):
        cylinder_count(cubic, cyl).count(class_from_profile(cubic, (2, 2, 0), {(3, 1): 2}))


def test_oracle_equality_three_leaves(p1xp1):
    cyl = build_cylinder(p1xp1, ((1, 0), (0, 1), (0, -1)))
    entries = contributing_classes(p1xp1, cyl)
    assert len(entries) == 2
    for _, beta, n in entries:
        assert n == 1
        assert count_primitive_cylinder(p1xp1, cyl, beta) == splitting_sum(p1xp1, cyl, beta) == 1


def test_extension_invariance(cubic):
    """The infinitesimal count at beta equals the extended count at
    beta + the spine extension shift."""
    inf = build_cylinder(cubic, ((1, 0), (0, 1)), extended=False)
    ext = build_cylinder(cubic, ((1, 0), (0, 1)), extended=True)
    shift = spine_extension_shift(cubic, ext)
    for _, beta_ext, n in contributing_classes(cubic, ext):
        assert count_primitive_cylinder(cubic, inf, beta_ext - shift) == n


def test_splitting_measure_at_the_cylinder_level(cubic):
    """The oracle keys an extended cylinder's classes with the spine shift and
    an infinitesimal one's without it."""
    inf = build_cylinder(cubic, ((1, 0), (0, 1)), extended=False)
    ext = build_cylinder(cubic, ((1, 0), (0, 1)), extended=True)
    shift = spine_extension_shift(cubic, ext)
    listed = {beta: n for _, beta, n in contributing_classes(cubic, ext)}
    assert len(listed) == 4
    assert splitting_measure(cubic, ext) == listed
    assert splitting_measure(cubic, inf) == {beta - shift: n for beta, n in listed.items()}


def test_oracle_leaves_no_cyclic_garbage(p1xp1):
    """The oracle's enumeration builds no reference cycle, so what it lists
    is freed on return rather than at the next collection."""
    cyl = build_cylinder(p1xp1, ((1, 0), (0, 1), (0, -1)), extended=True)
    beta = contributing_classes(p1xp1, cyl)[0][1]
    gc.collect()
    gc.disable()
    try:
        assert splitting_sum(p1xp1, cyl, beta) == 1
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_twig_type_permutation_invariance(cubic):
    a = build_cylinder(cubic, ((1, 0), (0, 1)))
    b = build_cylinder(cubic, ((0, 1), (1, 0)))
    va = sorted((intersect(cubic, beta).dE, n) for _, beta, n in contributing_classes(cubic, a))
    vb = sorted((intersect(cubic, beta).dE, n) for _, beta, n in contributing_classes(cubic, b))
    assert va == vb


SL2_SMALL = [
    ((a, b), (c, d)) for a, b, c, d in product(range(-3, 4), repeat=4) if a * d - b * c == 1
]


def _act(A, v):
    return (A[0][0] * v[0] + A[0][1] * v[1], A[1][0] * v[0] + A[1][1] * v[1])


@settings(deadline=None, max_examples=100)
@given(smooth_models(), st.sampled_from(SL2_SMALL), st.booleans(), st.data())
def test_the_canonical_cylinder_commutes_with_sl2(model, A, extended, data):
    """For A in SL2(Z), the canonical cylinder of the transported twig type on
    the transported model is the transported cylinder: the spine split uses
    no order on coordinates. Reflections (det A = -1) reverse the cyclic
    order of the rays and are not covered."""
    dirs = model.exceptional_directions
    assume(dirs)
    t = data.draw(st.integers(1, min(3, len(dirs))))
    twig = tuple(data.draw(st.permutations(dirs))[:t])
    try:
        cyl = build_cylinder(model, twig, extended)
    except ZeroVector:
        assume(False)
    moved = build_model(tuple(_act(A, u) for u in model.fan.rays), model.blowups)
    assert build_cylinder(moved, tuple(_act(A, w) for w in twig), extended) == Cylinder(
        _act(A, cyl.p1), _act(A, cyl.p2), _act(A, cyl.bend), tuple(_act(A, w) for w in twig), extended
    )


def _measure_profiles(model, cyl):
    """The listing and the splitting measure of a cylinder under the default
    table, each as the sorted (dD, dE, count) profiles of its classes."""
    table = default_table(model)
    out = []
    for supp in (cylinder_count(model, cyl, table).listed, splitting_measure(model, cyl, table)):
        profiles = ((intersect(model, c), n) for c, n in supp.items())
        out.append(sorted((prof.dD, prof.dE, n) for prof, n in profiles))
    return out


@settings(deadline=None, max_examples=100)
@given(smooth_models(), st.sampled_from(SL2_SMALL), st.booleans(), st.data())
def test_counts_commute_with_sl2(model, A, extended, data):
    """For A in SL2(Z), the canonical cylinder of the transported twig type on
    the transported model has the original's listing and splitting measure
    under the default table, as multisets of intersection profiles. The ray
    order is kept, so profiles map index for index."""
    dirs = model.exceptional_directions
    assume(dirs)
    t = data.draw(st.integers(1, min(3, len(dirs))))
    twig = tuple(data.draw(st.permutations(dirs))[:t])
    try:
        cyl = build_cylinder(model, twig, extended)
    except ZeroVector:
        assume(False)
    moved = build_model(tuple(_act(A, u) for u in model.fan.rays), model.blowups)
    moved_cyl = build_cylinder(moved, tuple(_act(A, w) for w in twig), extended)
    assert _measure_profiles(moved, moved_cyl) == _measure_profiles(model, cyl)


def _entered_piece(model, x, p):
    """L(p) for the linear piece L of ``direction_contrib`` on the cone that
    the path x + eps p enters, found by ``cone_of`` at half the first ray
    crossing: a u_i + b u_{i+1} -> a e_i + b e_{i+1}, for any signs."""
    fan = model.fan
    crossings = [det(u, x) / Fraction(det(p, u)) for u in fan.rays if det(p, u)]
    eps = min((t for t in crossings if t > 0), default=Fraction(1)) / 2
    i = cone_of(fan, (x[0] + eps * p[0], x[1] + eps * p[1]))
    out = [0] * model.m
    out[i - 1] += det(p, fan.ray(i + 1))
    out[i % model.m] += det(fan.ray(i), p)
    return out


def _kinks(model, cyl):
    """g(cyl): the entered pieces of the two spine legs, summed."""
    return [a + b for a, b in zip(*(_entered_piece(model, cyl.bend, p) for p in (cyl.p1, cyl.p2)))]


@settings(deadline=None, max_examples=60)
@given(smooth_models(), st.data())
def test_the_criterion_6_defect_is_a_difference_of_kinks(model, data):
    """Criterion 6 asks that every class listed for an extended cylinder V
    meet the boundary as V's legs do. What holds on every model is weaker:
    the leg profile, the dD of ``tree_class`` on V's tree with the class's
    leaf pairs, minus the class's dD is g(V) - sum_s g(E_s), where E_s
    is leaf s's elementary cylinder and g adds, over a cylinder's two spine
    legs, the linear piece of ``direction_contrib`` on the cone the leg
    enters, at its slope. g is read here with ``cone_of`` and ``det``, not
    from the spine extension shift, so a wrong shift shows."""
    dirs = model.exceptional_directions
    assume(dirs)
    t = data.draw(st.integers(1, min(3, len(dirs))))
    twig = tuple(data.draw(st.permutations(dirs))[:t])
    try:
        cyl = build_cylinder(model, twig, extended=True)
    except ZeroVector:
        assume(False)
    comps, tree = twig_components(model, cyl), cylinder_tree(model, cyl)
    defect = _kinks(model, cyl)
    for i in comps:
        defect = [a - b for a, b in zip(defect, _kinks(model, elementary_cylinder(model, i)))]
    for choice, beta, _n in contributing_classes(model, cyl):
        pairs = {f"t{s}": ij for s, ij in enumerate(zip(comps, choice), start=1)}
        legs = tree_class(model, tree, pairs).dD
        assert [a - b for a, b in zip(legs, beta.dD)] == defect


def test_scaled_table_scales_counts(cubic):
    base = default_table(cubic)
    scaled = ElementaryCountTable(
        tuple((pair, tuple((c, 3 * n) for c, n in counts)) for pair, counts in base.entries)
    )
    cyl = build_cylinder(cubic, ((1, 0), (0, 1)))
    for _, beta, n in contributing_classes(cubic, cyl, scaled):
        assert n == 9
        assert count_primitive_cylinder(cubic, cyl, beta, scaled) == 9
        assert splitting_sum(cubic, cyl, beta, scaled) == 9


class TestCountSpine:
    def test_single_twig_type(self, cubic):
        cyl = build_cylinder(cubic, ((-1, -1),))
        _, beta, _ = contributing_classes(cubic, cyl)[0]
        spine = Cylinder(cyl.p1, cyl.p2, cyl.bend, (), cyl.extended)
        assert count_spine(cubic, spine, beta) == 1

    def test_no_exceptional_contact(self, cubic):
        cyl = build_cylinder(cubic, ((-1, -1),))
        spine = Cylinder(cyl.p1, cyl.p2, cyl.bend, (), cyl.extended)
        zero = make_class(cubic.fan.rays, (0, 0, 0))
        assert count_spine(cubic, spine, zero) == 0

    def test_high_multiplicity_out_of_scope(self, cubic):
        cyl = build_cylinder(cubic, ((-1, -1),))
        spine = Cylinder(cyl.p1, cyl.p2, cyl.bend, (), cyl.extended)
        beta = class_from_profile(cubic, (2, 2, 0), {(3, 1): 2})
        with pytest.raises(OutOfPrimitiveScope):
            count_spine(cubic, spine, beta)


def test_elementary_cylinder_shape(cubic):
    for i in (1, 2, 3):
        cyl = elementary_cylinder(cubic, i)
        assert cyl.twig_type == (cubic.fan.ray(i),)
        assert len(contributing_classes(cubic, cyl)) == cubic.multiplicity(i)


def test_elementary_bend_sits_at_half_the_leaf():
    """The elementary cylinder is the canonical one-leaf cylinder with its
    bend moved from -u_i to u_i / 2. On P1xP1 with l = (1, 0, 0, 0) its leg
    (-1, 1) then crosses the ray (0, 1), which gives the shift dD (1, 0, 1, 0)
    and the class dD (-1, 1, 0, 1) + E_11. With the bend at -u_1 they would
    be 0 and dD (0, 1, 1, 1) + E_11. Which side is meant is ROADMAP item 9's
    decision, which may flip this test."""
    model = build_model(P1XP1_RAYS, (1, 0, 0, 0))
    cyl = elementary_cylinder(model, 1)
    assert cyl == replace(build_cylinder(model, ((1, 0),)), bend=(Fraction(1, 2), Fraction(0)))
    assert (cyl.p1, cyl.p2) == ((-1, 1), (0, -1))
    shift = elementary_extension_shift(model, 1)
    assert (shift.dD, shift.dE) == ((1, 0, 1, 0), ())
    beta = elementary_class(model, 1, 1)
    assert (beta.dD, beta.dE) == ((-1, 1, 0, 1), (((1, 1), 1),))


def test_elementary_class_follows_ray_order():
    """A fan given in another cyclic order numbers its rays differently, so
    its model is another model with its own elementary classes, on its own
    rays."""
    a = build_model(((1, 0), (0, 1), (-1, -1)), (2, 2, 2))
    b = build_model(((0, 1), (-1, -1), (1, 0)), (2, 2, 2))
    assert a != b
    alpha = elementary_class(a, 2, 1)
    beta = elementary_class(b, 1, 1)
    assert alpha.rays == a.fan.rays and beta.rays == b.fan.rays
    assert intersect(b, beta).dE_map == {(1, 1): 1}
    # Ray 1 of b is ray 2 of a, so the two profiles agree up to the renumbering.
    da = intersect(a, alpha).dD
    assert intersect(b, beta).dD == da[1:] + da[:1]


def test_second_class_at_a_pair(cubic):
    extra = elementary_class(cubic, 1, 1) + divisor_class(cubic.fan, 2)
    table = ElementaryCountTable(
        tuple((pair, cs + ((extra, 3),) if pair == (1, 1) else cs) for pair, cs in default_table(cubic).entries)
    )
    cyl = build_cylinder(cubic, ((1, 0), (0, 1)), extended=True)
    beta = spine_extension_shift(cubic, cyl) + extra + elementary_class(cubic, 2, 1)
    assert count_primitive_cylinder(cubic, cyl, beta, table) == 3
    assert splitting_sum(cubic, cyl, beta, table) == 3
    entries = contributing_classes(cubic, cyl, table)
    assert len(entries) == 6
    assert sum(n for _, _, n in entries) == 10


@st.composite
def multi_class_tables(draw):
    """A random smooth model with a supported ray, a twig type of distinct
    supported rays and a table with up to three classes per pair: an
    elementary class of the same ray, shifted by boundary divisors, each
    counted from -2 to 3, as ``parse_table`` accepts."""
    model = draw(smooth_models().filter(lambda m: m.exceptional_directions))
    entries = []
    for i, j in model.exceptional_pairs:
        counts = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            c = elementary_class(model, i, draw(st.integers(1, model.multiplicity(i))))
            for k in range(1, model.m + 1):
                c = c + draw(st.integers(-1, 1)) * divisor_class(model.fan, k)
            counts.append((c, draw(st.integers(-2, 3))))
        entries.append(((i, j), tuple(counts)))
    dirs = list(model.exceptional_directions)
    twig = draw(st.lists(st.sampled_from(dirs), min_size=1, max_size=3, unique=True))
    shift = divisor_class(model.fan, draw(st.integers(1, model.m)))
    return model, twig, ElementaryCountTable(tuple(entries)), shift


@settings(deadline=None, max_examples=30)
@given(multi_class_tables())
def test_closed_form_matches_oracle_on_any_table(case):
    """On random smooth models and tables: closed form = oracle = listing on
    the union of their classes, also off it by a divisor, at the extended
    and the infinitesimal level; each level lists its own classes, and each
    listed class's count is its query count and its splitting sum at that
    level; the replay passes; every class survives the profile round trip."""
    model, twig, table, shift = case
    try:
        cyl = build_cylinder(model, twig, extended=True)
    except ZeroVector:
        assume(False)
    cc = cylinder_count(model, cyl, table)
    inf = cylinder_count(model, replace(cyl, extended=False), table)
    listed = measure((beta, n) for _, beta, n in cc.contributing)
    oracle = splitting_measure(model, cyl, table)
    for beta in dict.fromkeys([*listed, *oracle]):
        n = listed.get(beta, 0)
        assert cc.count(beta) == oracle.get(beta, 0) == n
        assert inf.count(beta - cc.base) == n
        assert count_primitive_cylinder(model, cyl, beta + shift, table) == (
            splitting_sum(model, cyl, beta + shift, table)
        )
        prof = intersect(model, beta)
        assert class_from_profile(model, prof.dD, prof.dE_map) == beta
    assert inf.listed == {beta - cc.base: n for beta, n in listed.items()}
    for data in (cc, inf):
        for beta, n in data.listed.items():
            assert count_primitive_cylinder(model, data.cyl, beta, table) == n
            assert splitting_sum(model, data.cyl, beta, table) == n
    assert replay_count(cc, next(iter(listed), None)).ok


def _unpruned_mass(cc, beta):
    """The closed form as a residual loop without pruning: every class of
    every leaf but the last is subtracted from every residual."""
    *first, last = cc.measures
    residual = {beta - cc.base: 1}
    for supp in first:
        residual = measure((r - c, w * n) for r, w in residual.items() for c, n in supp.items())
    return sum(w * last.get(r, 0) for r, w in residual.items())


@st.composite
def shared_pair_tables(draw):
    """Like ``multi_class_tables``, with two or three leaves and classes that
    may also carry E_ij, of either sign, for the ray of another leaf. Each
    ray draws its classes from a pool of two, so a class recurs at several
    pairs and its counts can cancel."""
    model = draw(smooth_models().filter(lambda m: len(m.exceptional_directions) >= 2))
    twig = draw(st.lists(st.sampled_from(model.exceptional_directions), min_size=2, max_size=3, unique=True))
    rays = [model.exceptional_ray(w) for w in twig]
    pools = {}
    for i in rays:
        pools[i] = []
        for _ in range(2):
            c = elementary_class(model, i, draw(st.integers(1, model.multiplicity(i))))
            c = c + draw(st.integers(-1, 1)) * divisor_class(model.fan, draw(st.integers(1, model.m)))
            for r in rays:
                if r != i and draw(st.booleans()):
                    e = exceptional_class(model, r, draw(st.integers(1, model.multiplicity(r))))
                    c = c + draw(st.sampled_from((-1, 1))) * e
            pools[i].append(c)
    entries = []
    for i, j in model.exceptional_pairs:
        k = draw(st.integers(0, 3)) if i in pools else 0
        entries.append(((i, j), tuple((draw(st.sampled_from(pools[i])), draw(st.integers(-2, 3))) for _ in range(k))))
    shift = divisor_class(model.fan, draw(st.integers(1, model.m)))
    return model, twig, ElementaryCountTable(tuple(entries)), shift


@settings(deadline=None, max_examples=80)
@given(shared_pair_tables())
def test_pruned_mass_matches_the_unpruned_loop(case):
    """Where leaf classes meet pairs of later leaves, the pruned ``_mass``
    still equals the unpruned residual loop and the oracle, on the listed and
    oracle classes and on those shifted by a divisor, at the extended and the
    infinitesimal level."""
    model, twig, table, shift = case
    try:
        cyl = build_cylinder(model, twig, extended=True)
    except ZeroVector:
        assume(False)
    cc = cylinder_count(model, cyl, table)
    inf = cylinder_count(model, replace(cyl, extended=False), table)
    listed = measure((beta, n) for _, beta, n in cc.contributing)
    oracle = splitting_measure(model, cyl, table)
    for beta in dict.fromkeys([*listed, *oracle]):
        for b in (beta, beta + shift):
            assert cc._mass(b) == _unpruned_mass(cc, b) == oracle.get(b, 0)
            assert inf._mass(b - cc.base) == _unpruned_mass(inf, b - cc.base) == oracle.get(b, 0)


def _reference_listing(cc, table):
    """The listing as a fold with ``CurveClass.__add__`` over the rows the
    table lists at each leaf's pairs, one sum per row and leaf, and beside
    each row its profile summed in a dict, independent of how a sum joins
    ``dE``."""
    rows = [((), cc.base, 1, list(cc.base.dD), cc.base.dE_map)]
    for i in cc.comps:
        leaf = [
            (j, c, k)
            for j in range(1, cc.model.multiplicity(i) + 1)
            for c, k in table.by_pair.get((i, j), ())
        ]
        rows = [
            (ch + (j,), b + c, n * k, [x + y for x, y in zip(dD, c.dD)],
             {p: dE.get(p, 0) + c.dE_map.get(p, 0) for p in {*dE, *c.dE_map}})
            for ch, b, n, dD, dE in rows
            for j, c, k in leaf
        ]
    return rows


@settings(deadline=None, max_examples=80)
@given(shared_pair_tables())
def test_the_listing_by_parts_matches_a_fold_of_sums(case):
    """On tables with several classes per pair, classes of one ray with
    different dD, classes that meet another leaf's pairs and exceptional
    entries that cancel, ``contributing`` lists, row by row and in order,
    what a fold of class sums lists, at both levels: each row's class has
    the summed profile, its dE sorted by pair without zero entries."""
    model, twig, table, _shift = case
    try:
        cyl = build_cylinder(model, twig, extended=True)
    except ZeroVector:
        assume(False)
    for level in (cyl, replace(cyl, extended=False)):
        cc = cylinder_count(model, level, table)
        ref = _reference_listing(cc, table)
        assert cc.contributing == tuple((ch, b, n) for ch, b, n, _dD, _dE in ref)
        for (_ch, b, _n), (*_, dD, dE) in zip(cc.contributing, ref):
            assert (list(b.dD), b.dE) == (dD, tuple(sorted((p, v) for p, v in dE.items() if v)))


def _joins_of_a_listing(monkeypatch, model, twig, table):
    """At both levels, check ``contributing`` row by row against
    ``_reference_listing`` and return the dE joins it chose, one per leaf."""
    real, joins = classes.dE_join, []
    monkeypatch.setattr(classes, "dE_join", lambda met, span: joins.append(real(met, span)) or joins[-1])
    cyl = build_cylinder(model, twig, extended=True)
    for level in (cyl, replace(cyl, extended=False)):
        cc = cylinder_count(model, level, table)
        ref = _reference_listing(cc, table)
        assert cc.contributing == tuple((ch, b, n) for ch, b, n, _dD, _dE in ref)
        for (_ch, b, _n), (*_, dD, dE) in zip(cc.contributing, ref):
            assert (list(b.dD), b.dE) == (dD, tuple(sorted((p, v) for p, v in dE.items() if v)))
    return joins


def _meeting_table(model, c):
    """The default table with c times E_11's class added to every class at ray 2."""
    e = c * exceptional_class(model, 1, 1)
    return ElementaryCountTable(tuple(
        ((i, j), tuple((b + e if i == 2 else b, n) for b, n in rows))
        for (i, j), rows in default_table(model).entries
    ))


def test_a_listing_in_ray_order_concatenates_each_leaf_after(cubic, monkeypatch):
    joins = _joins_of_a_listing(monkeypatch, cubic, ((1, 0), (0, 1)), default_table(cubic))
    assert joins == [add, add] * 2


def test_a_listing_against_ray_order_concatenates_each_leaf_before(cubic, monkeypatch):
    joins = _joins_of_a_listing(monkeypatch, cubic, ((0, 1), (1, 0)), default_table(cubic))
    assert joins == [add, classes._dE_before] * 2


def test_a_leaf_meeting_an_earlier_pair_is_merged(cubic, monkeypatch):
    """Leaf 2's classes carry -E_11, which meets leaf 1's pair (1, 1) with
    the same sign as leaf 1's class there, so that entry doubles."""
    table = _meeting_table(cubic, -1)
    joins = _joins_of_a_listing(monkeypatch, cubic, ((1, 0), (0, 1)), table)
    assert joins == [add, dE_sum] * 2
    assert contributing_classes(cubic, build_cylinder(cubic, ((1, 0), (0, 1))), table)[0][1].dE_map[(1, 1)] == 2


def test_a_merge_drops_the_entries_that_cancel(cubic, monkeypatch):
    """Leaf 2's classes carry E_11, whose entry at (1, 1) cancels leaf 1's
    class there: rows with j_1 = 1 meet no pair of ray 1."""
    table = _meeting_table(cubic, 1)
    joins = _joins_of_a_listing(monkeypatch, cubic, ((1, 0), (0, 1)), table)
    assert joins == [add, dE_sum] * 2
    rows = contributing_classes(cubic, build_cylinder(cubic, ((1, 0), (0, 1))), table)
    assert [[p for p, _v in b.dE] for (j1, _j2), b, _n in rows if j1 == 1] == [[(2, 1)], [(2, 2)]]


def test_a_table_class_on_another_fan_is_refused(cubic):
    """A table class built on another fan, here the cubic's rays in another
    order, makes the listing and a query raise ``ModelMismatch``, and the
    cylinder is not stored."""
    other = build_model(P2_RAYS[1:] + P2_RAYS[:1], (2, 2, 2))
    table = ElementaryCountTable((((1, 1), ((elementary_class(other, 3, 1), 1),)),))
    cyl = build_cylinder(cubic, ((1, 0),), extended=True)
    with pytest.raises(ModelMismatch):
        contributing_classes(cubic, cyl, table)
    with pytest.raises(ModelMismatch):
        count_primitive_cylinder(cubic, cyl, elementary_class(cubic, 1, 1), table)
    assert not table._cylinders


@pytest.mark.parametrize("extended", (True, False))
def test_a_foreign_class_behind_an_empty_leaf_is_refused_by_both_paths(cubic, extended):
    """A table that lists nothing at the first leaf's ray and a class of
    another fan at the second's: the closed form and the oracle both raise
    ``ModelMismatch``, although the oracle's fold would stop at the empty
    leaf before it reached the foreign class."""
    other = zero_class(build_model(P1XP1_RAYS, (1, 1, 1, 1)))
    table = ElementaryCountTable((((2, 1), ((other, 1),)),))
    cyl = build_cylinder(cubic, ((1, 0), (0, 1)), extended=extended)
    with pytest.raises(ModelMismatch, match="^a table class does not live on this model's fan$"):
        cylinder_count(cubic, cyl, table)
    with pytest.raises(ModelMismatch, match="^a table class does not live on this model's fan$"):
        splitting_measure(cubic, cyl, table)
    assert not table._cylinders


def test_default_table_query_subtracts_once_per_leaf(monkeypatch):
    """On the 12-ray model with every l_i = 3, a query with t = 8 leaves keeps
    one residual per leaf: each of the first 7 leaves makes one residual
    term, where subtracting every class of every leaf but the last makes
    3 + 9 + ... + 3^7."""
    model = build_model(TWELVE_RAYS, (3,) * 12)
    cc = cylinder_count(model, build_cylinder(model, TWELVE_RAYS[:8], extended=True))
    beta = cc.base
    for i in cc.comps:
        beta = beta + elementary_class(model, i, 2)
    real, sizes = counting.measure, []

    def counted(terms):
        terms = list(terms)
        sizes.append(len(terms))
        return real(terms)

    monkeypatch.setattr(counting, "measure", counted)
    for query, want in ((beta, 1), (beta + divisor_class(model.fan, 1), 0)):
        sizes.clear()
        assert cc.count(query) == want
        assert sizes == [1] * (len(cc.comps) - 1) == [1] * 7


def test_a_private_only_class_is_cancelled(cubic, monkeypatch):
    """Leaf 1's classes meet only its own pairs, two of them with one run and
    different dD: each is marked private-only and is cancelled by dropping
    those pairs from the residual's run, with no class subtraction after
    beta - base, and every query counts what the unpruned loop and the
    oracle count."""
    e11 = elementary_class(cubic, 1, 1)
    table = ElementaryCountTable((
        ((1, 1), ((e11, 2), (e11 + divisor_class(cubic.fan, 3), 1))),
        ((1, 2), ((elementary_class(cubic, 1, 2), -1),)),
        ((2, 1), ((elementary_class(cubic, 2, 1), 3),)),
    ))
    cc = cylinder_count(cubic, build_cylinder(cubic, ((1, 0), (0, 1)), extended=True), table)
    [(private, groups)] = cc._groups
    assert private == {(1, 1), (1, 2)}
    assert sorted(len(g) for g in groups.values()) == [1, 2]
    assert all(alone for g in groups.values() for _c, _n, alone in g)
    oracle = splitting_measure(cubic, cc.cyl, table)
    assert len(oracle) == 3
    real, subtracted = CurveClass.__sub__, []
    for beta in oracle:
        for b in (beta, beta + divisor_class(cubic.fan, 1)):
            want = _unpruned_mass(cc, b)
            assert want == splitting_sum(cubic, cc.cyl, b, table) == oracle.get(b, 0)
            monkeypatch.setattr(CurveClass, "__sub__", lambda a, c: subtracted.append(c) or real(a, c))
            assert cc.count(b) == want
            monkeypatch.setattr(CurveClass, "__sub__", real)
            assert subtracted == [cc.base]
            subtracted.clear()


def test_a_class_meeting_a_later_leafs_pair_is_subtracted_in_full(cubic):
    """Leaf 1's class at (1, 1) also carries E_21, a pair of leaf 2: it is
    not private-only and is subtracted in full, its entry at (2, 1) with it,
    while leaf 1's class at (1, 2) is cancelled; queries at the oracle's
    classes and beside them count what the unpruned loop and the oracle
    count."""
    e21 = exceptional_class(cubic, 2, 1)
    shared, e12 = elementary_class(cubic, 1, 1) + e21, elementary_class(cubic, 1, 2)
    table = ElementaryCountTable((
        ((1, 1), ((shared, 1),)),
        ((1, 2), ((e12, 2),)),
        ((2, 1), ((elementary_class(cubic, 2, 1), 1),)),
        ((2, 2), ((elementary_class(cubic, 2, 2), -1),)),
    ))
    cc = cylinder_count(cubic, build_cylinder(cubic, ((1, 0), (0, 1)), extended=True), table)
    [(private, groups)] = cc._groups
    assert private == {(1, 1), (1, 2)}
    assert groups == {(((1, 1), 1),): [(shared, 1, False)], (((1, 2), 1),): [(e12, 2, True)]}
    oracle = splitting_measure(cubic, cc.cyl, table)
    assert len(oracle) == 4 and oracle[shared + elementary_class(cubic, 2, 1) + cc.base] == 1
    for beta in oracle:
        for b in (beta, beta + e21, beta + divisor_class(cubic.fan, 2)):
            want = oracle.get(b, 0)
            assert cc._mass(b) == _unpruned_mass(cc, b) == splitting_sum(cubic, cc.cyl, b, table) == want


def test_leaf_measures_are_shared(cubic):
    """Leaf data is read once per table and cylinder: two calls on one
    cylinder share its entry's parts and measures."""
    table = default_table(cubic)
    cyl = build_cylinder(cubic, ((1, 0), (0, 1)))
    a, b = cylinder_count(cubic, cyl, table), cylinder_count(cubic, cyl, table)
    assert a is not b and a.comps == b.comps == (1, 2)
    assert a.measures is b.measures and a.parts is b.parts


def test_leaf_data_follows_the_multiplicity(cubic):
    """One table read on a model with fewer components at ray 1 keeps only
    the pairs (1, j), j <= l_1, of that model."""
    table = default_table(cubic)
    fewer = build_model(P2_RAYS, (1, 2, 2))
    cyl = build_cylinder(cubic, ((1, 0),))
    cc = cylinder_count(fewer, cyl, table)
    assert [j for j, _g, _dE, _n in cc.parts[0][1]] == [1]
    assert cc.measures[0] == {elementary_class(cubic, 1, 1): 1}
    assert [j for j, _g, _dE, _n in cylinder_count(cubic, cyl, table).parts[0][1]] == [1, 2]


def test_a_leaf_without_private_pairs_keeps_every_class(cubic):
    """When every pair leaf 1 meets is met by leaf 2 too, leaf 1 has no
    private pairs: its classes form one group and each residual meets all of
    them."""
    e21 = exceptional_class(cubic, 2, 1)
    shared = elementary_class(cubic, 2, 1) - elementary_class(cubic, 1, 1)
    table = ElementaryCountTable((
        ((1, 1), ((e21, 2),)),
        ((1, 2), ((e21 + divisor_class(cubic.fan, 3), 1),)),
        ((2, 1), ((shared, 5), (elementary_class(cubic, 2, 1), -1))),
    ))
    cc = cylinder_count(cubic, build_cylinder(cubic, ((1, 0), (0, 1))), table)
    [(private, groups)] = cc._groups
    assert private == set() and len(groups[()]) == 2
    oracle = splitting_measure(cubic, cc.cyl, table)
    assert len(oracle) == 4
    for beta in oracle:
        assert cc._mass(beta) == _unpruned_mass(cc, beta) == oracle[beta]


def test_a_residual_outside_every_group_counts_zero(cubic):
    """A class whose part on leaf 1's private pairs matches no class of leaf
    1 is dropped at that leaf, before any subtraction."""
    cc = cylinder_count(cubic, build_cylinder(cubic, ((1, 0), (0, 1))))
    beta = cc.base - exceptional_class(cubic, 2, 1)
    assert cc.count(beta) == _unpruned_mass(cc, beta) == splitting_sum(cubic, cc.cyl, beta) == 0


def test_elementary_data_out_of_range(cubic):
    with pytest.raises(ComponentOutOfRange, match="component 3 out of range 1..2 at ray 1"):
        elementary_class(cubic, 1, 3)
    bare = build_model(P2_RAYS, (0, 2, 2))
    with pytest.raises(OutOfPrimitiveScope, match="ray 1 carries no exceptional components"):
        elementary_cylinder(bare, 1)


def test_a_leaf_toward_a_bare_ray_is_out_of_scope():
    bare = build_model(P2_RAYS, (0, 2, 2))
    with pytest.raises(OutOfPrimitiveScope, match="does not head toward an exceptional ray"):
        cylinder_count(bare, build_cylinder(bare, ((1, 0), (0, 1))))


def test_count_spine_refuses_two_pairs_of_one_ray(cubic):
    cyl = build_cylinder(cubic, ((-1, -1),))
    spine = Cylinder(cyl.p1, cyl.p2, cyl.bend, (), cyl.extended)
    beta = elementary_class(cubic, 3, 1) - exceptional_class(cubic, 3, 2)
    with pytest.raises(OutOfPrimitiveScope, match="two twig leaves in the same direction"):
        count_spine(cubic, spine, beta)


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except TropcylError as exc:
        return type(exc), str(exc)


def _refused(outcome) -> bool:
    """The outcome is a class refused outside the scope or the model."""
    return isinstance(outcome, tuple) and outcome[0] in (OutOfPrimitiveScope, ComponentOutOfRange)


@st.composite
def memo_sessions(draw):
    """A table drawn as the default one, the default one with every count
    scaled, or one from ``shared_pair_tables``; the same fan with one
    component fewer on every ray that has two or more, so the table serves
    two models with different multiplicities; and up to eight queries in a random order,
    each a model, a twig type of distinct supported rays (in ray-index
    order, as ``count_spine`` lists them) and the cylinder's level."""
    kind = draw(st.sampled_from(("default", "scaled", "shared")))
    if kind == "shared":
        model, _twig, table, shift = draw(shared_pair_tables())
    else:
        model = draw(smooth_models().filter(lambda m: m.exceptional_directions))
        k = 1 if kind == "default" else draw(st.sampled_from((-2, 2, 3)))
        table = ElementaryCountTable(
            tuple((pair, tuple((c, k * n) for c, n in cs)) for pair, cs in default_table(model).entries)
        )
        shift = divisor_class(model.fan, draw(st.integers(1, model.m)))
    fewer = build_model(model.fan.rays, tuple(l - (l > 1) for l in model.blowups))
    dirs = list(model.exceptional_directions)
    queries = draw(st.lists(st.tuples(
        st.sampled_from((model, fewer)),
        st.lists(st.sampled_from(dirs), min_size=1, max_size=3, unique=True).map(
            lambda ws: sorted(ws, key=dirs.index)
        ),
        st.booleans(),
    ), min_size=1, max_size=8))
    return table, shift, queries


@settings(deadline=None, max_examples=40)
@given(memo_sessions())
def test_one_table_answers_as_a_fresh_table_per_call(case):
    """One table reused across cylinders, levels and two models answers every
    ``count_primitive_cylinder``, ``count_spine`` and ``contributing_classes``
    call as a fresh copy of it does, and as the oracle does: the summed
    listing is the oracle's measure at the cylinder's level, and the counts
    agree at every class the oracle holds and at those classes shifted by a
    divisor, unless both refuse the class. ``count_spine`` is held to the
    oracle where the class's exceptional pattern picks the cylinder's own
    leaves."""
    table, shift, queries = case
    for model, twig, extended in queries:
        try:
            cyl = build_cylinder(model, twig, extended)
        except ZeroVector:
            continue
        fresh = lambda: ElementaryCountTable(table.entries)
        listing = contributing_classes(model, cyl, table)
        assert listing == contributing_classes(model, cyl, fresh())
        assert measure((b, n) for _, b, n in listing) == splitting_measure(model, cyl, table)
        spine = replace(cyl, twig_type=())
        for beta in splitting_measure(model, cyl, table) or [spine_extension_shift(model, cyl)]:
            for b in (beta, beta + shift):
                got = _outcome(count_primitive_cylinder, model, cyl, b, table)
                assert got == _outcome(count_primitive_cylinder, model, cyl, b, fresh())
                assert got == _outcome(splitting_sum, model, cyl, b, table) or _refused(got)
                got = _outcome(count_spine, model, spine, b, table)
                assert got == _outcome(count_spine, model, spine, b, fresh())
                if _refused(got):
                    continue
                hit = [i for (i, _j), v in intersect(model, b).dE if v]
                if sorted(hit) == sorted(set(hit)) == sorted(model.exceptional_ray(w) for w in twig):
                    assert got == splitting_sum(model, cyl, b, table)


@pytest.fixture
def fresh_read_memo():
    """An empty read memo, so the first read of a cylinder runs its gate and
    walks its extension classes whatever an earlier test read."""
    counting._cylinder_read.cache_clear()


def test_a_second_query_reads_the_memo(cubic, monkeypatch, fresh_read_memo):
    """The second query on one (model, cylinder, table) walks no extension
    class and builds no groups, whether it goes through the closed form,
    ``count_spine`` or the listing."""
    calls = {"extension_class": 0, "_private_groups": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(counting, name, counted(name, getattr(counting, name)))
    table = default_table(cubic)
    # Ray-index order, the order ``count_spine`` lists the leaves in.
    cyl = build_cylinder(cubic, ((1, 0), (0, 1)), extended=True)
    beta = contributing_classes(cubic, cyl, table)[0][1]
    assert calls == {"extension_class": 2, "_private_groups": 1}
    assert count_primitive_cylinder(cubic, cyl, beta, table) == 1
    assert count_spine(cubic, replace(cyl, twig_type=()), beta, table) == 1
    assert len(contributing_classes(cubic, cyl, table)) == 4
    assert calls == {"extension_class": 2, "_private_groups": 1}


def test_the_oracle_after_the_closed_form_reads_no_cylinder_again(cubic, monkeypatch, fresh_read_memo):
    """The closed form and the oracle share one read of a cylinder: after
    ``cylinder_count``, ``splitting_measure`` runs no primitive gate and
    walks no extension class, with a table and without one."""
    calls = []
    for name in ("twig_components", "extension_class"):
        real = getattr(counting, name)
        monkeypatch.setattr(counting, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    cyl = build_cylinder(cubic, ((1, 0), (0, 1)), extended=True)
    listed = cylinder_count(cubic, cyl).listed
    assert calls == ["twig_components", "extension_class", "extension_class"]
    for table in (None, default_table(cubic)):
        calls.clear()
        assert splitting_measure(cubic, cyl, table) == listed
        assert calls == []


def test_the_read_memo_keeps_each_level(fresh_read_memo):
    """The read memo is keyed by the whole cylinder: one twig and spine read
    extended and not extended, in either order, start from the spine
    extension shift and from zero. The shift is nonzero on this model."""
    model = build_model(((1, 1), (0, 1), (-1, 1), (0, -1), (1, 0)), (2, 2, 0, 1, 2))
    cyl = build_cylinder(model, ((0, -1),))
    ext = replace(cyl, extended=True)
    want = {ext: spine_extension_shift(model, cyl), cyl: zero_class(model)}
    assert want[ext] != want[cyl]
    for order in ((ext, cyl), (cyl, ext)):
        counting._cylinder_read.cache_clear()
        assert {c: cylinder_count(model, c).base for c in order} == want
        oracle = {c: splitting_measure(model, c) for c in order}
        assert oracle[ext] == {b + want[ext]: n for b, n in oracle[cyl].items()}


def test_a_permuted_cylinder_gets_its_own_entry(cubic):
    """The memo is keyed by the cylinder as given: a permuted cylinder adds
    its own entry, whose components, measures and listing choices follow its
    own leaf order, and it counts the same."""
    table = default_table(cubic)
    cyl = build_cylinder(cubic, ((1, 0), (0, 1)), extended=True)
    first = contributing_classes(cubic, cyl, table)
    permuted = replace(cyl, twig_type=((0, 1), (1, 0)))
    cc = cylinder_count(cubic, permuted, table)
    assert list(table._cylinders) == [(cubic, cyl), (cubic, permuted)]
    assert cc.comps == (2, 1) and cc.measures == cylinder_count(cubic, cyl, table).measures[::-1]
    assert table._cylinders[(cubic, permuted)][1:4] == (cc.comps, cc.measures, cc.parts)
    assert sorted(cc.contributing) == sorted((ch[::-1], b, n) for ch, b, n in first)
    for _, beta, n in first:
        assert count_primitive_cylinder(cubic, permuted, beta, table) == n == 1
    assert len(table._cylinders) == 2


@settings(max_examples=40, deadline=None)
@given(smooth_models(), st.data())
def test_a_count_does_not_depend_on_the_leaf_order(model, data):
    """The product measure is symmetric in the leaves: a permuted cylinder
    lists the same classes, counts the same at each and replays the same L1
    measure, whether its table's memo entry was read in its own leaf order
    or in another one."""
    dirs = sorted(model.exceptional_directions)
    assume(dirs)
    t = data.draw(st.integers(1, min(3, len(dirs))))
    twig = tuple(data.draw(st.permutations(dirs))[:t])
    try:
        cyl = build_cylinder(model, twig, extended=data.draw(st.booleans()))
    except ZeroVector:
        assume(False)
    warm = default_table(model)
    base = cylinder_count(model, cyl, warm)
    # Two more orders, each read into its own entry of the warm table.
    for _ in range(2):
        permuted = replace(cyl, twig_type=tuple(data.draw(st.permutations(twig))))
        own = cylinder_count(model, permuted, default_table(model))
        for cc in (cylinder_count(model, permuted, warm), own):
            assert cc.listed == base.listed
            assert member_measures(cc)["L1"] == member_measures(base)["L1"]
        assert cylinder_count(model, permuted, warm).contributing == own.contributing
        for beta, want in base.listed.items():
            assert count_primitive_cylinder(model, cyl, beta, warm) == want
            for table in (warm, default_table(model), None):
                assert count_primitive_cylinder(model, permuted, beta, table) == want


# Elements of GL2(Z) as rows: a rotation and a shear of determinant 1, and
# a swap and two reflections of determinant -1.
GL2Z = {
    "swap": ((0, 1), (1, 0)),
    "rotation": ((0, -1), (1, 0)),
    "shear": ((1, 1), (0, 1)),
    "reflect-x": ((1, 0), (0, -1)),
    "reflect-y": ((-1, 0), (0, 1)),
}


def _apply(a, v):
    return (a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1])


def _moved_model(model, a):
    """The model with its rays moved by A, in reversed order with l reversed
    when det A = -1, so that they stay counterclockwise."""
    rays = [_apply(a, u) for u in model.fan.rays]
    ls = list(model.blowups)
    flip = det(*a) == -1
    return build_model(tuple(rays[::-1] if flip else rays), tuple(ls[::-1] if flip else ls))


@settings(max_examples=100, deadline=None)
@given(smooth_models(max_l=2), st.sampled_from(sorted(GL2Z)), st.booleans(), st.data())
def test_counts_commute_with_gl2z(model, name, extended, data):
    """Counts are natural in A in GL2(Z), det -1 included. Move the rays by A,
    in reversed order with l reversed when det A = -1, so that they stay
    counterclockwise; move a cylinder's slopes, bend and leaves by A; and
    re-index each class, dD and pair i to m + 1 - i when det A = -1. Then the
    moved cylinder lists the moved classes row by row, at both levels, and
    the closed form and the oracle count each moved class as listed."""
    a = GL2Z[name]
    flip = det(*a) == -1
    m = model.m
    moved = _moved_model(model, a)
    dirs = sorted(model.exceptional_directions)
    if not dirs:
        return
    t = data.draw(st.integers(1, min(3, len(dirs))))
    twig = tuple(data.draw(st.permutations(dirs))[:t])
    try:
        cyl = build_cylinder(model, twig, extended)
    except ZeroVector:
        return
    image = Cylinder(
        _apply(a, cyl.p1), _apply(a, cyl.p2), _apply(a, cyl.bend),
        tuple(_apply(a, w) for w in cyl.twig_type), extended,
    )

    def move(c):
        dE = {(m + 1 - i if flip else i, j): v for (i, j), v in c.dE}
        return class_from_profile(moved, c.dD[::-1] if flip else c.dD, dE)

    listing = contributing_classes(model, cyl)
    assert contributing_classes(moved, image) == tuple((ch, move(b), n) for ch, b, n in listing)
    for b, n in measure((b, n) for _, b, n in listing).items():
        beta = move(b)
        assert count_primitive_cylinder(moved, image, beta) == n == splitting_sum(moved, image, beta)


@settings(max_examples=100, deadline=None)
@given(smooth_models(max_l=2), st.sampled_from(sorted(GL2Z)), st.data())
def test_the_canonical_cylinder_commutes_with_gl2z_off_the_rays(model, name, data):
    """When -w0 spans no ray, the canonical cylinder is natural in A in
    GL2(Z): the moved twig's canonical cylinder on the moved model has bend
    A(bend) and legs (A p1, A p2), or (A p2, A p1) when det A = -1. On a ray
    the split takes the next ray counterclockwise, which a reflection turns
    into clockwise, so that case is left out; the next test pins its
    smallest instance."""
    a = GL2Z[name]
    dirs = sorted(model.exceptional_directions)
    assume(dirs)
    t = data.draw(st.integers(1, min(3, len(dirs))))
    twig = tuple(data.draw(st.permutations(dirs))[:t])
    w0 = leaf_sum(twig)
    assume(w0 != (0, 0) and model.fan.ray_index((-w0[0], -w0[1])) is None)
    cyl = build_cylinder(model, twig)
    image = build_cylinder(_moved_model(model, a), tuple(_apply(a, w) for w in twig))
    legs = (_apply(a, cyl.p1), _apply(a, cyl.p2))
    assert image.bend == _apply(a, cyl.bend)
    assert (image.p1, image.p2) == (legs[::-1] if det(*a) == -1 else legs)


def test_the_canonical_cylinder_on_a_ray_is_an_orientation_choice():
    """The smallest case where -w0 spans a ray and a reflection moves the
    canonical cylinder off its image. R(x, y) = (y, x) turns the split's
    "next ray counterclockwise" into "next clockwise": the reflected twig's
    canonical cylinder keeps the bend but takes the other neighbour, and at
    the extended level it lists another class. An explicit spine with the
    image legs lists the moved classes at both levels."""
    model = build_model(((1, 1), (0, 1), (-1, 1), (0, -1), (1, 0)), (2, 2, 0, 1, 2))
    swap = GL2Z["swap"]
    moved = _moved_model(model, swap)
    cyl = build_cylinder(model, ((0, -1),))
    canonical = build_cylinder(moved, (_apply(swap, (0, -1)),))
    image = Cylinder(
        _apply(swap, cyl.p2), _apply(swap, cyl.p1), _apply(swap, cyl.bend), canonical.twig_type
    )
    assert canonical.bend == image.bend
    assert ((canonical.p1, canonical.p2), (image.p1, image.p2)) == (((0, -1), (1, 1)), ((1, -1), (0, 1)))
    spine = {"p1": [1, -1], "p2": [0, 1], "bend_at": [1, 0]}
    spec = {"twig_type": [[-1, 0]], "extended": False, "spine": spine}
    assert parse_cylinder_spec(spec, moved) == (image, None)

    def move(c):
        dE = {(model.m + 1 - i, j): v for (i, j), v in c.dE}
        return class_from_profile(moved, c.dD[::-1], dE)

    def rows(m, c, extended):
        return [(ch, b.dD, b.dE, n) for ch, b, n in contributing_classes(m, replace(c, extended=extended))]

    e21 = (((2, 1), 1),)
    assert rows(moved, canonical, False) == rows(moved, image, False) == [((1,), (1, 0, 1, 0, 0), e21, 1)]
    assert rows(moved, canonical, True) == [((1,), (1, 1, 1, 1, 0), e21, 1)]
    assert rows(moved, image, True) == [((1,), (2, 0, 1, 1, -1), e21, 1)]
    for extended in (False, True):
        listing = contributing_classes(model, replace(cyl, extended=extended))
        want = [(ch, move(b).dD, move(b).dE, n) for ch, b, n in listing]
        assert rows(moved, image, extended) == want


def test_the_memo_keeps_the_newest_cylinders(cubic):
    """Past CYLINDER_MEMO_SIZE cylinders a table drops the oldest; a dropped
    cylinder is read again and counts as before."""
    table = default_table(cubic)
    base = build_cylinder(cubic, ((1, 0), (0, 1)), extended=True)
    cyls = [replace(base, bend=(Fraction(-k, 2), Fraction(-k, 2))) for k in range(1, CYLINDER_MEMO_SIZE + 6)]
    first = contributing_classes(cubic, cyls[0], table)
    for cyl in cyls:
        cylinder_count(cubic, cyl, table)
        assert len(table._cylinders) <= CYLINDER_MEMO_SIZE == 256
    assert (cubic, cyls[0]) not in table._cylinders
    assert (cubic, cyls[-1]) in table._cylinders
    for _, beta, n in first:
        assert count_primitive_cylinder(cubic, cyls[0], beta, table) == n == 1
        assert splitting_sum(cubic, cyls[0], beta, table) == 1
    assert contributing_classes(cubic, cyls[0], table) == first


def test_errors_are_raised_on_every_call(cubic):
    """A cylinder that raises is not stored and raises the same way again,
    and a class out of the primitive scope is refused while the memo holds
    the cylinder."""
    table = default_table(cubic)
    repeated = replace(build_cylinder(cubic, ((1, 0),)), twig_type=((1, 0), (1, 0)))
    for _ in range(2):
        with pytest.raises(NotPrimitiveCylinder, match="^twig leaf directions are not pairwise distinct$"):
            count_primitive_cylinder(cubic, repeated, make_class(cubic.fan.rays, (0, 0, 0)), table)
    assert not table._cylinders
    cyl = build_cylinder(cubic, ((-1, -1),))
    assert count_primitive_cylinder(cubic, cyl, contributing_classes(cubic, cyl, table)[0][1], table) == 1
    beta = class_from_profile(cubic, (2, 2, 0), {(3, 1): 2})
    for f in (count_primitive_cylinder, count_spine):
        with pytest.raises(OutOfPrimitiveScope, match="multiplicity > 1"):
            f(cubic, cyl, beta, table)


def test_a_refused_cylinder_raises_on_every_read(cubic, fresh_read_memo):
    """The read memo keeps no exception: a non-primitive cylinder raises
    ``NotPrimitiveCylinder`` on a second call too, through the closed form
    and the oracle, with a table and without one, and is not kept."""
    repeated = replace(build_cylinder(cubic, ((1, 0),)), twig_type=((1, 0), (1, 0)))
    for table in (None, default_table(cubic)):
        for f in (cylinder_count, splitting_measure) * 2:
            with pytest.raises(NotPrimitiveCylinder, match="^twig leaf directions are not pairwise distinct$"):
                f(cubic, repeated, table)
    assert counting._cylinder_read.cache_info().currsize == 0


def test_each_listing_is_a_new_object(cubic):
    """The memo holds no listing: two calls list equal entries in two tuples."""
    table = default_table(cubic)
    cyl = build_cylinder(cubic, ((1, 0), (0, 1)), extended=True)
    a, b = contributing_classes(cubic, cyl, table), contributing_classes(cubic, cyl, table)
    assert a == b and len(a) == 4 and a is not b
    assert cylinder_count(cubic, cyl, table) is not cylinder_count(cubic, cyl, table)


def test_the_oracle_does_not_read_the_memo(cubic):
    """A memo entry with a wrong shift moves the closed form and not the
    oracle, so the two disagree."""
    table = default_table(cubic)
    cyl = build_cylinder(cubic, ((1, 0), (0, 1)), extended=True)
    beta = contributing_classes(cubic, cyl, table)[0][1]
    assert count_primitive_cylinder(cubic, cyl, beta, table) == splitting_sum(cubic, cyl, beta, table) == 1
    shift, *rest = table._cylinders[(cubic, cyl)]
    table._cylinders[(cubic, cyl)] = (shift + divisor_class(cubic.fan, 1), *rest)
    assert count_primitive_cylinder(cubic, cyl, beta, table) == 0
    assert splitting_sum(cubic, cyl, beta, table) == 1
