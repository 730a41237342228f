import gc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropcyl.classes import class_from_profile, divisor_class, intersect, make_class
from tropcyl.counting import (
    ElementaryCountTable,
    build_cylinder,
    contributing_classes,
    count_primitive_cylinder,
    count_spine,
    default_table,
    elementary_class,
    elementary_cylinder,
    spine_extension_shift,
    splitting_measure,
    splitting_sum,
)
from tropcyl.deformation import replay_induction
from tropcyl.errors import NotPrimitiveCylinder, OutOfPrimitiveScope, TropcylError
from tropcyl.model import P1XP1_RAYS, P2_RAYS, build_model
from tropcyl.tropical import Cylinder


def test_default_table_supports_one_class_per_pair(cubic):
    table = default_table(cubic)
    for (i, j), counts in table.by_pair.items():
        assert len(counts) == 1
        beta, n = counts[0]
        assert n == 1
        assert table.count(i, j, beta) == 1


def test_table_lookup_miss(cubic):
    table = default_table(cubic)
    wrong = elementary_class(cubic, 3, 2)
    assert table.count(3, 1, wrong) == 0
    zero = make_class(cubic.fan.rays, (0, 0, 0))
    assert table.count(3, 1, zero) == 0


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


def test_scope_checked_before_primitivity(cubic):
    """A class meeting E_31 twice on a cylinder with a repeated leaf is out of
    scope before the cylinder is found not primitive."""
    cyl = Cylinder((1, 0), (1, 0), (Fraction(-1), Fraction(0)), ((1, 0), (1, 0)), extended=True)
    beta = class_from_profile(cubic, (2, 2, 0), {(3, 1): 2})
    with pytest.raises(OutOfPrimitiveScope):
        count_primitive_cylinder(cubic, cyl, beta)


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


def test_elementary_class_follows_ray_order():
    """Equal fans given in another cyclic order number their rays
    differently, so they must not share elementary classes."""
    a = build_model(((1, 0), (0, 1), (-1, -1)), (2, 2, 2))
    b = build_model(((0, 1), (-1, -1), (1, 0)), (2, 2, 2))
    assert a == b
    elementary_class(a, 1, 1)
    beta = elementary_class(b, 1, 1)
    assert beta.rays == b.fan.rays
    assert intersect(b, beta).dE_map == {(1, 1): 1}


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
    """A model, a cylinder on it and a table with up to three classes per
    pair: an elementary class of the same ray, shifted by boundary divisors."""
    model = build_model(*draw(st.sampled_from([(P2_RAYS, (2, 2, 2)), (P1XP1_RAYS, (2, 1, 2, 1))])))
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
    model, twig, table, shift = case
    try:
        cyl = build_cylinder(model, twig, extended=True)
        entries = contributing_classes(model, cyl, table)
    except TropcylError:
        assume(False)
    listed = {}
    for _, beta, n in entries:
        listed[beta] = listed.get(beta, 0) + n
    for beta, n in listed.items():
        assert count_primitive_cylinder(model, cyl, beta, table) == n
        assert splitting_sum(model, cyl, beta, table) == n
        shifted = beta + shift
        want = splitting_sum(model, cyl, shifted, table)
        assert count_primitive_cylinder(model, cyl, shifted, table) == want
    assert splitting_measure(model, cyl, table) == {b: n for b, n in listed.items() if n}
    beta = entries[0][1] if entries else None
    assert replay_induction(model, cyl, beta, table).ok
