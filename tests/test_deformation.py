from fractions import Fraction

import pytest

from tropcyl.counting import (
    ElementaryCountTable,
    build_cylinder,
    contributing_classes,
    default_table,
)
from tropcyl.deformation import (
    build_deformation,
    default_anchors,
    degeneration_path,
    extension_ledger,
    family_support,
    replay_induction,
)
from tropcyl.errors import AnchorOrderViolation

F = Fraction


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
    cyl = _cyl(cubic, ((1, 0),))
    bad = (((F(0), F(0)), (F(2), F(0))),)
    with pytest.raises(AnchorOrderViolation):
        build_deformation(cubic, cyl, anchors=bad)


def test_default_anchor_parameters(cubic):
    cyl = _cyl(cubic, ((1, 0), (0, 1)))
    anchors = default_anchors(cubic, cyl)
    assert anchors[0] == ((F(1), F(0)), (F(2), F(0)))
    assert anchors[1] == ((F(0), F(1)), (F(0), F(2)))


def test_extension_ledger_identity(cubic):
    cyl = _cyl(cubic, ((1, 0), (0, 1)))
    ledger = extension_ledger(cubic, cyl)
    total = ledger.delta_V
    for d in ledger.delta_leaf:
        total = total + d
    assert ledger.final_class == total


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
    fam = build_deformation(cubic, cyl)
    supp = family_support(cubic, cyl, "L3", default_table(cubic))
    assert len(supp) == 1
    assert list(supp.values()) == [1]
    ledger = extension_ledger(cubic, cyl)
    assert list(supp.keys()) == [ledger.final_class]


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
    """With the elementary data cached, a replay extends each spine leg and
    each leaf anchor once: at most 2 + t extension classes."""
    from tropcyl import counting, deformation, tropical

    cyl = _cyl(p1xp1, ((1, 0), (0, 1), (0, -1)))
    beta = contributing_classes(p1xp1, cyl)[0][1]
    assert replay_induction(p1xp1, cyl, beta).ok  # fills counting._elementary_data
    real = tropical.extension_class
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (tropical, counting, deformation):
        monkeypatch.setattr(module, "extension_class", counted)
    for cls_ in (None, beta):
        calls.clear()
        assert replay_induction(p1xp1, cyl, cls_).ok
        assert len(calls) <= 2 + 3
