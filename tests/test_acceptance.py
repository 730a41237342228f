"""Acceptance gate: one test per criterion, printing one PASS line each.

Every assertion is exact (integer or Fraction arithmetic, zero tolerance);
criteria with runtime bounds assert them with a monotonic clock.
"""

import json
import random
import time
from itertools import combinations
from fractions import Fraction
from pathlib import Path

from tropcyl.classes import (
    class_from_profile,
    divisor_class,
    intersect,
    make_class,
)
from tropcyl.cli import main
from tropcyl.counting import (
    ElementaryCountTable,
    build_cylinder,
    contributing_classes,
    count_primitive_cylinder,
    default_table,
    splitting_sum,
    twig_components,
)
from tropcyl.deformation import replay_induction
from tropcyl.errors import NonRepresentable, PathThroughOrigin, ZeroVector
from tropcyl.lattice import Fan, det, norm
from tropcyl.model import F1_RAYS, P1XP1_RAYS, P2_RAYS, build_model, cubic_model
from tropcyl.tropical import Edge, classify, cylinder_tree, extension_class, make_tree, tree_class
from tropcyl.walls import generate_walls

GOLDEN = Path(__file__).parent / "golden"

TEST_MODELS = [
    build_model(P2_RAYS, (3, 3, 3)),
    build_model(P1XP1_RAYS, (3, 1, 2, 1)),
    build_model(F1_RAYS, (1, 3, 2, 1)),
]


def _report(n: int, detail: str) -> None:
    print(f"[criterion {n}] PASS: {detail}")


def _cases():
    """All primitive cylinders with t <= 3 over the three test models."""
    for model in TEST_MODELS:
        dirs = model.exceptional_directions
        for t in (1, 2, 3):
            for twig in combinations(dirs, t):
                try:
                    cyl = build_cylinder(model, twig, extended=True)
                except ZeroVector:
                    continue
                yield model, cyl


def test_criterion_1_wall_structure():
    start = time.monotonic()
    figure_step2 = {(2, 1), (1, 2), (-2, -1), (-1, -2)}
    diagonals = {(1, -1), (-1, 1)}
    for rule in ("pair_sum", "support"):
        walls = generate_walls(cubic_model(), 4, 10, rule)
        assert walls.step_set(0) == {(1, 0), (0, 1), (-1, -1)}
        assert walls.step_set(1) == {(1, 1), (-1, 0), (0, -1)}
        assert figure_step2 <= walls.step_set(2)
        assert walls.step_set(2) == figure_step2 | diagonals
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"figure wall sets match per rule ({elapsed:.3f}s at steps=4, bound=10)")


def test_criterion_2_norm_degree_family():
    fan = Fan(P2_RAYS)
    for n in range(6):
        assert norm(fan, (2 + n, 0)) == 2 + n
        assert norm(fan, (1 + n, 0)) == 1 + n
        assert norm(fan, (-n, -n)) == n
    _report(2, "degrees 2+n, 1+n, n for n in 0..5")


def test_criterion_3_corollary_cardinality():
    start = time.monotonic()
    cases = 0
    for model, cyl in _cases():
        entries = contributing_classes(model, cyl)
        expected = 1
        for w in cyl.twig_type:
            expected *= model.multiplicity(model.fan.ray_index(w))
        classes = {beta for _, beta, _ in entries}
        assert len(entries) == len(classes) == expected
        for _, beta, n in entries:
            assert n == 1
            assert count_primitive_cylinder(model, cyl, beta) == 1
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(3, f"|{{beta : N(V,beta) > 0}}| = prod l_i(s) on {cases} cylinders ({elapsed:.3f}s)")


def test_criterion_4_theorem_oracle_equality():
    rng = random.Random(4)
    checked = 0
    for model, cyl in _cases():
        for _, beta, _ in contributing_classes(model, cyl):
            assert count_primitive_cylinder(model, cyl, beta) == splitting_sum(model, cyl, beta)
            checked += 1
    perturbed = 0
    pool = [(model, cyl) for model, cyl in _cases()]
    while perturbed < 200:
        model, cyl = pool[rng.randrange(len(pool))]
        entries = contributing_classes(model, cyl)
        _, beta, _ = entries[rng.randrange(len(entries))]
        shift = make_class(model.fan.rays, (0,) * model.m)
        for i in range(1, model.m + 1):
            k = rng.randint(-2, 2)
            if k:
                shift = shift + k * divisor_class(model.fan, i)
        if shift.is_zero():
            continue
        pert = beta + shift
        c = count_primitive_cylinder(model, cyl, pert)
        s = splitting_sum(model, cyl, pert)
        assert c == s == 0
        perturbed += 1
    _report(4, f"closed form == splitting sum on {checked} contributing and 200 perturbed classes")


def test_criterion_5_induction_replay():
    start = time.monotonic()
    rng = random.Random(5)
    replays = 0
    for model, cyl in _cases():
        table = default_table(model)
        randomized = ElementaryCountTable(
            tuple(
                (pair, tuple((c, n * rng.randint(1, 5)) for c, n in counts))
                for pair, counts in table.entries
            )
        )
        for tab in (table, randomized):
            for _, beta, _ in contributing_classes(model, cyl, tab):
                report = replay_induction(model, cyl, beta, tab)
                assert report.ok, "\n".join(report.lines())
                names = [c.name for c in report.checks]
                assert sum(1 for n in names if n.startswith("splitting-")) == len(cyl.twig_type)
                assert "endpoint-initial" in names and "endpoint-final" in names
                replays += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(5, f"all per-k identities and endpoints hold on {replays} replays ({elapsed:.3f}s)")


def _segment_crossings(model, x, p, bound):
    """Independent oracle: kink classes picked up along x + t p for 0 < t <= bound."""
    total = make_class(model.fan.rays, (0,) * model.m)
    crossed = 0
    for i in range(1, model.m + 1):
        u = model.fan.ray(i)
        d = det(p, u)
        if d == 0:
            continue
        t = det(u, x) / Fraction(d)
        s = det(p, x) / Fraction(d)
        if 0 < t and (bound is None or t <= bound) and s > 0:
            total = total + abs(d) * divisor_class(model.fan, i)
            crossed += 1
    return total, crossed


def test_criterion_6_extension_consistency():
    model = cubic_model()
    rng = random.Random(6)
    done = 0
    no_crossing = 0
    while done < 100:
        x = (
            Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
            Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
        )
        p = (rng.randint(-3, 3), rng.randint(-3, 3))
        if x == (0, 0) or p == (0, 0):
            continue
        try:
            delta = extension_class(model, x, p)
        except PathThroughOrigin:
            continue
        assert intersect(model, delta).dE_map == {}
        oracle, crossed = _segment_crossings(model, x, p, None)
        assert delta == oracle
        if crossed == 0:
            assert delta.is_zero()
            no_crossing += 1
        # Split the path at a point that is not a crossing and re-add the parts.
        cut = Fraction(1, 7)
        y = (x[0] + cut * p[0], x[1] + cut * p[1])
        if all(det(model.fan.ray(i), y) != 0 for i in range(1, model.m + 1)):
            head, _ = _segment_crossings(model, x, p, cut)
            assert delta == head + extension_class(model, y, p)
        done += 1
    assert no_crossing > 0
    # Compatibility cross-check: the infinitesimal class plus the spine
    # extension shift meets each D_i per the extended cylinder's leg sums.
    checked = 0
    for t in (1, 2, 3):
        for twig in combinations(model.exceptional_directions, t):
            try:
                cyl = build_cylinder(model, twig, extended=True)
            except ZeroVector:
                continue
            tree, comps = cylinder_tree(model, cyl), twig_components(model, cyl)
            for choice, beta, _ in contributing_classes(model, cyl):
                pairs = {f"t{s}": ij for s, ij in enumerate(zip(comps, choice), start=1)}
                assert intersect(model, beta).dD == tree_class(model, tree, pairs).dD
                checked += 1
    assert checked > 0
    _report(6, f"extension classes additive and toric on 100 legs; dD matches leg sums on {checked} classes")


def test_criterion_7_class_round_trip():
    rng = random.Random(7)
    for _ in range(500):
        model = TEST_MODELS[rng.randrange(len(TEST_MODELS))]
        toric = tuple(rng.randint(-5, 5) for _ in range(model.m))
        exc = {}
        for pair in model.exceptional_pairs:
            c = rng.randint(-2, 2)
            if c:
                exc[pair] = c
        beta = make_class(model.fan.rays, toric, exc)
        prof = intersect(model, beta)
        assert class_from_profile(model, prof.dD, prof.dE_map) == beta
    try:
        class_from_profile(build_model(P2_RAYS, (0, 0, 0)), (1, 0, 0), {})
        raise AssertionError("profile (1,0,0) must not be representable")
    except NonRepresentable:
        pass
    _report(7, "intersect o class_from_profile == id on 500 profiles; (1,0,0) rejected")


def _fig3_tree(twig_edges, positions_extra):
    positions = {
        "b": (Fraction(2), Fraction(2)),
        "a1": (Fraction(2), Fraction(3)),
        "w": None,
        "v1": None,
        "v2": None,
    }
    positions.update(positions_extra)
    edges = [
        Edge("b", "a1", (0, 1), Fraction(1)),
        Edge("a1", "w", (0, 0), None),
        Edge("a1", "v1", (0, 1), None),
        Edge("b", "v2", (1, 0), None),
    ]
    edges.extend(twig_edges)
    return make_tree(
        positions, edges, {"1": "v1", "2": "v2", "w": "w"},
        interior=("w",), boundary=("1", "2"),
    )


def test_criterion_8_validation_fixtures():
    model = cubic_model()
    top_left = _fig3_tree([Edge("b", "t1", (-1, -1), None)], {"t1": None})
    got = classify(model, top_left)
    assert got.kind == "cylinder" and got.primitive is True
    assert got.cylinder.twig_type == ((-1, -1),)

    top_right = _fig3_tree(
        [
            Edge("b", "o", (-1, -1), Fraction(2)),
            Edge("o", "t1", (-2, -2), None),
            Edge("o", "t2", (1, 0), None),
            Edge("o", "t3", (0, 1), None),
        ],
        {"o": (Fraction(0), Fraction(0)), "t1": None, "t2": None, "t3": None},
    )
    got = classify(model, top_right)
    assert got.kind == "cylinder" and got.primitive is False

    mutated = _fig3_tree([Edge("b", "t1", (-2, -2), None)], {"t1": None})
    got = classify(model, mutated)
    assert got.kind == "invalid"
    assert any("balanc" in r for r in got.reasons)
    _report(8, "figure fixtures classify as expected; mutation is invalid with a named clause")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"twig_type": [[1, 0], [0, 1]]}))
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"twig_type": [[-1, -1]]}))
    outputs = {"walls": set(), "count": set(), "render": set()}
    for k in range(2):
        assert main(["walls", "--steps", "2"]) == 0
        outputs["walls"].add(capsys.readouterr().out)
        assert main(["count", str(spec), "--json"]) == 0
        outputs["count"].add(capsys.readouterr().out)
        path = tmp_path / f"walls{k}.svg"
        assert main(["render", "walls", "--steps", "2", "--svg", str(path)]) == 0
        capsys.readouterr()
        outputs["render"].add(path.read_bytes())
    assert all(len(v) == 1 for v in outputs.values())
    assert outputs["walls"].pop() == (GOLDEN / "walls_cubic_steps2.txt").read_text()
    assert outputs["count"].pop() == (GOLDEN / "count_two_leaves.json").read_text()
    assert outputs["render"].pop() == (GOLDEN / "walls_cubic_steps2.svg").read_bytes()
    cyl_svg = tmp_path / "cyl.svg"
    assert main(["render", "cylinder", str(single), "--svg", str(cyl_svg)]) == 0
    capsys.readouterr()
    assert cyl_svg.read_bytes() == (GOLDEN / "cylinder_single_leaf.svg").read_bytes()
    _report(9, "walls, count --json, and render are byte-identical and match golden files")
