"""Seeded inputs and the operations of the three benchmark workloads.

Each builder takes the benchmark seed and a scratch directory and returns
one round: a list of operations. Every run repeats the same round, so the
share of failed operations is the same in every run.

Operations call the program through module attributes (`counting.x(...)`),
looked up at call time, so that the tracer's wrappers see them. The seed
picks inputs whose cost does not depend on it (tables, queried classes,
toric shifts, step counts within a narrow band, query boxes, drawing sizes,
operation order), so that runs with different seeds do the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

from tropcyl import cli, counting, deformation, svg, walls
from tropcyl.classes import divisor_class
from tropcyl.config import profile_to_dict
from tropcyl.counting import ElementaryCountTable, elementary_class
from tropcyl.errors import ZeroVector
from tropcyl.model import F1_RAYS, P1XP1_RAYS, P2_RAYS, build_model

import checks

HEXAGON_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    known_fault: bool = False


def _cylinders(model, max_t: int):
    """Every primitive cylinder with at most max_t leaves, as (leaf rays, cylinder)."""
    for t in range(1, max_t + 1):
        for twig in combinations(model.exceptional_directions, t):
            try:
                cyl = counting.build_cylinder(model, twig, extended=True)
            except ZeroVector:
                continue
            yield tuple(model.fan.rays.index(w) + 1 for w in twig), cyl


class _Table:
    """An elementary table the benchmark knows: (i, j) -> [(class, count)]."""

    def __init__(self, counts: dict):
        self.counts = counts
        self.program = ElementaryCountTable(
            tuple((pair, tuple(cs)) for pair, cs in sorted(counts.items()))
        )
        self.unit = all(len(cs) == 1 and cs[0][1] == 1 for cs in counts.values())

    @classmethod
    def canonical(cls, model, rng: random.Random | None = None) -> "_Table":
        """The canonical class at every pair, counted 1 (the default table)
        or, given rng, a seeded factor 1..9."""
        return cls({
            (i, j): [(elementary_class(model, i, j), rng.randint(1, 9) if rng else 1)]
            for i, j in model.exceptional_pairs
        })

    def leaf_sum(self, model, i: int) -> int:
        return sum(n for j in range(1, model.multiplicity(i) + 1) for _, n in self.counts[(i, j)])

    def wire(self, model) -> dict:
        return {"entries": [
            {"pair": list(pair), "counts": [
                {"class": profile_to_dict(model, c), "count": n} for c, n in cs
            ]}
            for pair, cs in sorted(self.counts.items())
        ]}


def _second_class_table(model) -> _Table:
    """The default table plus E_11's class shifted by D_2, counted 3, at (1, 1)."""
    counts = _Table.canonical(model).counts
    counts[(1, 1)].append((elementary_class(model, 1, 1) + divisor_class(model.fan, 2), 3))
    return _Table(counts)


# ---------------------------------------------------------------------------
# count-queries


def _count_ops(label, model, cyl, leaf_rays, table, picks, shift):
    """total, query, shifted and spine operations for one cylinder.

    picks[s] is an index into the table's (class, count) list at the pair
    chosen for leaf s; the queried class is the cylinder's spine extension
    shift plus the picked classes, and its expected count their product.
    """
    beta = counting.spine_extension_shift(model, cyl)
    want = 1
    for (pair, k) in picks:
        c, n = table.counts[pair][k]
        beta = beta + c
        want *= n
    shifted = beta + shift
    expect_len = math.prod(model.multiplicity(i) for i in leaf_rays)
    expect_sum = math.prod(table.leaf_sum(model, i) for i in leaf_rays)
    tab = table.program

    def total_check(entries):
        pairs = [(c, n) for _, c, n in entries]
        return checks.contributing(pairs, expect_len, expect_sum, table.unit)

    return [
        Op(f"{label} total",
           lambda: counting.contributing_classes(model, cyl, tab),
           total_check),
        Op(f"{label} query",
           lambda: counting.count_primitive_cylinder(model, cyl, beta, tab),
           lambda got: checks.count(got, want, counting.splitting_sum(model, cyl, beta, tab))),
        Op(f"{label} shifted",
           lambda: counting.count_primitive_cylinder(model, cyl, shifted, tab),
           lambda got: checks.count(got, 0, counting.splitting_sum(model, cyl, shifted, tab))),
        Op(f"{label} spine",
           lambda: counting.count_spine(model, cyl, beta, tab),
           lambda got: checks.count(got, want, counting.splitting_sum(model, cyl, beta, tab))),
    ]


def _toric_shift(model, rng):
    """A seeded toric class sum k_i D_i, k_i in -2..2, nonzero in the class group."""
    while True:
        shift = None
        for i in range(1, model.m + 1):
            term = rng.randint(-2, 2) * divisor_class(model.fan, i)
            shift = term if shift is None else shift + term
        if not shift.is_zero():
            return shift


def count_queries(seed: int, workdir: Path) -> list[Op]:
    """Single-class closed-form queries on models with large multiplicities.

    Every primitive cylinder with t <= 3 leaves on P1xP1 and the hexagon fan,
    with l = 4 on every ray, is queried under a table the seed picks: the
    default one or one of three with seeded scaled counts. The seed also
    picks the queried class and the toric shift. A fixed group on the cubic
    model uses a table with a second class at (1, 1).
    """
    rng = random.Random(f"count-queries/{seed}")
    ops: list[Op] = []
    for name, rays, blowups in (
        ("p1xp1", P1XP1_RAYS, (4, 4, 4, 4)),
        ("hexagon", HEXAGON_RAYS, (4, 4, 4, 4, 4, 4)),
    ):
        model = build_model(rays, blowups)
        tables = [_Table.canonical(model)] + [_Table.canonical(model, rng) for _ in range(3)]
        for leaf_rays, cyl in _cylinders(model, 3):
            table = rng.choice(tables)
            picks = [((i, rng.randint(1, model.multiplicity(i))), 0) for i in leaf_rays]
            label = f"{name} leaves {leaf_rays}"
            ops += _count_ops(label, model, cyl, leaf_rays, table, picks, _toric_shift(model, rng))
    ops += _second_class_count_ops()
    rng.shuffle(ops)
    return ops


def _second_class_count_ops() -> list[Op]:
    """Known fault: the closed form looks up only the canonical class at a pair.

    Cubic model, leaves (1,0) and (0,1), the default table plus
    E_11's class + D_2 counted 3 at (1, 1). Inputs do not depend on the seed.
    """
    model = build_model(P2_RAYS, (2, 2, 2))
    table = _second_class_table(model)
    cyl = counting.build_cylinder(model, ((1, 0), (0, 1)), extended=True)
    shift = -1 * divisor_class(model.fan, 1)
    canonical = _count_ops("cubic second-class canonical", model, cyl, (1, 2), table,
                           [((1, 1), 0), ((2, 1), 0)], shift)
    extra = _count_ops("cubic second-class extra", model, cyl, (1, 2), table,
                       [((1, 1), 1), ((2, 1), 0)], shift)
    # The fault shows in the total and in the extra class's query and spine;
    # the canonical class's query, shifted and spine ops must still pass.
    for op in (canonical[0], extra[1], extra[3]):
        op.known_fault = True
    # total, query, shifted, spine of the canonical class; query, spine of the extra one.
    return canonical + [extra[1], extra[3]]


# ---------------------------------------------------------------------------
# walls-fixpoint

# (name, rays, blowups, norm bounds); every ray is supported.
_WALL_MODELS = (
    ("cubic", P2_RAYS, (2, 2, 2), (6, 8, 10)),
    ("p1xp1", P1XP1_RAYS, (1, 1, 1, 1), (4, 6, 8)),
    ("f1", F1_RAYS, (1, 1, 1, 1), (4, 6, 8)),
    ("hexagon", HEXAGON_RAYS, (1, 1, 1, 1, 1, 1), (4, 5, 6)),
)
# Models for membership queries only; their supported rays span a proper cone.
_PARTIAL_MODELS = (
    ("p1xp1-half", P1XP1_RAYS, (1, 1, 0, 0)),
    ("hexagon-part", HEXAGON_RAYS, (0, 1, 1, 1, 0, 0)),
)


def _render_options(rng):
    size = rng.choice((360, 480, 600))
    return svg.RenderOptions(size, size, float(rng.choice((40, 60, 80))), rng.choice(("default", "mono")))


def walls_fixpoint(seed: int, workdir: Path) -> list[Op]:
    """generate_walls under both rules, below and well past saturation.

    Per model and norm bound, each rule runs at a seeded 1 or 2 steps and at
    3 * bound + (seeded 0 or 1) steps; every structure is also rendered. A box
    of 400 directions around a seeded centre is queried with
    is_wall_direction on each model, two of them partly supported.
    """
    rng = random.Random(f"walls-fixpoint/{seed}")
    groups: list[list[Op]] = []
    made: dict = {}
    for name, rays, blowups, bounds in _WALL_MODELS:
        model = build_model(rays, blowups)
        gens = model.exceptional_directions
        for bound in bounds:
            for rule in walls.RULES:
                for steps in (rng.randint(1, 2), 3 * bound + rng.randint(0, 1)):
                    key = (name, bound, rule, steps)
                    groups.append([
                        _walls_op(key, model, rays, gens, steps, bound, rule, made),
                        _render_op(key, made, _render_options(rng)),
                    ])
    for name, rays, blowups, *_ in _WALL_MODELS + _PARTIAL_MODELS:
        model = build_model(rays, blowups)
        cx, cy = rng.randint(-6, 6), rng.randint(-6, 6)
        box = [(x, y) for x in range(cx - 10, cx + 11) for y in range(cy - 10, cy + 11)]
        dirs = [d for d in box if d != (0, 0)][:400]
        groups.append([_wall_query_op(name, model, dirs)])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def _walls_op(key, model, rays, gens, steps, bound, rule, made) -> Op:
    def run():
        made[key] = walls.generate_walls(model, steps, bound, rule)
        return made[key]

    return Op(f"walls {key}", run,
              lambda s: checks.walls(rays, gens, steps, bound, s.directions))


def _render_op(key, made, opts) -> Op:
    """Draws the structure that the generate op just before it made."""
    return Op(f"render {key}",
              lambda: svg.render_walls(made[key], opts),
              lambda text: checks.walls_svg(text, len(made[key].directions), opts.width, opts.height))


def _wall_query_op(name, model, dirs) -> Op:
    gens = model.exceptional_directions
    return Op(f"is_wall {name}",
              lambda: [walls.is_wall_direction(model, d) for d in dirs],
              lambda answers: checks.wall_queries(gens, dirs, answers))


# ---------------------------------------------------------------------------
# verify-session

_SESSION_MODELS = (
    ("cubic", P2_RAYS, (2, 2, 2)),
    ("p1xp1", P1XP1_RAYS, (3, 1, 2, 1)),
    ("f1", F1_RAYS, (1, 3, 2, 1)),
    ("hexagon", HEXAGON_RAYS, (2, 2, 2, 2, 2, 2)),
)
# `verify --cases` draws its own cylinders from --seed, and their cost spreads
# widely; fixed CLI seeds keep that part of the round the same in every run.
_CASE_SEEDS = (1, 2)
_CASES = 10
_SPEC_MODELS = ("cubic", "p1xp1", "f1")


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def verify_session(seed: int, workdir: Path) -> list[Op]:
    """In-process CLI sessions on generated config, spec and table files.

    On four models, `verify --cases` at fixed CLI seeds. On every primitive
    cylinder with t <= 2 on the cubic, P1xP1 and F1 models, under a table with
    seeded scaled counts and a seeded queried class: `verify <spec> --table`,
    `count <spec> --json`, `render cylinder` and the deformation family with
    its degeneration paths at r in {None, 1, 0}. The seed also picks each
    model's drawing size and palette. A fixed `verify` on a second-class
    table shows the known closed-form fault.
    """
    rng = random.Random(f"verify-session/{seed}")
    ops: list[Op] = []
    for name, rays, blowups in _SESSION_MODELS:
        model = build_model(rays, blowups)
        size = rng.choice((360, 480, 600))
        cfg = _write(workdir / f"{name}.config.json", {
            "model": {"fan": {"rays": [list(u) for u in rays]}, "blowups": list(blowups)},
            "render": {"width": size, "height": size, "palette": rng.choice(("default", "mono"))},
        })
        for cli_seed in _CASE_SEEDS:
            argv = ["verify", "--config", cfg, "--seed", str(cli_seed), "--cases", str(_CASES)]
            ops.append(Op(f"verify {name} --seed {cli_seed}", lambda argv=argv: _cli(argv),
                          lambda r: checks.verify_cases(r, _CASES)))
        if name not in _SPEC_MODELS:
            continue
        for leaf_rays, cyl in _cylinders(model, 2):
            table = _Table.canonical(model, rng)
            stem = f"{name}-{'-'.join(map(str, leaf_rays))}"
            ops += _spec_ops(workdir, stem, model, cfg, size, leaf_rays, cyl, table, rng)
    ops.append(_second_class_verify_op(workdir))
    rng.shuffle(ops)
    return ops


def _spec_ops(workdir, stem, model, cfg, size, leaf_rays, cyl, table, rng) -> list[Op]:
    choice = [rng.randint(1, model.multiplicity(i)) for i in leaf_rays]
    beta = counting.spine_extension_shift(model, cyl)
    want = 1
    for i, j in zip(leaf_rays, choice):
        c, n = table.counts[(i, j)][0]
        beta, want = beta + c, want * n
    spec = _write(workdir / f"{stem}.spec.json", {
        "twig_type": [list(w) for w in cyl.twig_type],
        "class": profile_to_dict(model, beta),
    })
    tab = _write(workdir / f"{stem}.table.json", table.wire(model))
    factors = {pair: cs[0][1] for pair, cs in table.counts.items()}
    svg_path = workdir / f"{stem}.svg"
    t = len(leaf_rays)
    blowups = model.blowups

    def render_check(result):
        text = svg_path.read_text() if svg_path.exists() else None
        return checks.cylinder_svg(result, text, size, size)

    def deform():
        fam = deformation.build_deformation(model, cyl)
        steps = []
        for k in range(1, fam.t + 1):
            for r in (None, Fraction(1), Fraction(0)):
                d = deformation.degeneration_path(fam, k, r)
                steps.append((k, r, d.coincide, len(d.first.legs), len(d.second.legs)))
        return len(fam.curves), steps

    return [
        Op(f"verify {stem}", lambda: _cli(["verify", spec, "--config", cfg, "--table", tab]),
           lambda r: checks.verify_spec(r, t)),
        Op(f"count {stem}", lambda: _cli(["count", spec, "--config", cfg, "--table", tab, "--json"]),
           lambda r: checks.count_json(r, leaf_rays, blowups, factors, want)),
        Op(f"render {stem}",
           lambda: _cli(["render", "cylinder", spec, "--config", cfg, "--svg", str(svg_path)]),
           render_check),
        Op(f"deform {stem}", deform, lambda out: checks.degeneration(t, *out)),
    ]


def _second_class_verify_op(workdir) -> Op:
    """Known fault: `verify` exits 5 on a table with a second class at (1, 1).

    Cubic model (the CLI default), leaves (1,0) and (0,1); seed-independent.
    """
    model = build_model(P2_RAYS, (2, 2, 2))
    spec = _write(workdir / "second-class.spec.json", {"twig_type": [[1, 0], [0, 1]]})
    tab = _write(workdir / "second-class.table.json", _second_class_table(model).wire(model))
    return Op("verify cubic second-class table",
              lambda: _cli(["verify", spec, "--table", tab]),
              lambda r: checks.verify_spec(r, 2), known_fault=True)


WORKLOADS = {
    "count-queries": count_queries,
    "walls-fixpoint": walls_fixpoint,
    "verify-session": verify_session,
}
