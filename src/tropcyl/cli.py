"""Command line interface: wall generation, counting, verification, rendering.

Exit codes: 0 success, 2 parse or configuration error, 3 cylinder not
primitive, 4 class outside the primitive counting scope, 5 identity
violation during verification, 6 unknown render target.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

from . import config as cfg
from .counting import (
    build_cylinder,
    check_multiplicities,
    cylinder_count,
    default_table,
    splitting_measure,
    splitting_sum,
)
from .deformation import replay_count
from .errors import (
    ConfigError,
    IdentityViolation,
    NotPrimitiveCylinder,
    OutOfPrimitiveScope,
    TropcylError,
    ZeroVector,
)
from .lattice import norm
from .model import cubic_model
from .svg import render_tree, render_walls
from .tropical import cylinder_tree
from .walls import RULES, generate_walls, is_wall_direction

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_PRIMITIVE = 3
EXIT_OUT_OF_SCOPE = 4
EXIT_IDENTITY = 5
EXIT_RENDER_TARGET = 6
_EXIT_CODES = (
    (NotPrimitiveCylinder, EXIT_NOT_PRIMITIVE),
    (OutOfPrimitiveScope, EXIT_OUT_OF_SCOPE),
    (IdentityViolation, EXIT_IDENTITY),
)

# `count` lists and `verify` compares prod_s |leaf rows_s| rows. 3^8 rows
# (8 leaves, every l_i = 3, 12-ray model, default table) take `verify`
# 0.18-0.30 s and `count` 0.05-0.10 s (Python 3.11.7, 2 shared vCPUs).
MAX_ROWS = 3**8

# Randomized cases `verify` draws without --cases.
DEFAULT_CASES = 20


def _load_config(args) -> cfg.Config:
    config = cfg.parse_config(cfg.load_json(args.config)) if args.config else cfg.Config(cubic_model())
    given = {k: getattr(args, k, None) for k in ("steps", "norm_bound", "rule")}
    walls = replace(config.walls, **{k: v for k, v in given.items() if v is not None})
    return replace(config, walls=cfg.check_walls(walls, "--steps", "--norm-bound"))


def _draw(render, *args) -> str:
    """render(*args), refused when a drawing coordinate does not fit a float."""
    try:
        return render(*args)
    except OverflowError:
        raise ConfigError("render", "a drawing coordinate does not fit a float")


def _refuse_wall_flags(args, reason: str) -> None:
    """Refuse the first wall generation flag given, for a command that
    generates no walls."""
    for flag, value in (("--steps", args.steps), ("--norm-bound", args.norm_bound), ("--rule", args.rule)):
        if value is not None:
            raise ConfigError(flag, reason)


def cmd_walls(args) -> int:
    if args.is_wall is not None:
        _refuse_wall_flags(args, "a direction query generates no walls")
        if args.svg or args.json:
            raise ConfigError("--is-wall", "a direction query writes no --svg or --json")
        try:
            x, y = (int(p) for p in args.is_wall.split(","))
        except ValueError:
            raise ConfigError("--is-wall", "expected X,Y with integer entries")
        if (x, y) == (0, 0):
            raise ConfigError("--is-wall", "zero vector has no direction")
        print("true" if is_wall_direction(_load_config(args).model, (x, y)) else "false")
        return EXIT_OK
    config = _load_config(args)
    model = config.model
    walls = generate_walls(model, config.walls.steps, config.walls.norm_bound, config.walls.rule)
    # Drawn before the listing prints, so a refused drawing prints nothing.
    text = _draw(render_walls, walls, config.render) if args.svg else None
    if args.json:
        out = {
            "rule": walls.rule,
            "steps": walls.steps,
            "norm_bound": walls.norm_bound,
            "walls": [
                {"direction": list(d), "step": s, "norm": norm(model.fan, d)}
                for d, s in walls.directions
            ],
        }
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for d, s in walls.directions:
            print(f"{d[0]},{d[1]} step {s} norm {norm(model.fan, d)}")
    if args.svg:
        Path(args.svg).write_text(text)
    return EXIT_OK


def _load_spec(args, model):
    if not args.spec:
        raise ConfigError("spec", "a cylinder spec file is required")
    return cfg.parse_cylinder_spec(cfg.load_json(args.spec), model)


def _load_table(args, model):
    """The --table file's table, or None: each count of a spec then builds
    the default table at its leaves' rays alone."""
    if args.table:
        return cfg.parse_table(cfg.load_json(args.table), model)
    return None


def _count_data(model, cyl, table, path: str):
    """The cylinder's count data, refused at path when its listing has more
    than MAX_ROWS rows."""
    data = cylinder_count(model, cyl, table)
    if data.rows > MAX_ROWS:
        raise ConfigError(path, f"the listing has {data.rows} rows, more than {MAX_ROWS}")
    return data


def cmd_count(args) -> int:
    config = _load_config(args)
    model = config.model
    cyl, beta = _load_spec(args, model)
    table = _load_table(args, model)
    data = _count_data(model, cyl, table, "spec.twig_type")
    entries = data.contributing
    # The query is answered before either format writes, so a class outside
    # the scope prints nothing.
    if beta is not None:
        n, s = data.count(beta), splitting_sum(model, cyl, beta, table)
    if args.json:
        out = {
            "twig_type": [list(w) for w in cyl.twig_type],
            "contributing": [
                {
                    "choice": list(choice),
                    "class": cfg.profile_to_dict(model, b),
                    "count": k,
                }
                for choice, b, k in entries
            ],
        }
        if beta is not None:
            out["query"] = {"class": cfg.profile_to_dict(model, beta), "count": n, "splitting_sum": s}
        print(json.dumps(out, indent=2, sort_keys=True))
        return EXIT_OK
    for choice, b, k in entries:
        dE = " ".join(f"E{i}{j}:{c}" for (i, j), c in b.dE)
        print(f"choice {','.join(map(str, choice))}  dD {list(b.dD)}  {dE}  count {k}")
    if beta is not None:
        print(f"query count {n}  splitting_sum {s}")
    return EXIT_OK


def _random_twig(model, rng) -> tuple:
    dirs = list(model.exceptional_directions)
    t = rng.randint(1, min(3, len(dirs)))
    return tuple(rng.sample(dirs, t))


def _verify_one(model, cyl, table, path: str) -> int:
    """Check an extended cylinder's summed listing against the splitting-sum
    oracle at every class either holds, then replay the induction once and
    return its t steps; a listing over the row cap is refused at path. The
    replay checks L1, the closed form as one product measure, against the
    same listing and against the pruned query at one class: on a table whose
    classes meet other leaves' pairs, one query can cost a product of leaf sizes."""
    data = _count_data(model, cyl, table, path)
    listed, oracle = data.listed, splitting_measure(model, cyl, table)
    for beta in dict.fromkeys([*listed, *oracle]):
        check_multiplicities(beta)
        s, n = oracle.get(beta, 0), listed.get(beta, 0)
        if s != n:
            where = json.dumps(cfg.profile_to_dict(model, beta))
            raise IdentityViolation(f"listed {n}, splitting sum {s} for class {where}")
    rep = replay_count(data, data.contributing[0][1] if data.contributing else None)
    if not rep.ok:
        bad = next(ch for ch in rep.checks if not ch.ok)
        raise IdentityViolation(f"{bad.name}: {bad.detail}")
    return len(data.comps)


def cmd_verify(args) -> int:
    if args.spec:
        for flag, value in (("--seed", args.seed), ("--cases", args.cases)):
            if value is not None:
                raise ConfigError(flag, "a spec run draws no random cases")
    config = _load_config(args)
    model = config.model
    cases = DEFAULT_CASES if args.cases is None else args.cases
    if cases < 0:
        raise ConfigError("--cases", "must be >= 0")
    table = _load_table(args, model)
    if args.spec:
        cyl = replace(_load_spec(args, model)[0], extended=True)
        print(f"PASS, {_verify_one(model, cyl, table, 'spec.twig_type')} induction steps")
        return EXIT_OK
    if not model.exceptional_directions:
        print("PASS, 0 cases, 0 induction steps")
        return EXIT_OK
    if table is None:
        table = default_table(model)
    rng = random.Random(args.seed if args.seed is not None else 0)
    done = 0
    steps_total = 0
    # Each distinct drawn twig, so each distinct cylinder, is built and
    # verified once; a repeat draw counts its stored steps again, or is
    # skipped again (None) when its leaves sum to zero.
    steps: dict = {}
    while done < cases:
        twig = _random_twig(model, rng)
        if twig not in steps:
            try:
                cyl = build_cylinder(model, twig, extended=True)
                # A draw over the cap ends the run: redrawing might never stop.
                steps[twig] = _verify_one(model, cyl, table, "--cases")
            except ZeroVector:
                steps[twig] = None
        if steps[twig] is None:
            continue
        steps_total += steps[twig]
        done += 1
    print(f"PASS, {done} cases, {steps_total} induction steps")
    return EXIT_OK


def cmd_render(args) -> int:
    target = args.target
    if target == "walls" and args.spec:
        raise ConfigError("spec", "a wall drawing reads no cylinder spec")
    if target == "cylinder":
        _refuse_wall_flags(args, "a cylinder drawing generates no walls")
    config = _load_config(args)
    model = config.model
    if target == "walls":
        walls = generate_walls(
            model, config.walls.steps, config.walls.norm_bound, config.walls.rule
        )
        text = _draw(render_walls, walls, config.render)
    elif target == "cylinder":
        cyl, _ = _load_spec(args, model)
        text = _draw(render_tree, model, cylinder_tree(model, cyl), config.render)
    else:
        print(f"unknown render target: {target}", file=sys.stderr)
        return EXIT_RENDER_TARGET
    if args.svg:
        Path(args.svg).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tropcyl")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--config": dict(help="config JSON path"),
        "--svg": dict(help="write an SVG diagram to this path"),
        "--json": dict(action="store_true", help="machine-readable output"),
        "--seed": dict(type=int, help="seed for randomized verification"),
        "--table": dict(help="elementary table JSON path"),
        "--steps": dict(type=int, help="wall generation steps"),
        "--norm-bound": dict(type=int, help="prune walls above this fan norm"),
        "--rule": dict(choices=RULES, help="wall generation rule"),
        "--is-wall": dict(help="query a direction X,Y instead of listing"),
        "--cases": dict(type=int, help=f"randomized case count (default {DEFAULT_CASES})"),
    }

    def add(name, func, summary, *names):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flag in ("--config",) + names:
            p.add_argument(flag, **flags[flag])
        return p

    walls_flags = ("--steps", "--norm-bound", "--rule")
    add("walls", cmd_walls, "generate and list the wall structure",
        "--svg", "--json", *walls_flags, "--is-wall")
    p_count = add("count", cmd_count, "contributing classes and counts for a cylinder",
                  "--table", "--json")
    p_verify = add("verify", cmd_verify, "check counting identities and the induction replay",
                   "--table", "--seed", "--cases")
    p_render = add("render", cmd_render, "write an SVG diagram", "--svg", *walls_flags)
    p_render.add_argument("target", help='"walls" or "cylinder"')
    for p in (p_count, p_verify, p_render):
        p.add_argument("spec", nargs="?", help="cylinder spec JSON path")

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except TropcylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), EXIT_PARSE)
