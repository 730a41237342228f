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

from . import classes as cls
from . import config as cfg
from .counting import (
    build_cylinder,
    cylinder_count,
    default_table,
    measure,
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

DEFAULT_CONFIG = {
    "model": {
        "fan": {"rays": [[1, 0], [0, 1], [-1, -1]]},
        "blowups": [2, 2, 2],
    }
}


def _load_config(args) -> cfg.Config:
    data = cfg.load_json(args.config) if args.config else DEFAULT_CONFIG
    config = cfg.parse_config(data)
    given = {k: getattr(args, k, None) for k in ("steps", "norm_bound", "rule")}
    walls = replace(config.walls, **{k: v for k, v in given.items() if v is not None})
    return replace(config, walls=cfg.check_walls(walls, "--steps", "--norm-bound"))


def _write_svg(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def cmd_walls(args) -> int:
    config = _load_config(args)
    model = config.model
    if args.is_wall is not None:
        try:
            x, y = (int(p) for p in args.is_wall.split(","))
        except ValueError:
            raise ConfigError("--is-wall", "expected X,Y with integer entries")
        if (x, y) == (0, 0):
            raise ConfigError("--is-wall", "zero vector has no direction")
        print("true" if is_wall_direction(model, (x, y)) else "false")
        return EXIT_OK
    walls = generate_walls(model, config.walls.steps, config.walls.norm_bound, config.walls.rule)
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
        _write_svg(args.svg, render_walls(walls, config.render))
    return EXIT_OK


def _load_spec(args, model):
    if not args.spec:
        raise ConfigError("spec", "a cylinder spec file is required")
    return cfg.parse_cylinder_spec(cfg.load_json(args.spec), model)


def _load_table(args, model):
    if args.table:
        return cfg.parse_table(cfg.load_json(args.table), model)
    return default_table(model)


def cmd_count(args) -> int:
    config = _load_config(args)
    model = config.model
    cyl, beta = _load_spec(args, model)
    table = _load_table(args, model)
    data = cylinder_count(model, cyl, table)
    entries = data.contributing
    if args.json:
        out = {
            "twig_type": [list(w) for w in cyl.twig_type],
            "contributing": [
                {
                    "choice": list(choice),
                    "class": cfg.profile_to_dict(model, b),
                    "count": n,
                }
                for choice, b, n in entries
            ],
        }
        if beta is not None:
            out["query"] = {
                "class": cfg.profile_to_dict(model, beta),
                "count": data.count(beta),
                "splitting_sum": splitting_sum(model, cyl, beta, table),
            }
        print(json.dumps(out, indent=2, sort_keys=True))
        return EXIT_OK
    for choice, b, n in entries:
        prof = cls.intersect(model, b)
        dE = " ".join(f"E{i}{j}:{c}" for (i, j), c in sorted(prof.dE))
        print(f"choice {','.join(map(str, choice))}  dD {list(prof.dD)}  {dE}  count {n}")
    if beta is not None:
        n = data.count(beta)
        s = splitting_sum(model, cyl, beta, table)
        print(f"query count {n}  splitting_sum {s}")
    return EXIT_OK


def _random_twig(model, rng) -> tuple:
    dirs = list(model.exceptional_directions)
    t = rng.randint(1, min(3, len(dirs)))
    return tuple(rng.sample(dirs, t))


def _verify_one(model, cyl, table) -> int:
    data = cylinder_count(model, cyl, table)
    entries = data.contributing
    listed = measure((b, k) for _, b, k in entries)
    oracle = splitting_measure(model, cyl, table)
    for beta in dict.fromkeys([*listed, *oracle]):
        c, s, n = data.count(beta), oracle.get(beta, 0), listed.get(beta, 0)
        if not (c == s == n):
            raise IdentityViolation(
                f"closed form {c}, splitting sum {s}, listed {n} for class {beta}"
            )
    steps = 0
    if entries:
        rep = replay_count(data, entries[0][1])
        steps = sum(1 for ch in rep.checks if ch.name.startswith("splitting-"))
        if not rep.ok:
            bad = next(ch for ch in rep.checks if not ch.ok)
            raise IdentityViolation(f"{bad.name}: {bad.detail}")
    return steps


def cmd_verify(args) -> int:
    config = _load_config(args)
    model = config.model
    if args.cases < 0:
        raise ConfigError("--cases", "must be >= 0")
    table = _load_table(args, model)
    if args.spec:
        cyl, _ = cfg.parse_cylinder_spec(cfg.load_json(args.spec), model)
        if not cyl.extended:
            cyl = replace(cyl, extended=True)
        steps = _verify_one(model, cyl, table)
        print(f"PASS, {steps} induction steps")
        return EXIT_OK
    if not model.exceptional_directions:
        print("PASS, 0 cases, 0 induction steps")
        return EXIT_OK
    rng = random.Random(args.seed if args.seed is not None else 0)
    done = 0
    steps_total = 0
    while done < args.cases:
        twig = _random_twig(model, rng)
        try:
            cyl = build_cylinder(model, twig, extended=True)
            steps_total += _verify_one(model, cyl, table)
        except ZeroVector:
            continue
        done += 1
    print(f"PASS, {done} cases, {steps_total} induction steps")
    return EXIT_OK


def cmd_render(args) -> int:
    config = _load_config(args)
    model = config.model
    target = args.target
    if target == "walls":
        walls = generate_walls(
            model, config.walls.steps, config.walls.norm_bound, config.walls.rule
        )
        text = render_walls(walls, config.render)
    elif target == "cylinder":
        cyl, _ = _load_spec(args, model)
        if len(cyl.twig_type) > 1 and cyl.leaf_sum == (0, 0):
            raise ConfigError("spec.twig_type", "leaf weights sum to zero; no bend direction")
        text = render_tree(model, cylinder_tree(model, cyl), config.render)
    else:
        print(f"unknown render target: {target}", file=sys.stderr)
        return EXIT_RENDER_TARGET
    if args.svg:
        _write_svg(args.svg, text)
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
        "--cases": dict(type=int, default=20, help="randomized case count"),
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


if __name__ == "__main__":
    sys.exit(main())
