"""JSON configuration and serialization for the command line tools.

Wire formats are plain JSON: integer pairs for lattice vectors, "a/b"
strings (or integers) for rationals, and intersection profiles
{"dD": [...], "dE": [[i, j, c], ...]} for curve classes. Every parse error
raises ConfigError with the JSON path of the offending value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import classes as cls
from .counting import ElementaryCountTable, build_cylinder
from .errors import ConfigError, TropcylError
from .model import ToricModel, build_model
from .svg import PALETTES, RenderOptions
from .tropical import Cylinder
from .walls import RULES

# pair_sum takes 0.23 s at norm bound 40 and 4.4 s at 80 (cubic model, 10^5 steps).
MAX_NORM_BOUND = 40


@dataclass(frozen=True)
class WallParams:
    steps: int = 2
    norm_bound: int = 10
    rule: str = "pair_sum"


@dataclass(frozen=True)
class Config:
    model: ToricModel
    walls: WallParams = WallParams()
    render: RenderOptions = field(default_factory=RenderOptions)


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _int(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    return value


def _vec(value, path: str) -> tuple[int, int]:
    _expect(isinstance(value, (list, tuple)) and len(value) == 2, path, "expected an integer pair")
    return (_int(value[0], f"{path}[0]"), _int(value[1], f"{path}[1]"))


def _rational(value, path: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(path, f"not a rational: {value!r}")
    raise ConfigError(path, "expected an integer or an 'a/b' string")


def _rational_pair(value, path: str) -> tuple[Fraction, Fraction]:
    _expect(isinstance(value, (list, tuple)) and len(value) == 2, path, "expected a rational pair")
    return (_rational(value[0], f"{path}[0]"), _rational(value[1], f"{path}[1]"))


def _obj(value, path: str) -> dict:
    _expect(isinstance(value, dict), path, "expected an object")
    return value


def parse_model(data) -> ToricModel:
    data = _obj(data, "model")
    fan = _obj(data.get("fan"), "model.fan")
    rays_raw = fan.get("rays")
    _expect(isinstance(rays_raw, list) and rays_raw, "model.fan.rays", "expected a nonempty list")
    rays = tuple(_vec(r, f"model.fan.rays[{k}]") for k, r in enumerate(rays_raw))
    blow_raw = data.get("blowups")
    _expect(isinstance(blow_raw, list), "model.blowups", "expected a list")
    blowups = tuple(_int(b, f"model.blowups[{k}]") for k, b in enumerate(blow_raw))
    try:
        return build_model(rays, blowups)
    except TropcylError as exc:
        raise ConfigError("model", str(exc))


def check_walls(
    walls: WallParams, steps_path: str = "walls.steps", bound_path: str = "walls.norm_bound"
) -> WallParams:
    """Return walls after checking its ranges; the paths address errors."""
    _expect(walls.steps >= 0, steps_path, "must be >= 0")
    _expect(1 <= walls.norm_bound <= MAX_NORM_BOUND, bound_path, f"must be in 1..{MAX_NORM_BOUND}")
    return walls


def parse_config(data) -> Config:
    data = _obj(data, "$")
    model = parse_model(data.get("model"))
    walls = WallParams()
    if "walls" in data:
        w = _obj(data["walls"], "walls")
        rule = w.get("rule", walls.rule)
        _expect(rule in RULES, "walls.rule", f"expected one of {RULES}")
        walls = check_walls(WallParams(
            steps=_int(w.get("steps", walls.steps), "walls.steps"),
            norm_bound=_int(w.get("norm_bound", walls.norm_bound), "walls.norm_bound"),
            rule=rule,
        ))
    render = RenderOptions()
    if "render" in data:
        r = _obj(data["render"], "render")
        palette = r.get("palette", render.palette)
        _expect(
            isinstance(palette, str) and palette in PALETTES,
            "render.palette", f"expected one of {tuple(PALETTES)}",
        )
        width = _int(r.get("width", render.width), "render.width")
        height = _int(r.get("height", render.height), "render.height")
        scale = r.get("scale", render.scale)
        _expect(
            isinstance(scale, (int, float)) and not isinstance(scale, bool)
            and math.isfinite(scale) and scale > 0,
            "render.scale", "expected a positive finite number",
        )
        _expect(width > 0 and height > 0, "render.width", "dimensions must be positive")
        render = RenderOptions(width, height, float(scale), palette)
    return Config(model, walls, render)


def parse_profile(data, model: ToricModel, path: str = "class") -> cls.CurveClass:
    data = _obj(data, path)
    dD_raw = data.get("dD")
    _expect(isinstance(dD_raw, list), f"{path}.dD", "expected a list")
    _expect(len(dD_raw) == model.m, f"{path}.dD", f"expected {model.m} entries")
    dD = tuple(_int(v, f"{path}.dD[{k}]") for k, v in enumerate(dD_raw))
    dE_raw = data.get("dE", [])
    _expect(isinstance(dE_raw, list), f"{path}.dE", "expected a list")
    dE = {}
    for k, item in enumerate(dE_raw):
        _expect(
            isinstance(item, (list, tuple)) and len(item) == 3,
            f"{path}.dE[{k}]", "expected [i, j, c]",
        )
        i = _int(item[0], f"{path}.dE[{k}][0]")
        j = _int(item[1], f"{path}.dE[{k}][1]")
        c = _int(item[2], f"{path}.dE[{k}][2]")
        dE[(i, j)] = dE.get((i, j), 0) + c
    try:
        return cls.class_from_profile(model, dD, dE)
    except TropcylError as exc:
        raise ConfigError(path, str(exc))


def profile_to_dict(model: ToricModel, beta: cls.CurveClass) -> dict:
    cls.intersect(model, beta)
    return {"dD": list(beta.dD), "dE": [[i, j, c] for (i, j), c in beta.dE]}


_SPINE_PATHS = {None: "spec.spine", "twig_type": "spec.twig_type", "bend": "spec.spine.bend_at"}


def parse_cylinder_spec(
    data, model: ToricModel
) -> tuple[Cylinder, cls.CurveClass | None]:
    """Assemble a cylinder (and an optional explicit class) from a spec object.

    When "spine" is omitted the canonical cylinder for the twig type is built.
    An explicit spine is refused at the first ``Cylinder.spine_problem``
    clause it fails: ``spec.spine.p1``, then ``.p2``, nonzero;
    ``spec.twig_type`` leaves not summing to zero; ``spec.spine`` balanced,
    p1 + p2 = -(leaf sum); ``spec.spine.bend_at`` = c * (leaf sum), c != 0
    for one leaf, c < 0 for more; ``spec.spine.p1``, then ``.p2``, not
    running from the bend through the origin.
    """
    data = _obj(data, "spec")
    twig_raw = data.get("twig_type")
    _expect(isinstance(twig_raw, list) and twig_raw, "spec.twig_type", "expected a nonempty list")
    twig = tuple(_vec(w, f"spec.twig_type[{k}]") for k, w in enumerate(twig_raw))
    extended = data.get("extended", True)
    _expect(isinstance(extended, bool), "spec.extended", "expected a boolean")
    if "spine" in data:
        spine = _obj(data["spine"], "spec.spine")
        p1 = _vec(spine.get("p1"), "spec.spine.p1")
        p2 = _vec(spine.get("p2"), "spec.spine.p2")
        bend = _rational_pair(spine.get("bend_at"), "spec.spine.bend_at")
        cyl = Cylinder(p1, p2, bend, twig, extended)
        problem = cyl.spine_problem()
        if problem:
            field, message = problem
            raise ConfigError(_SPINE_PATHS.get(field, f"spec.spine.{field}"), message)
    else:
        try:
            cyl = build_cylinder(model, twig, extended)
        except TropcylError as exc:
            raise ConfigError("spec.twig_type", str(exc))
    beta = None
    if data.get("class") is not None:
        beta = parse_profile(data["class"], model, "spec.class")
    return cyl, beta


def parse_table(data, model: ToricModel) -> ElementaryCountTable:
    """Elementary table wire format: {"entries": [{"pair": [i, j],
    "counts": [{"class": profile, "count": n}, ...]}, ...]}."""
    data = _obj(data, "table")
    raw = data.get("entries")
    _expect(isinstance(raw, list), "table.entries", "expected a list")
    entries, seen = [], set()
    for k, item in enumerate(raw):
        item = _obj(item, f"table.entries[{k}]")
        pair = item.get("pair")
        path = f"table.entries[{k}].pair"
        _expect(isinstance(pair, (list, tuple)) and len(pair) == 2, path, "expected [i, j]")
        i, j = _int(pair[0], f"{path}[0]"), _int(pair[1], f"{path}[1]")
        try:
            cls._check_pair(model, i, j)
        except TropcylError as exc:
            raise ConfigError(path, str(exc))
        _expect((i, j) not in seen, path, f"pair [{i}, {j}] is listed twice")
        seen.add((i, j))
        counts = []
        raw_counts = item.get("counts")
        _expect(isinstance(raw_counts, list), f"table.entries[{k}].counts", "expected a list")
        for n, c in enumerate(raw_counts):
            c = _obj(c, f"table.entries[{k}].counts[{n}]")
            beta = parse_profile(c.get("class"), model, f"table.entries[{k}].counts[{n}].class")
            counts.append((beta, _int(c.get("count"), f"table.entries[{k}].counts[{n}].count")))
        entries.append(((i, j), tuple(counts)))
    return ElementaryCountTable(tuple(entries))


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}")
