import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tropcyl
from tropcyl.classes import intersect
from tropcyl.counting import elementary_class
from tropcyl.errors import (
    AlreadyRay,
    LengthMismatch,
    ModelMismatch,
    NegativeMultiplicity,
    RayIndexOutOfRange,
    ZeroVector,
)
from tropcyl.lattice import Fan
from tropcyl.model import P2_RAYS, build_model, cubic_model, refine_model


def test_cubic_model(cubic):
    assert cubic.m == 3
    assert len(cubic.exceptional_pairs) == 6


def test_toric_model_has_no_exceptional_data():
    m = build_model(P2_RAYS, (0, 0, 0))
    assert m.exceptional_pairs == ()
    assert m.exceptional_directions == ()


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        build_model(P2_RAYS, (1, 0))


def test_negative_multiplicity():
    with pytest.raises(NegativeMultiplicity):
        build_model(P2_RAYS, (1, -1, 0))


def test_multiplicity_out_of_range(cubic):
    for i in (0, 4):
        with pytest.raises(RayIndexOutOfRange, match=f"^ray index {i} out of range 1..3$"):
            cubic.multiplicity(i)


def test_exceptional_directions(cubic):
    assert cubic.exceptional_directions == ((1, 0), (0, 1), (-1, -1))


def test_exceptional_directions_partial():
    m = build_model(P2_RAYS, (1, 0, 0))
    assert m.exceptional_directions == ((1, 0),)


def test_refine_model_insertion(cubic):
    refined = refine_model(cubic, (1, 1))
    assert refined.fan == Fan(((1, 0), (1, 1), (0, 1), (-1, -1)))
    idx = refined.fan.ray_index((1, 1))
    assert refined.blowups[idx - 1] == 0
    assert sum(refined.blowups) == sum(cubic.blowups)


def test_refine_model_two_insertions(cubic):
    refined = refine_model(cubic, (2, 1))
    assert refined.m == 5
    for d in ((2, 1), (1, 1)):
        assert refined.blowups[refined.fan.ray_index(d) - 1] == 0


def test_refine_model_already_ray(cubic):
    with pytest.raises(AlreadyRay):
        refine_model(cubic, (1, 0))


def test_refine_preserves_original_multiplicities(cubic):
    refined = refine_model(cubic, (1, 1))
    for i, u in enumerate(cubic.fan.rays, start=1):
        assert refined.multiplicity(refined.fan.ray_index(u)) == cubic.multiplicity(i)


def test_cubic_model_helper():
    m = cubic_model()
    assert m.fan.rays == P2_RAYS
    assert m.blowups == (2, 2, 2)


def test_model_equality_keeps_each_multiplicity_on_its_ray():
    """Models compare rays and multiplicities by position: rotating both
    together renumbers the rays, and rotating the rays alone moves l_i to
    another ray, so each gives another model."""
    a = build_model(P2_RAYS, (2, 2, 1))
    rotated = ((0, 1), (-1, -1), (1, 0))
    b = build_model(rotated, (2, 1, 2))
    c = build_model(rotated, (2, 2, 1))
    assert a != b and b != c and a != c
    assert len({a, b, c}) == 3
    assert a == build_model(P2_RAYS, (2, 2, 1))
    assert hash(a) == hash(build_model(P2_RAYS, (2, 2, 1)))
    # Model equality agrees with the classes' own positional check.
    with pytest.raises(ModelMismatch):
        intersect(b, elementary_class(a, 1, 1))


def test_each_module_imports_on_its_own():
    """Each submodule imports first in a fresh interpreter: the package root
    imports none of them, so no fixed import order hides a cycle."""
    src = Path(tropcyl.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    modules = sorted(p.stem for p in src.joinpath("tropcyl").glob("*.py") if p.stem != "__init__")
    assert "cli" in modules and "counting" in modules
    for name in modules:
        run = subprocess.run(
            [sys.executable, "-c", f"import tropcyl.{name}"], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, (name, run.stderr)


def test_the_console_script_resolves():
    """Every [project.scripts] entry of pyproject.toml names a callable
    module:attribute pair. Read with a regex: tomllib is missing on 3.10."""
    text = (Path(tropcyl.__file__).parents[2] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n|\n)*)", text, re.M).group(1)
    scripts = dict(re.findall(r'^(\S+)\s*=\s*"([^"]+)"', section, re.M))
    assert scripts == {"tropcyl": "tropcyl.cli:main"}
    for target in scripts.values():
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr)), target


def test_exceptional_ray(cubic):
    """Any positive multiple of u_i heads toward ray i; a direction off the
    rays, or toward a ray with l_i = 0, reaches no exceptional curve."""
    assert cubic.exceptional_ray((2, 0)) == 1
    assert cubic.exceptional_ray((-3, -3)) == 3
    assert cubic.exceptional_ray((1, 1)) is None
    assert build_model(P2_RAYS, (2, 0, 1)).exceptional_ray((0, 1)) is None
    with pytest.raises(ZeroVector):
        cubic.exceptional_ray((0, 0))


def test_sources_import_only_the_standard_library():
    """The package promises to depend on nothing outside the standard library."""
    for path in sorted(Path(tropcyl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "tropcyl" or top in sys.stdlib_module_names, (path.name, name)


def _cache_decorators(tree):
    """Every decorator that names functools' lru_cache or cache, as (name, node)."""
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", ()):
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = getattr(target, "id", None) or getattr(target, "attr", None)
            if name in ("lru_cache", "cache"):
                yield name, dec


def test_every_cache_is_bounded():
    """No unbounded cache: each lru_cache names a finite integer maxsize, and
    functools.cache (unbounded by design) is not used."""
    for path in sorted(Path(tropcyl.__file__).parent.glob("*.py")):
        for name, dec in _cache_decorators(ast.parse(path.read_text(), str(path))):
            where = (path.name, dec.lineno)
            assert name == "lru_cache" and isinstance(dec, ast.Call), where
            args = [kw.value for kw in dec.keywords if kw.arg == "maxsize"] + dec.args[:1]
            assert len(args) == 1, where
            maxsize = args[0]
            assert isinstance(maxsize, ast.Constant), where
            assert type(maxsize.value) is int and maxsize.value > 0, where
