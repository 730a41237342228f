import ast
import sys
from pathlib import Path

import pytest

import tropcyl
from tropcyl.errors import AlreadyRay, LengthMismatch, NegativeMultiplicity, ZeroVector
from tropcyl.lattice import Fan
from tropcyl.model import P2_RAYS, build_model, cubic_model, refine_model


def test_cubic_model(cubic):
    assert cubic.m == 3
    assert len(cubic.exceptional_pairs) == 6


def test_toric_model_has_no_exceptional_data():
    m = build_model(P2_RAYS, (0, 0, 0))
    assert m.exceptional_pairs == ()
    assert m.exceptional_directions == ()
    assert m.is_toric


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        build_model(P2_RAYS, (1, 0))


def test_negative_multiplicity():
    with pytest.raises(NegativeMultiplicity):
        build_model(P2_RAYS, (1, -1, 0))


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
    """Rotating the rays and the multiplicities together gives an equal model;
    rotating the rays alone moves l_i to another ray and does not."""
    a = build_model(P2_RAYS, (2, 2, 1))
    rotated = ((0, 1), (-1, -1), (1, 0))
    assert a == build_model(rotated, (2, 1, 2))
    assert hash(a) == hash(build_model(rotated, (2, 1, 2)))
    b = build_model(rotated, (2, 2, 1))
    assert a.fan == b.fan and a.blowups == b.blowups
    assert a != b
    assert len({a, b}) == 2


def test_every_exported_name_resolves():
    assert len(set(tropcyl.__all__)) == len(tropcyl.__all__)
    for name in tropcyl.__all__:
        assert getattr(tropcyl, name) is not None, name
    source = ast.parse(Path(tropcyl.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in source.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(tropcyl.__all__) == imported


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
