import json

import pytest

from tropcyl import config as cfg
from tropcyl.classes import intersect
from tropcyl.counting import contributing_classes, default_table
from tropcyl.errors import ConfigError

CUBIC = {
    "model": {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]]}, "blowups": [2, 2, 2]},
    "walls": {"steps": 2, "norm_bound": 5, "rule": "support"},
}


def test_parse_config_basics():
    config = cfg.parse_config(CUBIC)
    assert config.model.blowups == (2, 2, 2)
    assert config.walls.steps == 2
    assert config.walls.rule == "support"


def test_parse_config_defaults():
    config = cfg.parse_config({"model": CUBIC["model"]})
    assert config.walls.rule == "pair_sum"
    assert config.render.width > 0


def test_bad_ray_is_path_addressed():
    data = {"model": {"fan": {"rays": [[1, 0], [0, 1], [-1, "x"]]}, "blowups": [0, 0, 0]}}
    with pytest.raises(ConfigError) as exc:
        cfg.parse_config(data)
    assert "model.fan.rays[2][1]" in str(exc.value)


def test_bad_rule_rejected():
    data = dict(CUBIC, walls={"rule": "magic"})
    with pytest.raises(ConfigError) as exc:
        cfg.parse_config(data)
    assert "walls.rule" in str(exc.value)


def test_unhashable_palette_is_path_addressed():
    with pytest.raises(ConfigError) as exc:
        cfg.parse_config(dict(CUBIC, render={"palette": []}))
    assert str(exc.value).startswith("render.palette: expected one of")


def test_non_list_exceptional_profile_is_path_addressed():
    model = cfg.parse_config(CUBIC).model
    with pytest.raises(ConfigError) as exc:
        cfg.parse_profile({"dD": [1, 1, 1], "dE": 5}, model)
    assert str(exc.value) == "class.dE: expected a list"


def test_non_smooth_fan_reported_at_model():
    data = {"model": {"fan": {"rays": [[1, 0], [-1, 1], [-1, -1]]}, "blowups": [0, 0, 0]}}
    with pytest.raises(ConfigError) as exc:
        cfg.parse_config(data)
    assert "model" in str(exc.value)


def test_profile_round_trip():
    model = cfg.parse_config(CUBIC).model
    beta = cfg.parse_profile({"dD": [1, 1, 0], "dE": [[3, 1, 1]]}, model)
    assert cfg.profile_to_dict(model, beta) == {"dD": [1, 1, 0], "dE": [[3, 1, 1]]}


def test_profile_length_check():
    model = cfg.parse_config(CUBIC).model
    with pytest.raises(ConfigError) as exc:
        cfg.parse_profile({"dD": [1, 1]}, model)
    assert "dD" in str(exc.value)


def test_cylinder_spec_canonical_build():
    model = cfg.parse_config(CUBIC).model
    cyl, beta = cfg.parse_cylinder_spec({"twig_type": [[-1, -1]]}, model)
    assert cyl.twig_type == ((-1, -1),)
    assert beta is None


def test_cylinder_spec_with_spine_and_class():
    model = cfg.parse_config(CUBIC).model
    data = {
        "twig_type": [[-1, -1]],
        "spine": {"p1": [1, 0], "p2": [0, 1], "bend_at": ["1/2", "1/2"]},
        "class": {"dD": [1, 1, 0], "dE": [[3, 1, 1]]},
    }
    cyl, beta = cfg.parse_cylinder_spec(data, model)
    assert cyl.p1 == (1, 0)
    assert intersect(model, beta).dE_map == {(3, 1): 1}


def test_table_round_trip(tmp_path):
    model = cfg.parse_config(CUBIC).model
    table = default_table(model)
    payload = {
        "entries": [
            {
                "pair": list(pair),
                "counts": [
                    {"class": cfg.profile_to_dict(model, c), "count": n}
                    for c, n in counts
                ],
            }
            for pair, counts in table.entries
        ]
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload))
    loaded = cfg.parse_table(cfg.load_json(str(path)), model)
    assert loaded == table


def test_load_json_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        cfg.load_json(str(tmp_path / "absent.json"))


def test_load_json_invalid(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        cfg.load_json(str(bad))


def test_loaded_table_matches_counts(tmp_path):
    model = cfg.parse_config(CUBIC).model
    from tropcyl.counting import build_cylinder

    cyl = build_cylinder(model, ((1, 0),), extended=True)
    entries = contributing_classes(model, cyl)
    assert len(entries) == 2


def test_wall_ranges_are_path_addressed():
    for walls, path in (({"steps": -1}, "walls.steps"), ({"norm_bound": 0}, "walls.norm_bound")):
        with pytest.raises(ConfigError) as exc:
            cfg.parse_config(dict(CUBIC, walls=walls))
        assert str(exc.value).startswith(f"{path}: ")


def _table_payload(model, pairs):
    beta = cfg.profile_to_dict(model, default_table(model).entries[0][1][0][0])
    return {"entries": [{"pair": list(p), "counts": [{"class": beta, "count": 1}]} for p in pairs]}


def test_table_repeated_pair_rejected():
    model = cfg.parse_config(CUBIC).model
    with pytest.raises(ConfigError) as exc:
        cfg.parse_table(_table_payload(model, [(1, 1), (2, 1), (1, 1)]), model)
    assert str(exc.value).startswith("table.entries[2].pair: ")


@pytest.mark.parametrize("pair", [(1, 3), (1, 0), (4, 1), (0, 1)])
def test_table_pair_out_of_range_rejected(pair):
    model = cfg.parse_config(CUBIC).model
    with pytest.raises(ConfigError) as exc:
        cfg.parse_table(_table_payload(model, [(1, 1), pair]), model)
    assert str(exc.value).startswith("table.entries[1].pair: ")
