import json
from pathlib import Path

import pytest

from tropcyl.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def spec_file(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_walls_listing(capsys):
    code, out = run(capsys, "walls", "--steps", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    steps = sorted(int(line.split()[2]) for line in lines)
    assert steps == [0, 0, 0, 1, 1, 1]


def test_walls_step0(capsys):
    code, out = run(capsys, "walls", "--steps", "0")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_walls_query(capsys):
    code, out = run(capsys, "walls", "--rule", "support", "--is-wall", "2,1")
    assert code == 0
    assert out.strip() == "true"


def test_walls_query_zero_vector(capsys):
    assert main(["walls", "--is-wall", "0,0"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: --is-wall: zero vector has no direction\n")


def test_walls_golden_listing(capsys):
    code, out = run(capsys, "walls", "--steps", "2")
    assert code == 0
    assert out == (GOLDEN / "walls_cubic_steps2.txt").read_text()


def test_count_single_leaf(capsys, tmp_path):
    spec = spec_file(tmp_path, {"twig_type": [[-1, -1]]})
    code, out = run(capsys, "count", spec)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(line.endswith("count 1") for line in lines)


def test_count_two_leaves_json_golden(capsys, tmp_path):
    spec = spec_file(tmp_path, {"twig_type": [[1, 0], [0, 1]]})
    code, out = run(capsys, "count", spec, "--json")
    assert code == 0
    assert out == (GOLDEN / "count_two_leaves.json").read_text()
    parsed = json.loads(out)
    assert len(parsed["contributing"]) == 4


def test_count_repeated_leaf_exit_code(capsys, tmp_path):
    spec = spec_file(tmp_path, {"twig_type": [[1, 0], [1, 0]]})
    code, _ = run(capsys, "count", spec)
    assert code == 3


def test_count_bad_spec_exit_code(capsys, tmp_path):
    spec = spec_file(tmp_path, {"twig_type": "nope"})
    code, _ = run(capsys, "count", spec)
    assert code == 2


def test_verify_spec(capsys, tmp_path):
    spec = spec_file(tmp_path, {"twig_type": [[1, 0], [0, 1]]})
    code, out = run(capsys, "verify", spec)
    assert code == 0
    assert out.startswith("PASS, 2 induction steps")


def test_verify_randomized(capsys):
    code, out = run(capsys, "verify", "--seed", "42", "--cases", "10")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_skewed_table(capsys, tmp_path):
    from tropcyl import config as cfg
    from tropcyl.counting import default_table
    from tropcyl.model import cubic_model

    model = cubic_model()
    table = default_table(model)
    payload = {
        "entries": [
            {
                "pair": list(pair),
                "counts": [
                    {"class": cfg.profile_to_dict(model, c), "count": n * (2 + k)}
                    for c, n in counts
                ],
            }
            for k, (pair, counts) in enumerate(table.entries)
        ]
    }
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(payload))
    spec = spec_file(tmp_path, {"twig_type": [[1, 0], [0, 1]]})
    code, out = run(capsys, "verify", spec, "--table", str(table_path))
    assert code == 0
    assert out.startswith("PASS")


def _table_file(tmp_path, model, by_pair):
    from tropcyl import config as cfg

    payload = {
        "entries": [
            {
                "pair": list(pair),
                "counts": [{"class": cfg.profile_to_dict(model, c), "count": n} for c, n in counts],
            }
            for pair, counts in by_pair.items()
        ]
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_second_class_table(capsys, tmp_path):
    from tropcyl.classes import divisor_class
    from tropcyl.counting import elementary_class
    from tropcyl.model import cubic_model

    model = cubic_model()
    by_pair = {pair: [(elementary_class(model, *pair), 1)] for pair in model.exceptional_pairs}
    by_pair[(1, 1)].append((elementary_class(model, 1, 1) + divisor_class(model.fan, 2), 3))
    spec = spec_file(tmp_path, {"twig_type": [[1, 0], [0, 1]]})
    code, out = run(capsys, "verify", spec, "--table", _table_file(tmp_path, model, by_pair))
    assert code == 0
    assert out.startswith("PASS, 2 induction steps")


@pytest.mark.parametrize("count", [2, -1])
def test_verify_class_listed_at_two_pairs(capsys, tmp_path, count):
    """One class at (1, 1) and (1, 2): the listing repeats it, and verify
    compares the closed form with the listed counts summed per class, which
    cancel when the second count is -1."""
    from tropcyl.counting import elementary_class
    from tropcyl.model import cubic_model

    model = cubic_model()
    by_pair = {pair: [(elementary_class(model, *pair), 1)] for pair in model.exceptional_pairs}
    by_pair[(1, 2)] = [(elementary_class(model, 1, 1), count)]
    spec = spec_file(tmp_path, {"twig_type": [[1, 0], [0, 1]]})
    code, out = run(capsys, "verify", spec, "--table", _table_file(tmp_path, model, by_pair))
    assert code == 0
    assert out.startswith("PASS, 2 induction steps")


def test_render_walls_golden(tmp_path, capsys):
    out_path = tmp_path / "walls.svg"
    code, _ = run(capsys, "render", "walls", "--steps", "2", "--svg", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / "walls_cubic_steps2.svg").read_bytes()


def test_render_cylinder_golden(tmp_path, capsys):
    spec = spec_file(tmp_path, {"twig_type": [[-1, -1]]})
    out_path = tmp_path / "cyl.svg"
    code, _ = run(capsys, "render", "cylinder", spec, "--svg", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / "cylinder_single_leaf.svg").read_bytes()


def test_render_toric_model_boundary_only(tmp_path, capsys):
    config = tmp_path / "toric.json"
    config.write_text(
        json.dumps({"model": {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]]}, "blowups": [0, 0, 0]}})
    )
    out_path = tmp_path / "toric.svg"
    code, _ = run(capsys, "render", "walls", "--config", str(config), "--svg", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "polygon" in text
    assert "<line" not in text


def test_render_unknown_target(capsys):
    code, _ = run(capsys, "render", "bogus")
    assert code == 6


def test_byte_determinism(capsys, tmp_path):
    spec = spec_file(tmp_path, {"twig_type": [[1, 0], [0, 1]]})
    outs = set()
    svgs = set()
    for k in range(2):
        _, out = run(capsys, "count", spec, "--json")
        outs.add(out)
        path = tmp_path / f"r{k}.svg"
        run(capsys, "render", "walls", "--svg", str(path))
        svgs.add(path.read_bytes())
    assert len(outs) == 1
    assert len(svgs) == 1


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _ = run(capsys, "walls", "--config", str(bad))
    assert code == 2


def test_walls_support_rule_on_toric_model(capsys, tmp_path):
    config = spec_file(
        tmp_path,
        {"model": {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]]}, "blowups": [0, 0, 0]}},
        "toric.json",
    )
    code, out = run(capsys, "walls", "--rule", "support", "--config", config)
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("flag, value", [("--steps", "-1"), ("--norm-bound", "0")])
def test_walls_override_out_of_range(capsys, flag, value):
    code = main(["walls", flag, value])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "spec.json", "--steps", "3"],
        ["verify", "--svg", "x.svg"],
        ["render", "walls", "--table", "t.json"],
        ["walls", "--seed", "1"],
    ],
)
def test_unsupported_flag_rejected(capsys, argv):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments" in out.err


def test_verify_bad_table_exit_code(capsys, tmp_path):
    from tropcyl.counting import elementary_class
    from tropcyl.model import cubic_model

    model = cubic_model()
    table = _table_file(tmp_path, model, {(1, 3): [(elementary_class(model, 1, 1), 1)]})
    spec = spec_file(tmp_path, {"twig_type": [[1, 0], [0, 1]]})
    code, _ = run(capsys, "verify", spec, "--table", table)
    assert code == 2


def test_count_zero_entries_at_bad_pair_exit_code(capsys, tmp_path):
    """dE entries that sum to 0 still name the pair, and (1, 9) is not one."""
    spec = spec_file(
        tmp_path,
        {"twig_type": [[-1, -1]], "class": {"dD": [0, 0, 0], "dE": [[1, 9, 1], [1, 9, -1]]}},
    )
    assert main(["count", spec]) == 2
    assert capsys.readouterr().err == "error: spec.class: component 9 out of range 1..2 at ray 1\n"


def test_verify_skips_only_opposite_leaves(capsys, tmp_path):
    """On P1xP1 with l = (1, 0, 1, 0) a draw of both leaves sums to zero and is
    skipped; every case that runs has one leaf and one induction step."""
    config = spec_file(
        tmp_path,
        {"model": {"fan": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]]}, "blowups": [1, 0, 1, 0]}},
    )
    code, out = run(capsys, "verify", "--config", config, "--seed", "0", "--cases", "20")
    assert code == 0
    assert out == "PASS, 20 cases, 20 induction steps\n"


def test_verify_randomized_reports_errors(capsys, monkeypatch):
    from tropcyl import cli
    from tropcyl.errors import OutOfPrimitiveScope

    real = cli._verify_one
    calls = []

    def flaky(model, cyl, table):
        calls.append(cyl)
        if len(calls) == 1:
            raise OutOfPrimitiveScope("raised by the test")
        return real(model, cyl, table)

    monkeypatch.setattr(cli, "_verify_one", flaky)
    assert main(["verify", "--seed", "0", "--cases", "3"]) == 4
    assert capsys.readouterr().err == "error: raised by the test\n"


def test_verify_negative_cases_rejected(capsys):
    assert main(["verify", "--cases", "-3"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: --cases: must be >= 0\n")
    code, out = run(capsys, "verify", "--cases", "0")
    assert (code, out) == (0, "PASS, 0 cases, 0 induction steps\n")


def test_count_non_primitive_error_message(capsys, tmp_path):
    spec = spec_file(tmp_path, {"twig_type": [[2, 0], [0, 1]]})
    assert main(["count", spec]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: twig leaf degrees [2, 1] are not all 1\n")


def test_verify_one_builds_count_data_once(monkeypatch):
    from tropcyl import cli, counting
    from tropcyl.model import build_model, P1XP1_RAYS

    model = build_model(P1XP1_RAYS, (2, 1, 2, 1))
    cyl = counting.build_cylinder(model, ((1, 0), (0, 1), (0, -1)), extended=True)
    table = counting.default_table(model)
    real = counting.CylinderCount.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(counting.CylinderCount, "__init__", counted)
    assert cli._verify_one(model, cyl, table) == 3
    assert len(built) == 1


def test_verify_one_enumerates_the_oracle_once(monkeypatch):
    from tropcyl import cli, counting
    from tropcyl.model import build_model, P1XP1_RAYS

    model = build_model(P1XP1_RAYS, (2, 1, 2, 1))
    cyl = counting.build_cylinder(model, ((1, 0), (0, 1), (0, -1)), extended=True)
    real = counting.splitting_measure
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (cli, counting):
        monkeypatch.setattr(module, "splitting_measure", counted)
    assert cli._verify_one(model, cyl, counting.default_table(model)) == 3
    assert len(calls) == 1


def test_verify_fails_on_a_class_the_listing_lacks(capsys, tmp_path, monkeypatch):
    """The oracle holds a class that the listing drops: verify exits 5 from
    the comparison of the whole measures, naming that class as listed 0."""
    from tropcyl import cli

    real = cli.cylinder_count

    def dropping(*args):
        data = real(*args)
        data.__dict__["contributing"] = data.contributing[1:]
        return data

    monkeypatch.setattr(cli, "cylinder_count", dropping)
    spec = spec_file(tmp_path, {"twig_type": [[1, 0], [0, 1]]})
    assert main(["verify", spec]) == 5
    assert "closed form 1, splitting sum 1, listed 0 for class" in capsys.readouterr().err
