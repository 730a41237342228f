import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcyl.cli import main
from tropcyl.model import F1_RAYS, P1XP1_RAYS, P2_RAYS

GOLDEN = Path(__file__).parent / "golden"
HEXAGON_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


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


def test_zero_leaf_sum_with_explicit_spine(capsys, tmp_path):
    """Opposite leaves under an explicit spine have no bend direction:
    render refuses them at spec.twig_type, while count and verify keep
    refusing the leaf degrees."""
    spec = spec_file(tmp_path, {
        "twig_type": [[0, -1], [0, 1]],
        "spine": {"p1": [3, 3], "p2": [-3, -3], "bend_at": [2, 3]},
    })
    degrees = "error: twig leaf degrees [2, 1] are not all 1\n"
    for argv, code, err in (
        (["render", "cylinder", spec], 2,
         "error: spec.twig_type: leaf weights sum to zero; no bend direction\n"),
        (["count", spec], 3, degrees),
        (["verify", spec], 3, degrees),
    ):
        assert main(argv) == code
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", err)


_TWO_LEAVES, _ONE_LEAF = [[1, 0], [0, 1]], [[1, 0]]
_ON_RAY = "spec.spine.bend_at: bend must be a positive multiple of -(leaf sum) = (-1, -1)"
_ON_LINE = "spec.spine.bend_at: bend must be a nonzero point on the line of the leaf (1, 0)"
_BAD_SPINES = {
    "zero-p1": (_TWO_LEAVES, [0, 0], [-1, -1], ["-1/2", "-1/2"],
                "spec.spine.p1: spine slope must be nonzero"),
    "zero-p2": (_TWO_LEAVES, [-1, 0], [0, 0], ["-1/2", "-1/2"],
                "spec.spine.p2: spine slope must be nonzero"),
    "bend-off-line": (_TWO_LEAVES, [-1, 0], [0, -1], ["-1/2", -1], _ON_RAY),
    "bend-past-origin": (_TWO_LEAVES, [-1, 0], [0, -1], [1, 1], _ON_RAY),
    "one-leaf-bend-off-line": (_ONE_LEAF, [0, 1], [-1, -1], ["-1/2", "-1/3"], _ON_LINE),
    "one-leaf-bend-at-origin": (_ONE_LEAF, [0, 1], [-1, -1], [0, 0], _ON_LINE),
}


@pytest.mark.parametrize("case", sorted(_BAD_SPINES))
def test_explicit_spine_errors_are_path_addressed(capsys, tmp_path, case):
    """A zero spine slope, or a bend where the twig cannot reach it, is
    refused with its spec.spine field by every command that reads the spec."""
    twig, p1, p2, bend, message = _BAD_SPINES[case]
    spec = spec_file(tmp_path, {"twig_type": twig, "spine": {"p1": p1, "p2": p2, "bend_at": bend}})
    for argv in (["count", spec], ["verify", spec], ["render", "cylinder", spec]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {message}\n")


def test_render_scale_must_be_finite(capsys, tmp_path):
    """JSON's Infinity literal parses to a float; render refuses it rather
    than drawing nan coordinates."""
    config = tmp_path / "config.json"
    config.write_text(
        '{"model": {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]]}, "blowups": [2, 2, 2]},'
        ' "render": {"scale": Infinity}}'
    )
    assert main(["render", "walls", "--config", str(config)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: render.scale: expected a positive finite number\n")


_small = st.integers(min_value=-3, max_value=3)
_vec = st.lists(_small, min_size=2, max_size=2)
_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False, width=16),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mostly(strategy, other):
    """``strategy`` for seven draws in eight, ``other`` for the eighth."""
    return st.sampled_from(range(8)).flatmap(lambda k: other if k == 7 else strategy)


def _or_junk(strategy):
    return _mostly(strategy, _junk)


def _obj(required, optional=None):
    return _or_junk(st.fixed_dictionaries(
        {k: _or_junk(s) for k, s in required.items()},
        optional={k: _or_junk(s) for k, s in (optional or {}).items()},
    ))


def _closed_twig(leaves):
    """The leaves plus one closing leaf, so that the weights sum to zero:
    such a twig has no bend direction, and random leaves rarely give one."""
    return leaves + [[-sum(w[0] for w in leaves), -sum(w[1] for w in leaves)]]


_rational = _small | st.builds("{}/{}".format, _small, _small)
_profile = _obj(
    {"dD": st.lists(_small, min_size=3, max_size=3) | st.lists(_small, max_size=6)},
    {"dE": st.lists(st.lists(_small, min_size=3, max_size=3), max_size=3)},
)
_ray = st.sampled_from([[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1], [1, 1]])
_twig = st.lists(_ray | _vec, min_size=1, max_size=3)
_spine = _obj({"p1": _vec, "p2": _vec, "bend_at": st.lists(_rational, min_size=2, max_size=2)})
_spec = st.one_of(*(
    _obj(
        {"twig_type": _twig.map(_closed_twig) | _twig, **spine},
        {"extended": st.booleans(), "class": _profile},
    )
    for spine in ({"spine": _spine}, {})
))
_table = _obj({"entries": st.lists(_obj({
    "pair": st.lists(st.integers(0, 4), min_size=2, max_size=2),
    "counts": st.lists(_obj({"class": _profile, "count": _small}), max_size=2),
}), max_size=3)})
_model = st.one_of(*(
    _obj({
        "fan": _obj({"rays": st.just([list(u) for u in rays])}),
        "blowups": _mostly(
            st.lists(st.integers(0, 3), min_size=len(rays), max_size=len(rays)),
            st.lists(st.integers(-1, 3), max_size=6),
        ),
    })
    for rays in (P2_RAYS, P1XP1_RAYS, F1_RAYS, HEXAGON_RAYS)
), _obj({
    "fan": _obj({"rays": st.lists(_vec, max_size=5)}),
    "blowups": st.lists(st.integers(-1, 3), max_size=6),
}))
_config = _obj(
    {"model": _model},
    {
        "walls": _obj({}, {
            "steps": st.integers(-1, 4),
            "norm_bound": st.integers(-1, 8),
            "rule": st.sampled_from(["pair_sum", "support", "other"]),
        }),
        "render": _obj({}, {
            "width": st.integers(-1, 300),
            "height": st.integers(-1, 300),
            "scale": st.integers(-1, 40) | st.floats(-1, 40, allow_nan=False),
            "palette": st.sampled_from(["default", "mono", "other"]),
        }),
    },
)
_commands = st.sampled_from([
    ["render", "cylinder", "SPEC"], ["count", "--json", "SPEC"], ["verify", "--cases", "2", "SPEC"],
    ["count", "SPEC"], ["verify", "--cases", "2", "--seed", "3"], ["render", "walls"],
    ["walls", "--json"], ["walls"],
])


@pytest.fixture(scope="module")
def wire_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("wire")


@settings(deadline=None, max_examples=150)
@given(_commands, st.booleans(), _config, st.booleans(), _table, _spec)
def test_wire_formats_end_in_a_documented_exit_code(
    wire_dir, command, with_config, config, with_table, table, spec
):
    """Random config, table and spec JSON through ``main``: every run returns
    a documented exit code, no exception escapes, and a refused input prints
    one ``error:`` line."""
    paths = {}
    for name, data in (("config", config), ("table", table), ("spec", spec)):
        paths[name] = wire_dir / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    argv = [str(paths["spec"]) if a == "SPEC" else a for a in command]
    if with_config:
        argv += ["--config", str(paths["config"])]
    if with_table and command[0] in ("count", "verify"):
        argv += ["--table", str(paths["table"])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code:
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), err.getvalue()
    else:
        assert err.getvalue() == ""
