import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from conftest import TWELVE_RAYS, exceptional_class, smooth_models
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcyl.cli import main
from tropcyl.config import parse_cylinder_spec
from tropcyl.model import F1_RAYS, P1XP1_RAYS, P2_RAYS, build_model
from tropcyl.svg import (
    PALETTES,
    RenderOptions,
    _boundary,
    _Canvas,
    _clip_radius,
    _unit,
    render_walls,
)
from tropcyl.tropical import classify, cylinder_tree
from tropcyl.walls import RULES, generate_walls

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
    code, out = run(capsys, "walls", "--is-wall", "2,1")
    assert code == 0
    assert out.strip() == "true"


@pytest.mark.parametrize("flags", [["--json"], ["--svg", "SVG"], ["--svg", "SVG", "--json"]])
def test_walls_query_refuses_output_flags(capsys, tmp_path, flags):
    """A direction query prints one word: it refuses --svg and --json rather
    than drop them, and writes no file."""
    svg = tmp_path / "walls.svg"
    argv = ["walls", "--is-wall", "2,1", *(str(svg) if f == "SVG" else f for f in flags)]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: --is-wall: a direction query writes no --svg or --json\n")
    assert not svg.exists()


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


def _reference_render_walls(walls, opts):
    """Reference: every wall drawn through ``_Canvas.line`` and
    ``_Canvas.text``, one ``_unit`` per endpoint."""
    canvas = _Canvas(opts)
    radius = _clip_radius(opts)
    _boundary(canvas, walls.model, radius)
    colors = opts.colors()
    for d, step in walls.directions:
        color = colors["initial"] if step == 0 else colors["wall"]
        canvas.line((0, 0), _unit(d, radius), color, 2.5 if step == 0 else 1.0)
        canvas.text(_unit(d, radius * 1.08), str(step), colors["label"])
    canvas.dot((0, 0), colors["boundary"], 2.0)
    return canvas.render()


@settings(deadline=None, max_examples=60)
@given(
    smooth_models(),
    st.integers(1, 6),
    st.sampled_from((0, 1, 2, 10**4)),
    st.lists(st.integers(50, 400).map(lambda k: 2 * k + 1), min_size=2, max_size=2, unique=True),
    st.floats(5, 120).filter(lambda s: not s.is_integer()),
)
def test_render_walls_matches_canvas_reference(model, bound, steps, size, scale):
    """On unequal odd sizes and a non-integer scale, under both rules and
    both palettes, ``render_walls`` writes the bytes of the reference."""
    for rule in RULES:
        walls = generate_walls(model, steps, bound, rule)
        for palette in sorted(PALETTES):
            opts = RenderOptions(*size, scale, palette)
            assert render_walls(walls, opts) == _reference_render_walls(walls, opts)


def test_render_cylinder_golden(tmp_path, capsys):
    spec = spec_file(tmp_path, {"twig_type": [[-1, -1]]})
    out_path = tmp_path / "cyl.svg"
    code, _ = run(capsys, "render", "cylinder", spec, "--svg", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / "cylinder_single_leaf.svg").read_bytes()


_CUBIC_CONFIG = {"model": {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]]}, "blowups": [2, 2, 2]}}


def test_a_tree_vertex_on_the_canvas_edge_prints_zero(capsys, tmp_path):
    """At scale 240 on a 480-wide canvas the bend of the one-leaf cylinder
    at (1, 0), at world x = -1, lands exactly on the left edge: its screen x
    is 240 - 240, which prints 0.000000, and no number prints as -0."""
    config = spec_file(tmp_path, {**_CUBIC_CONFIG, "render": {"scale": 240}}, "config.json")
    spec = spec_file(tmp_path, {"twig_type": [[1, 0]]})
    code, out = run(capsys, "render", "cylinder", spec, "--config", config)
    assert code == 0
    assert '<circle cx="0.000000" cy="240.000000" r="2.000000"' in out
    assert "-0.000000" not in out


@pytest.mark.parametrize("argv", [
    ["walls"], ["walls", "--json", "--rule", "support"], ["count", "--json", "SPEC"],
    ["verify", "--cases", "5"], ["render", "walls"],
], ids=" ".join)
def test_no_config_is_the_cubic_model(capsys, tmp_path, argv):
    """Without --config a command prints the bytes it prints with a config
    file holding the cubic model and no walls or render section."""
    argv = [spec_file(tmp_path, {"twig_type": [[1, 0], [0, 1]]}) if a == "SPEC" else a for a in argv]
    runs = []
    for extra in ([], ["--config", spec_file(tmp_path, _CUBIC_CONFIG, "config.json")]):
        code = main(argv + extra)
        out = capsys.readouterr()
        runs.append((code, out.out, out.err))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1]


_HUGE = 10**400
_OVERFLOWS = {
    "fan": ({"model": {"fan": {"rays": [[1, 0], [0, 1], [-1, _HUGE], [0, -1]]}, "blowups": [1, 1, 1, 1]}},
            {"twig_type": [[1, 0]]}),
    "width": ({**_CUBIC_CONFIG, "render": {"width": _HUGE}}, {"twig_type": [[1, 0]]}),
    "bend": (_CUBIC_CONFIG, {"twig_type": [[1, 0]], "spine": {"p1": [0, 1], "p2": [-1, -1], "bend_at": [_HUGE, 0]}}),
    # Fits a float, but 60 times it does not: the screen point is not finite.
    "bend-1e306": (_CUBIC_CONFIG,
                   {"twig_type": [[1, 0]], "spine": {"p1": [0, 1], "p2": [-1, -1], "bend_at": [10**306, 0]}}),
}


@pytest.mark.parametrize("case, argv", [
    ("fan", ["walls", "--svg", "SVG"]), ("fan", ["render", "walls", "--svg", "SVG"]),
    ("fan", ["render", "cylinder", "SPEC", "--svg", "SVG"]),
    ("width", ["walls", "--svg", "SVG"]), ("width", ["render", "walls"]),
    ("width", ["render", "cylinder", "SPEC", "--svg", "SVG"]),
    ("bend", ["render", "cylinder", "SPEC", "--svg", "SVG"]), ("bend", ["render", "cylinder", "SPEC"]),
    ("bend-1e306", ["render", "cylinder", "SPEC", "--svg", "SVG"]),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_a_drawing_that_does_not_fit_a_float_is_refused(capsys, tmp_path, case, argv):
    """A fan ray, a canvas width or a bend too large for a float is refused
    as a render error, before anything prints and with no file written."""
    config, spec = _OVERFLOWS[case]
    svg = tmp_path / "out.svg"
    paths = {"SPEC": spec_file(tmp_path, spec), "SVG": str(svg)}
    argv = [paths.get(a, a) for a in argv] + ["--config", spec_file(tmp_path, config, "config.json")]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: render: a drawing coordinate does not fit a float\n")
    assert not svg.exists()


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


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["verify", "SPEC", "--seed", "7"],
                     "--seed: a spec run draws no random cases", id="verify-spec-seed"),
        pytest.param(["verify", "SPEC", "--cases", "3"],
                     "--cases: a spec run draws no random cases", id="verify-spec-cases"),
        pytest.param(["walls", "--is-wall", "2,1", "--steps", "3", "--rule", "support"],
                     "--steps: a direction query generates no walls", id="walls-query-steps"),
        pytest.param(["walls", "--is-wall", "2,1", "--norm-bound", "4"],
                     "--norm-bound: a direction query generates no walls", id="walls-query-norm-bound"),
        pytest.param(["walls", "--is-wall", "2,1", "--rule", "support"],
                     "--rule: a direction query generates no walls", id="walls-query-rule"),
        pytest.param(["render", "cylinder", "SPEC", "--steps", "99", "--rule", "support"],
                     "--steps: a cylinder drawing generates no walls", id="render-cylinder-steps"),
        pytest.param(["render", "cylinder", "SPEC", "--norm-bound", "4"],
                     "--norm-bound: a cylinder drawing generates no walls", id="render-cylinder-norm-bound"),
        pytest.param(["render", "cylinder", "SPEC", "--rule", "support"],
                     "--rule: a cylinder drawing generates no walls", id="render-cylinder-rule"),
        pytest.param(["render", "walls", "SPEC", "--svg", "SVG"],
                     "spec: a wall drawing reads no cylinder spec", id="render-walls-spec"),
    ],
)
def test_flags_a_command_ignores_are_refused(capsys, tmp_path, argv, message):
    """An input the command would not read is refused where it is named,
    before any output is written."""
    spec, svg = spec_file(tmp_path, {"twig_type": [[-1, -1]]}), tmp_path / "out.svg"
    assert main([{"SPEC": spec, "SVG": str(svg)}.get(a, a) for a in argv]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")
    assert not svg.exists()


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


@pytest.mark.parametrize("flag, value", [("--steps", "-1"), ("--norm-bound", "0"), ("--norm-bound", "41")])
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

    def flaky(model, cyl, table, path):
        calls.append(cyl)
        if len(calls) == 1:
            raise OutOfPrimitiveScope("raised by the test")
        return real(model, cyl, table, path)

    monkeypatch.setattr(cli, "_verify_one", flaky)
    assert main(["verify", "--seed", "0", "--cases", "3"]) == 4
    assert capsys.readouterr().err == "error: raised by the test\n"


def _twelve_ray_files(tmp_path, t):
    """A config for the 12-ray smooth model with every l_i = 3 and a spec
    whose twig is its first t rays, listing 3^t rows."""
    model = {"fan": {"rays": [list(u) for u in TWELVE_RAYS]}, "blowups": [3] * 12}
    config = spec_file(tmp_path, {"model": model}, "twelve.json")
    return config, spec_file(tmp_path, {"twig_type": [list(u) for u in TWELVE_RAYS[:t]]})


def test_count_refuses_a_listing_over_the_row_cap(capsys, tmp_path):
    """3^8 = MAX_ROWS rows are listed; 3^9 exit 2 at spec.twig_type before
    anything is listed."""
    from tropcyl.cli import MAX_ROWS

    config, spec = _twelve_ray_files(tmp_path, 8)
    code, out = run(capsys, "count", "--config", config, spec)
    assert (code, len(out.splitlines())) == (0, MAX_ROWS)
    config, spec = _twelve_ray_files(tmp_path, 9)
    assert main(["count", "--config", config, spec]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: spec.twig_type: the listing has 19683 rows, more than 6561\n")


def test_verify_refuses_a_spec_over_the_row_cap(capsys, tmp_path):
    config, spec = _twelve_ray_files(tmp_path, 9)
    assert main(["verify", "--config", config, spec]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: spec.twig_type: the listing has 19683 rows, more than 6561\n")


def test_verify_at_the_row_cap_makes_one_query_on_a_cross_leaf_table(capsys, tmp_path, monkeypatch):
    """Leaf s's classes carry E_{i(s-1),1}, so no leaf's classes split by
    private pairs and one query would keep 3^s residuals at leaf s; the
    3^(s-1) D_1 steps keep all 3^8 sums apart. verify reads the closed form
    off one product measure; the only query is the replay's, at one class."""
    from tropcyl import counting
    from tropcyl.classes import divisor_class

    model = build_model(TWELVE_RAYS, (3,) * 12)
    d, by_pair = divisor_class(model.fan, 1), {}
    for s in range(8):
        base = counting.elementary_class(model, s + 1, 1)
        if s:
            base = base + exceptional_class(model, s, 1)
        for j in (1, 2, 3):
            by_pair[(s + 1, j)] = [(base + (3**s * (j - 1)) * d, 1)]
    table = counting.ElementaryCountTable(tuple((p, tuple(c)) for p, c in by_pair.items()))
    cc = counting.cylinder_count(model, counting.build_cylinder(model, TWELVE_RAYS[:8]), table)
    assert [len(groups) for _private, groups in cc._groups] == [1] * 7
    assert len(counting.measure((b, n) for _, b, n in cc.contributing)) == 3**8
    real, queries = counting.CylinderCount._mass, []
    monkeypatch.setattr(
        counting.CylinderCount, "_mass", lambda self, beta: queries.append(beta) or real(self, beta)
    )
    config, spec = _twelve_ray_files(tmp_path, 8)
    code, out = run(capsys, "verify", "--config", config, spec, "--table", _table_file(tmp_path, model, by_pair))
    assert (code, out, len(queries)) == (0, "PASS, 8 induction steps\n", 1)


def test_verify_refuses_a_random_draw_over_the_row_cap(capsys, tmp_path, monkeypatch):
    """With l_i = 19 on P1 x P1, a draw of three leaves lists 19^3 > MAX_ROWS
    rows: the run ends at --cases on the first such draw instead of
    redrawing, after the draws of one or two leaves before it."""
    from tropcyl import cli

    real, verified = cli._verify_one, []
    monkeypatch.setattr(cli, "_verify_one", lambda *a: verified.append(a[1]) or real(*a))
    rays = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    config = spec_file(tmp_path, {"model": {"fan": {"rays": rays}, "blowups": [19] * 4}})
    assert main(["verify", "--config", config, "--seed", "0", "--cases", "40"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: --cases: the listing has 6859 rows, more than 6561\n")
    *before, last = verified
    assert before and all(len(cyl.twig_type) < 3 for cyl in before) and len(last.twig_type) == 3


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


def test_a_spec_reads_the_default_table_at_its_leaves_alone(capsys, tmp_path, monkeypatch):
    """Without --table, count and verify of a spec build elementary classes
    only at the rays their leaves head toward: here ray 2 of the cubic model."""
    from tropcyl import counting

    rays = set()

    def recorded(real):
        def wrapper(model, i, *args):
            rays.add(i)
            return real(model, i, *args)
        return wrapper

    for name in ("elementary_class", "_elementary_data"):
        monkeypatch.setattr(counting, name, recorded(getattr(counting, name)))
    spec = spec_file(tmp_path, {"twig_type": [[0, 1]]})
    assert main(["count", spec]) == 0
    assert main(["verify", spec]) == 0
    assert capsys.readouterr().out.count("\n") == 3
    assert rays == {2}


def test_a_non_primitive_leaf_toward_a_bare_ray_exits_3(capsys, tmp_path):
    """Primitivity is checked before the leaves' rays are read, with or
    without --table."""
    model = {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]]}, "blowups": [0, 2, 2]}
    config = spec_file(tmp_path, {"model": model}, "config.json")
    spec = spec_file(tmp_path, {"twig_type": [[2, 0]]})
    table = spec_file(tmp_path, {"entries": []}, "table.json")
    for argv in (["count", spec], ["verify", spec], ["count", spec, "--table", table]):
        assert main([*argv, "--config", config]) == 3
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: twig leaf degrees [2] are not all 1\n")


def test_verify_refuses_a_listed_class_out_of_scope(capsys, tmp_path):
    """A table class at (1, 1) that meets E_11 twice, E_11's elementary class
    less E_11, listed after the elementary class there: ``count`` lists it,
    and ``verify`` exits 4 on it, although the replay queries the first
    listed class, which is in scope."""
    from tropcyl.counting import elementary_class
    from tropcyl.model import cubic_model

    model = cubic_model()
    c = elementary_class(model, 1, 1) - exceptional_class(model, 1, 1)
    assert c.dE == (((1, 1), 2),)
    by_pair = {pair: [(elementary_class(model, *pair), 1)] for pair in model.exceptional_pairs}
    by_pair[(1, 1)].append((c, 1))
    table = _table_file(tmp_path, model, by_pair)
    spec = spec_file(tmp_path, {"twig_type": [[1, 0]]})
    code, out = run(capsys, "count", spec, "--table", table)
    assert (code, out.splitlines()[1]) == (0, f"choice 1  dD {list(c.dD)}  E11:2  count 1")
    assert main(["verify", spec, "--table", table]) == 4
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: class meets an exceptional curve with multiplicity > 1 or < 0\n")


def test_verify_checks_one_class_against_the_model(capsys, tmp_path, monkeypatch):
    """``verify <spec>`` checks the listed and oracle classes by their
    multiplicities alone, since the table's classes were checked against the
    model when it was read: the one ``intersect`` call is the replay's query."""
    from tropcyl import classes

    real, calls = classes.intersect, []
    monkeypatch.setattr(classes, "intersect", lambda *a: calls.append(a) or real(*a))
    spec = spec_file(tmp_path, {"twig_type": [[1, 0], [0, 1]]})
    code, out = run(capsys, "verify", spec)
    assert (code, out, len(calls)) == (0, "PASS, 2 induction steps\n", 1)


def test_count_json_checks_one_class_against_the_model(capsys, tmp_path, monkeypatch):
    """``count --json`` writes its listed classes as they are, since the
    table's classes were checked against the model when it was read: with a
    query, the one ``intersect`` call is the query's scope check."""
    from tropcyl import classes

    twig = [[1, 0], [0, 1]]
    code, out = run(capsys, "count", spec_file(tmp_path, {"twig_type": twig}), "--json")
    rows = json.loads(out)["contributing"]
    assert (code, len(rows) > 1) == (0, True)
    real, calls = classes.intersect, []
    monkeypatch.setattr(classes, "intersect", lambda *a: calls.append(a) or real(*a))
    spec = spec_file(tmp_path, {"twig_type": twig, "class": rows[0]["class"]}, "query.json")
    code, out = run(capsys, "count", spec, "--json")
    out = json.loads(out)
    assert (code, out["contributing"], len(calls)) == (0, rows, 1)
    assert out["query"]["count"] == out["query"]["splitting_sum"] > 0


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
    assert cli._verify_one(model, cyl, table, "spec.twig_type") == 3
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
    assert cli._verify_one(model, cyl, counting.default_table(model), "spec.twig_type") == 3
    assert len(calls) == 1


def test_verify_builds_each_measure_once_per_cylinder(capsys, monkeypatch):
    """Per cylinder, verify builds the member measures, the summed listing
    and the oracle once each: the replay's endpoint-initial check reads the
    listing verify compared with the oracle."""
    from functools import cached_property

    from tropcyl import cli, counting, deformation
    from tropcyl.model import build_model, P1XP1_RAYS

    calls = {"member_measures": 0, "listed": 0, "splitting_measure": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(
        deformation, "member_measures", counted("member_measures", deformation.member_measures)
    )
    oracle = counted("splitting_measure", counting.splitting_measure)
    for module in (cli, counting):
        monkeypatch.setattr(module, "splitting_measure", oracle)
    listed = cached_property(counted("listed", counting.CylinderCount.listed.func))
    listed.__set_name__(counting.CylinderCount, "listed")
    monkeypatch.setattr(counting.CylinderCount, "listed", listed)

    model = build_model(P1XP1_RAYS, (2, 1, 2, 1))
    cyl = counting.build_cylinder(model, ((1, 0), (0, 1), (0, -1)), extended=True)
    assert cli._verify_one(model, cyl, counting.default_table(model), "spec.twig_type") == 3
    assert calls == dict.fromkeys(calls, 1)
    calls.update(dict.fromkeys(calls, 0))
    build, drawn = cli.build_cylinder, []
    monkeypatch.setattr(cli, "build_cylinder", lambda *a, **k: drawn.append(build(*a, **k)) or drawn[-1])
    code, out = run(capsys, "verify", "--seed", "3", "--cases", "4")
    assert len(drawn) == len(set(drawn)) == 3
    assert (code, calls) == (0, dict.fromkeys(calls, len(set(drawn)))), out


def _verify_every_draw(model, seed, cases):
    """``verify --cases`` on the default table with every draw verified:
    the run's stdout, and the drawn cylinders in draw order."""
    import random

    from tropcyl import cli, counting
    from tropcyl.errors import ZeroVector

    table, rng = counting.default_table(model), random.Random(seed)
    drawn, steps = [], 0
    while len(drawn) < cases:
        try:
            cyl = counting.build_cylinder(model, cli._random_twig(model, rng), extended=True)
            steps += cli._verify_one(model, cyl, table, "--cases")
        except ZeroVector:
            continue
        drawn.append(cyl)
    return f"PASS, {len(drawn)} cases, {steps} induction steps\n", drawn


@pytest.mark.parametrize("rays, blowups", [
    (P2_RAYS, (2, 2, 2)), (P1XP1_RAYS, (3, 1, 2, 1)), (F1_RAYS, (1, 3, 2, 1)), (HEXAGON_RAYS, (2,) * 6),
])
def test_verify_cases_checks_each_distinct_draw_once(capsys, tmp_path, monkeypatch, rays, blowups):
    """``verify --cases`` verifies each distinct drawn cylinder once, in the
    order first drawn, and prints and exits as a loop that verifies every
    draw."""
    from tropcyl import cli

    model = build_model(rays, blowups)
    config = spec_file(tmp_path, {"model": {"fan": {"rays": [list(u) for u in rays]}, "blowups": list(blowups)}})
    real, verified, repeats = cli._verify_one, [], 0
    for seed in range(4):
        for cases in (0, 1, 7, 40):
            want, drawn = _verify_every_draw(model, seed, cases)
            verified.clear()
            monkeypatch.setattr(cli, "_verify_one", lambda *a: verified.append(a[1]) or real(*a))
            code, out = run(capsys, "verify", "--config", config, "--seed", str(seed), "--cases", str(cases))
            monkeypatch.setattr(cli, "_verify_one", real)
            assert (code, out) == (0, want)
            assert verified == list(dict.fromkeys(drawn))
            repeats += len(drawn) - len(verified)
    assert repeats


def test_verify_cases_verifies_each_leaf_order(capsys, monkeypatch):
    """Two leaf orders of one twig set are two cylinders: a run that draws
    both verifies both, and verifies neither again when it is drawn again."""
    from tropcyl import cli

    twigs = [((1, 0), (0, 1)), ((0, 1), (1, 0))]
    draws = iter(twigs * 2)
    monkeypatch.setattr(cli, "_random_twig", lambda model, rng: next(draws))
    real, verified = cli._verify_one, []
    monkeypatch.setattr(cli, "_verify_one", lambda *a: verified.append(a[1].twig_type) or real(*a))
    code, out = run(capsys, "verify", "--cases", "4")
    assert (code, out) == (0, "PASS, 4 cases, 8 induction steps\n")
    assert verified == twigs


def test_verify_cases_builds_each_drawn_twig_once(capsys, monkeypatch):
    """A repeat draw builds no cylinder: a twig whose leaves sum to zero
    raises ``ZeroVector`` once and is skipped again when drawn again, and a
    verified twig adds its stored steps."""
    from tropcyl import cli

    zero, one = ((1, 0), (0, 1), (-1, -1)), ((1, 0),)
    draws = iter([zero, one, zero, zero, one])
    monkeypatch.setattr(cli, "_random_twig", lambda model, rng: next(draws))
    real, built = cli.build_cylinder, []
    monkeypatch.setattr(cli, "build_cylinder", lambda m, twig, **k: built.append(twig) or real(m, twig, **k))
    code, out = run(capsys, "verify", "--cases", "2")
    assert (code, out) == (0, "PASS, 2 cases, 2 induction steps\n")
    assert built == [zero, one]


def test_verify_fails_on_a_class_the_listing_lacks(capsys, tmp_path, monkeypatch):
    """The oracle holds a class that the listing drops: verify exits 5 from
    the comparison of the whole measures, naming that class as listed 0 in
    the spec's class format."""
    from tropcyl import cli

    real = cli.cylinder_count

    def dropping(*args):
        data = real(*args)
        data.__dict__["contributing"] = data.contributing[1:]
        return data

    monkeypatch.setattr(cli, "cylinder_count", dropping)
    spec = spec_file(tmp_path, {"twig_type": [[1, 0], [0, 1]]})
    assert main(["verify", spec]) == 5
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "",
        'error: listed 0, splitting sum 1 for class {"dD": [1, 1, 2], "dE": [[1, 1, 1], [2, 1, 1]]}\n',
    )


def test_zero_leaf_sum_with_explicit_spine(capsys, tmp_path):
    """Opposite leaves under an explicit spine have no bend direction: every
    command that reads the spec refuses them at spec.twig_type, before the
    leaf degrees are read."""
    spec = spec_file(tmp_path, {
        "twig_type": [[0, -1], [0, 1]],
        "spine": {"p1": [3, 3], "p2": [-3, -3], "bend_at": [2, 3]},
    })
    for argv in (["render", "cylinder", spec], ["count", spec], ["verify", spec]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "", "error: spec.twig_type: leaf weights sum to zero; no bend direction\n"
        )


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
    "unbalanced": (_TWO_LEAVES, [-1, 0], [1, -1], ["-1/2", "-1/2"],
                   "spec.spine: spine slopes must sum to -(leaf sum) = (-1, -1)"),
    "zero-leaf-sum": (_TWO_LEAVES + [[-1, -1]], [-1, 0], [0, -1], ["-1/2", "-1/2"],
                      "spec.twig_type: leaf weights sum to zero; no bend direction"),
    "leg-through-origin": (_TWO_LEAVES, [1, 1], [-2, -2], ["-1/2", "-1/2"],
                           "spec.spine.p1: spine leg must not run through the origin"),
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
    """JSON's Infinity literal parses to a float, and true and false to
    booleans, which Python counts as integers; render refuses all three
    rather than drawing nan coordinates or reading true as scale 1."""
    config = tmp_path / "config.json"
    for literal in ("Infinity", "true", "false"):
        config.write_text(
            '{"model": {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]]}, "blowups": [2, 2, 2]},'
            f' "render": {{"scale": {literal}}}}}'
        )
        assert main(["render", "walls", "--config", str(config)]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "", "error: render.scale: expected a positive finite number\n"
        )


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
    ["render", "cylinder", "SPEC"], ["count", "--json", "SPEC"], ["verify", "SPEC"],
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


_SPINE_MODELS = ((P2_RAYS, (2, 2, 2)), (P1XP1_RAYS, (1, 2, 1, 1)), (F1_RAYS, (1, 2, 1, 1)))
_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def explicit_spine_specs(draw):
    """A model and a spec whose leaves are distinct rays, so that only the
    spine can fail. Spines are often balanced and bends often on the line of
    the leaf sum, else nearly every spec would be refused early."""
    rays, blowups = draw(st.sampled_from(_SPINE_MODELS))
    twig = draw(st.lists(st.sampled_from(rays), min_size=1, max_size=3, unique=True))
    w0 = (sum(w[0] for w in twig), sum(w[1] for w in twig))
    p1 = draw(st.tuples(_small, _small))
    p2 = draw(_mostly(st.just((-w0[0] - p1[0], -w0[1] - p1[1])), st.tuples(_small, _small)))
    c = draw(_fractions)
    bend = draw(_mostly(st.just((c * w0[0], c * w0[1])), st.tuples(_fractions, _fractions)))
    spine = {"p1": list(p1), "p2": list(p2), "bend_at": [str(x) for x in bend]}
    spec = {"twig_type": [list(w) for w in twig], "spine": spine, "extended": draw(st.booleans())}
    return build_model(rays, blowups), spec


@settings(deadline=None, max_examples=60)
@given(explicit_spine_specs())
def test_an_accepted_explicit_spine_is_a_primitive_cylinder(wire_dir, case):
    """Every command accepts an explicit spine and it classifies as a
    primitive cylinder, or every command refuses it at a spec path."""
    model, spec = case
    config = {"model": {"fan": {"rays": [list(u) for u in model.fan.rays]},
                        "blowups": list(model.blowups)}}
    flags = ["--config", spec_file(wire_dir, config, "config.json")]
    path = spec_file(wire_dir, spec)
    runs = []
    for argv in (["count", path], ["verify", path], ["render", "cylinder", path]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runs.append((main(argv + flags), err.getvalue()))
    if runs[0][0] == 0:
        assert runs == [(0, "")] * 3
        cyl, _ = parse_cylinder_spec(spec, model)
        verdict = classify(model, cylinder_tree(model, cyl))
        assert (verdict.kind, verdict.primitive) == ("cylinder", True), verdict.reasons
    else:
        assert all(code == 2 and err.startswith("error: spec.") for code, err in runs), runs


@pytest.mark.parametrize("extended", [True, False])
def test_count_query_closed_form_equals_splitting_sum(capsys, tmp_path, extended):
    """A spec with a class adds the query: its closed-form count equals the
    splitting sum and the listed count, in the text and the JSON output."""
    twig = [[1, 0], [0, 1]]
    listing = spec_file(tmp_path, {"twig_type": twig, "extended": extended}, "listing.json")
    _, out = run(capsys, "count", listing, "--json")
    entry = json.loads(out)["contributing"][0]
    spec = spec_file(tmp_path, {"twig_type": twig, "extended": extended, "class": entry["class"]})
    code, out = run(capsys, "count", spec, "--json")
    assert code == 0
    assert json.loads(out)["query"] == {
        "class": entry["class"], "count": entry["count"], "splitting_sum": entry["count"]
    }
    code, out = run(capsys, "count", spec)
    assert code == 0
    assert out.splitlines()[-1] == f"query count {entry['count']}  splitting_sum {entry['count']}"


def test_count_lists_an_infinitesimal_cylinder_at_its_own_level(capsys, tmp_path):
    """On F2 (rays (1,0), (0,1), (-1,2), (0,-1), l = (1,1,1,1)) the one-leaf
    cylinder at (0,-1) has spine extension shift dD (0,1,0,1). Unextended, it
    lists dD [1,0,1,1] + E41, the extended class less the shift, and that
    class queried counts 1 by the closed form and the splitting sum, in the
    text and the JSON output."""
    model = {"fan": {"rays": [[1, 0], [0, 1], [-1, 2], [0, -1]]}, "blowups": [1, 1, 1, 1]}
    config = spec_file(tmp_path, {"model": model}, "f2.json")
    for extended, dD in ((False, [1, 0, 1, 1]), (True, [1, 1, 1, 2])):
        spec = {"twig_type": [[0, -1]], "extended": extended}
        listing = spec_file(tmp_path, spec, "listing.json")
        code, out = run(capsys, "count", "--config", config, listing)
        assert (code, out) == (0, f"choice 1  dD {dD}  E41:1  count 1\n")
        code, out = run(capsys, "count", "--config", config, listing, "--json")
        cls = {"dD": dD, "dE": [[4, 1, 1]]}
        assert (code, json.loads(out)["contributing"]) == (0, [{"choice": [1], "class": cls, "count": 1}])
        query = spec_file(tmp_path, {**spec, "class": cls})
        code, out = run(capsys, "count", "--config", config, query)
        assert (code, out.splitlines()[-1]) == (0, "query count 1  splitting_sum 1")
        code, out = run(capsys, "count", "--config", config, query, "--json")
        assert (code, json.loads(out)["query"]) == (0, {"class": cls, "count": 1, "splitting_sum": 1})


def test_count_refuses_a_negative_exceptional_intersection(capsys, tmp_path):
    """A queried class that meets E_31 -1 times is outside the primitive
    scope: ``count`` exits 4 and prints nothing, in text as with --json."""
    spec = spec_file(tmp_path, {"twig_type": [[-1, -1]], "class": {"dD": [0, 0, 1], "dE": [[3, 1, -1]]}})
    message = "error: class meets an exceptional curve with multiplicity > 1 or < 0\n"
    assert main(["count", spec]) == 4
    assert capsys.readouterr() == ("", message)
    assert main(["count", spec, "--json"]) == 4
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("value", ["no", 0, None])
def test_spec_extended_must_be_a_boolean(capsys, tmp_path, value):
    spec = spec_file(tmp_path, {"twig_type": [[1, 0]], "extended": value})
    for argv in (["count", spec], ["verify", spec], ["render", "cylinder", spec]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: spec.extended: expected a boolean\n")


def test_walls_svg(capsys, tmp_path):
    """--svg writes the drawing of the listed walls beside the listing."""
    path = tmp_path / "walls.svg"
    code, out = run(capsys, "walls", "--steps", "2", "--svg", str(path))
    assert code == 0
    assert out == (GOLDEN / "walls_cubic_steps2.txt").read_text()
    assert path.read_bytes() == (GOLDEN / "walls_cubic_steps2.svg").read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["walls", "--is-wall", "1,2,3"], "--is-wall: expected X,Y with integer entries"),
        (["count"], "spec: a cylinder spec file is required"),
    ],
)
def test_missing_or_malformed_argument(capsys, argv, message):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


def test_verify_toric_model_has_no_cases(capsys, tmp_path):
    """A model without exceptional components has no twig to draw."""
    config = spec_file(
        tmp_path, {"model": {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]]}, "blowups": [0, 0, 0]}}
    )
    code, out = run(capsys, "verify", "--config", config)
    assert (code, out) == (0, "PASS, 0 cases, 0 induction steps\n")
