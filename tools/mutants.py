"""Run the tier-1 suite against named source mutations: a mutation gate.

Each mutant is one exact text replacement in one file of ``src/``. For each
mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory of its own, applies the replacement there, and runs the
tier-1 command (pytest over ``tests/`` with ``src`` on the path and the flags
of ``tools/unreached.py``, plus ``-x`` to stop at the first failure). A
mutant is killed when that run fails. The unmutated copy runs first, so a
suite that already fails is reported instead of counted as kills.

Each run is bounded. Its address space is capped at ``MEMORY_CAP`` (512 MiB;
the unmutated suite peaks near 90 MB), so a mutant that allocates without
end raises ``MemoryError`` instead of taking the machine's memory. A mutated
run is stopped after max(120 s, 5 times the unmutated run's time), so a
mutant that loops without end cannot hang the gate. Such runs count as
killed and print as ``killed (memory cap)`` or ``killed (timed out)``.

    python3 tools/mutants.py

It runs every mutant and is not part of tier-1. A full run of the 25
mutants takes about 5 minutes (Python 3.11.7, 2 shared vCPUs): the unmutated
copy and each survivor cost a whole suite run, 30-40 s, and a killed
mutant less. The script writes only to its temporary directories.

A gate: exits 0 when every mutant marked ``must_kill`` was killed and every
other one survived; 1 when a ``must_kill`` mutant survived, when a mutant not
marked ``must_kill`` was killed (the test that now kills it closes its
ROADMAP item, and the mark should flip to ``True``), or when an ``old`` text
does not occur exactly once in its file; and 2 when the unmutated suite
fails.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from unreached import TIER1_FLAGS

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", *TIER1_FLAGS, "-x", "tests"]
MEMORY_CAP = 512 << 20  # bytes of address space per suite run


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    must_kill: bool
    note: str


MUTANTS = (
    Mutant(
        "toric-profile-drops-next", "src/tropcyl/classes.py",
        "toric[i - 1] + toric[(i + 1) % m] - det(",
        "toric[i - 1] - det(",
        True, "toric_profile forgets t_{i+1}",
    ),
    Mutant(
        "sum-concatenates-equal-pairs", "src/tropcyl/classes.py",
        "a[-1][0] < b[0][0]",
        "a[-1][0] <= b[0][0]",
        True, "dE_sum concatenates runs that share a pair, leaving a duplicate key",
    ),
    Mutant(
        "sum-keeps-subtrahend-sign", "src/tropcyl/classes.py",
        "(k, -v) for k, v in dE",
        "(k, v) for k, v in dE",
        True, "CurveClass._plus concatenates the subtrahend's exceptional part unnegated",
    ),
    Mutant(
        "sum-concatenates-interleaved-runs", "src/tropcyl/classes.py",
        "    dE = dict(a)\n"
        "    for k, v in b:\n"
        "        dE[k] = dE.get(k, 0) + v\n"
        "    return _canonical(dE.items())\n",
        "    return a + b\n",
        True, "dE_sum concatenates runs whose pairs interleave instead of merging them; the"
        " listing property test_the_listing_by_parts_matches_a_fold_of_sums kills it alone",
    ),
    Mutant(
        "listing-mirror-join-appends", "src/tropcyl/classes.py",
        "        return _dE_before\n",
        "        return add\n",
        True, "contributing joins a leaf whose pairs lie below every earlier pair after the row's"
        " run; test_a_listing_against_ray_order_concatenates_each_leaf_before kills it",
    ),
    Mutant(
        "listing-overlap-concatenates", "src/tropcyl/classes.py",
        "    return dE_sum\n",
        "    return add\n",
        True, "contributing concatenates a leaf whose pairs overlap earlier ones instead of merging;"
        " test_a_leaf_meeting_an_earlier_pair_is_merged kills it",
    ),
    Mutant(
        "lexicographic-on-ray-split", "src/tropcyl/tropical.py",
        "    return (neg[0] - v[0], neg[1] - v[1]), v\n",
        "    v = min(r for r in fan.rays if abs(det(u, r)) == 1)\n"
        "    return (neg[0] - v[0], neg[1] - v[1]), v\n",
        True, "canonical_spine_split takes the lexicographically smallest unimodular ray",
    ),
    Mutant(
        "pair-sum-no-exhaustion-stop", "src/tropcyl/walls.py",
        "if old == len(walls) or not todo:",
        "if old == len(walls):",
        True, "_pair_sum runs on after every direction is found",
    ),
    Mutant(
        "gcd-pass-keeps-multiples", "src/tropcyl/walls.py",
        "{(x // g, y // g) for x, y in vectors if (g := gcd(x, y))}",
        "{(x, y) for x, y in vectors if gcd(x, y)}",
        True, "_directions returns each nonzero sum unreduced, not its primitive part",
    ),
    Mutant(
        "wall-label-at-tip", "src/tropcyl/svg.py",
        "opts.scale, radius * 1.08",
        "opts.scale, radius",
        True, "render_walls places each step label at the wall's tip, not 1.08 times its radius",
    ),
    Mutant(
        "twig-edge-off-origin-line", "src/tropcyl/tropical.py",
        "        if a is not None and det(a, e.weight) != 0:\n"
        '            out.append(f"twig edge {e.tail}-{e.head} does not lie on a line through the origin")\n',
        "",
        True, "_twig_problems drops its line-through-origin clause",
    ),
    Mutant(
        "cylinder-skips-balancing", "src/tropcyl/tropical.py",
        "        if v == attach or v not in twig.pos:\n",
        "        if False:\n",
        True, "_try_cylinder ignores unbalanced bend and spine vertices",
    ),
    Mutant(
        "spine-reads-every-deficit-as-a-bend", "src/tropcyl/tropical.py",
        "        if not is_wall_direction(model, s):\n",
        "        if False:\n",
        True, "_try_spine treats a deficit off the walls as a bend; the spines on the sparse"
        " P2 model whose vertex lies on its deficit's line kill it",
    ),
    Mutant(
        "cylinder-skips-spine-problem", "src/tropcyl/tropical.py",
        "    problem = cyl.spine_problem()\n",
        "    problem = None\n",
        True, "_try_cylinder accepts any spine",
    ),
    Mutant(
        "extension-reads-start-cone", "src/tropcyl/tropical.py",
        "    if det(fan.ray(i), X) == 0 and det(fan.ray(i), p) < 0:\n"
        "        i = i - 1 or fan.m  # from the ray u_i the path enters the cone before\n",
        "",
        True, "extension_class reads the kink on the cone of x, not the cone the path enters",
    ),
    Mutant(
        "tree-class-leaf-as-boundary", "src/tropcyl/tropical.py",
        "        if w != (0, 0) and v in pairs:\n",
        "        if False:\n",
        True, "tree_class adds a paired leg's direction_contrib to dD instead of meeting E_ij",
    ),
    Mutant(
        "zero-spine-shift", "src/tropcyl/counting.py",
        "    return extension_class(model, cyl.bend, cyl.p1) + extension_class(\n"
        "        model, cyl.bend, cyl.p2\n"
        "    )\n",
        "    a = extension_class(model, cyl.bend, cyl.p1) + extension_class(\n"
        "        model, cyl.bend, cyl.p2\n"
        "    )\n"
        "    return a - a\n",
        True, "the spine extension shift is zero, every call kept",
    ),
    Mutant(
        "spine-shift-drops-p2", "src/tropcyl/counting.py",
        "    return extension_class(model, cyl.bend, cyl.p1) + extension_class(\n"
        "        model, cyl.bend, cyl.p2\n"
        "    )\n",
        "    return extension_class(model, cyl.bend, cyl.p1)\n",
        True, "the spine extension shift leaves out the p2 leg",
    ),
    Mutant(
        "corrupt-elementary-shift", "src/tropcyl/deformation.py",
        'supp[f"M{k}"] = {elementary_extension_shift(cc.model, cc.comps[k - 1]): 1}',
        'supp[f"M{k}"] = {elementary_extension_shift(cc.model, cc.comps[k - 1])'
        " + cc.base + cc.base + cc.base: 1}",
        True, "member_measures adds 3 times the cylinder's base, its shift when extended, to M_k;"
        " a unit test kills it,"
        " verify (criterion 5) still does not (ROADMAP item 1)",
    ),
    Mutant(
        "elementary-bend-on-the-canonical-side", "src/tropcyl/counting.py",
        "    return replace(build_cylinder(model, (w,)), bend=(Fraction(w[0], 2), Fraction(w[1], 2)))\n",
        "    return build_cylinder(model, (w,))\n",
        True, "elementary_cylinder keeps the canonical bend at -u_i, not u_i / 2",
    ),
    Mutant(
        "primitive-gate-skips-check", "src/tropcyl/counting.py",
        "    problem = check_primitive(model, cyl)\n",
        "    problem = None\n",
        True, "twig_components reads leaf rays without check_primitive's verdict",
    ),
    Mutant(
        "level-base-always-shift", "src/tropcyl/counting.py",
        "    base = spine_extension_shift(model, cyl) if cyl.extended else cls.zero_class(model)\n",
        "    base = spine_extension_shift(model, cyl)\n",
        True, "the shared read of a cylinder takes the spine extension shift as the base of an"
        " infinitesimal cylinder too",
    ),
    Mutant(
        "affine-check-drops-length-denominator", "src/tropcyl/tropical.py",
        "(x, y), (qx, qy), n, d = p, q, length.numerator, length.denominator\n",
        "(x, y), (qx, qy), n, d = p, q, length.numerator, 1\n",
        True, "structural_problems lands an edge at pt + numerator(length) * w;"
        " test_the_affine_check_agrees_with_fraction_arithmetic kills it",
    ),
    Mutant(
        "elementary-kinds-over-the-unrefined-model", "src/tropcyl/deformation.py",
        "    refined = refine_for_slopes(model, (elem.p1, elem.p2))\n",
        "    refined = model\n",
        True, "_elementary_members classifies M and N over the unrefined model: on P1xP1, -u_1 is"
        " a ray, the elementary split leaves the fan and build_deformation refuses M;"
        " TestDegenerationPath::test_leg_count_is_2t_plus_7 kills it",
    ),
    Mutant(
        "verify-skips-scope", "src/tropcyl/cli.py",
        "        check_multiplicities(beta)\n",
        "",
        True, "verify compares listed and oracle classes without checking their multiplicities",
    ),
)


def bad_anchors(mutants) -> list[str]:
    """One line per mutant whose ``old`` text does not occur exactly once."""
    out = []
    for m in mutants:
        n = (ROOT / m.file).read_text().count(m.old)
        if n != 1:
            out.append(f"{m.name}: old text occurs {n} times in {m.file}")
    return out


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tier1(mutant: Mutant | None, timeout: float | None = None) -> tuple[str, float]:
    """Run tier-1 on a fresh copy, mutated when a mutant is given, under the
    memory cap and stopped after ``timeout`` seconds; return its outcome
    (``pass``, ``fail``, ``memory cap`` or ``timed out``) and its wall time."""
    with tempfile.TemporaryDirectory(prefix="tropcyl-mutant-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if mutant is not None:
            path = work / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run(
                TIER1, cwd=work, env=env, capture_output=True, timeout=timeout, preexec_fn=_cap_memory
            )
        except subprocess.TimeoutExpired:
            return "timed out", time.perf_counter() - start
        seconds = time.perf_counter() - start
        if done.returncode == 0:
            return "pass", seconds
        return "memory cap" if b"MemoryError" in done.stdout + done.stderr else "fail", seconds


def main() -> int:
    bad = bad_anchors(MUTANTS)
    for line in bad:
        print(line)
    if bad:
        return 1
    outcome, seconds = run_tier1(None)
    print(f"unmutated: {outcome} ({seconds:.1f} s)")
    if outcome != "pass":
        return 2
    timeout = max(120.0, 5 * seconds)
    wrong = []
    for m in MUTANTS:
        outcome, seconds = run_tier1(m, timeout)
        passed = outcome == "pass"
        verdict = {"pass": "survived", "fail": "killed"}.get(outcome, f"killed ({outcome})")
        print(f"{m.name}: {verdict} ({seconds:.1f} s){'' if m.must_kill else ', not must_kill'} - {m.note}")
        if passed == m.must_kill:
            wrong.append(m)
    for m in wrong:
        if m.must_kill:
            print(f"must_kill mutant survived: {m.name}")
        else:
            print(f"mutant not marked must_kill was killed: {m.name}; mark it must_kill")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
