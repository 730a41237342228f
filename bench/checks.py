"""Independent output checks for the benchmark workloads.

Nothing here imports tropcyl. Every expected value is worked out from the
inputs the benchmark generated (fan rays, blowup multiplicities, the
benchmark's own per-pair table counts) with code of its own: fan norms,
the wall oracle, Euler's totient, the product formula. The one exception
is the splitting-sum oracle, which the caller passes in as a number.

Each check returns a list of problems; an empty list means the output is
accepted.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from itertools import combinations

# Step sets of the cubic model's wall structure in the paper's figure.
CUBIC_RAYS = ((1, 0), (0, 1), (-1, -1))
CUBIC_FIGURE_STEPS = (
    {(1, 0), (0, 1), (-1, -1)},
    {(1, 1), (-1, 0), (0, -1)},
    {(2, 1), (1, 2), (-2, -1), (-1, -2), (1, -1), (-1, 1)},
)

_SVG = "{http://www.w3.org/2000/svg}"


def _det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def fan_norm(rays, v) -> int:
    """a + b for v = a u_i + b u_{i+1} in the smooth cone containing v."""
    m = len(rays)
    for i in range(m):
        u, w = rays[i], rays[(i + 1) % m]
        a, b = _det(v, w), _det(u, v)
        if a >= 0 and b >= 0:
            return a + b
    raise ValueError(f"no cone of {rays} contains {v}")


def positive_hull_contains(gens, q) -> bool:
    """True when q is a nonnegative combination of at most two generators."""
    for u in gens:
        if _det(u, q) == 0 and u[0] * q[0] + u[1] * q[1] > 0:
            return True
    for u, v in combinations(gens, 2):
        d = _det(u, v)
        if d == 0:
            continue
        a, b = _det(q, v) * d, _det(u, q) * d
        if a >= 0 and b >= 0:
            return True
    return False


def is_wall(gens, d) -> bool:
    """The wall oracle: the line through d meets the positive hull of gens."""
    return positive_hull_contains(gens, d) or positive_hull_contains(gens, (-d[0], -d[1]))


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def primitive_vectors(rays, bound: int) -> set:
    """Every primitive lattice vector of fan norm at most bound."""
    r = bound * max(abs(c) for u in rays for c in u)
    return {
        (x, y)
        for x in range(-r, r + 1)
        for y in range(-r, r + 1)
        if math.gcd(x, y) == 1 and fan_norm(rays, (x, y)) <= bound
    }


# ---------------------------------------------------------------------------
# count-queries


def count(got, want: int, oracle: int | None = None) -> list[str]:
    """A single-class count against the benchmark's product and the oracle."""
    out = []
    if got != want:
        out.append(f"count {got}, expected {want}")
    if oracle is not None and oracle != want:
        out.append(f"splitting sum {oracle}, expected {want}")
    return out


def contributing(entries, expect_len: int, expect_sum: int, unit: bool) -> list[str]:
    """The listed (class, count) pairs of one cylinder.

    expect_sum is prod over leaves of (sum over the leaf's pairs and their
    table classes of the count). Under the default table (unit) there are
    exactly prod l_i(s) distinct classes, each counted once.
    """
    out = []
    total = sum(n for _, n in entries)
    if total != expect_sum:
        out.append(f"counts sum to {total}, expected {expect_sum}")
    if unit:
        if len(entries) != expect_len:
            out.append(f"{len(entries)} classes, expected {expect_len}")
        if len({c for c, _ in entries}) != len(entries):
            out.append("classes repeat")
        if any(n != 1 for _, n in entries):
            out.append("a class under the default table does not count 1")
    return out


# ---------------------------------------------------------------------------
# walls-fixpoint


def walls(rays, gens, steps: int, bound: int, directions) -> list[str]:
    """A generated wall structure: (direction, step) pairs.

    Every direction is primitive, within the norm bound and a wall; step 0
    holds exactly the supported rays. When every ray is supported and
    steps >= bound - 1, the structure has saturated: its directions are all
    primitive vectors of norm <= bound, m * sum_{n <= bound} phi(n) of them.
    On the cubic model, steps 0 to 2 match the paper's figure.
    """
    out = []
    seen = [d for d, _ in directions]
    if len(set(seen)) != len(seen):
        out.append("a direction repeats")
    for d, s in directions:
        if math.gcd(d[0], d[1]) != 1:
            out.append(f"{d} is not primitive")
        elif fan_norm(rays, d) > bound:
            out.append(f"{d} has norm {fan_norm(rays, d)} > {bound}")
        elif not is_wall(gens, d):
            out.append(f"{d} is not a wall direction")
        if not 0 <= s <= steps:
            out.append(f"{d} has step {s} outside 0..{steps}")
    by_step: dict[int, set] = {}
    for d, s in directions:
        by_step.setdefault(s, set()).add(d)
    if by_step.get(0, set()) != set(gens):
        out.append(f"step 0 is {sorted(by_step.get(0, set()))}, expected {sorted(gens)}")
    if len(gens) == len(rays) and steps >= bound - 1:
        want = len(rays) * sum(totient(n) for n in range(1, bound + 1))
        if set(seen) != primitive_vectors(rays, bound) or len(seen) != want:
            out.append(f"saturated structure has {len(seen)} walls, expected {want}")
    if tuple(rays) == CUBIC_RAYS and bound >= 3:
        for s in range(min(steps, 2) + 1):
            if by_step.get(s, set()) != CUBIC_FIGURE_STEPS[s]:
                out.append(f"cubic step {s} differs from the figure")
    return out


def wall_queries(gens, dirs, answers) -> list[str]:
    """is_wall_direction answers for a box of directions."""
    if len(answers) != len(dirs):
        return [f"{len(answers)} answers for {len(dirs)} directions"]
    wrong = [d for d, a in zip(dirs, answers) if a != is_wall(gens, d)]
    return [f"wrong wall answer at {d}" for d in wrong[:3]]


def _svg_root(text: str, width: int, height: int):
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return None, [f"SVG does not parse: {exc}"]
    out = []
    if root.tag != _SVG + "svg":
        out.append(f"root element is {root.tag}")
    if (root.get("width"), root.get("height")) != (str(width), str(height)):
        out.append(f"SVG size {root.get('width')}x{root.get('height')}, expected {width}x{height}")
    return root, out


def walls_svg(text: str, n_walls: int, width: int, height: int) -> list[str]:
    """A wall diagram: one segment and one step label per wall."""
    root, out = _svg_root(text, width, height)
    if root is None:
        return out
    lines = len(root.findall(_SVG + "line"))
    labels = len(root.findall(_SVG + "text"))
    if lines != n_walls or labels != n_walls:
        out.append(f"{lines} lines and {labels} labels for {n_walls} walls")
    return out


# ---------------------------------------------------------------------------
# verify-session

_CASES = re.compile(r"PASS, (\d+) cases, (\d+) induction steps")
_SPEC = re.compile(r"PASS, (\d+) induction steps")


def verify_cases(result, cases: int) -> list[str]:
    """`verify --cases N`: exit 0 and PASS on N cases, 1 to 3 steps each."""
    rc, stdout, stderr = result
    m = _CASES.fullmatch(stdout.strip())
    if rc != 0 or m is None:
        return [f"exit {rc}: {(stdout + stderr).strip()[:200]}"]
    n, steps = int(m.group(1)), int(m.group(2))
    out = []
    if n != cases:
        out.append(f"{n} cases, expected {cases}")
    if not n <= steps <= 3 * n:
        out.append(f"{steps} induction steps for {n} cases")
    return out


def verify_spec(result, t: int) -> list[str]:
    """`verify <spec>`: exit 0 and PASS with one induction step per leaf."""
    rc, stdout, stderr = result
    m = _SPEC.fullmatch(stdout.strip())
    if rc != 0 or m is None:
        return [f"exit {rc}: {(stdout + stderr).strip()[:200]}"]
    if int(m.group(1)) != t:
        return [f"{m.group(1)} induction steps, expected {t}"]
    return []


def count_json(result, leaf_rays, blowups, factors, want_query: int) -> list[str]:
    """`count <spec> --json` under a table whose pair (i, j) counts factors[(i, j)].

    The listing has one distinct class per choice (j_s), each counted
    prod_s factors[(i_s, j_s)]; the queried class counts want_query under
    both the closed form and the splitting sum.
    """
    rc, stdout, stderr = result
    if rc != 0:
        return [f"exit {rc}: {stderr.strip()[:200]}"]
    try:
        data = json.loads(stdout)
        listed = data["contributing"]
        query = data["query"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable count output: {exc!r}"]
    out = []
    expect_len = math.prod(blowups[i - 1] for i in leaf_rays)
    if len(listed) != expect_len:
        out.append(f"{len(listed)} classes, expected {expect_len}")
    if len({json.dumps(e.get("class"), sort_keys=True) for e in listed}) != len(listed):
        out.append("classes repeat")
    for e in listed:
        choice = e.get("choice", [])
        if len(choice) != len(leaf_rays):
            out.append(f"choice {choice} has the wrong length")
            continue
        want = math.prod(factors.get((i, j), 0) for i, j in zip(leaf_rays, choice))
        if e.get("count") != want:
            out.append(f"choice {choice} counts {e.get('count')}, expected {want}")
    for key in ("count", "splitting_sum"):
        if query.get(key) != want_query:
            out.append(f"query {key} {query.get(key)}, expected {want_query}")
    return out[:5]


def cylinder_svg(result, text: str | None, width: int, height: int) -> list[str]:
    """`render cylinder --svg`: exit 0 and a parseable drawing with segments."""
    rc, _, stderr = result
    if rc != 0 or text is None:
        return [f"exit {rc}: {stderr.strip()[:200]}"]
    root, out = _svg_root(text, width, height)
    if root is not None and not root.findall(_SVG + "line"):
        out.append("cylinder drawing has no segments")
    return out


def degeneration(t: int, members: int, steps) -> list[str]:
    """A deformation family and its degeneration paths.

    The family holds L_1..L_{t+1}, M_1..M_t and N_1..N_t. Each step is
    (k, r, coincide, legs of the first tree, legs of the second); both trees
    carry 2t + 7 legs and coincide at r = 0.
    """
    out = []
    if members != 3 * t + 1:
        out.append(f"{members} family members, expected {3 * t + 1}")
    for k, r, coincide, legs1, legs2 in steps:
        if legs1 != 2 * t + 7 or legs2 != 2 * t + 7:
            out.append(f"step {k} at r={r} has {legs1}/{legs2} legs, expected {2 * t + 7}")
        if r == 0 and not coincide:
            out.append(f"step {k} does not coincide at r=0")
    ks = sorted({k for k, *_ in steps})
    if ks != list(range(1, t + 1)):
        out.append(f"steps {ks}, expected 1..{t}")
    return out
