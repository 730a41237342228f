"""Tests of the benchmark's own output checks: each accepts a right answer
and rejects a deliberately wrong one.

    python3 bench/selftest.py

The answers are written out by hand from the paper's figures and the
product formula, so these tests need neither tropcyl nor a run.
"""

from __future__ import annotations

import json
import unittest
from fractions import Fraction

import checks

CUBIC = checks.CUBIC_RAYS
P1XP1 = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _structure(rays, bound, step_of):
    return [(d, step_of(d)) for d in sorted(checks.primitive_vectors(rays, bound))]


def _cubic_saturated(bound):
    """The cubic structure at saturation; steps 0-2 as in the figure, the rest 3."""
    figure = {d: s for s, ds in enumerate(checks.CUBIC_FIGURE_STEPS) for d in ds}
    return _structure(CUBIC, bound, lambda d: figure.get(d, 3))


class Geometry(unittest.TestCase):
    def test_fan_norm(self):
        self.assertEqual(checks.fan_norm(CUBIC, (2, 1)), 3)
        self.assertEqual(checks.fan_norm(CUBIC, (-3, -3)), 3)
        self.assertEqual(checks.fan_norm(P1XP1, (-2, 5)), 7)

    def test_wall_oracle(self):
        half = ((1, 0), (0, 1))
        self.assertTrue(checks.is_wall(half, (2, 3)))
        self.assertTrue(checks.is_wall(half, (-1, -4)))
        self.assertFalse(checks.is_wall(half, (1, -1)))

    def test_saturated_cubic_count(self):
        # 3 * (phi(1) + ... + phi(10)) = 3 * 32
        self.assertEqual(len(checks.primitive_vectors(CUBIC, 10)), 96)


class CountQueries(unittest.TestCase):
    def test_count(self):
        self.assertEqual(checks.count(6, 6, 6), [])
        self.assertTrue(checks.count(0, 3, 3))
        self.assertTrue(checks.count(3, 3, 0))

    def test_contributing_default_table(self):
        right = [("a", 1), ("b", 1), ("c", 1), ("d", 1)]
        self.assertEqual(checks.contributing(right, 4, 4, unit=True), [])
        self.assertTrue(checks.contributing(right[:3], 4, 3, unit=True))
        self.assertTrue(checks.contributing([("a", 1), ("a", 1), ("c", 1), ("d", 1)], 4, 4, unit=True))
        self.assertTrue(checks.contributing([("a", 2), ("b", 1), ("c", 1)], 4, 4, unit=True))

    def test_contributing_sum(self):
        # Two leaves with per-leaf sums 2 + 3 and 4: the counts sum to 20.
        right = [("a", 8), ("b", 12)]
        self.assertEqual(checks.contributing(right, 2, 20, unit=False), [])
        self.assertTrue(checks.contributing([("a", 8), ("b", 9)], 2, 20, unit=False))


class WallsFixpoint(unittest.TestCase):
    def test_saturated_cubic(self):
        right = _cubic_saturated(10)
        self.assertEqual(checks.walls(CUBIC, CUBIC, 30, 10, right), [])

    def test_missing_wall_at_saturation(self):
        wrong = _cubic_saturated(10)[1:]
        self.assertTrue(checks.walls(CUBIC, CUBIC, 30, 10, wrong))

    def test_non_primitive_and_out_of_bound(self):
        right = _cubic_saturated(6)
        self.assertTrue(checks.walls(CUBIC, CUBIC, 30, 6, right + [((2, 2), 3)]))
        self.assertTrue(checks.walls(CUBIC, CUBIC, 30, 6, right + [((7, 1), 3)]))

    def test_not_a_wall(self):
        half = ((1, 0), (0, 1))
        right = [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)]
        self.assertEqual(checks.walls(P1XP1, half, 1, 6, right), [])
        self.assertTrue(checks.walls(P1XP1, half, 1, 6, right + [((1, -2), 1)]))

    def test_figure_step_sets(self):
        figure = [(d, s) for s, ds in enumerate(checks.CUBIC_FIGURE_STEPS) for d in ds]
        self.assertEqual(checks.walls(CUBIC, CUBIC, 2, 10, figure), [])
        moved = [(d, 2 if d == (1, 1) else s) for d, s in figure]
        self.assertTrue(checks.walls(CUBIC, CUBIC, 2, 10, moved))

    def test_wall_queries(self):
        half = ((1, 0), (0, 1))
        dirs = [(1, 1), (1, -1), (-2, -1)]
        self.assertEqual(checks.wall_queries(half, dirs, [True, False, True]), [])
        self.assertTrue(checks.wall_queries(half, dirs, [True, True, True]))

    def test_walls_svg(self):
        ns = 'xmlns="http://www.w3.org/2000/svg"'
        right = f'<svg {ns} width="480" height="480"><line /><text>0</text></svg>'
        self.assertEqual(checks.walls_svg(right, 1, 480, 480), [])
        self.assertTrue(checks.walls_svg(right, 2, 480, 480))
        self.assertTrue(checks.walls_svg(right.replace("</svg>", ""), 1, 480, 480))


class VerifySession(unittest.TestCase):
    def test_verify_cases(self):
        self.assertEqual(checks.verify_cases((0, "PASS, 10 cases, 17 induction steps\n", ""), 10), [])
        self.assertTrue(checks.verify_cases((0, "PASS, 9 cases, 17 induction steps\n", ""), 10))
        self.assertTrue(checks.verify_cases((5, "", "error: splitting-1"), 10))

    def test_verify_spec(self):
        self.assertEqual(checks.verify_spec((0, "PASS, 2 induction steps\n", ""), 2), [])
        self.assertTrue(checks.verify_spec((0, "PASS, 1 induction steps\n", ""), 2))
        self.assertTrue(checks.verify_spec((5, "", "error: endpoint-initial"), 2))

    def test_count_json(self):
        # Leaves at rays 1 and 2 with l = (2, 1); factors 2, 3 at ray 1 and 5 at ray 2.
        factors = {(1, 1): 2, (1, 2): 3, (2, 1): 5}
        data = {
            "contributing": [
                {"choice": [1, 1], "class": {"dD": [1]}, "count": 10},
                {"choice": [2, 1], "class": {"dD": [2]}, "count": 15},
            ],
            "query": {"count": 15, "splitting_sum": 15},
        }
        ok = (0, json.dumps(data), "")
        self.assertEqual(checks.count_json(ok, (1, 2), (2, 1), factors, 15), [])
        data["contributing"][1]["count"] = 14
        self.assertTrue(checks.count_json((0, json.dumps(data), ""), (1, 2), (2, 1), factors, 15))
        data["contributing"][1]["count"] = 15
        data["query"]["count"] = 0
        self.assertTrue(checks.count_json((0, json.dumps(data), ""), (1, 2), (2, 1), factors, 15))

    def test_cylinder_svg(self):
        ns = 'xmlns="http://www.w3.org/2000/svg"'
        text = f'<svg {ns} width="360" height="360"><line /></svg>'
        self.assertEqual(checks.cylinder_svg((0, "", ""), text, 360, 360), [])
        self.assertTrue(checks.cylinder_svg((0, "", ""), text, 480, 480))
        self.assertTrue(checks.cylinder_svg((0, "", ""), text.replace("<line />", ""), 360, 360))
        self.assertTrue(checks.cylinder_svg((2, "", "error"), None, 360, 360))

    def test_degeneration(self):
        t = 2
        right = [(k, r, r == 0, 11, 11) for k in (1, 2) for r in (None, Fraction(1), Fraction(0))]
        self.assertEqual(checks.degeneration(t, 7, right), [])
        apart = [(k, r, False, 11, 11) for k, r, *_ in right]
        self.assertTrue(checks.degeneration(t, 7, apart))
        short = [(k, r, c, 10, 11) for k, r, c, *_ in right]
        self.assertTrue(checks.degeneration(t, 7, short))
        self.assertTrue(checks.degeneration(t, 6, right))


if __name__ == "__main__":
    unittest.main()
