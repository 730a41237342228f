"""Record the benchmark of one checkout in a ``BENCH_<n>.json`` file, or compare two.

    python3 tools/bench_record.py --out BENCH_39.json [--root DIR]
    python3 tools/bench_record.py --compare BENCH_38.json BENCH_39.json

Recording runs ``bench/run.py`` of the checkout at ``--root`` (default: this
one) ``RUNS`` = 3 times per workload, each run in a fresh process with
``--seed 1 --seconds 30 --trace 0``, and keeps per workload each end-to-end
metric's median and interquartile range (IQR) over the runs, and per run its
``correct`` and ``failed``. It then times seven rows in a process that
imports ``tropcyl`` from the checkout's ``src/``:

* ``class.make_us``: building a ``CurveClass`` from its rays, dD and dE;
* ``class.add_us``: ``+`` of two classes of the 12-ray model whose
  exceptional pairs lie apart;
* ``counting.row_cap_ms``: ``contributing_classes`` at the CLI's row cap,
  8 leaves of the 12-ray model with every l_i = 3 and the default table
  (3^8 = 6561 rows);
* ``counting.query_us``: ``count_primitive_cylinder`` on that cylinder
  and table at the class that picks component 2 at every leaf (count 1),
  the cylinder's count data already read;
* ``counting.spine_us``: ``count_spine`` at that class on that cylinder's
  spine, which lists the same leaves and reads the same count data;
* ``walls.pair_sum_cap_ms``: ``generate_walls`` under ``pair_sum`` on the
  cubic model at the config's cap on the norm bound, 40, with 10^5 steps;
* ``cli.verify_cases_ms``: ``tropcyl verify --seed 0 --cases 200`` through
  ``cli.main`` on the default cubic config, its stdout captured. Its
  repetitions share the process's bounded caches, as the benchmark's rounds
  do.

Each row is a median and IQR over repetitions, in wall time on the machine
it ran on, next to the time of the benchmark's ``reference`` computation,
so a slower machine shows. The file also holds the checkout's git sha (or
null when it has none), ``sys.version`` and ``os.cpu_count()``. Two files
compare only when they were recorded on one machine.

Comparing prints, per workload metric and row that both files hold, both
medians, the change in percent, and whether the gap is larger than the
larger of the two IQRs. It names each row only one file holds as skipped,
and exits 1 when the second file lacks a workload metric of the first. The script uses only the standard library, writes
only its ``--out`` file (and whatever ``bench/run.py`` writes under
``bench/out/``), and is not part of tier-1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("count-queries", "walls-fixpoint", "verify-session")
TWELVE_RAYS = (
    (1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1),
    (-1, 0), (-1, -1), (-1, -2), (0, -1), (1, -1), (2, -1),
)
RUNS = 3  # runs per workload, odd so that a median is one run's value
SECONDS = 30  # bench/run.py --seconds
SEED = 1  # bench/run.py --seed
CLASS_REPS = 15  # repetitions per class row
CALLS = 20000  # calls per repetition of a per-call row


def spread(xs: list[float]) -> dict:
    """Median and interquartile range of a sample of at least one value."""
    q1, _q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": statistics.median(xs), "iqr": q3 - q1, "n": len(xs)}


def git_sha(root: Path) -> str | None:
    """The checkout's HEAD, marked ``-dirty`` when a tracked file has
    changes; untracked files do not count."""
    if not (root / ".git").exists():
        return None
    git = ["git", "-C", str(root)]
    sha = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True, check=True)
    return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def run_workload(root: Path, workload: str) -> dict:
    """One ``bench/run.py`` run: its last stdout line, a JSON object."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def record_workloads(root: Path) -> dict:
    out = {}
    for workload in WORKLOADS:
        results = [run_workload(root, workload) for _ in range(RUNS)]
        names = results[0]["metrics"]
        out[workload] = {
            "runs": [{"correct": r["correct"], "failed": r["failed"]} for r in results],
            "metrics": {
                name: {**spread([r["metrics"][name]["value"] for r in results]),
                       "unit": names[name]["unit"]}
                for name in names
            },
        }
        print(f"{workload}: {RUNS} runs", file=sys.stderr)
    return out


def class_rows() -> dict:
    """The class and wall rows, timed in this process; ``tropcyl`` and the
    benchmark's ``reference`` must be importable."""
    from run import reference
    from tropcyl.classes import CurveClass
    from tropcyl.cli import main as cli_main
    from tropcyl.counting import build_cylinder, contributing_classes, count_primitive_cylinder, count_spine
    from tropcyl.counting import cylinder_count, default_table, elementary_class
    from tropcyl.model import build_model, cubic_model
    from tropcyl.walls import generate_walls

    model = build_model(TWELVE_RAYS, (3,) * 12)
    a, b = elementary_class(model, 1, 1), elementary_class(model, 2, 1)
    rays, dD, dE = a.rays, a.dD, a.dE
    table = default_table(model)
    cyl = build_cylinder(model, TWELVE_RAYS[:8])
    contributing_classes(model, cyl, table)
    beta = cylinder_count(model, cyl, table).base
    for i in range(1, 9):
        beta = beta + elementary_class(model, i, 2)
    spine = replace(cyl, twig_type=())
    if not count_primitive_cylinder(model, cyl, beta, table) == 1 == count_spine(model, spine, beta, table):
        raise RuntimeError("the row cap query does not count 1")
    cubic = cubic_model()

    def per_call_us(call) -> list[float]:
        times = []
        for _ in range(CLASS_REPS):
            t0 = time.perf_counter()
            for _ in range(CALLS):
                call()
            times.append(1e6 * (time.perf_counter() - t0) / CALLS)
        return times

    def verify_cases() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["verify", "--seed", "0", "--cases", "200"])
        if code:
            raise RuntimeError(f"verify --seed 0 --cases 200 exited {code}")

    def once(call, scale) -> list[float]:
        times = []
        for _ in range(CLASS_REPS):
            t0 = time.perf_counter()
            call()
            times.append(scale * (time.perf_counter() - t0))
        return times

    rows = {
        "reference_ms": (once(reference, 1e3), "ms"),
        "class.make_us": (per_call_us(lambda: CurveClass(rays, dD, dE)), "us"),
        "class.add_us": (per_call_us(lambda: a + b), "us"),
        "counting.row_cap_ms": (once(lambda: contributing_classes(model, cyl, table), 1e3), "ms"),
        "counting.query_us": (per_call_us(lambda: count_primitive_cylinder(model, cyl, beta, table)), "us"),
        "counting.spine_us": (per_call_us(lambda: count_spine(model, spine, beta, table)), "us"),
        "walls.pair_sum_cap_ms": (once(lambda: generate_walls(cubic, 10**5, 40, "pair_sum"), 1e3), "ms"),
        "cli.verify_cases_ms": (once(verify_cases, 1e3), "ms"),
    }
    return {name: {**spread(xs), "unit": unit} for name, (xs, unit) in rows.items()}


def record_class_rows(root: Path) -> dict:
    """``class_rows`` in a fresh process on the checkout's sources."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--class-rows"], cwd=root, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def record(args) -> int:
    root = Path(args.root).resolve()
    result = {
        "sha": git_sha(root),
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        "settings": {"runs": RUNS, "seconds": SECONDS, "seed": SEED,
                     "class_reps": CLASS_REPS, "calls": CALLS},
        "workloads": record_workloads(root),
        "class_rows": record_class_rows(root),
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


def compare(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    old_rows, new_rows = ({**{f"{w} {name}": m for w, d in data["workloads"].items()
                              for name, m in d["metrics"].items()}, **data["class_rows"]}
                          for data in (old, new))
    rows = [(label, m, new_rows[label]) for label, m in old_rows.items() if label in new_rows]
    skipped = [label for label in {**old_rows, **new_rows} if (label in old_rows) != (label in new_rows)]
    lost = [label for label in skipped if label in old_rows and label not in old["class_rows"]]
    print(f"{'row':40} {'old':>12} {'new':>12} {'change':>8}  gap > larger IQR")
    for label, a, b in rows:
        gap = b["median"] - a["median"]
        change = 100 * gap / a["median"] if a["median"] else float("nan")
        print(f"{label:40} {a['median']:12.6g} {b['median']:12.6g} {change:+7.1f}%  "
              f"{'yes' if abs(gap) > max(a['iqr'], b['iqr']) else 'no'}")
    for label in skipped:
        print(f"{label}: only in {'old' if label in old_rows else 'new'}, skipped")
    for name, path, data in (("old", old_path, old), ("new", new_path, new)):
        bad = [w for w, d in data["workloads"].items() if not all(r["correct"] for r in d["runs"])]
        if bad:
            print(f"{name} ({path}): a run was not correct on {', '.join(bad)}")
    if lost:
        print(f"new ({new_path}) lacks the workload metrics {', '.join(lost)}")
        return 1
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="the BENCH_<n>.json file to write")
    p.add_argument("--root", default=str(ROOT), help="the checkout to record (default: this one)")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--class-rows", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.class_rows:
        print(json.dumps(class_rows()))
        return 0
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        p.error("give --out FILE to record, or --compare OLD NEW")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
