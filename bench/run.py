"""Benchmark for tropcyl: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload count-queries --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                  # every workload, one after another

One run builds the workload's round of operations from --seed, sets up (see
`setup_s`), then repeats the round until --seconds have passed, finishing
the round it is in. Each operation is timed alone and its output checked
afterwards, outside the timed region. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where
`attempted` and `failed` count one round's operations. Every round must
fail the same operations; a round that does not makes `correct` false.

The machine this was written on is shared: its processors run two to three
times as slow while other tenants are busy, and that changes within a second
and from one minute to the next. So every time is given at one fixed machine
speed. A fixed computation that does not call tropcyl (`reference`) is timed
right before every operation, and an operation's time is the trimmed mean of
its repetitions in the run times REFERENCE_S over the trimmed mean of the
reference's times. Both means are taken over the same stretch of the run, so
the slowdown cancels; a program that gets faster still reads faster.

* setup_s: importing tropcyl, generating the inputs and one untimed warm-up
  round, at the same machine speed (the reference runs in the warm-up round
  and its own time is left out); median over this process and four fresh
  ones started during the run;
* run_s, run_cpu_s: wall and process CPU time of one round, summed over the
  round's operations;
* op_p50_ms, op_p90_ms: median and 90th percentile over the round's
  operations (at least 100 in every workload);
* peak_rss_mib: peak resident memory of this process.

With --trace 1 the first half of the time runs untraced and the second half
traced (see layertrace.py); the metrics are per-layer totals and counters per
round, and trace_overhead_s, the traced minus the untraced round time.
"""

from __future__ import annotations

import argparse
import gc
import json
from fractions import Fraction
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("count-queries", "walls-fixpoint", "verify-session")
SETUP_PROCESSES = 4
DEFAULT_SECONDS = 30
# About the time reference() takes on the machine the benchmark was written
# on (2 cores, Python 3.11) while nothing else runs on it.
REFERENCE_S = 0.75e-3
# Share of the slowest and of the fastest repetitions left out of a mean:
# a rare long pause (a page fault, a descheduling) would move a plain mean.
TRIM = 0.1
UNITS = {
    "setup_s": "s", "run_s": "s", "run_cpu_s": "s",
    "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mib": "MiB",
}


def reference() -> Fraction:
    """A fixed computation of the kind tropcyl does, without tropcyl: exact
    fractions, small tuples as dictionary keys, sorting and JSON."""
    acc = Fraction(0)
    seen: dict = {}
    for i in range(1, 150):
        v = (i % 7 - 3, i % 11 - 5)
        acc += Fraction(v[0] * v[1], i % 13 + 1)
        seen[v] = seen.get(v, 0) + 1
        seen[(v[1], v[0], i % 3)] = i
    json.dumps([[list(k), n] for k, n in sorted(seen.items())])
    return acc


def trimmed_mean(xs: list[float]) -> float:
    xs = sorted(xs)
    k = int(len(xs) * TRIM)
    return statistics.fmean(xs[k:len(xs) - k])


def _load_program():
    """Import tropcyl from this checkout's src/, never from anywhere else."""
    if not (SRC / "tropcyl" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'tropcyl'} is missing; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import tropcyl

    if Path(tropcyl.__file__).resolve().parent != SRC / "tropcyl":
        sys.exit(f"error: imported tropcyl from {tropcyl.__file__}, not from {SRC}")


class Run:
    """One workload's operations, their times and their failures."""

    def __init__(self, ops):
        self.ops = ops
        self.failed_ops: set[int] | None = None  # the first recorded round's failures
        self.inconsistent_rounds = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []
        self.rounds = 0
        self.tracer = None
        self.best_layers: list[dict] = [{} for _ in ops]
        self.forget_times()

    @property
    def correct(self) -> bool:
        return not self.unexpected and not self.inconsistent_rounds

    @property
    def speed(self) -> float:
        """REFERENCE_S over the reference's mean time: below 1 on a slower machine."""
        return REFERENCE_S / trimmed_mean(self.refs)

    def op_times(self, reps: list[list[float]]) -> list[float]:
        """Each operation's time at the reference machine speed, in seconds."""
        speed = self.speed
        return [trimmed_mean(r) * speed for r in reps]

    def round(self, record: bool = True) -> None:
        """Run every operation once, then check the outputs."""
        gc.collect()
        outputs = []
        if self.tracer:
            self.tracer.active = True
        for k, op in enumerate(self.ops):
            r0 = time.perf_counter()
            reference()
            self.refs.append(time.perf_counter() - r0)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a raising operation is a failed one
                out, error = None, exc
            t1 = time.perf_counter()
            c1 = time.process_time()
            if self.tracer:
                taken = self.tracer.take()
                if t1 - t0 < min(self.wall[k], default=float("inf")):
                    self.best_layers[k] = taken
            self.wall[k].append(t1 - t0)
            self.cpu[k].append(c1 - c0)
            outputs.append((out, error))
        if self.tracer:
            self.tracer.active = False
        if not record:
            return
        self.rounds += 1
        failed = set()
        for k, (op, (out, error)) in enumerate(zip(self.ops, outputs)):
            problems = [f"raised {error!r}"] if error else op.check(out)
            if problems:
                failed.add(k)
                seen = self.known if op.known_fault else self.unexpected
                if len(seen) < 20:
                    seen.append(f"{op.label}: {problems[0]}")
        if self.failed_ops is None:
            self.failed_ops = failed
        elif failed != self.failed_ops:
            self.inconsistent_rounds += 1

    def forget_times(self) -> None:
        self.wall: list[list[float]] = [[] for _ in self.ops]
        self.cpu: list[list[float]] = [[] for _ in self.ops]
        self.refs: list[float] = []


def _setup(workload: str, seed: int, workdir: Path):
    """Import, build the inputs, warm up; return (run, seconds taken at the
    reference machine speed)."""
    start = time.perf_counter()
    _load_program()
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workloads.WORKLOADS[workload](seed, workdir))
    run.round(record=False)
    taken = time.perf_counter() - start - sum(run.refs)
    setup_s = taken * run.speed
    run.forget_times()
    return run, setup_s


def _setup_in_fresh_process(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _rounds_until(run: Run, start: float, seconds: float, pauses: int = 0, pause=None) -> None:
    """Repeat rounds until `seconds` after `start`; between rounds, call
    `pause` `pauses` times at even intervals."""
    paused = 0
    while True:
        run.round()
        elapsed = time.perf_counter() - start
        if paused < pauses and elapsed >= seconds * paused / pauses:
            pause()
            paused += 1
            elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"work-{workload}-{seed}"
    try:
        run, setup_s = _setup(workload, seed, workdir)
        start = time.perf_counter()
        if not trace:
            setups = [setup_s]
            _rounds_until(run, start, seconds, SETUP_PROCESSES,
                          lambda: setups.append(_setup_in_fresh_process(workload, seed)))
            ops_ms = [1000 * t for t in run.op_times(run.wall)]
            metrics = {
                "setup_s": statistics.median(setups),
                "run_s": sum(ops_ms) / 1000,
                "run_cpu_s": sum(run.op_times(run.cpu)),
                "op_p50_ms": statistics.median(ops_ms),
                "op_p90_ms": statistics.quantiles(ops_ms, n=10, method="inclusive")[8],
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {k: UNITS[k] for k in metrics}
            detail = {"rounds": run.rounds, "setup_samples": setups, "speed": run.speed,
                      "unscaled_run_s": sum(map(trimmed_mean, run.wall))}
        else:
            from layertrace import Tracer, round_metrics

            _rounds_until(run, start, seconds / 2)
            untraced, untraced_rounds = sum(run.op_times(run.wall)), run.rounds
            run.forget_times()
            run.tracer = tracer = Tracer()
            tracer.install()
            try:
                _rounds_until(run, start, seconds)
            finally:
                tracer.uninstall()
            traced_rounds = run.rounds - untraced_rounds
            metrics = round_metrics(run.best_layers)
            metrics["trace_overhead_s"] = sum(run.op_times(run.wall)) - untraced
            units = {k: _layer_unit(k) for k in metrics}
            OUT.mkdir(parents=True, exist_ok=True)
            (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(tracer.dump()))
            detail = {"untraced_rounds": untraced_rounds, "traced_rounds": traced_rounds}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": run.correct,
        "attempted": len(run.ops),
        "failed": len(run.failed_ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": {**detail, "inconsistent_rounds": run.inconsistent_rounds,
                   "unexpected_failures": run.unexpected, "known_fault_failures": run.known},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "svg.bytes":
        return "bytes"
    if name.endswith("_per_query"):
        return "ratio"
    return "count"


def _report(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for line in result["detail"]["unexpected_failures"]:
        print(f"  UNEXPECTED FAILURE {line}", file=sys.stderr)
    if result["detail"]["inconsistent_rounds"]:
        print(f"  {result['detail']['inconsistent_rounds']} rounds failed other operations "
              "than the first round", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_only:
        workdir = OUT / f"work-{args.workload}-{args.seed}-setup"
        try:
            _, setup_s = _setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.workload is None:
        return _run_all(args)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1))
    _report(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
