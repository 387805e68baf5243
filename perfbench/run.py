"""The malgebra benchmark: CLI workloads timed end to end, one process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed generates the workload's
model files in a scratch directory under the checkout; then the workload's
CLI invocations run as a closed loop with a single client (the next one
starts when the previous one exits), in whole rounds, until S seconds have
passed.  Every report is checked by ``oracle``.  The last line of standard
output is one JSON object:

* ``--trace 0``: ``verdict_s``, ``cpu_s`` and ``peak_rss_mb`` (medians over
  the rounds) and ``setup_s`` (median over SETUPS_PER_ROUND set-ups measured
  before each round);
* ``--trace 1``: the per-layer metrics of ``LAYER_METRICS`` from traced
  rounds, alternated with untraced rounds to give the tracing overhead.

See README.md in this directory for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import inputs
import oracle
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS_PER_ROUND = 2
OP_TIMEOUT_S = 60.0

_LAWS = ("illegitimate", "idempotence", "composition", "interference", "cumulativity",
         "negation", "separability", "strong_separability", "l_cumulativity")

# (metric, unit, statistic, span names); "better" is "lower" for all of them.
LAYER_METRICS = [
    ("ratlin.project_ray.calls", "count", "calls", ["ratlin.project_ray"]),
    ("ratlin.project_ray.self_s", "s", "self_s", ["ratlin.project_ray"]),
    ("ratlin.project_ray.repeat_ratio", "calls/key", "ratio", ["ratlin.project_ray"]),
    ("ratlin.rref.calls", "count", "calls", ["ratlin.rref"]),
    ("ratlin.rref.self_s", "s", "self_s", ["ratlin.rref"]),
    ("ratlin.projection_matrix.calls", "count", "calls", ["ratlin.projection_matrix"]),
    ("ratlin.projection_matrix.self_s", "s", "self_s", ["ratlin.projection_matrix"]),
    ("ratlin.subspace.built", "count", "calls", ["ratlin.subspace"]),
    ("ratlin.intersect.calls", "count", "calls", ["ratlin.intersect"]),
    ("ratlin.intersect.self_s", "s", "self_s", ["ratlin.intersect"]),
    ("ratlin.mat_mul.calls", "count", "calls", ["ratlin.mat_mul"]),
    ("ratlin.mat_mul.self_s", "s", "self_s", ["ratlin.mat_mul"]),
    ("ratlin.window.rays", "count", "items", ["ratlin.window"]),
    ("ratlin.window.self_s", "s", "self_s", ["ratlin.window"]),
    ("core.action.calls", "count", "calls", ["core.action"]),
    ("core.action.self_s", "s", "self_s", ["core.action"]),
    ("core.fp_mask.calls", "count", "calls", ["core.fp_mask"]),
    ("core.z_mask.calls", "count", "calls", ["core.z_mask"]),
    ("core.z_mask.repeat_ratio", "calls/key", "ratio", ["core.z_mask"]),
    ("core.masks.self_s", "s", "self_s", ["core.fp_mask", "core.z_mask"]),
]
for _name in ("preserves", "commutes", "membership", "compose_raw", "negation_of",
              "point_measurement", "extent"):
    LAYER_METRICS += [(f"core.{_name}.calls", "count", "calls", [f"core.{_name}"]),
                      (f"core.{_name}.self_s", "s", "self_s", [f"core.{_name}"])]
for _law in _LAWS:
    LAYER_METRICS += [(f"core.check.{_law}.total_s", "s", "total_s", [f"core.check.{_law}"]),
                      (f"core.check.{_law}.instances", "count", "calls", [f"core.check.{_law}"])]
LAYER_METRICS += [
    ("core.lemma_suite.self_s", "s", "self_s", ["core.lemma_suite"]),
    ("core.lemma_suite.instances", "count", "calls", ["core.lemma_suite"]),
    ("models.load_model.total_s", "s", "total_s", ["models.load_model"]),
    ("models.build_table.self_s", "s", "self_s", ["models.build_table"]),
    ("models.build_propositional.self_s", "s", "self_s", ["models.build_propositional"]),
    ("models.build_ray.self_s", "s", "self_s", ["models.build_ray"]),
    ("order.bounds_check.total_s", "s", "total_s", ["order.bounds_check"]),
    ("order.orthomodular_check.total_s", "s", "total_s", ["order.orthomodular_check"]),
    ("order.strong_sep_check.total_s", "s", "total_s", ["order.strong_sep_check"]),
    ("order.leq.calls", "count", "calls", ["order.leq"]),
    ("order.leq.self_s", "s", "self_s", ["order.leq"]),
    ("connectives.conjunction.calls", "count", "calls", ["connectives.conjunction"]),
    ("connectives.conjunction.self_s", "s", "self_s", ["connectives.conjunction"]),
    ("connectives.disjunction.calls", "count", "calls", ["connectives.disjunction"]),
    ("connectives.implication.calls", "count", "calls", ["connectives.implication"]),
    ("connectives.commuting_set.self_s", "s", "self_s", ["connectives.commuting_set"]),
    ("formulas.enumerate_formulas.formulas", "count", "items", ["formulas.enumerate_formulas"]),
    ("formulas.enumerate_formulas.self_s", "s", "self_s", ["formulas.enumerate_formulas"]),
    ("formulas.essential_function.calls", "count", "calls", ["formulas.essential_function"]),
    ("formulas.essential_function.self_s", "s", "self_s", ["formulas.essential_function"]),
    ("formulas.entails.calls", "count", "calls", ["formulas.entails"]),
    ("formulas.entails.self_s", "s", "self_s", ["formulas.entails"]),
    ("formulas.parse_formula.self_s", "s", "self_s", ["formulas.parse_formula"]),
    ("logic.verify_tautology_theorem.total_s", "s", "total_s", ["logic.verify_tautology_theorem"]),
    ("logic.verify_schemes.total_s", "s", "total_s", ["logic.verify_schemes"]),
    ("cli.format_report.self_s", "s", "self_s", ["cli.format_report"]),
    ("trace.spans", "count", "spans", []),
    ("trace.overhead_s", "s", "overhead", []),
]


class Invocation:
    """One finished child process: exit code, output and rusage."""

    def __init__(self, argv, env, cwd, out_dir):
        stdout_path = os.path.join(out_dir, "stdout")
        stderr_path = os.path.join(out_dir, "stderr")
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=env, cwd=cwd)
            expired = threading.Event()

            def expire():
                expired.set()
                proc.kill()

            killer = threading.Timer(OP_TIMEOUT_S, expire)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.timed_out = expired.is_set()
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(stdout_path, encoding="utf-8", errors="replace") as handle:
            self.stdout = handle.read()
        with open(stderr_path, encoding="utf-8", errors="replace") as handle:
            self.stderr = handle.read()


class Bench:
    def __init__(self, root, work, ops):
        self.root = root
        self.work = work
        self.ops = ops
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.failures = {}

    def _spawn(self, argv):
        return Invocation([sys.executable, *argv], self.env, self.root, self.work)

    def setup_seconds(self):
        """Import plus model load of every invocation, in fresh processes."""
        total = 0.0
        for op in self.ops:
            inv = self._spawn([os.path.join(HERE, "child.py"), "setup", self.src, op.model.path])
            if inv.code != 0:
                raise RuntimeError(f"set-up probe failed on {op.label}: {inv.stderr[-500:]}")
            total += json.loads(inv.stdout.strip().splitlines()[-1])["seconds"]
        return total

    def round(self, stats=None):
        """Run every invocation once; return (verdict_s, cpu_s, peak_rss_mb)."""
        verdict = cpu = peak = 0.0
        for n, op in enumerate(self.ops):
            if stats is None:
                argv = ["-m", "malgebra.cli", *op.argv]
            else:
                span_dir = os.path.join(self.work, f"spans-{n}")
                argv = [os.path.join(HERE, "child.py"), "trace", self.src, span_dir, *op.argv]
            inv = self._spawn(argv)
            verdict += inv.wall_s
            cpu += inv.cpu_s
            peak = max(peak, inv.rss_mb)
            ok, wrong, reason = oracle.judge(op, inv.code, inv.stdout, inv.stderr, inv.timed_out)
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures[op.label] = reason
                if wrong and not op.fault:
                    self.wrong.append(f"{op.label}: {reason}")
            if stats is not None and os.path.isdir(span_dir):  # absent if the child was killed
                stats.load(span_dir)
                shutil.rmtree(span_dir)
        return verdict, cpu, peak


def _value(stats, statistic, names, overhead):
    if statistic == "spans":
        return stats.spans
    if statistic == "overhead":
        return overhead
    if statistic == "ratio":
        calls = sum(stats.calls.get(n, 0) for n in names)
        keys = sum(stats.keys.get(n, 0) for n in names)
        return calls / keys if keys else 0.0
    return sum(getattr(stats, statistic).get(n, 0) for n in names)


def measure(bench, seconds, trace):
    start = time.perf_counter()
    if not trace:
        setups, rounds = [], []
        while not rounds or time.perf_counter() - start < seconds:
            setups += [bench.setup_seconds() for _ in range(SETUPS_PER_ROUND)]
            rounds.append(bench.round())
            print("round {}: verdict {:.4f} s, cpu {:.4f} s, peak rss {:.1f} MB".format(
                len(rounds), *rounds[-1]))
        verdict, cpu, peak = (statistics.median(r[i] for r in rounds) for i in range(3))
        return {
            "verdict_s": (verdict, "s"),
            "cpu_s": (cpu, "s"),
            "peak_rss_mb": (peak, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    plain, traced, per_round = [], [], []
    while not traced or time.perf_counter() - start < seconds:
        plain.append(bench.round()[0])
        stats = tracer.Stats()
        traced.append(bench.round(stats)[0])
        per_round.append(stats)
    overhead = statistics.median(traced) - statistics.median(plain)
    return {
        name: (statistics.median(_value(s, statistic, names, overhead) for s in per_round), unit)
        for name, unit, statistic, names in LAYER_METRICS
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "malgebra", "cli.py")):
        print(f"error: no malgebra source tree under {root}; run from the checkout root",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(root, work, inputs.build(args.workload, args.seed, work))
        metrics = measure(bench, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it

    for label, reason in sorted(bench.failures.items()):
        print(f"failed: {label}: {reason}")
    for line in bench.wrong:
        print(f"wrong: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
