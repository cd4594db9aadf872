"""The repository benchmark: end-to-end and per-layer metrics of a workload.

    python3 perfbench/run.py --workload {sweep,journal,fleet} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
One run:

1. times ``setup_s`` in fresh interpreters (``probe.py``), median of
   several;
2. runs one iteration of the workload at the pinned seed, checking the
   CSV digests in ``pins.json`` (this also warms the process up);
3. repeats the workload at ``--seed`` until ``--seconds`` have passed.
   With ``--trace 0`` every iteration is untraced and the end-to-end
   metrics are medians over them.  With ``--trace 1`` untraced and
   traced iterations alternate; the traced ones wrap each layer's
   public calls (``spans.py``) and give the per-layer metrics.

Every iteration checks its outputs; a failed check or a raised
exception counts as a failed operation.  Human-readable lines go to
stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Work files live under
``.perfbench/`` in the checkout and are removed at the end, except the
traced run's span dump.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
MIN_ITERATIONS = 3
MIN_TRACED = 2

#: Exact counts the traced wrappers must agree with: layer metric -> ledger key.
CROSS_CHECKS = {
    "store.journal.append.calls": "appends",
    "store.index.records": "index_records",
    "prediction.streaming.samples": "trainer_samples",
    "telemetry.spans": "spans",
    "telemetry.tsdb_samples": "tsdb_samples",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "journal", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fsync": "always: the program fsyncs every journal append",
        "gc": {"enabled": gc.isenabled(), "threshold": gc.get_threshold()},
    }


class Runner:
    def __init__(self, args: argparse.Namespace) -> None:
        import grid

        self.grid = grid
        self.args = args
        self.workload = grid.WORKLOADS[args.workload][0]
        self.ops = grid.Ops()
        self.work = OUT / f"work-{os.getpid()}"
        self.count = 0

    def fresh_dir(self) -> Path:
        self.count += 1
        path = self.work / f"i{self.count}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    # -- set-up time ----------------------------------------------------------

    def setup_times(self) -> List[float]:
        times = []
        for _ in range(SETUP_PROBES):
            directory = self.fresh_dir()
            command = [sys.executable, str(HERE / "probe.py"),
                       self.args.workload, str(self.args.seed), str(directory)]
            started = time.perf_counter()
            with subprocess.Popen(command, stdout=subprocess.PIPE) as probe:
                line = probe.stdout.readline()
                ready = time.perf_counter()
                probe.stdout.read()
                code = probe.wait()
            self.ops.check("setup probe reached its first task",
                           line.strip() == b"ready" and code == 0)
            times.append(ready - started)
            shutil.rmtree(directory, ignore_errors=True)
        return times

    # -- iterations -----------------------------------------------------------

    def iterate(self, seed: int, recorder: Any = None) -> Optional[Any]:
        """One workload iteration; ``None`` if it raised."""
        import spans

        directory = self.fresh_dir()
        installed = spans.install(recorder) if recorder is not None else None
        started = time.perf_counter()
        try:
            result = self.workload(seed, directory, self.ops)
        except Exception:
            traceback.print_exc()
            self.ops.check(f"iteration at seed {seed} ran without raising",
                           False)
            return None
        finally:
            total = time.perf_counter() - started
            if installed is not None:
                installed.remove()
            shutil.rmtree(directory, ignore_errors=True)
        result.total_s = total
        return result

    def check_pins(self, result: Any) -> None:
        pins = json.loads((HERE / "pins.json").read_text())
        expected = pins[self.args.workload]
        self.ops.check(f"{self.args.workload}: CSV digests match pins.json at "
                       f"seed {self.grid.PINNED_SEED}",
                       result.digests == expected)

    # -- the run ------------------------------------------------------------------

    def measure(self) -> Tuple[List[float], Any, List[Any], List[Any], List[Any]]:
        """Set-up probes, the pinned-seed pass, then the timed iterations."""
        import spans

        args = self.args
        setup = self.setup_times()
        pinned = self.iterate(self.grid.PINNED_SEED)
        if pinned is not None:
            self.check_pins(pinned)
        plain: List[Any] = []
        traced: List[Any] = []
        recorders: List[Any] = []
        started = time.perf_counter()
        while True:
            enough = (len(traced) >= MIN_TRACED if args.trace
                      else len(plain) >= MIN_ITERATIONS)
            if enough and time.perf_counter() - started >= args.seconds:
                break
            result = self.iterate(args.seed)
            if result is None:
                break
            plain.append(result)
            if args.trace:
                recorder = spans.Recorder()
                result = self.iterate(args.seed, recorder)
                if result is None:
                    break
                traced.append(result)
                recorders.append(recorder)
        ledgers = {json.dumps(r.ledger, sort_keys=True) for r in plain + traced}
        self.ops.check("exact counts repeat across the measured iterations",
                       len(ledgers) <= 1)
        if args.seed == self.grid.PINNED_SEED:
            for result in plain + traced:
                self.check_pins(result)
        return setup, pinned, plain, traced, recorders

    def run(self) -> int:
        args = self.args
        print(f"# workload {args.workload} seed {args.seed} "
              f"seconds {args.seconds:g} trace {args.trace}")
        print(f"# env {json.dumps(environment(), sort_keys=True)}")
        try:
            setup, pinned, plain, traced, recorders = self.measure()
        finally:
            for child in multiprocessing.active_children():
                child.join()
            shutil.rmtree(self.work, ignore_errors=True)

        metrics: Dict[str, Dict[str, float]] = {}
        if plain:
            metrics = self.report_end_to_end(setup, plain, pinned)
        if args.trace:
            metrics = (self.report_layers(plain, traced, recorders)
                       if traced else {})
        for failure in self.ops.failures:
            print(f"FAILED: {failure}")
        failed_ratio = self.ops.failed / max(1, self.ops.attempted)
        print(f"{'failed_ratio':<22} {failed_ratio:12.6g} ratio   "
              f"({self.ops.failed}/{self.ops.attempted} operations)")
        correct = self.ops.failed == 0 and bool(metrics)
        print(json.dumps({
            "correct": correct,
            "attempted": max(1, self.ops.attempted),
            "failed": self.ops.failed,
            "metrics": metrics,
        }))
        return 0 if correct else 1

    # -- reporting --------------------------------------------------------------

    def report_end_to_end(self, setup: List[float], results: List[Any],
                          pinned: Any) -> Dict[str, Dict[str, float]]:
        """Print the end-to-end block; return the ``BENCHMARK.json`` ones."""
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        series = {
            "setup_s": (setup, "s"),
            "runs_per_s": ([r.sim_runs / r.grid_s for r in results], "runs/s"),
            "read_s": ([r.read_s for r in results], "s"),
            "wall_s": ([r.wall_s for r in results], "s"),
            "disk_bytes_per_run": (
                [r.disk_bytes / r.grid_runs for r in results], "B/run"),
            "peak_rss_mb": ([peak], "MiB"),
            # Printed only: 0 on sweep, so a per-layer metric in the JSON.
            "journal_bytes_per_run": (
                [r.journal_bytes / r.grid_runs for r in results], "B/run"),
        }
        print(f"# end-to-end, untraced; {len(results)} iterations, "
              f"{len(setup)} set-up probes; median [q1, q3]")
        metrics: Dict[str, Dict[str, float]] = {}
        for name, (values, unit) in series.items():
            q1, median, q3 = quartiles(values)
            print(f"{name:<22} {median:12.6g} {unit:<7} "
                  f"[{q1:.6g}, {q3:.6g}] n={len(values)}")
            if name != "journal_bytes_per_run":
                metrics[name] = {"value": median, "unit": unit}
        print(f"{'vmin_err_mv':<22} {results[0].vmin_err_mv:12.6g} mV      "
              f"(seed {self.args.seed})")
        if pinned is not None:
            print(f"{'vmin_err_mv':<22} {pinned.vmin_err_mv:12.6g} mV      "
                  f"(pinned seed {self.grid.PINNED_SEED})")
        print(f"# exact counts, held-out seed {self.args.seed} (contracts "
              f"checked, digests not pinned): "
              f"{json.dumps(results[0].ledger, sort_keys=True)}")
        if pinned is not None:
            print(f"# exact counts, pinned seed {self.grid.PINNED_SEED} "
                  f"(digests checked against pins.json): "
                  f"{json.dumps(pinned.ledger, sort_keys=True)}")
        return metrics

    def report_layers(self, plain: List[Any], traced: List[Any],
                      recorders: List[Any]) -> Dict[str, Dict[str, float]]:
        import spans

        per_iteration = [spans.layer_metrics(rec, result.total_s)
                         for rec, result in zip(recorders, traced)]
        for rec, result in zip(per_iteration, traced):
            rec["telemetry.trace_bytes"] = result.trace_bytes
            rec["journal_bytes_per_run"] = result.journal_bytes / result.grid_runs
        exact = [name for name, unit, _ in spans.per_layer_names()
                 if unit in ("count", "B") and name != "telemetry.trace_bytes"]
        counts = [[it[name] for name in exact] for it in per_iteration]
        self.ops.check("per-layer counts repeat across traced iterations",
                       all(c == counts[0] for c in counts))
        first = per_iteration[0]
        ledger = traced[0].ledger
        for metric, key in CROSS_CHECKS.items():
            if key in ledger:
                self.ops.check(f"{metric} equals the ledger's {key}",
                               first[metric] == ledger[key])
        if self.args.workload != "journal" or self.grid.pool_jobs() == 1:
            self.ops.check("core.kernel.runs equals the simulated runs",
                           first["core.kernel.runs"] == ledger["runs"])

        overhead = (statistics.median(r.total_s for r in traced)
                    - statistics.median(r.total_s for r in plain))
        metrics: Dict[str, Dict[str, float]] = {}
        print(f"# per-layer, traced; {len(traced)} traced and {len(plain)} "
              f"untraced iterations; times are medians per iteration")
        print(f"{'layer metric':<38} {'value':>12}  unit   should move / "
              f"most work in / ~no work in")
        notes = {f"{layer.name}.calls": f"{layer.moves} / {layer.most} / "
                                        f"{layer.none}"
                 for layer in spans.LAYERS}
        for name, unit, _ in spans.per_layer_names():
            if name == "harness.overhead_s":
                value = overhead
            elif unit == "s":
                value = statistics.median(it[name] for it in per_iteration)
            else:
                value = first[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<38} {value:12.6g}  {unit:<6} {notes.get(name, '')}")
        if traced[0].phases:
            phases = traced[-1].phases
            last = per_iteration[-1]
            print("# repro analyze phase totals beside the harness's layer "
                  "times (last traced iteration)")
            print(f"journal_append {phases.get('journal_append', 0.0):10.4f} s"
                  f"   store.journal.append.s {last['store.journal.append.s']:10.4f} s")
            print(f"voltage_step   {phases.get('voltage_step', 0.0):10.4f} s"
                  f"   core.kernel.execute.s  {last['core.kernel.execute.s']:10.4f} s")
            for phase, seconds in sorted(phases.items()):
                print(f"  analyze.{phase:<18} {seconds:10.4f} s")
        dump = OUT / "spans" / f"{self.args.workload}-seed{self.args.seed}.jsonl"
        recorders[-1].dump(dump)
        print(f"# spans of the last traced iteration written to "
              f"{dump.relative_to(ROOT)}")
        return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package at {SRC}; run the benchmark from "
              f"the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return Runner(args).run()


if __name__ == "__main__":
    sys.exit(main())
