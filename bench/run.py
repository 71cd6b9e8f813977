"""Benchmark runner for jastit: one workload, one seed, one process.

    python3 bench/run.py --workload search|classify|replay --seed N \
        --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
`src/` directory. One closed-loop caller runs one item at a time; no
thread or process is started.

Untraced (--trace 0), the run sets up several times and reports the
median set-up time, then runs whole blocks of items until the timed work
reaches --seconds, checking each distinct output once outside the timed
region. Traced (--trace 1), it runs each block untraced and then
again with every traced function wrapped, until the untraced work
reaches a quarter of --seconds, and reports the per-layer metrics of the
traced pass.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Result and trace files
go to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("syntax", "diagnostics", "frames", "models", "semantics",
           "calculus", "countermodels", "documents", "cli")
SETUP_REPEATS = 9
TRACE_BASELINE_SHARE = 0.25


def import_package():
    """Fresh import of every jastit module, dropping earlier copies."""
    for name in [n for n in sys.modules if n == "jastit" or n.startswith("jastit.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"jastit.{m}") for m in MODULES})


def import_oracles(pkg):
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    pkg.oracles = mod


def setup(workload, seed: int, workdir: Path):
    """Import plus input generation, SETUP_REPEATS times; the median time
    and the last package and inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pkg = import_package()
        blocks = workload.generate(pkg, seed, workdir)
        times.append(time.perf_counter() - t0)
    import_oracles(pkg)
    return statistics.median(times), pkg, blocks


class Runner:
    """Runs items one at a time and times each one.

    An output is checked, outside the timed region, the first time its
    item runs; only a digest of it is kept, and a later run of the same
    item must give the same digest. Outputs of a traced block wait in
    `pending` until the tracer is off, so that checks leave no spans.
    """

    def __init__(self, workload, pkg, tracer=None, seen=None):
        self.workload = workload
        self.pkg = pkg
        self.tracer = tracer
        self.times: list[float] = []
        self.busy = 0.0
        self.block_rates: list[float] = []
        self.seen: dict = {} if seen is None else seen
        self.pending: list = []
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []

    def run_block(self, block) -> None:
        spent = 0.0
        for item in block:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    out = self.workload.run(self.pkg, item)
                else:
                    out = self.tracer.run_item(self.attempted,
                                               self.workload.run, self.pkg, item)
            except Exception as e:  # an item that raises counts as failed
                self.failures.append(f"{item.key}: {type(e).__name__}: {e}")
                out = None
                failed = True
            else:
                failed = False
            dt = time.perf_counter() - t0
            self.times.append(dt)
            spent += dt
            if not failed:
                self.pending.append((item, out))
                if self.tracer is None:
                    self.check_pending()
        self.busy += spent
        self.block_rates.append(len(block) / spent)

    def run_for(self, blocks, seconds: float) -> int:
        """Whole blocks, cycling through the pool, until the timed work
        reaches `seconds`; the number of blocks run."""
        n = 0
        while self.busy < seconds:
            self.run_block(blocks[n % len(blocks)])
            n += 1
        return n

    def check_pending(self) -> None:
        for item, out in self.pending:
            digest = self.workload.digest(out)
            if item.key not in self.seen:
                self.seen[item.key] = digest
                self.errors += self.workload.check(self.pkg, item, out)
            elif self.seen[item.key] != digest:
                self.errors.append(f"{item.key}: output differs between runs")
        self.pending.clear()


def measure(workload, pkg, blocks, seconds: float, setup_s: float) -> tuple[dict, Runner]:
    runner = Runner(workload, pkg)
    runner.run_for(blocks, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = [1000 * t for t in runner.times]
    metrics = {
        # every block has the same make-up; the median over blocks keeps a
        # burst of load from elsewhere on the machine out of the figure
        "items_per_s": (statistics.median(runner.block_rates), "1/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, runner


def measure_traced(workload, pkg, blocks, seconds: float,
                   out_dir: Path) -> tuple[dict, Runner]:
    """Each block runs untraced, then traced, so that drift over the run
    falls on both sides of the overhead ratio alike."""
    base = Runner(workload, pkg)
    tracer = spans.Tracer(pkg)
    runner = Runner(workload, pkg, tracer, seen=base.seen)
    traced_wall = 0.0
    n = 0
    while base.busy < TRACE_BASELINE_SHARE * seconds:
        block = blocks[n % len(blocks)]
        base.run_block(block)
        tracer.install()
        try:
            t0 = time.perf_counter()
            runner.run_block(block)
            traced_wall += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        runner.check_pending()
        n += 1
    values = tracer.metrics(traced_wall)
    # item time only: the untraced pass checks outputs between items
    values["trace.overhead_ratio"] = runner.busy / base.busy
    tracer.write(out_dir / f"trace-{workload.name}.bin")   # the latest traced run
    units = {name: unit for name, unit, _ in spans.metric_names()}
    metrics = {name: (values[name], units[name]) for name in units}
    runner.failures += base.failures
    runner.errors += base.errors
    runner.attempted += base.attempted
    return metrics, runner


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (ROOT / "src" / "jastit" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} is missing; run from a "
                  "source checkout of jastit", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{tag}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    try:
        setup_s, pkg, blocks = setup(workload, args.seed, workdir)
        if args.trace:
            metrics, runner = measure_traced(workload, pkg, blocks, args.seconds,
                                             out_dir)
        else:
            metrics, runner = measure(workload, pkg, blocks, args.seconds, setup_s)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in (runner.failures + runner.errors)[:20]:
        print(("FAILED " if line in runner.failures else "WRONG ") + line,
              file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (out_dir / f"result-{tag}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
