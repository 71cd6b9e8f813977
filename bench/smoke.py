"""Smoke test for the benchmark itself.

    python3 bench/smoke.py

Run from the root of a source checkout. It
  1. runs every workload for one second, untraced and traced, and checks
     that the result line names every metric BENCHMARK.json lists;
  2. shows that each workload's check rejects a corrupted answer: a
     flipped search verdict, a theta family missing a member, and an
     eval that answers true;
  3. shows that the command fails, printing no result, in a directory
     that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when all of it holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0


def result_of(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, out = result_of(ROOT, w["name"], trace)
            assert code == 0, f"{w['name']} trace {trace} exited {code}"
            result = json.loads(out.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            for m in spec[group]:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (m, got)
                assert isinstance(got["value"], (int, float)), (m, got)
            names = {m["name"] for m in spec[group]}
            assert set(result["metrics"]) == names, set(result["metrics"]) ^ names
            print(f"ok  {w['name']} trace={trace}: {result['attempted']} items, "
                  f"{len(names)} metrics")


def item_output(pkg, workload, item):
    out = workload.run(pkg, item)
    errors = workload.check(pkg, item, out)
    assert not errors, errors
    return out


def check_corruption() -> None:
    workdir = HERE / "out" / "smoke-work"
    pkg = run.import_package()
    run.import_oracles(pkg)
    try:
        search = WORKLOADS["search"]
        items = search.generate(pkg, SEED, workdir)[0]
        axiom = next(i for i in items if i.scheme)
        branching = next(i for i in items if not i.scheme)
        found = item_output(pkg, search, branching)
        item_output(pkg, search, axiom)
        assert search.check(pkg, axiom, found), "a counter-model to an axiom passed"
        assert search.check(pkg, branching, None), "a missed counter-model passed"
        print("ok  search rejects flipped verdicts")

        classify = WORKLOADS["classify"]
        items = classify.generate(pkg, SEED, workdir)[0]
        for item in (i for i in items if len(i.doc["moments"]) <= 8):
            frame, diags, mix, families, reg = item_output(pkg, classify, item)
            m = next((m for m, fam in families.items() if len(fam) >= 2), None)
            if m is not None:
                break
        for drop in range(len(families[m])):
            cut = dict(families)
            cut[m] = families[m][:drop] + families[m][drop + 1:]
            assert classify.check(pkg, item, (frame, diags, mix, cut, reg)), \
                f"theta({m}) without member {drop} passed"
        print(f"ok  classify rejects theta({m}) missing any one of its "
              f"{len(families[m])} members")

        replay = WORKLOADS["replay"]
        item = replay.generate(pkg, SEED, workdir)[0][0]
        made, checked, _, verified = item_output(pkg, replay, item)
        assert replay.check(pkg, item, (made, checked, (0, "true\n"), verified)), \
            "an eval answering true passed"
        print("ok  replay rejects an eval answering true")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory() -> None:
    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, out = result_of(bare, "search", 0)
        assert code != 0, "the benchmark succeeded without the package"
        assert not out.strip(), f"printed a result without the package: {out!r}"
        print(f"ok  exits {code} without a package to run")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_metrics()
    check_corruption()
    check_bare_directory()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
