#!/usr/bin/env python3
"""Self-test of the benchmark (about half a minute):

    python3 bench/selftest.py

1. BENCHMARK.json has the expected keys, and its workloads are the ones
   run.py and workloads.json define.
2. A tiny-size run of all three workloads, once untraced and once traced,
   is correct, has ok_frac 1.0 and reports every metric BENCHMARK.json
   declares; the traced run writes its spans.
3. The tracer reports a boundary whose name has gone as unmeasured.
4. A copy holding only BENCHMARK.json and bench/ exits non-zero without
   printing a result.
5. The frozen queries grid agrees with brute force for n <= 40.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import checks
import run
from tracer import Tracer


def fail(msg: str):
    raise SystemExit(f"selftest: FAILED: {msg}")


def check_declaration(declared: dict, config: dict):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(declared) != keys:
        fail(f"BENCHMARK.json keys {sorted(declared)}")
    names = [w["name"] for w in declared["workloads"]]
    if names != list(run.WORKLOADS):
        fail(f"BENCHMARK.json workloads {names}, run.py has {run.WORKLOADS}")
    for w in declared["workloads"]:
        if w["why"] != config[w["name"]]["why"]:
            fail(f"reason for {w['name']} differs between BENCHMARK.json and workloads.json")
    if not any(m["name"] == "setup_s" for m in declared["end_to_end"]):
        fail("no setup_s metric")


def run_tiny(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "all", "--size", "tiny",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        fail(f"tiny run (trace {trace}) exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_tiny_runs(declared: dict, seed: int):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = run_tiny(trace)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail(f"result keys {sorted(result)}")
        if not result["correct"] or result["failed"]:
            fail(f"tiny run (trace {trace}) not correct: {result}")
        want = {f"{w}.{m['name']}" for w in run.WORKLOADS for m in declared[group]}
        if set(result["metrics"]) != want:
            fail(f"trace {trace} metrics differ: {sorted(set(result['metrics']) ^ want)}")
        if trace == 0:
            for w in run.WORKLOADS:
                if result["metrics"][f"{w}.ok_frac"]["value"] != 1.0:
                    fail(f"{w} ok_frac is not 1.0")
    for w in run.WORKLOADS:
        saved = run.load_json(run.RUN_DIR / f"{w}-tiny-seed{seed}-trace1.json")
        if not saved["spans"] or saved["spans"][0]["name"] != "pass":
            fail(f"no spans written for {w}")


def check_unmeasured():
    checks.import_corehooks()
    import corehooks.cli as cli

    original_total = cli.total_hook_count
    gone = cli.odd_representation
    del cli.odd_representation
    try:
        tracer = Tracer()
        tracer.install()
        if "cli.odd_representation" not in tracer.unmeasured:
            fail(f"missing boundary not reported: {tracer.unmeasured}")
        if cli.total_hook_count is original_total:
            fail("tracer did not wrap cli.total_hook_count")
        tracer.uninstall()
        if cli.total_hook_count is not original_total:
            fail("uninstall did not restore cli.total_hook_count")
    finally:
        cli.odd_representation = gone


def check_without_src():
    run.RUN_DIR.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.RUN_DIR)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"bare copy exited {proc.returncode} with output {proc.stdout[-500:]!r}")


def main() -> int:
    declared = run.load_json(run.ROOT / "BENCHMARK.json")
    config = run.load_json(run.HERE / "workloads.json")
    check_declaration(declared, config)
    check_tiny_runs(declared, config["default_seed"])
    check_unmeasured()
    check_without_src()
    problem = checks.check_grid_brute_force(run.load_json(run.HERE / "reference.json")["grid"])
    if problem:
        fail(problem)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
