#!/usr/bin/env python3
"""The corehooks benchmark.

    python3 bench/run.py --workload sweep|queries|nocore|all [--seed N]
                         [--seconds S] [--trace 0|1] [--size full|tiny]

Run it from anywhere inside a checkout; it imports corehooks from the
checkout's src/.  Each workload is a list of CLI invocations (see
workloads.json and README.md).  A pass runs the whole list through
corehooks.cli.main(argv) in one fresh single-threaded worker process whose
working directory is a fresh temp dir; passes run one at a time (a closed
loop with one client) until --seconds have gone by.  Every output is
checked, untimed, against reference.json.

--trace 0 reports the end-to-end metrics over the run's passes: wall_s,
cpu_s and setup_s (also sampled by extra import-only workers) as the best
of the run, peak_rss_mib as the median, and ok_frac.  --trace 1 alternates
untraced and traced passes and reports the medians of the per-layer
metrics of the traced ones (tracer.py), plus trace.overhead_s; its spans
go to .bench_run/.  Units and directions
are those declared in BENCHMARK.json.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("sweep", "queries", "nocore")

SETUP_PROBES = 4  # import-only workers per run, on top of one per pass
# Idle time before each timed worker start.  A worker started right after
# another one exits takes about a third longer to import, so every set-up
# sample is taken after the same pause.
SPAWN_PAUSE_S = 0.25
RUN_LIMIT_S = 150.0  # no pass starts a run past this, so a run ends well inside 180 s
MIN_PASS_BUDGET_S = 5.0
INVOCATION_LIMIT_S = 30.0  # the slowest invocation takes about 1 s


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


# -- workloads -----------------------------------------------------------------


def fixed_invocations(specs: list[dict], pins: dict) -> list[dict]:
    invs = []
    for spec in specs:
        key = " ".join(spec["argv"])
        pin = pins[key]
        inv = {"argv": spec["argv"], "keep": False, "rc": pin["rc"], "sha256": pin["sha256"]}
        if "csv_row" in spec:
            row = spec["csv_row"]
            inv["keep"] = True
            inv["check"] = lambda text, row=row: checks.check_csv_row(text, row["n"], row["values"])
        invs.append(inv)
    return invs


def query_invocations(spec: dict, seed: int, grid: dict) -> list[dict]:
    """The `queries` mix drawn from the seed.

    Each band of n is covered twice: once by one single-n query per n with
    one k, and once by consecutive ranges of 2 to 6 values of n with two
    ks.  The seed draws the ks, the range cuts, the output format, the enum
    sizes and the order; since every n in a band is queried a fixed number
    of times, the work in a pass barely depends on the seed.
    """
    rng = random.Random(seed)
    invs = []

    def count(t, ks, lo, hi, exclude, fmt):
        argv = ["count", "--t", str(t), "--k", ",".join(map(str, ks)),
                "--n", str(lo) if lo == hi else f"{lo}..{hi}"]
        if exclude:
            argv += ["--exclude", "1,2"]
        if fmt != "csv":
            argv += ["--format", fmt]
        text = checks.count_output(grid, t, ks, lo, hi, exclude, fmt)
        invs.append({"argv": argv, "keep": False, "rc": 0,
                     "sha256": checks.sha256_text(text)})

    for band in spec["bands"]:
        t, exclude = band["t"], band["exclude"]
        lo, hi = band["single"]
        for n in range(lo, hi + 1):
            count(t, [rng.randint(1, 8)], n, n, exclude, "csv")
        lo, hi = band["range"]
        while lo <= hi:
            end = min(hi, lo + rng.randint(2, 6) - 1)
            count(t, rng.sample(range(1, 9), 2), lo, end, exclude, rng.choice(["csv", "json"]))
            lo = end + 1
    for e in spec["enum"]:
        t, n = e["t"], rng.randint(*e["n"])
        invs.append({"argv": ["enum", "--t", str(t), "--n", str(n)], "keep": True, "rc": 0,
                     "check": lambda text, t=t, n=n: checks.check_enum_cores(text, t, n)})
    rng.shuffle(invs)
    return invs


def build_invocations(workload: str, size: str, seed: int, config: dict, ref: dict) -> list[dict]:
    if workload == "queries":
        return query_invocations(config["queries"][size], seed, ref["grid"])
    return fixed_invocations(config[workload][size], ref["pins"][size])


# -- workers -------------------------------------------------------------------


def run_worker(invocations: list[dict], trace: bool, budget_s: float) -> dict:
    """One pass in a fresh interpreter; {"error": ...} if the worker died."""
    RUN_DIR.mkdir(exist_ok=True)
    cwd = tempfile.mkdtemp(prefix="pass-", dir=RUN_DIR)
    job = {
        "invocations": [{"argv": i["argv"], "keep": i["keep"]} for i in invocations],
        "trace": trace,
        "budget_s": budget_s,
        "invocation_limit_s": INVOCATION_LIMIT_S,
    }
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(SRC), repr(spawned)],
            input=json.dumps(job), capture_output=True, text=True, cwd=cwd,
            timeout=budget_s + 15,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {budget_s + 15:.0f} s"}
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout)


class Checker:
    """Scores pass results against the invocations' expectations; a text
    check runs once per distinct output."""

    def __init__(self, invocations: list[dict]):
        self.invocations = invocations
        self._verdicts: dict[tuple[int, str], str | None] = {}
        self.problems: list[str] = []

    def score(self, results: list[dict]) -> int:
        ok = 0
        for i, (inv, res) in enumerate(zip(self.invocations, results)):
            problem = self._problem(i, inv, res)
            if problem is None:
                ok += 1
            elif len(self.problems) < 20:
                self.problems.append(f"{' '.join(inv['argv'])}: {problem}")
        return ok

    def _problem(self, i, inv, res) -> str | None:
        if res["rc"] != inv["rc"]:
            return f"exit {res['rc']}, expected {inv['rc']} ({res.get('error')})"
        if "sha256" in inv and res["sha256"] != inv["sha256"]:
            return "output differs from the reference"
        if "check" in inv:
            key = (i, res["sha256"])
            if key not in self._verdicts:
                try:
                    self._verdicts[key] = inv["check"](res["text"])
                except ValueError as exc:  # output that does not even parse
                    self._verdicts[key] = f"unreadable output: {exc}"
            return self._verdicts[key]
        return None


# -- measurement ---------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def best(values):
    return min(values) if values else 0.0


def measure(workload: str, seed: int, seconds: int, trace: bool, size: str,
            config: dict, ref: dict) -> dict:
    begin = time.monotonic()
    invocations = build_invocations(workload, size, seed, config, ref)
    checker = Checker(invocations)

    warm = run_worker([], False, 60)  # byte-compiles src/ and fills caches; not counted
    if "error" in warm:
        raise SystemExit(f"bench: cannot start a worker: {warm['error']}")
    setup = []
    for _ in range(SETUP_PROBES):
        time.sleep(SPAWN_PAUSE_S)
        setup.append(run_worker([], False, 60).get("setup_s"))

    untraced, traced = [], []
    attempted = ok = passes = 0
    started = time.monotonic()
    while True:
        budget = RUN_LIMIT_S - (time.monotonic() - begin)
        if budget < MIN_PASS_BUDGET_S:
            break
        traced_pass = trace and len(traced) < len(untraced)
        time.sleep(SPAWN_PAUSE_S)
        res = run_worker(invocations, traced_pass, budget)
        passes += 1
        attempted += len(invocations)
        if "error" in res:
            checker.problems.append(res["error"])
        else:
            ok += checker.score(res["results"])
            setup.append(res["setup_s"])
            (traced if traced_pass else untraced).append(res)
        if time.monotonic() - started >= seconds and passes >= (2 if trace else 1):
            break

    # Times are best-of-N: on a shared host the same pass runs at one of
    # two speeds about 60% apart, and the share of slow passes changes from
    # run to run, so a median of passes jumps between the two; the fastest
    # pass does not.  Peak RSS does not depend on the host and is a median.
    e2e = {
        "wall_s": best([p["wall_s"] for p in untraced]),
        "cpu_s": best([p["cpu_s"] for p in untraced]),
        "setup_s": best([s for s in setup if s is not None]),
        "peak_rss_mib": median([p["peak_rss_mib"] for p in untraced]),
        "ok_frac": ok / attempted if attempted else 0.0,
    }
    layers = {}
    if traced:
        for name in traced[0]["trace"]["metrics"]:
            layers[name] = median([p["trace"]["metrics"][name] for p in traced])
        layers["cli.bytes_out"] = median([sum(r.get("bytes", 0) for r in p["results"]) for p in traced])
        layers["trace.overhead_s"] = best([p["wall_s"] for p in traced]) - e2e["wall_s"]
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "correct": attempted > 0 and ok == attempted and not checker.problems,
        "attempted": attempted,
        "failed": attempted - ok,
        "problems": checker.problems,
        "passes": {"untraced": len(untraced), "traced": len(traced), "setup_samples": len(setup)},
        "samples": {
            "wall_s": [p["wall_s"] for p in untraced],
            "traced_wall_s": [p["wall_s"] for p in traced],
            "setup_s": setup,
        },
        "end_to_end": e2e,
        "per_layer": layers,
        "unmeasured": traced[-1]["trace"]["unmeasured"] if traced else [],
        "spans": traced[-1]["trace"]["spans"] if traced else [],
    }


def context() -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    config = load_json(HERE / "workloads.json")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=config["default_seed"],
                    help="draws the queries mix (sweep and nocore are fixed)")
    ap.add_argument("--seconds", type=int, default=10, help="how long each workload runs passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if not (SRC / "corehooks" / "cli.py").is_file():
        print(f"bench: no corehooks package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    declared = load_json(ROOT / "BENCHMARK.json")
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    ref = load_json(HERE / "reference.json")
    ctx = context()

    metrics = {}
    correct, attempted, failed = True, 0, 0
    for w in workloads:
        res = measure(w, args.seed, args.seconds, bool(args.trace), args.size, config, ref)
        res["context"] = ctx
        with open(RUN_DIR / f"{w}-{args.size}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(res, fh)
        values = res["per_layer" if args.trace else "end_to_end"]
        print(f"# {w}  seed={args.seed}  size={args.size}  passes={res['passes']}  "
              f"median wall_s={median(res['samples']['wall_s']):.4f}")
        for m in wanted:
            name = m["name"] if len(workloads) == 1 else f"{w}.{m['name']}"
            # a failed run may lack a metric; a correct one must have them all
            value = values[m["name"]] if res["correct"] else values.get(m["name"], 0.0)
            metrics[name] = {"value": value, "unit": m["unit"]}
            print(f"#   {m['name']:<24} {value:>14.6g} {m['unit']}")
        if res["unmeasured"]:
            print(f"#   unmeasured boundaries: {', '.join(res['unmeasured'])}")
        for problem in res["problems"]:
            print(f"#   FAILED {problem}", file=sys.stderr)
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
    print("# context " + json.dumps(ctx))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
