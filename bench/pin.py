#!/usr/bin/env python3
"""Record bench/reference.json from the code in the checkout.

    python3 bench/pin.py

The reference pins the exit code and stdout SHA-256 of every fixed
invocation in workloads.json (both sizes), run through the same worker as
the benchmark, and freezes the grid of hook counts the `queries` outputs
are checked against.  The grid comes from hookstats.hook_count_table (the
range sweep), so the per-n `count` path is checked against a different
route; its rows for n <= 40 are checked against brute force before writing.

The committed file was recorded from the seed code.  A change that claims
a speed-up must not re-record it: a different output is a failure.
"""

from __future__ import annotations

import json
import re
import sys

import checks
import run

GRID_N_MAX = 120
GRID_KS = range(1, 9)


def record_grid() -> dict:
    ch = checks.import_corehooks()
    from corehooks.hookstats import hook_count_table

    tables = {}
    for t in (3, 4, 5):
        tables[str(t)] = {}
        for exclude, key in checks.GRID_EXCLUDED.items():
            f = ch.PartFilter(excluded=frozenset({1, 2}) if exclude else frozenset())
            rows, _ = hook_count_table(t, GRID_N_MAX, f, list(GRID_KS))
            tables[str(t)][key] = [[rows[n][k] for k in GRID_KS] for n in range(GRID_N_MAX + 1)]
    return {"n_max": GRID_N_MAX, "ks": list(GRID_KS), "tables": tables}


def main() -> int:
    config = run.load_json(run.HERE / "workloads.json")
    pins = {}
    for size in ("full", "tiny"):
        pins[size] = {}
        for workload in ("sweep", "nocore"):
            specs = config[workload][size]
            res = run.run_worker([{"argv": s["argv"], "keep": False} for s in specs], False, 600)
            if "error" in res:
                print(f"pin: {res['error']}", file=sys.stderr)
                return 1
            for spec, r in zip(specs, res["results"]):
                if r["rc"] not in (0, 1):
                    print(f"pin: {' '.join(spec['argv'])} exited {r['rc']}: {r.get('error')}",
                          file=sys.stderr)
                    return 1
                pins[size][" ".join(spec["argv"])] = {"rc": r["rc"], "sha256": r["sha256"],
                                                      "bytes": r["bytes"]}
    grid = record_grid()
    problem = checks.check_grid_brute_force(grid)
    if problem:
        print(f"pin: {problem}", file=sys.stderr)
        return 1
    text = json.dumps({"pins": pins, "grid": grid}, indent=1)
    # one line per grid row
    text = re.sub(r"\[\s+([-\d,\s]+?)\s+\]", lambda m: "[" + "".join(m.group(1).split()) + "]", text)
    with open(run.HERE / "reference.json", "w") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
