"""Correctness checks of the benchmark.  None of them is timed.

The fixed invocations of `sweep` and `nocore` are pinned by exit code and
SHA-256 of stdout in reference.json.  `queries` outputs are compared with a
frozen grid of hook counts (t in {3,4,5}, with and without parts {1,2}
excluded, n <= 120, k <= 8), and `enum --t` outputs are checked line by
line against the package's own t-core test and counting series.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
GRID_EXCLUDED = {False: "none", True: "1,2"}


def import_corehooks():
    """The corehooks package of this checkout, imported into this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import corehooks

    return corehooks


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def count_output(grid: dict, t: int, ks: list[int], lo: int, hi: int,
                 exclude: bool, fmt: str) -> str:
    """The exact stdout of `corehooks count` for these arguments, built
    from the reference grid."""
    table = grid["tables"][str(t)][GRID_EXCLUDED[exclude]]
    rows = [(n, k, table[n][k - 1]) for n in range(lo, hi + 1) for k in ks]
    if lo == hi and len(ks) == 1 and fmt == "csv":
        return f"{rows[0][2]}\n"
    if fmt == "json":
        payload = [{"n": n, "t": t, "k": k, "value": v} for n, k, v in rows]
        return json.dumps(payload, indent=2) + "\n"
    return "n,t,k,value\n" + "".join(f"{n},{t},{k},{v}\n" for n, k, v in rows)


def check_enum_cores(text: str, t: int, n: int) -> str | None:
    """`enum --t t --n n` printed each t-core of n once: as many lines as
    core_count_series counts, each a distinct t-core partition of n."""
    ch = import_corehooks()
    lines = text.splitlines()
    want = ch.core_count_series(t, n)[n]
    if len(lines) != want:
        return f"{len(lines)} lines, core_count_series gives {want}"
    if len(set(lines)) != len(lines):
        return "repeated lines"
    for line in lines:
        p = ch.Partition.from_text(line)
        if p.n != n or not p.is_t_core(t):
            return f"{line} is not a {t}-core of {n}"
    return None


def check_csv_row(text: str, n: int, values: list[int]) -> str | None:
    """The bias-table row of n ends with the given hook counts."""
    for line in text.splitlines():
        fields = line.split(",")
        if fields[0] == str(n):
            got = [int(v) for v in fields[2:]]
            return None if got == values else f"row n={n} reads {got}, expected {values}"
    return f"no row for n={n}"


def brute_force_grid(n_max: int) -> dict:
    """Grid rows for n <= n_max from every partition of n, using only
    Partition.is_t_core and Partition.hook_profile (no t-core walker)."""
    ch = import_corehooks()
    tables = {str(t): {key: [[0] * 8 for _ in range(n_max + 1)]
                       for key in GRID_EXCLUDED.values()} for t in (3, 4, 5)}
    for n in range(n_max + 1):
        for p in ch.partitions_of(n):
            profile = None
            for t in (3, 4, 5):
                if not p.is_t_core(t):
                    continue
                profile = profile or p.hook_profile()
                rows = [tables[str(t)]["none"][n]]
                if 1 not in p.parts and 2 not in p.parts:
                    rows.append(tables[str(t)]["1,2"][n])
                for row in rows:
                    for k in range(1, 9):
                        row[k - 1] += profile[k]
    return tables


def check_grid_brute_force(grid: dict, n_max: int = 40) -> str | None:
    """The frozen grid agrees with brute force for every n <= n_max."""
    brute = brute_force_grid(n_max)
    for t, by_filter in brute.items():
        for key, rows in by_filter.items():
            for n, row in enumerate(rows):
                if grid["tables"][t][key][n] != row:
                    return f"grid t={t} exclude={key} n={n}: {grid['tables'][t][key][n]} != brute force {row}"
    return None
