"""Command line interface.

Subcommands: enum, count, series, verify, conj-scan, quadform.  Output is
machine readable (csv, json, or json lines), every integer printed as an
exact decimal.  Exit codes: 0 success / all checks hold, 1 a
counterexample or identity mismatch was found, 2 usage or I/O error, 141
the reader of stdout closed the pipe early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

from .generate import EMPTY_FILTER, PartFilter, iter_partition_parts, t_cores_of
from .hookstats import FAILS, _hook_counts_at, bias_table, total_hook_count
from .partition import parts_text
from .qseries import core_count_series
from .quadform import odd_representation
from .verify import CHECKS, run_check, bias_records_json

PROG = "corehooks"


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Validated invocation parameters for one run."""

    subcommand: str
    t: int = 0
    ks: list[int] = field(default_factory=list)
    n_lo: int = 0
    n_hi: int = 0
    order: int = 200
    filter: PartFilter = EMPTY_FILTER
    fmt: str = "csv"
    out: str | None = None
    check: str = ""
    n_max: int = 0
    seed_dump: bool = False
    h_max: int = 0
    relations: list[str] = field(default_factory=list)


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {text!r}") from None


def _parse_n_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo = _parse_int(lo_s, "n range start")
        hi = _parse_int(hi_s, "n range end")
    else:
        lo = hi = _parse_int(text, "n")
    if lo < 0 or hi < lo:
        raise UsageError(f"invalid n range {text!r}")
    return lo, hi


def _parse_int_list(text: str, name: str) -> list[int]:
    vals = [_parse_int(tok, name) for tok in text.split(",") if tok.strip() != ""]
    if not vals:
        raise UsageError(f"{name} must not be empty")
    return vals


def _parse_hook_lengths(text: str, name: str) -> list[int]:
    ks = _parse_int_list(text, name)
    if any(k < 1 for k in ks):
        raise UsageError("hook lengths must be positive")
    return ks


def _parse_filter(exclude: str | None, min_part: int) -> PartFilter:
    excluded = frozenset(_parse_int_list(exclude, "exclude")) if exclude else frozenset()
    if any(v < 1 for v in excluded):
        raise UsageError("excluded part values must be positive")
    if min_part < 1:
        raise UsageError(f"min-part must be positive, got {min_part}")
    return PartFilter(excluded=excluded, min_part=min_part)


def _write_chunks(fh, text: str | Iterable[str]):
    """Write text, one string or an iterable of string chunks, with
    .write() only."""
    for chunk in [text] if isinstance(text, str) else text:
        fh.write(chunk)


def _write_file(path: str, text: str | Iterable[str]):
    """Write text to path.  A missing or regular target (a symlink is
    followed) is written to a temp file beside it and renamed onto it, so
    it never holds a partial write; the temp file keeps an existing
    target's permission bits and is removed on failure.  Anything else,
    such as a device or a FIFO, is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            _write_chunks(fh, text)
        return
    real = os.path.realpath(path)
    head, tail = os.path.split(real)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            _write_chunks(fh, text)
        if os.path.exists(real):
            os.chmod(tmp, os.stat(real).st_mode & 0o7777)
        os.replace(tmp, real)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename = path  # name the file the caller asked for
        raise


def _write_output(text: str | Iterable[str], out: str | None):
    if out:
        _write_file(out, text)
    else:
        _write_chunks(sys.stdout, text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact hook-length statistics of t-core partitions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, fmt_choices=("csv", "json")):
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("enum", help="stream partitions as JSON lines")
    p.add_argument("--n", required=True)
    p.add_argument("--t", type=int, default=0, help="restrict to t-cores (0: all partitions)")
    p.add_argument("--exclude", help="comma separated part values to exclude")
    p.add_argument("--min-part", type=int, default=1)
    common(p, ("jsonl",))

    p = sub.add_parser("count", help="total k-hooks over the t-cores of n")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", required=True, help="hook length, or comma separated list")
    p.add_argument("--n", required=True, help="single n or range lo..hi")
    p.add_argument("--exclude")
    p.add_argument("--min-part", type=int, default=1)
    common(p)

    p = sub.add_parser("series", help="t-core counting series coefficients")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--order", type=int, default=200)
    common(p)

    p = sub.add_parser(
        "verify",
        help="run a named verification check",
        description="Run a named verification check.  In text format a "
        "failing check writes its JSON report to "
        "corehooks-<check>-report.json in the current directory, or to "
        "--out when given.",
    )
    p.add_argument("--check", required=True, choices=sorted(CHECKS))
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--seed-dump", action="store_true",
                   help="on failure, dump the enumerated witness sets")
    common(p, ("text", "json"))

    p = sub.add_parser(
        "conj-scan",
        help="scan a hook-count chain for counterexamples",
        description="Scan a hook-count chain for counterexamples.  In text "
        "format a failing scan writes its JSON report to "
        "corehooks-scan-t<T>-report.json in the current directory, or to "
        "--out when given.",
    )
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--t", type=int, default=5)
    p.add_argument("--ks", default="1,3,6")
    p.add_argument("--relations", default=">=,>=",
                   help="comma separated relations between adjacent ks (>=, <=, =)")
    p.add_argument("--exclude")
    p.add_argument("--min-part", type=int, default=1)
    p.add_argument("--seed-dump", action="store_true")
    common(p, ("text", "csv", "json"))

    p = sub.add_parser("quadform", help="all-odd ternary representations per h")
    p.add_argument("--h-max", type=int, required=True)
    common(p, ("json", "csv"))

    return parser


def _cmd_enum(cfg: RunConfig) -> int:
    if cfg.t == 0:
        # part tuples straight from the stream: a Partition per line would
        # cost more than the line itself
        lines = map(parts_text, filter(cfg.filter.passes, iter_partition_parts(cfg.n_lo)))
    else:
        if cfg.t < 2:
            raise UsageError(f"t must be 0 or at least 2, got {cfg.t}")
        lines = map(str, t_cores_of(cfg.n_lo, cfg.t, cfg.filter))
    _write_output(_line_chunks(lines), cfg.out)
    return 0


def _line_chunks(lines):
    """The lines, each ended by a newline, joined 4096 to a chunk so that
    memory stays bounded however many lines there are."""
    it = iter(lines)
    while batch := list(islice(it, 4096)):
        yield "\n".join(batch) + "\n"


def _cmd_count(cfg: RunConfig) -> int:
    if cfg.t < 2:
        raise UsageError(f"t must be at least 2, got {cfg.t}")
    single = cfg.n_lo == cfg.n_hi and len(cfg.ks) == 1
    if single and cfg.fmt == "csv" and cfg.out is None:
        value = total_hook_count(cfg.n_lo, cfg.t, cfg.ks[0], cfg.filter)
        sys.stdout.write(f"{value}\n")
        return 0
    rows = []
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        counts = _hook_counts_at(n, cfg.t, cfg.ks, cfg.filter)
        rows += [(n, cfg.t, k, counts[k]) for k in cfg.ks]
    if cfg.fmt == "json":
        payload = [
            {"n": n, "t": t, "k": k, "value": v} for n, t, k, v in rows
        ]
        _write_output(json.dumps(payload, indent=2) + "\n", cfg.out)
    else:
        body = "n,t,k,value\n" + "".join(
            f"{n},{t},{k},{v}\n" for n, t, k, v in rows
        )
        _write_output(body, cfg.out)
    return 0


def _cmd_series(cfg: RunConfig) -> int:
    if cfg.t < 2:
        raise UsageError(f"t must be at least 2, got {cfg.t}")
    if cfg.order < 0:
        raise UsageError(f"order must be non-negative, got {cfg.order}")
    series = core_count_series(cfg.t, cfg.order)
    if cfg.fmt == "json":
        payload = [{"n": n, "coefficient": c} for n, c in enumerate(series.coeffs)]
        _write_output(json.dumps(payload, indent=2) + "\n", cfg.out)
    else:
        body = "n,coefficient\n" + "".join(
            f"{n},{c}\n" for n, c in enumerate(series.coeffs)
        )
        _write_output(body, cfg.out)
    return 0


def _seed_dump_payload(dump_targets, failing_n) -> dict:
    dump = {}
    for t, f in dump_targets:
        for n in failing_n:
            key = f"t={t},n={n}"
            if f.excluded:
                key += ",exclude=" + ",".join(map(str, sorted(f.excluded)))
            dump[key] = [str(p) for p in t_cores_of(n, t, f)]
    return dump


def _report_path(check: str, out: str | None) -> str:
    return out or f"{PROG}-{check}-report.json"


def _cmd_verify(cfg: RunConfig) -> int:
    result = run_check(cfg.check, cfg.n_max)
    report = {
        "check": result.check,
        "n_max": result.n_max,
        "holds": result.holds,
        "summary": result.summary,
        "failures": result.failures,
    }
    if result.info:
        report["witness_samples"] = result.info
    if not result.holds and cfg.seed_dump:
        report["seed_dump"] = _seed_dump_payload(
            result.dump_targets, result.failing_n
        )
    if cfg.fmt == "json":
        _write_output(json.dumps(report, indent=2) + "\n", cfg.out)
        return 0 if result.holds else 1
    if result.holds:
        sys.stdout.write(f"{result.check}: HOLDS. {result.summary}\n")
        return 0
    path = _report_path(result.check, cfg.out)
    _write_file(path, json.dumps(report, indent=2))
    sys.stdout.write(
        f"{result.check}: COUNTEREXAMPLE FOUND. {result.summary}\n"
        f"report: {path}\n"
    )
    return 1


def _bias_table_csv(records, pairs) -> str:
    head = "n,verdict," + ",".join(f"{t}.{k}" for t, k in pairs)
    rows = [
        f"{r.n},{r.verdict}," + ",".join(str(r.values[p]) for p in pairs)
        for r in records
    ]
    return head + "\n" + "".join(row + "\n" for row in rows)


def _cmd_conj_scan(cfg: RunConfig) -> int:
    if cfg.t < 2:
        raise UsageError(f"t must be at least 2, got {cfg.t}")
    if len(cfg.relations) != len(cfg.ks) - 1:
        raise UsageError(
            f"need {len(cfg.ks) - 1} relations for {len(cfg.ks)} hook lengths"
        )
    records = bias_table(
        cfg.t, cfg.ks, 0, cfg.n_max, cfg.filter, cfg.relations
    )
    fails = [r for r in records if r.verdict == FAILS]
    if cfg.fmt == "csv":
        pairs = [(cfg.t, k) for k in cfg.ks]
        _write_output(_bias_table_csv(records, pairs), cfg.out)
        return 0 if not fails else 1
    report = {
        "t": cfg.t,
        "ks": cfg.ks,
        "relations": cfg.relations,
        "n_max": cfg.n_max,
        "holds": not fails,
        "failures": bias_records_json(fails),
    }
    if fails and cfg.seed_dump:
        report["seed_dump"] = _seed_dump_payload(
            [(cfg.t, cfg.filter)], [r.n for r in fails]
        )
    if cfg.fmt == "json":
        report["records"] = bias_records_json(records)
        _write_output(json.dumps(report, indent=2) + "\n", cfg.out)
        return 0 if not fails else 1
    if not fails:
        sys.stdout.write(
            f"chain holds for all n <= {cfg.n_max} (t={cfg.t}, ks={cfg.ks})\n"
        )
        return 0
    path = _report_path(f"scan-t{cfg.t}", cfg.out)
    _write_file(path, json.dumps(report, indent=2))
    sys.stdout.write(
        f"counterexamples at n = {[r.n for r in fails[:10]]}\nreport: {path}\n"
    )
    return 1


def _cmd_quadform(cfg: RunConfig) -> int:
    if cfg.h_max < 2:
        raise UsageError(f"h-max must be at least 2, got {cfg.h_max}")
    reps = [odd_representation(h) for h in range(2, cfg.h_max + 1)]
    if cfg.fmt == "csv":
        body = "h,x,y,z,m,r,s\n" + "".join(
            f"{r.h},{r.x},{r.y},{r.z},{r.m},{r.r},{r.s}\n" for r in reps
        )
        _write_output(body, cfg.out)
    else:
        payload = [
            {"h": r.h, "x": r.x, "y": r.y, "z": r.z, "m": r.m, "r": r.r, "s": r.s}
            for r in reps
        ]
        _write_output(json.dumps(payload, indent=2) + "\n", cfg.out)
    return 0


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    cfg.fmt = getattr(args, "format", "csv")
    cfg.out = getattr(args, "out", None)
    if args.subcommand == "enum":
        cfg.n_lo, cfg.n_hi = _parse_n_range(args.n)
        if cfg.n_lo != cfg.n_hi:
            raise UsageError("enum takes a single n")
        cfg.t = args.t
        cfg.filter = _parse_filter(args.exclude, args.min_part)
    elif args.subcommand == "count":
        cfg.t = args.t
        cfg.ks = _parse_hook_lengths(args.k, "k")
        cfg.n_lo, cfg.n_hi = _parse_n_range(args.n)
        cfg.filter = _parse_filter(args.exclude, args.min_part)
    elif args.subcommand == "series":
        cfg.t = args.t
        cfg.order = args.order
    elif args.subcommand == "verify":
        cfg.check = args.check
        cfg.n_max = args.n_max
        cfg.seed_dump = args.seed_dump
        if cfg.n_max < 1:
            raise UsageError(f"n-max must be positive, got {cfg.n_max}")
    elif args.subcommand == "conj-scan":
        cfg.t = args.t
        cfg.n_max = args.n_max
        cfg.ks = _parse_hook_lengths(args.ks, "ks")
        cfg.relations = [r.strip() for r in args.relations.split(",") if r.strip()]
        cfg.filter = _parse_filter(args.exclude, args.min_part)
        cfg.seed_dump = args.seed_dump
        if cfg.n_max < 0:
            raise UsageError(f"n-max must be non-negative, got {cfg.n_max}")
    elif args.subcommand == "quadform":
        cfg.h_max = args.h_max
    return cfg


_DISPATCH = {
    "enum": _cmd_enum,
    "count": _cmd_count,
    "series": _cmd_series,
    "verify": _cmd_verify,
    "conj-scan": _cmd_conj_scan,
    "quadform": _cmd_quadform,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors (and 0 for --help)
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        code = _DISPATCH[cfg.subcommand](cfg)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early.  Stop quietly with the status
        # of a filter killed by SIGPIPE, and point stdout at devnull so the
        # flush at interpreter exit cannot fail again.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # stdout is not a file descriptor
        return 141  # 128 + SIGPIPE
    except (UsageError, ValueError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


def entrypoint():  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
