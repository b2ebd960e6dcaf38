"""Command line interface.

Subcommands: enum, count, series, verify, conj-scan, quadform.  Each
subparser names its handler (set_defaults(run=...)), and main hands the
parsed namespace straight to it; a handler parses and checks its own
arguments and leaves to the library the checks it makes with the same
text.  Output is machine readable (csv, json, or json lines), every
integer printed as an exact decimal; every table goes through one
writer, _write_table, and every verify or conj-scan verdict through
another, _write_report.  Exit codes: 0 success / all checks hold, 1 a
counterexample or identity mismatch was found, 2 usage or I/O error or
out of memory, 141 the reader of stdout closed the pipe early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import count, islice
from typing import Iterable

from .generate import (
    _CHUNK_LINES,
    PartFilter,
    partition_text_chunks,
    t_cores_of,
)
from .hookstats import FAILS, _hook_columns, bias_table, total_hook_count
from .qseries import core_count_series
from .quadform import OddRepresentation, odd_representation
from .verify import CHECKS, run_check, bias_records_json

PROG = "corehooks"


class UsageError(Exception):
    pass


def _decimal(text: str) -> int:
    """The integer written in text: ASCII decimal digits, with an optional
    leading minus and spaces around.  int() alone would also take "1_0",
    "+3" and non-ASCII digits.  Every integer option is read here: argparse
    names the option in its message, _parse_int in its own."""
    s = text.strip()
    digits = s[1:] if s.startswith("-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    return int(s)


def _parse_int(text: str, name: str) -> int:
    try:
        return _decimal(text)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{name} {exc}") from None


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
    such as a device or a FIFO, is written in place, and so is a path
    ending in a separator or a dot entry ("out/", "out/."), which open
    refuses like any directory rather than realpath dropping the end."""
    if os.path.basename(path) in ("", os.curdir, os.pardir) or (
        os.path.exists(path) and not os.path.isfile(path)
    ):
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


def _write_table(args, header: tuple[str, ...], rows: Iterable[tuple]):
    """Write rows of ints as csv (a header line, then one line per row) or,
    with --format json, as a list of objects keyed by the header.

    The json text has the bytes of json.dumps(..., indent=2) without its
    pure-Python encoder: one template per row holds the json.dumps keys,
    and each value is filled in as int.__repr__, which raises TypeError
    for a value that is not an int.
    """
    if args.format == "json":
        template = "  {\n" + ",\n".join(
            f"    {json.dumps(name)}: %s" for name in header
        ) + "\n  }"
        body = ",\n".join([template % tuple(map(int.__repr__, row)) for row in rows])
        text = f"[\n{body}\n]\n" if body else "[]\n"
    else:
        text = ",".join(header) + "\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in rows
        )
    _write_output(text, args.out)


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
    p.set_defaults(run=_cmd_enum)
    p.add_argument("--n", required=True)
    p.add_argument("--t", type=_decimal, default=0,
                   help="restrict to t-cores (0: all partitions)")
    p.add_argument("--exclude", help="comma separated part values to exclude")
    p.add_argument("--min-part", type=_decimal, default=1)
    common(p, ("jsonl",))

    p = sub.add_parser("count", help="total k-hooks over the t-cores of n")
    p.set_defaults(run=_cmd_count)
    p.add_argument("--t", type=_decimal, required=True)
    p.add_argument("--k", required=True, help="hook length, or comma separated list")
    p.add_argument("--n", required=True, help="single n or range lo..hi")
    p.add_argument("--exclude")
    p.add_argument("--min-part", type=_decimal, default=1)
    common(p)

    p = sub.add_parser("series", help="t-core counting series coefficients")
    p.set_defaults(run=_cmd_series)
    p.add_argument("--t", type=_decimal, required=True)
    p.add_argument("--order", type=_decimal, default=200)
    common(p)

    p = sub.add_parser(
        "verify",
        help="run a named verification check",
        description="Run a named verification check.  In text format a "
        "failing check writes its JSON report to "
        "corehooks-<check>-report.json in the current directory, or to "
        "--out when given.",
    )
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--check", required=True, choices=sorted(CHECKS))
    p.add_argument("--n-max", type=_decimal, required=True)
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
    p.set_defaults(run=_cmd_conj_scan)
    p.add_argument("--n-max", type=_decimal, required=True)
    p.add_argument("--t", type=_decimal, default=5)
    p.add_argument("--ks", default="1,3,6")
    p.add_argument("--relations", default=">=,>=",
                   help="comma separated relations between adjacent ks (>=, <=, =)")
    p.add_argument("--exclude")
    p.add_argument("--min-part", type=_decimal, default=1)
    p.add_argument("--seed-dump", action="store_true")
    common(p, ("text", "csv", "json"))

    p = sub.add_parser("quadform", help="all-odd ternary representations per h")
    p.set_defaults(run=_cmd_quadform)
    p.add_argument("--h-max", type=_decimal, required=True)
    common(p, ("json", "csv"))

    return parser


def _cmd_enum(args) -> int:
    n, n_hi = _parse_n_range(args.n)
    if n != n_hi:
        raise UsageError("enum takes a single n")
    f = _parse_filter(args.exclude, args.min_part)
    if args.t == 0:
        chunks = partition_text_chunks(n, f)
    else:
        if args.t < 2:
            raise UsageError(f"t must be 0 or at least 2, got {args.t}")
        chunks = _line_chunks(map(str, t_cores_of(n, args.t, f)))
    _write_output(chunks, args.out)
    return 0


def _line_chunks(lines):
    """The lines, each ended by a newline, joined 4096 to a chunk so that
    memory stays bounded however many lines there are."""
    it = iter(lines)
    while batch := list(islice(it, _CHUNK_LINES)):
        yield "\n".join(batch) + "\n"


def _cmd_count(args) -> int:
    t = args.t
    ks = _parse_hook_lengths(args.k, "k")
    n_lo, n_hi = _parse_n_range(args.n)
    f = _parse_filter(args.exclude, args.min_part)
    if n_lo == n_hi and len(ks) == 1 and args.format == "csv":
        _write_output(f"{total_hook_count(n_lo, t, ks[0], f)}\n", args.out)
        return 0
    columns = _hook_columns(n_lo, n_hi, t, ks, f)  # one walk over the sizes n_lo..n_hi
    rows = [(n, t, k, v) for n, *vs in zip(count(n_lo), *columns) for k, v in zip(ks, vs)]
    _write_table(args, ("n", "t", "k", "value"), rows)
    return 0


def _cmd_series(args) -> int:
    series = core_count_series(args.t, args.order)
    _write_table(args, ("n", "coefficient"), enumerate(series))
    return 0


def _seed_dump_payload(dump_targets, failing_n) -> dict:
    dump = {}
    for t, f in dump_targets:
        for n in failing_n:
            key = f"t={t},n={n}"
            if f.excluded:
                key += ",exclude=" + ",".join(map(str, sorted(f.excluded)))
            if f.min_part > 1:
                key += f",min_part={f.min_part}"
            dump[key] = [str(p) for p in t_cores_of(n, t, f)]
    return dump


def _write_report(args, name, report, holds, holds_line, fails_line) -> int:
    """Finish a verdict command.  With --format json the report goes to
    --out or stdout.  Otherwise a holding verdict prints holds_line, and
    a failing one writes the report to --out or to
    corehooks-<name>-report.json and prints fails_line and the path.
    Returns the exit code: 0 when holds, 1 otherwise."""
    if args.format == "json":
        _write_output(json.dumps(report, indent=2) + "\n", args.out)
    elif holds:
        sys.stdout.write(holds_line + "\n")
    else:
        path = args.out or f"{PROG}-{name}-report.json"
        _write_file(path, json.dumps(report, indent=2))
        sys.stdout.write(f"{fails_line}\nreport: {path}\n")
    return 0 if holds else 1


def _cmd_verify(args) -> int:
    if args.n_max < 1:
        raise UsageError(f"n-max must be positive, got {args.n_max}")
    result = run_check(args.check, args.n_max)
    report = {
        "check": result.check,
        "n_max": result.n_max,
        "holds": result.holds,
        "summary": result.summary,
        "failures": result.failures,
    }
    if result.info:
        report["witness_samples"] = result.info
    if not result.holds and args.seed_dump:
        report["seed_dump"] = _seed_dump_payload(
            result.dump_targets, result.failing_n
        )
    return _write_report(
        args, result.check, report, result.holds,
        f"{result.check}: HOLDS. {result.summary}",
        f"{result.check}: COUNTEREXAMPLE FOUND. {result.summary}",
    )


def _cmd_conj_scan(args) -> int:
    t, n_max = args.t, args.n_max
    ks = _parse_hook_lengths(args.ks, "ks")
    relations = [r.strip() for r in args.relations.split(",") if r.strip()]
    f = _parse_filter(args.exclude, args.min_part)
    if n_max < 0:
        raise UsageError(f"n-max must be non-negative, got {n_max}")
    if t < 2:
        raise UsageError(f"t must be at least 2, got {t}")
    if len(relations) != len(ks) - 1:
        raise UsageError(
            f"need {len(ks) - 1} relations for {len(ks)} hook lengths"
        )
    records = bias_table(t, ks, 0, n_max, f, relations)
    fails = [r for r in records if r.verdict == FAILS]
    if args.format == "csv":
        _write_table(
            args,
            ("n", "verdict", *(f"{t}.{k}" for k in ks)),
            [(r.n, r.verdict, *(r.values[t, k] for k in ks)) for r in records],
        )
        return 0 if not fails else 1
    report = {
        "t": t,
        "ks": ks,
        "relations": relations,
        "n_max": n_max,
        "holds": not fails,
        "failures": bias_records_json(fails),
    }
    if fails and args.seed_dump:
        report["seed_dump"] = _seed_dump_payload([(t, f)], [r.n for r in fails])
    if args.format == "json":
        report["records"] = bias_records_json(records)
    return _write_report(
        args, f"scan-t{t}", report, not fails,
        f"chain holds for all n <= {n_max} (t={t}, ks={ks})",
        f"counterexamples at n = {[r.n for r in fails[:10]]}",
    )


def _cmd_quadform(args) -> int:
    if args.h_max < 2:
        raise UsageError(f"h-max must be at least 2, got {args.h_max}")
    reps = [odd_representation(h) for h in range(2, args.h_max + 1)]
    _write_table(args, OddRepresentation._fields, reps)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors (and 0 for --help)
        return int(exc.code or 0)
    try:
        code = args.run(args)
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
    except MemoryError:
        print(f"{PROG}: error: out of memory", file=sys.stderr)
        return 2


def entrypoint():  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
