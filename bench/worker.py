"""Run one benchmark pass in a fresh interpreter.

    python3 worker.py SRC_DIR SPAWNED_AT < job.json

SPAWNED_AT is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux).  The worker
imports corehooks.cli before anything else, so SPAWNED_AT to the end of that
import is the set-up time a user pays for every command.

The job lists the CLI invocations of one pass.  Each runs through
corehooks.cli.main(argv), in order, with stdout and stderr captured in
memory; an invocation that raises or runs out of time is recorded and the
pass goes on.  The worker prints one JSON object: set-up time, the pass's
wall and CPU seconds, its peak RSS, one result per invocation and, when the
job asks for tracing, the spans and per-layer metrics.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import corehooks.cli  # noqa: E402

SETUP_S = time.monotonic() - float(sys.argv[2])

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402


class InvocationTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InvocationTimeout()


class Capture:
    """Stands in for sys.stdout or sys.stderr: hashes and counts what is
    written, and keeps the text only when asked, so capturing adds little
    to the worker's memory."""

    def __init__(self, keep: bool):
        self._sha = hashlib.sha256()
        self.nbytes = 0
        self._chunks = [] if keep else None

    def write(self, s: str) -> int:
        b = s.encode()
        self._sha.update(b)
        self.nbytes += len(b)
        if self._chunks is not None:
            self._chunks.append(s)
        return len(s)

    def flush(self):
        pass

    def hexdigest(self) -> str:
        return self._sha.hexdigest()

    def text(self) -> str | None:
        return None if self._chunks is None else "".join(self._chunks)


def run_one(argv: list[str], keep: bool, deadline: float, limit: float) -> dict:
    """One CLI invocation; never raises for a failure of the CLI."""
    left = min(limit, deadline - time.monotonic())
    if left <= 0:
        return {"rc": None, "error": "pass deadline reached before start"}
    out, err = Capture(keep), Capture(True)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    signal.setitimer(signal.ITIMER_REAL, left)
    error = None
    rc = None
    try:
        rc = corehooks.cli.main(argv)
    except InvocationTimeout:
        error = "timed out"
    except SystemExit as exc:
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # a crash of the CLI is a miss, not the end of the pass
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout, sys.stderr = saved
    res = {"rc": rc, "sha256": out.hexdigest(), "bytes": out.nbytes}
    if keep:
        res["text"] = out.text()
    if error is not None or err.nbytes:
        res["error"] = error or err.text()[:500]
    return res


def main() -> int:
    job = json.load(sys.stdin)
    result = {"setup_s": SETUP_S}
    if job["invocations"]:
        signal.signal(signal.SIGALRM, _on_alarm)
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        deadline = time.monotonic() + job["budget_s"]
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.start()
        results = [
            run_one(inv["argv"], inv["keep"], deadline, job["invocation_limit_s"])
            for inv in job["invocations"]
        ]
        if tracer is not None:
            tracer.stop()
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=wall,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mib=ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            results=results,
        )
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.report()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
