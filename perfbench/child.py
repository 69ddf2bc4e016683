"""One measured run of one workload, in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

SPEC names the source directory, the input files to load during set-up, the
stages (each an argv for ``textsql.cli.main``) and whether to trace. The
result holds the set-up time, each stage's wall time and exit code, both
also normalized by the host clock (below) with its median reading, the
interpreter's peak resident set size and, when traced, the span summary.
"""

import gc
import json
import resource
import signal
import sqlite3
import statistics
import sys
import time
from contextlib import nullcontext

# Modules imported here load before the clock starts, outside the set-up
# time. The recorder is stdlib only. sqlite3 is there for the host clock,
# so set-up time leaves out its import (about 4 ms).
from spans import Recorder


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    # The traced repetition runs without the host clock, so its handler
    # time does not land in the spans.
    clock = HostClock(enabled=not spec["trace"])
    clock.start()
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import textsql.cli
    from textsql import data

    recorder = None
    if spec["trace"]:
        recorder = Recorder()
        recorder.install()
    span = recorder.span if recorder else (lambda name: nullcontext())
    with span("setup"):
        if spec["setup_tables"]:
            data.index_by_id(data.load_tables(spec["setup_tables"]))
        if spec["setup_questions"]:
            data.load_questions(spec["setup_questions"])
    setup_s = time.perf_counter() - t0
    setup_norm_s, setup_reading_s = clock.stop()

    stages = []
    for name, argv in spec["stages"]:
        if recorder:
            recorder.stage = name
        with span("stage." + name):
            clock.start()
            t = time.perf_counter()
            rc = textsql.cli.main(argv)
            seconds = time.perf_counter() - t
            norm_s, reading_s = clock.stop()
        stages.append({"name": name, "rc": rc, "seconds": seconds, "norm_s": norm_s, "reading_s": reading_s})

    result = {
        "setup_s": setup_s,
        "setup_norm_s": setup_norm_s,
        "setup_reading_s": setup_reading_s,
        "stages": stages,
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder:
        result["trace"] = recorder.summarize()
        recorder.dump(spec["spans_out"])
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


# Host clock: a short fixed reference workload timed every CLOCK_PERIOD_S
# from a SIGALRM handler while a section runs. CLOCK_NOMINAL_S is about its
# time on the quiet 2-vCPU Xeon (2.0 GHz) the benchmark was tuned on, so
# normalized times there are close to wall times.
CLOCK_PERIOD_S = 0.05
CLOCK_LOOP = 2000
CLOCK_QUERIES = 3
CLOCK_ROWS = 400
CLOCK_NOMINAL_S = 0.001
CLOCK_WINDOW = 3


def _reference_db() -> sqlite3.Connection:
    db = sqlite3.connect(":memory:")
    db.execute("create table t (a integer, b text, c real)")
    db.executemany("insert into t values (?, ?, ?)", [(i, f"v{i % 37}", i * 0.5) for i in range(CLOCK_ROWS)])
    return db


def _reference_work(db: sqlite3.Connection) -> int:
    """Interpreter work (dict, string and sort) and SQLite queries, the two
    kinds of work the library's stages are made of. Either alone tracks the
    host's slow phases less well: on the tuning host, a reading of the
    Python loop alone slowed more than the stages did."""
    d = {}
    acc = 0
    for i in range(CLOCK_LOOP):
        k = f"k{i & 511}"
        d[k] = d.get(k, 0) + i
        acc += len(k)
    acc += len(sorted(d.items(), key=lambda kv: kv[1]))
    for q in range(CLOCK_QUERIES):
        acc += len(db.execute("select b, count(*), max(c) from t where a > ? group by b", (q * 10,)).fetchall())
    return acc


def _reading(db: sqlite3.Connection) -> float:
    """Time of one reference workload, with the collector off so the
    program's heap does not leak into the reading."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    _reference_work(db)
    seconds = time.perf_counter() - t
    if enabled:
        gc.enable()
    return seconds


class HostClock:
    """Section time scaled to a host of nominal speed.

    The host this runs on switches between speeds about 2x apart every few
    seconds, so wall time follows the host more than the code. While a
    section runs, a timer signal takes a reading every CLOCK_PERIOD_S. Each
    stretch of section work between two readings is scaled by
    CLOCK_NOMINAL_S over the median reading of the surrounding window of
    readings: a stretch run while the host was twice as slow counts half.
    The readings' own time is left out."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.db = _reference_db() if enabled else None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.readings.append(_reading(self.db))
        self.work.append(t0 - self.last)
        self.last = time.perf_counter()

    def start(self) -> None:
        self.work, self.readings = [], []
        if self.enabled:
            signal.signal(signal.SIGALRM, self._tick)
            # Restart system calls the signal interrupts, also inside C
            # libraries that would not retry them.
            signal.siginterrupt(signal.SIGALRM, False)
        self.last = time.perf_counter()
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, CLOCK_PERIOD_S, CLOCK_PERIOD_S)

    def stop(self) -> tuple[float | None, float | None]:
        """(normalized seconds, median reading), or Nones when disabled."""
        if not self.enabled:
            return None, None
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.work.append(time.perf_counter() - self.last)
        readings = self.readings or [_reading(self.db)]
        norm = 0.0
        for k, w in enumerate(self.work):
            window = readings[max(0, k - CLOCK_WINDOW) : k + CLOCK_WINDOW] or readings[-1:]
            norm += w * CLOCK_NOMINAL_S / statistics.median(window)
        return norm, statistics.median(readings)


def peak_rss_mb() -> float:
    """Peak resident set size of this interpreter. Linux carries the
    parent's peak across fork and exec into ``ru_maxrss``, so read the
    high-water mark of the address space exec made, where there is one."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
