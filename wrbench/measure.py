"""Clocks, wall-clock limits, child processes and run metadata for the
benchmark."""

from __future__ import annotations

import bisect
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


# A core of a shared host runs the same code up to twice as slowly while its
# neighbours are busy, and that state changes within seconds.  So times are
# scaled to a reference core: one that runs `calibration_kernel` in
# REFERENCE_KERNEL_S and starts `python -c pass` in REFERENCE_START_S.
REFERENCE_KERNEL_S = 1.0e-3
REFERENCE_START_S = 40e-3


def calibration_kernel() -> None:
    """Fixed pure-Python work of the kind the library does: 64-bit mask
    arithmetic, bit counts, dict and list updates."""
    x = 0x9E3779B97F4A7C15
    acc = 0
    seen = {}
    rows = []
    for i in range(2500):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        m = x >> 20
        acc += (m & ~acc).bit_count()
        seen[m & 1023] = i
        rows.append((m, acc))


def start_interpreter() -> None:
    """A cold interpreter that does nothing: the fixed cost of a CLI call.
    The limit is a signal, because `subprocess.run(timeout=...)` polls for
    the child's exit and would round its time up to the polling step."""
    with time_limit(30):
        subprocess.run([sys.executable, "-c", "pass"], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True)


class SpeedGauge:
    """Times a fixed piece of work (`probe`) every `every_s` seconds between
    queries, and scales a wall time measured at some moment to the reference
    core: by `reference_s` over the mean probe time of the two calibrations
    before and the two after that moment."""

    def __init__(self, probe, reference_s: float, every_s: float):
        self.probe, self.reference_s, self.every_s = probe, reference_s, every_s
        self.at: list[float] = []
        self.probe_s: list[float] = []
        probe()  # warm-up, not recorded

    @classmethod
    def kernel(cls) -> "SpeedGauge":
        """For work done in this process."""
        return cls(calibration_kernel, REFERENCE_KERNEL_S, 0.1)

    @classmethod
    def interpreter(cls) -> "SpeedGauge":
        """For work done in child interpreters.  The in-process kernel runs
        slower for a while after each child exits, so it would misread
        them."""
        return cls(start_interpreter, REFERENCE_START_S, 0.5)

    def measure(self) -> None:
        t0 = perf_counter()
        self.probe()
        self.at.append(t0)
        self.probe_s.append(perf_counter() - t0)

    def tick(self) -> None:
        """Calibrate if `every_s` have passed since the last time."""
        if not self.at or perf_counter() - self.at[-1] >= self.every_s:
            self.measure()

    def factor(self, t: float) -> float:
        i = bisect.bisect(self.at, t)
        near = self.probe_s[max(i - 2, 0): i + 2]
        return self.reference_s / statistics.fmean(near)


class QueryTimeout(BaseException):
    """Raised by `time_limit` when a guarded call overruns.

    A BaseException, so that broad `except Exception` handlers in the code
    under test cannot swallow it.
    """


@contextmanager
def time_limit(seconds: float):
    """Interrupt the guarded block with QueryTimeout after `seconds` of wall
    time.  Main thread only (SIGALRM); blocks must not nest."""

    def on_alarm(signum, frame):
        raise QueryTimeout(f"over the {seconds:.1f} s limit")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict:
    """Environment for child interpreters: the checkout's `src` comes first
    on the import path, so the library under test is the one imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class ChildRun:
    returncode: int
    stdout: bytes
    maxrss_kb: int


def run_child(argv: list[str], out_path: Path) -> ChildRun:
    """Run one child interpreter to completion, stdout into `out_path`.

    The child is reaped with wait4, which also yields its own peak resident
    memory.  If the caller's `time_limit` fires while waiting, the child is
    killed and reaped before the QueryTimeout propagates.
    """
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(
            argv, stdout=out, stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT
        )
        status = usage = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if status is None:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, out_path.read_bytes(), usage.ru_maxrss)


def median_child_ms(argv: list[str], reps: int, limit_s: float) -> float:
    """Median wall time of `reps` runs of a child interpreter, in ms."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        with time_limit(limit_s):
            code = subprocess.run(
                argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                env=child_env(), cwd=ROOT,
            ).returncode
        times.append((perf_counter() - t0) * 1e3)
        if code != 0:
            raise RuntimeError(f"{argv[1:]} exited with {code}")
    return statistics.median(times)


def time_to_ready(argv: list[str], limit_s: float) -> float:
    """Seconds from spawning a child until it prints its 'ready' line; the
    child is then waited for."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        with time_limit(limit_s):
            line = proc.stdout.readline()
            ready_s = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, first line {line[:80]!r})")
    return ready_s


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100)[q - 1]


def git_revision() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree.  The
    search for a repository stops at the checkout root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git": git_revision(),
        "nproc": os.cpu_count(),
    }
