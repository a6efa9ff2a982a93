"""Shared plumbing for the repository benchmark.

Everything here observes the program from outside: wall clocks around
public calls, ``/proc`` for host load and process-tree memory, and the
counters the program already exports.  Nothing in this module imports
``repro``.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: thread-count variables every benchmark process pins to one thread
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: scratch directory (inside the checkout) for WAL segments and traces
RUN_DIR = ".perfbench_run"

#: end-to-end metrics: name -> unit (every untraced run prints all of them)
END_TO_END = {
    "reports_per_s": "1/s",
    "slot_latency_p50_ms": "ms",
    "slot_ontime_frac": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "estimate_mse": "1",
}


def pin_threads(env: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Pin BLAS/OpenMP pools to one thread in ``env`` (default: ours)."""
    env = os.environ if env is None else env
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_dir() -> str:
    path = os.path.join(os.getcwd(), RUN_DIR)
    os.makedirs(path, exist_ok=True)
    return path


def sub_seeds(seed: int, count: int = 3) -> List[int]:
    """Input seeds of a run's set-up rounds or sessions, derived from
    ``--seed``.  Averaging the utility sentinel over several inputs keeps
    it from tracking one input's luck."""
    return [1000 * seed + i for i in range(count)]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- process tree ----------------------------------------------------------


def children_of(pid: int) -> List[int]:
    """Direct children of ``pid`` (all threads' child lists)."""
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return out


def descendants() -> List[int]:
    found: List[int] = []
    frontier = children_of(os.getpid())
    while frontier:
        found.extend(frontier)
        frontier = [c for p in frontier for c in children_of(p)]
    return found


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def self_peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TreePeakRss:
    """Samples the peak RSS (``VmHWM``) of every descendant process.

    Used around an untimed pass only, so the sampling thread never
    shares the CPU with a timed pass.  The tree total is this process's
    own peak plus each descendant's last-seen peak: a sum of per-process
    high-water marks, an upper bound on the simultaneous tree peak.
    """

    def __init__(self) -> None:
        self.peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            for pid in descendants():
                kb = _status_kb(pid, "VmHWM")
                if kb:
                    self.peaks[pid] = max(self.peaks.get(pid, 0), kb)
            self._stop.wait(0.02)

    def __enter__(self) -> "TreePeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def children_mb(self) -> float:
        return sum(self.peaks.values()) / 1024.0


def kill_descendants() -> None:
    """SIGKILL every descendant, deepest first, and reap direct children."""
    for pid in reversed(descendants()):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    for pid in children_of(os.getpid()):
        try:
            os.waitpid(pid, 0)
        except OSError:
            pass


def arm_watchdog(seconds: int) -> None:
    """Kill the whole tree and exit non-zero if a run overstays."""

    def _fire(signum, frame) -> None:
        print(f"perfbench: watchdog fired after {seconds}s", flush=True)
        kill_descendants()
        os._exit(3)

    signal.signal(signal.SIGALRM, _fire)
    signal.alarm(seconds)


# -- host load -------------------------------------------------------------


def steal_ticks() -> int:
    """Host-wide steal ticks so far (``/proc/stat``, all CPUs)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def _cpu_ticks() -> Dict[int, Tuple[int, str]]:
    """``pid -> (utime + stime ticks, command)`` for every process."""
    out: Dict[int, Tuple[int, str]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                raw = fh.read()
        except OSError:
            continue
        close = raw.rfind(")")
        comm = raw[raw.find("(") + 1 : close]
        rest = raw[close + 2 :].split()
        out[int(name)] = (int(rest[11]) + int(rest[12]), comm)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return ""


def _ancestors() -> List[int]:
    chain: List[int] = []
    pid = os.getpid()
    while pid > 1:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                raw = fh.read()
        except OSError:
            break
        pid = int(raw[raw.rfind(")") + 2 :].split()[1])
        chain.append(pid)
    return chain


class HostLoad:
    """Before/after host snapshot: steal ticks, loadavg, busy strangers.

    A run is *flagged* when any process outside this benchmark's own
    tree (and its launching ancestors) burned more than 5% of a CPU
    during the run, or any stray ``repro`` process was alive at start.
    """

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.steal0 = steal_ticks()
        self.load0 = os.getloadavg()
        self.ticks0 = _cpu_ticks()
        mine = set(_ancestors()) | {os.getpid()}
        self.strays = [
            {"pid": pid, "cmd": _cmdline(pid)[:120]}
            for pid in self.ticks0
            if pid not in mine and "repro" in _cmdline(pid)
        ]

    def report(self) -> Dict[str, object]:
        elapsed = max(time.monotonic() - self.started, 1e-9)
        hz = os.sysconf("SC_CLK_TCK")
        ticks1 = _cpu_ticks()
        skip = set(_ancestors()) | {os.getpid()} | set(descendants())
        busy = []
        for pid, (ticks, comm) in ticks1.items():
            if pid in skip or pid not in self.ticks0:
                continue
            share = (ticks - self.ticks0[pid][0]) / hz / elapsed
            if share > 0.05:
                busy.append({"pid": pid, "comm": comm, "cpu_share": round(share, 3)})
        return {
            "cpu_count": os.cpu_count(),
            "steal_ticks": steal_ticks() - self.steal0,
            "loadavg_start": list(self.load0),
            "loadavg_end": list(os.getloadavg()),
            "busy": busy,
            "strays": self.strays,
            "flagged": bool(busy or self.strays),
        }


# -- output ----------------------------------------------------------------


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
    record: Dict[str, object],
    record_name: str,
) -> None:
    """Write the run record file, then print the result as the last line."""
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    path = os.path.join(run_dir(), f"{record_name}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, **record}, fh, indent=1, default=str)
    print(json.dumps({"host": record.get("host"), "record": path}), flush=True)
    print(json.dumps(result), flush=True)
