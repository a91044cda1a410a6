"""Shared plumbing of the repository benchmark: locating the program,
provenance, the per-run outcome record, open-loop schedules and the
per-layer counter ledger.

Everything here talks to the replication stack through its public
objects (clusters, replicas, networks, runtimes); nothing reaches into
the protocol from inside.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Run artifacts (result documents, span dumps); inside the checkout.
OUT_DIR = os.path.join(REPO_ROOT, ".perfbench_out")


class ProgramMissing(RuntimeError):
    """The checkout holds the benchmark but not the program under test."""


def load_program() -> None:
    """Put ``src/`` on the import path and import the stack.

    ``repro.core`` is imported before ``repro.runtime`` on purpose:
    importing ``repro.runtime`` first raises a circular ``ImportError``
    (``repro.runtime.cluster`` -> ``repro.core`` -> ``repro.core.cluster``
    -> ``from ..runtime import SimRuntime`` while ``repro.runtime`` is
    still half-initialised).  That is an open defect of the package's
    import graph; the benchmark works around it and does not fix it.
    """
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise ProgramMissing(
            f"no program to measure: {SRC_DIR}/repro is missing")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    import repro.core  # noqa: F401  (must precede repro.runtime)
    import repro.runtime  # noqa: F401


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def source_digest() -> str:
    """sha256 over every file under ``src/`` (path + bytes): names the
    exact code measured even where the checkout is not a git tree."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(SRC_DIR):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, SRC_DIR).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not itself
    the top of a git tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(REPO_ROOT):
        return None
    return lines[1]


def provenance(workload: str, seed: int, seconds: int,
               trace: bool) -> Dict[str, Any]:
    from repro import accel
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "build": accel.build_info(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def rng_for(seed: int, *scope: Any) -> random.Random:
    """An input stream named by the seed and a scope.  String seeding
    is hash-randomisation proof (``random`` hashes str seeds with
    sha512), so inputs repeat across ``PYTHONHASHSEED`` values."""
    return random.Random(":".join(str(part) for part in (seed,) + scope))


def poisson_offsets(rng: random.Random, rate: float,
                    duration: float) -> List[float]:
    """Arrival offsets of an open-loop Poisson stream in [0, duration)."""
    offsets: List[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def percentile(values: Iterable[float], q: float) -> float:
    """The program's own nearest-rank percentile (0.0 when empty)."""
    from repro.obs.metrics import percentile as nearest_rank
    return nearest_rank(list(values), q)


def digest(values: List[float]) -> str:
    """Short exact digest of a series (every digit counts)."""
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def median(values: List[float]) -> float:
    """``statistics.median``, 0.0 when empty."""
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# per-layer counters
# ----------------------------------------------------------------------
#: Raw totals the ledger keeps (summed over every system a run built).
LEDGER_KEYS = (
    "sim_events", "sim_peak_heap", "net_datagrams", "net_bytes",
    "gcs_multicasts", "gcs_views", "gcs_chan_retrans",
    "core_exchanges", "core_retrans", "core_cpc",
    "disk_forced", "disk_syncs", "disk_sync_wait_s", "wal_appends",
    "db_applies",
    "rt_events", "rt_datagrams", "rt_bytes", "rt_dropped",
    "shard_txns", "shard_cross", "shard_commits", "shard_aborts",
)


class Ledger:
    """Per-layer work totals read from the stack's public counters.

    Engines and databases are rebuilt when a replica recovers, which
    restarts their counters; :meth:`retire` banks a replica's current
    engine/database counts before the rebuild so nothing is lost.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = dict.fromkeys(LEDGER_KEYS, 0)

    def add(self, key: str, value: float) -> None:
        self.totals[key] += value

    def peak(self, key: str, value: float) -> None:
        if value > self.totals[key]:
            self.totals[key] = value

    def retire(self, replica: Any) -> None:
        """Bank the volatile (engine + database) counts of a replica
        about to be rebuilt by recovery."""
        stats = replica.engine.stats
        self.add("core_exchanges", stats["exchanges"])
        self.add("core_retrans", stats["retrans_actions"])
        self.add("core_cpc", stats["cpc_sent"])
        self.add("db_applies", replica.database.applied_count)

    def add_replicas(self, replicas: Iterable[Any]) -> None:
        for replica in replicas:
            self.retire(replica)
            disk = replica.disk
            self.add("disk_forced", disk.forced_writes)
            self.add("disk_syncs", disk.syncs)
            self.add("disk_sync_wait_s", disk.total_sync_wait)
            self.add("wal_appends", replica.wal.appends)
            daemon = replica.daemon
            self.add("gcs_multicasts", daemon.messages_multicast)
            self.add("gcs_views", daemon.views_installed)
            self.add("gcs_chan_retrans", replica.endpoint.retransmits)

    def add_sim(self, sim: Any, network: Any) -> None:
        self.add("sim_events", sim.events_processed)
        self.peak("sim_peak_heap", sim.peak_heap)
        self.add("net_datagrams", network.datagrams_sent)
        self.add("net_bytes", network.bytes_sent)

    def add_live(self, runtime: Any, transport: Any) -> None:
        self.add("rt_events", runtime.events_processed)
        self.add("rt_datagrams", transport.datagrams_sent)
        self.add("rt_bytes", transport.bytes_sent)
        self.add("rt_dropped", transport.datagrams_dropped)

    def metrics(self, greens: int) -> Dict[str, Tuple[float, str]]:
        """The untraced per-layer metrics, per acknowledged green."""
        t = self.totals
        per = 1.0 / greens if greens else 0.0
        forced = t["disk_forced"]
        txns = t["shard_txns"]
        return {
            "sim.events_per_green": (t["sim_events"] * per, "count/green"),
            "sim.peak_heap": (t["sim_peak_heap"], "count"),
            "net.datagrams_per_green": (t["net_datagrams"] * per,
                                        "count/green"),
            "net.bytes_per_green": (t["net_bytes"] * per, "B/green"),
            "gcs.multicasts_per_green": (t["gcs_multicasts"] * per,
                                         "count/green"),
            "gcs.views_installed": (t["gcs_views"], "count"),
            "gcs.channel_retransmits": (t["gcs_chan_retrans"], "count"),
            "core.exchanges": (t["core_exchanges"], "count"),
            "core.retrans_actions": (t["core_retrans"], "count"),
            "core.cpc_sent": (t["core_cpc"], "count"),
            "storage.forced_writes_per_green": (forced * per,
                                                "count/green"),
            "storage.syncs_per_green": (t["disk_syncs"] * per,
                                        "count/green"),
            "storage.wal_appends_per_green": (t["wal_appends"] * per,
                                              "count/green"),
            "storage.sync_wait_ms": (
                t["disk_sync_wait_s"] * 1e3 / forced if forced else 0.0,
                "ms"),
            "db.applies_per_green": (t["db_applies"] * per, "count/green"),
            "runtime.events_per_green": (t["rt_events"] * per,
                                         "count/green"),
            "runtime.datagrams_per_green": (t["rt_datagrams"] * per,
                                            "count/green"),
            "runtime.bytes_per_green": (t["rt_bytes"] * per, "B/green"),
            "runtime.dropped_datagrams": (t["rt_dropped"], "count"),
            "shard.cross_share": (t["shard_cross"] / txns if txns else 0.0,
                                  "ratio"),
            "shard.commits": (t["shard_commits"], "count"),
            "shard.aborts": (t["shard_aborts"], "count"),
        }


# ----------------------------------------------------------------------
# the outcome of one workload run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``latencies_ms`` are on the workload's own clock: simulated time on
    the simulator workloads, wall-clock time on ``live_udp``
    (``clock`` says which).  ``window_*`` accumulate the measured
    window of the current unit of work (a sweep, a round of episodes, a
    segment, a load period); wall-clock rates are medians over units.
    The ledger covers everything the run built.
    """

    clock: str
    attempted: int = 0
    acked: int = 0
    window_wall_s: float = 0.0
    window_cpu_s: float = 0.0
    window_greens: int = 0
    #: closed units: (wall seconds, CPU seconds, acknowledged greens)
    units: List[Tuple[float, float, int]] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    generator_lag_ms: List[float] = field(default_factory=list)
    ledger: Ledger = field(default_factory=Ledger)
    #: workload-specific end-to-end figures: name -> (value, unit)
    extras: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: exception texts of episodes the engine aborted
    errors: List[str] = field(default_factory=list)
    #: (check name, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: exact simulated-clock figures; must repeat run to run
    exact: Dict[str, Any] = field(default_factory=dict)

    def close_unit(self) -> None:
        """End the current unit of measured work."""
        if self.window_greens:
            self.units.append((self.window_wall_s, self.window_cpu_s,
                               self.window_greens))
        self.window_wall_s = self.window_cpu_s = 0.0
        self.window_greens = 0

    def greens_per_s(self) -> float:
        return median([g / w for w, _, g in self.units if w > 0])

    def cpu_ms_per_green(self) -> float:
        return median([c * 1e3 / g for _, c, g in self.units])

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def fingerprint(self) -> str:
        """Digest of the exact figures (empty dict on live runs)."""
        return digest([json.dumps(self.exact, sort_keys=True, default=str)])


def run_sliced(sim: Any, length: float, slices: int) -> Tuple[float, float]:
    """Run ``sim`` for ``length`` simulated seconds in ``slices`` equal
    slices; return (wall, CPU) seconds estimated as ``slices`` times the
    median slice.  Under a steady load the slices do equal work, so the
    median discards bursts of contention from other processes on the
    machine.  Slicing never changes the simulation: the kernel runs the
    same events in the same order."""
    start = sim.now
    walls: List[float] = []
    cpus: List[float] = []
    for k in range(1, slices + 1):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        sim.run(until=start + length * k / slices)
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    return slices * median(walls), slices * median(cpus)


def chunked(total: float, step: float) -> Iterator[float]:
    """Successive run lengths of ``step`` covering ``total`` seconds."""
    done = 0.0
    while done < total - 1e-12:
        length = min(step, total - done)
        done += length
        yield length
