"""Workload ``faults``: fault episodes under open-loop load.

Each episode is a fresh 5-replica :class:`repro.core.ReplicaCluster` on
the paper's LAN and disk, with heartbeat failure detection
(``use_topology_hints=False``, as on the live runtime).  Poisson
traffic at 100 actions per simulated second goes to a seeded random
*running* replica for 7 sim-s; the fault hits at 2 s, the repair at
4 s, then the system drains for 2 s.  The episodes of one round:

* ``partition``       — majority {1,2,3} / minority {4,5}, then heal;
* ``crash_member``    — crash then recover node 3 (not the sequencer);
* ``crash_sequencer`` — crash then recover node 1 (the sequencer).

Because the load is open-loop, requests that fall due while no primary
exists are sent anyway and counted.  Invariants (single primary,
prefix consistency) are checked every 0.25 sim-s, not only at the end.

An exception raised out of the simulator ends its episode on the spot:
every request of the episode that was not acknowledged counts as
failed and the exception text is reported.  Episodes are never retried,
re-seeded, reordered or dropped.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Optional

from harness import Outcome, chunked, digest, poisson_offsets, rng_for

N_REPLICAS = 5
RATE = 100.0
LOAD_S, FAULT_AT, REPAIR_AT, DRAIN_S = 7.0, 2.0, 4.0, 2.0
CHECK_EVERY = 0.25
EPISODES = ("partition", "crash_member", "crash_sequencer")
MAJORITY, MINORITY = (1, 2, 3), (4, 5)
MEMBER, SEQUENCER = 3, 1
#: Rounds per measured second: one round (three episodes) takes about
#: 0.9 s of wall time on a 2-core x86 box.  Work is sized from
#: ``--seconds`` by this fixed ratio, never by the clock, so the
#: simulated figures of a (seed, seconds) pair repeat exactly.
ROUNDS_PER_SECOND = 1.1


class _Episode:
    """One fault episode's cluster, load and bookkeeping."""

    def __init__(self, kind: str, seed: int, index: int, out: Outcome):
        from repro.core import EngineConfig, ReplicaCluster
        from repro.gcs import GcsSettings
        from repro.net import lan_profile
        from repro.storage import DiskProfile

        self.kind, self.out = kind, out
        self.rng = rng_for(seed, "faults", kind, index)
        start = time.perf_counter()
        self.cluster = ReplicaCluster(
            n=N_REPLICAS, seed=self.rng.randrange(2 ** 31),
            network_profile=lan_profile(),
            disk_profile=DiskProfile(forced_write_latency=0.0095),
            gcs_settings=GcsSettings(use_topology_hints=False),
            engine_config=EngineConfig())
        self.cluster.start_all(settle=2.0)
        out.setup_s.append(time.perf_counter() - start)
        self.sim = self.cluster.sim
        self.t0 = self.sim.now
        self.due = [self.t0 + x
                    for x in poisson_offsets(self.rng, RATE, LOAD_S)]
        self.acked: Dict[int, float] = {}
        self.action_ids: Dict[int, Any] = {}
        self.returning: List[int] = []
        self.repaired_at: Optional[float] = None
        self.caught_up: Dict[int, float] = {}
        self.target_green = 0

    # -- load -------------------------------------------------------------
    def _fire(self, i: int) -> None:
        replicas = self.cluster.replicas
        running = [n for n in sorted(replicas) if replicas[n].running]
        node = self.rng.choice(running)

        def done(_action: Any, _pos: int, _result: Any) -> None:
            self.acked[i] = self.sim.now

        self.action_ids[i] = replicas[node].submit(
            ("SET", f"r{i}", i), on_complete=done)
        if i + 1 < len(self.due):
            self.sim.post_at(self.due[i + 1], self._fire, i + 1)

    # -- faults -----------------------------------------------------------
    def _fault(self) -> None:
        if self.kind == "partition":
            self.cluster.partition(MAJORITY, MINORITY)
            self.returning = list(MINORITY)
        else:
            node = SEQUENCER if self.kind == "crash_sequencer" else MEMBER
            self.cluster.crash(node)
            self.returning = [node]

    def _repair(self) -> None:
        replicas = self.cluster.replicas
        self.target_green = max((r.green_count for r in replicas.values()
                                 if r.running and r.engine.in_primary),
                                default=0)
        self.repaired_at = self.sim.now
        if self.kind == "partition":
            self.cluster.heal()
        else:
            node = self.returning[0]
            self.out.ledger.retire(replicas[node])
            self.cluster.recover(node)
        for node in self.returning:
            replicas[node].add_green_listener(
                lambda _a, _p, _r, _n=node: self._on_green(_n))

    def _on_green(self, node: int) -> None:
        if (node not in self.caught_up and self.repaired_at is not None
                and self.cluster.replicas[node].green_count
                >= self.target_green):
            self.caught_up[node] = self.sim.now - self.repaired_at

    # -- the episode ------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        cluster, sim, out = self.cluster, self.sim, self.out
        sim.post_at(self.due[0], self._fire, 0)
        sim.post_at(self.t0 + FAULT_AT, self._fault)
        sim.post_at(self.t0 + REPAIR_AT, self._repair)
        error: Optional[str] = None
        invariant_ok, invariant_detail = True, ""
        # Only the simulator runs are timed; the invariant checks
        # between them are the benchmark's own work.
        wall = cpu = 0.0
        try:
            for length in chunked(LOAD_S + DRAIN_S, CHECK_EVERY):
                wall0, cpu0 = time.perf_counter(), time.process_time()
                try:
                    sim.run(until=sim.now + length)
                finally:
                    wall += time.perf_counter() - wall0
                    cpu += time.process_time() - cpu0
                try:
                    cluster.assert_single_primary()
                    cluster.assert_prefix_consistent()
                except AssertionError as violation:
                    invariant_ok = False
                    invariant_detail = f"t={sim.now:.3f}: {violation}"
                    break
        except Exception as raised:  # an engine fault ends the episode
            error = f"{type(raised).__name__}: {raised}"
        out.window_wall_s += wall
        out.window_cpu_s += cpu
        label = f"{self.kind} (t={sim.now - self.t0:.3f})"
        out.check(f"{label}: single primary and prefix consistency",
                  invariant_ok, invariant_detail)
        self._check_durability(label, aborted=error is not None)
        return self._summary(error)

    def _check_durability(self, label: str, aborted: bool) -> None:
        """No acknowledged write missing on a replica that ends the
        episode running.  An aborted episode stopped mid-repair, so
        only the primary's members are expected to hold every write."""
        replicas = self.cluster.replicas
        holders = [r for r in replicas.values()
                   if r.running and not r.engine.exited
                   and (not aborted or r.engine.in_primary)]
        missing = [(r.node, i) for r in holders for i in self.acked
                   if r.database.state.get(f"r{i}") != i]
        self.out.check(f"{label}: no acknowledged write missing",
                       not missing, f"missing={missing[:5]}")
        if not aborted:
            try:
                self.cluster.assert_converged()
                ok, detail = True, ""
            except AssertionError as violation:
                ok, detail = False, str(violation)
            self.out.check(f"{label}: converged after repair", ok, detail)

    def _summary(self, error: Optional[str]) -> Dict[str, Any]:
        out = self.out
        # An episode that never gets there (no commit of a request due
        # after the fault; a returning replica never caught up) counts
        # its whole remaining window, so a lost recovery reads worst.
        fault_at, end = self.t0 + FAULT_AT, self.t0 + LOAD_S + DRAIN_S
        repaired_at = self.t0 + REPAIR_AT
        after = [self.acked[i] for i, due in enumerate(self.due)
                 if due >= fault_at and i in self.acked]
        unavailable_missed = not after
        unavailable = ((end if unavailable_missed else min(after))
                       - fault_at) * 1e3
        catchup_missed = len(self.caught_up) < len(self.returning)
        catchup = ((end - repaired_at) * 1e3 if catchup_missed
                   else max(self.caught_up.values()) * 1e3)
        latencies = [(self.acked[i] - due) * 1e3
                     for i, due in enumerate(self.due) if i in self.acked]
        out.attempted += len(self.due)
        out.acked += len(self.acked)
        out.window_greens += len(self.acked)
        out.latencies_ms.extend(latencies)
        if error is not None:
            out.errors.append(f"{self.kind}: {error}")
        out.ledger.add_sim(self.sim, self.cluster.network)
        out.ledger.add_replicas(self.cluster.replicas.values())
        return {"kind": self.kind, "attempted": len(self.due),
                "acked": len(self.acked), "error": error,
                "unavailable_ms": unavailable, "catchup_ms": catchup,
                "unavailable_missed": unavailable_missed,
                "catchup_missed": catchup_missed,
                "events": self.sim.events_processed,
                "latencies": digest(latencies)}


def run(seed: int, seconds: int) -> Outcome:
    out = Outcome(clock="sim")
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
    episodes: List[Dict[str, Any]] = []
    for index in range(rounds):
        for kind in EPISODES:
            episodes.append(_Episode(kind, seed, index, out).run())
            gc.collect()  # no episode's peak memory includes the last
        out.close_unit()
    out.extras["unavailable_ms"] = (
        max(e["unavailable_ms"] for e in episodes), "ms")
    out.extras["catchup_ms"] = (max(e["catchup_ms"] for e in episodes), "ms")
    out.extras["episodes"] = (float(len(episodes)), "count")
    out.extras["episodes_unavailable_missed"] = (
        float(sum(e["unavailable_missed"] for e in episodes)), "count")
    out.extras["episodes_catchup_missed"] = (
        float(sum(e["catchup_missed"] for e in episodes)), "count")
    out.extras["episodes_aborted"] = (
        float(sum(e["error"] is not None for e in episodes)), "count")
    out.exact = {"episodes": episodes}
    return out
