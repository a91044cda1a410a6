"""Workload ``shards``: a 4-shard x 3-replica fabric on the simulator.

:class:`repro.shard.ShardFabric` with the paper's LAN and disk.  Open-
loop Poisson load at 800 requests per simulated second over 4096
uniformly drawn keys; 10% of the requests are two-key transactions
whose keys live on different shards (drawn with the fabric's own key
placement function), the rest touch one key.  Every request appends a
unique tag to each key it names, so atomicity can be read back from
the databases: a cross-shard transaction's tag is in both keys or in
neither.

A run is several segments, each on a fresh fabric (so set-up is timed
several times); the simulated load length of a segment is sized from
``--seconds`` by a fixed ratio, never from the clock, so simulated
figures of a (seed, seconds) pair repeat exactly.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Tuple

from harness import (Outcome, digest, poisson_offsets, rng_for,
                     run_sliced)

SHARDS, REPLICAS = 4, 3
RATE = 800.0
KEYS = 4096
CROSS_SHARE = 0.10
SEGMENTS = 3
#: Simulated load seconds per measured second, per segment.  One
#: simulated second of this load takes about 0.3 s of wall time on a
#: 2-core x86 box.
LOAD_PER_SECOND = 1.0 / SEGMENTS / 0.3
DRAIN_STEP, DRAIN_LIMIT = 0.25, 10.0
#: Timing slices of a segment's load (see harness.run_sliced).
SLICES = 16


def _inputs(seed: int, segment: int, duration: float,
            router: Any) -> Tuple[List[float], List[Tuple]]:
    rng = rng_for(seed, "shards", segment)
    offsets = poisson_offsets(rng, RATE, duration)
    requests: List[Tuple] = []
    for i in range(len(offsets)):
        tag = f"{segment}.{i}"
        first = f"k{rng.randrange(KEYS)}"
        if rng.random() < CROSS_SHARE:
            home = router.shard_for_key(first)
            second = first
            while router.shard_for_key(second) == home:
                second = f"k{rng.randrange(KEYS)}"
            requests.append((("APPEND", first, tag),
                             ("APPEND", second, tag)))
        else:
            requests.append(("APPEND", first, tag))
    return offsets, requests


def _segment(seed: int, segment: int, duration: float,
             out: Outcome) -> Dict[str, Any]:
    from repro.core import EngineState
    from repro.net import lan_profile
    from repro.shard import ShardFabric
    from repro.storage import DiskProfile

    start = time.perf_counter()
    fabric = ShardFabric(
        num_shards=SHARDS, replicas_per_shard=REPLICAS,
        seed=rng_for(seed, "shards-fabric", segment).randrange(2 ** 31),
        network_profile=lan_profile(),
        disk_profile=DiskProfile(forced_write_latency=0.0095))
    fabric.start_all(settle=2.0)
    out.setup_s.append(time.perf_counter() - start)
    replicas = [r for c in fabric.clusters.values()
                for r in c.replicas.values()]
    out.check(f"segment {segment}: primary in every shard before load",
              all(r.engine.state == EngineState.REG_PRIM
                  for r in replicas))

    sim = fabric.sim
    offsets, requests = _inputs(seed, segment, duration, fabric.router)
    t0 = sim.now
    outcomes: Dict[int, Tuple[str, float]] = {}

    def fire(i: int) -> None:
        def done(_txn: str, outcome: str) -> None:
            outcomes[i] = (outcome, sim.now)
        fabric.submit(requests[i], done)
        if i + 1 < len(offsets):
            sim.post_at(t0 + offsets[i + 1], fire, i + 1)

    sim.post_at(t0 + offsets[0], fire, 0)
    wall, cpu = run_sliced(sim, duration, SLICES)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    deadline = sim.now + DRAIN_LIMIT
    while len(outcomes) < len(offsets) and sim.now < deadline:
        sim.run(until=sim.now + DRAIN_STEP)
    out.window_wall_s += wall + time.perf_counter() - wall0
    out.window_cpu_s += cpu + time.process_time() - cpu0

    committed = [i for i, (o, _) in outcomes.items() if o == "commit"]
    out.attempted += len(offsets)
    out.acked += len(committed)
    out.window_greens += len(committed)
    out.latencies_ms.extend((outcomes[i][1] - t0 - offsets[i]) * 1e3
                            for i in committed)
    _check(fabric, segment, requests, outcomes, out)

    coordinator = fabric.coordinator
    cross = sum(1 for r in requests if not isinstance(r[0], str))
    ledger = out.ledger
    ledger.add("shard_txns", len(requests))
    ledger.add("shard_cross", cross)
    ledger.add("shard_commits", coordinator.commits)
    ledger.add("shard_aborts", coordinator.aborts)
    ledger.add_sim(sim, fabric.network)
    ledger.add_replicas(replicas)
    return {"requests": len(offsets), "committed": len(committed),
            "cross": cross, "events": sim.events_processed,
            "commits": coordinator.commits, "aborts": coordinator.aborts,
            "latencies": digest(out.latencies_ms)}


def _check(fabric: Any, segment: int, requests: List[Tuple],
           outcomes: Dict[int, Tuple[str, float]], out: Outcome) -> None:
    label = f"segment {segment}"
    try:
        fabric.assert_converged()
        ok, detail = True, ""
    except AssertionError as error:
        ok, detail = False, str(error)
    out.check(f"{label}: every shard converged", ok, detail)
    staged = fabric.staged()
    out.check(f"{label}: nothing staged", not staged,
              f"{len(staged)} staged")
    database = fabric.sharded_database()
    wrong: List[Any] = []
    for i, request in enumerate(requests):
        statements = [request] if isinstance(request[0], str) else request
        present = {statement[2] in (database.get(statement[1]) or ())
                   for statement in statements}
        outcome = outcomes.get(i, ("pending", 0.0))[0]
        expected = {outcome == "commit"} if outcome != "pending" \
            else present
        if len(present) != 1 or present != expected:
            wrong.append((i, outcome, sorted(present)))
    out.check(f"{label}: every transaction applied in all its shards "
              "or in none, as acknowledged", not wrong,
              f"{len(wrong)} wrong, e.g. {wrong[:3]}")


def run(seed: int, seconds: int) -> Outcome:
    out = Outcome(clock="sim")
    duration = max(1.0, seconds * LOAD_PER_SECOND)
    segments = []
    for segment in range(SEGMENTS):
        segments.append(_segment(seed, segment, duration, out))
        out.close_unit()
        gc.collect()  # no segment's peak memory includes the last
    out.exact = {"segments": segments}
    return out
