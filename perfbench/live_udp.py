"""Workload ``live_udp``: three replicas over real loopback UDP.

One process, one asyncio loop, no extra threads: ``udp_cluster``
builds three replicas on OS-assigned loopback ports with the
:class:`repro.runtime.LiveCluster` defaults (observability on, wire
batching off, binary codec).  Set-up is timed three times (build until
every replica is in the primary component); the first two clusters
are shut down, the third takes the load.

Load is open-loop Poisson at 200 actions/s, each request to a seeded
random replica, for ``--seconds`` wall seconds.  200/s is about 40% of
the ~520/s closed-loop capacity of this configuration on a 2-core x86
box, below the knee where p99 stops being repeatable.  Each request is
timed from its due time (so a stalled loop charges every request it
delays) to its client's green callback; how late the generator fired
is reported separately.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import time
from typing import Any, Dict, List

from harness import Outcome, poisson_offsets, rng_for

SERVERS = [1, 2, 3]
RATE = 200.0
KEYS = 1024
SETUPS = 3
PRIMARY_TIMEOUT = 30.0
DRAIN_LIMIT = 15.0
LEAD_IN = 0.05


async def _set_up(out: Outcome) -> Any:
    from repro.core import EngineState
    from repro.runtime import udp_cluster

    start = time.perf_counter()
    cluster = udp_cluster(SERVERS)
    cluster.start_all()
    try:
        await cluster.wait_all_engine_state(EngineState.REG_PRIM,
                                            timeout=PRIMARY_TIMEOUT)
    except BaseException:
        cluster.shutdown()
        raise
    out.setup_s.append(time.perf_counter() - start)
    return cluster


async def _load(cluster: Any, seed: int, seconds: int,
                out: Outcome) -> Dict[int, Any]:
    rng = rng_for(seed, "live_udp")
    offsets = poisson_offsets(rng, RATE, float(seconds))
    targets = [rng.choice(SERVERS) for _ in offsets]
    keys = [f"k{rng.randrange(KEYS)}" for _ in offsets]
    loop = asyncio.get_running_loop()
    start = loop.time() + LEAD_IN
    acked: Dict[int, float] = {}
    action_ids: Dict[int, Any] = {}
    everything_acked = asyncio.Event()

    def fire(i: int) -> None:
        due = start + offsets[i]
        out.generator_lag_ms.append((loop.time() - due) * 1e3)

        def done(_action: Any, _pos: int, _result: Any) -> None:
            acked[i] = loop.time()
            if len(acked) == len(offsets):
                everything_acked.set()

        action_ids[i] = cluster.submit(targets[i], ("SET", keys[i], i),
                                       on_complete=done)
        if i + 1 < len(offsets):
            loop.call_at(start + offsets[i + 1], fire, i + 1)

    wall0, cpu0 = time.perf_counter(), time.process_time()
    loop.call_at(start + offsets[0], fire, 0)
    try:
        await asyncio.wait_for(everything_acked.wait(),
                               timeout=seconds + DRAIN_LIMIT)
    except asyncio.TimeoutError:
        pass
    out.window_cpu_s += time.process_time() - cpu0
    out.window_wall_s += time.perf_counter() - wall0
    out.attempted += len(offsets)
    out.acked += len(acked)
    out.window_greens += len(acked)
    out.close_unit()
    out.latencies_ms = [(acked[i] - (start + offsets[i])) * 1e3
                        for i in sorted(acked)]
    return {i: action_ids[i] for i in acked}


async def _check(cluster: Any, acked_ids: Dict[int, Any],
                 out: Outcome) -> None:
    from repro.runtime import LiveClusterTimeout

    def settled() -> bool:
        counts = set(cluster.green_counts().values())
        return len(counts) == 1 and counts.pop() >= len(acked_ids)

    try:
        await cluster.wait_until(settled, timeout=DRAIN_LIMIT,
                                 what="replicas applying every green")
        cluster.assert_converged()
        ok, detail = True, ""
    except (LiveClusterTimeout, AssertionError) as error:
        ok, detail = False, str(error)
    out.check("assert_converged", ok, detail)
    order = cluster.green_order(SERVERS[0])
    seen = collections.Counter(order)
    wrong: List[Any] = [a for a in acked_ids.values() if seen[a] != 1]
    out.check("every acknowledged action exactly once in the green order",
              not wrong, f"{len(wrong)} wrong, e.g. {wrong[:3]}")


async def _main(seed: int, seconds: int, out: Outcome) -> None:
    for _ in range(SETUPS - 1):
        (await _set_up(out)).shutdown()
        gc.collect()
    cluster = await _set_up(out)
    try:
        acked_ids = await _load(cluster, seed, seconds, out)
        await _check(cluster, acked_ids, out)
        out.ledger.add_live(cluster.runtime, cluster.transport)
        out.ledger.add_replicas(cluster.replicas.values())
    finally:
        cluster.shutdown()


def run(seed: int, seconds: int) -> Outcome:
    out = Outcome(clock="wall")
    asyncio.run(_main(seed, seconds, out))
    return out
