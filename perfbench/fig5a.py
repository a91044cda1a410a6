"""Workload ``fig5a``: the paper's Figure 5(a) engine sweep.

Exactly the ``fig5a_throughput`` scenario of
``benchmarks/bench_wallclock.py``: 14 replicas on the paper's LAN and
disk, closed-loop clients 1/2/4/7/10/14, each point a fresh system
settled for 2 sim-s, warmed up for 1 sim-s and measured for 3 sim-s.
The point loop is :func:`repro.bench.run_closed_loop` unrolled so the
measured window can be timed on the wall clock; the simulated event
sequence is the same, which the seed-0 event pin checks.

After a point's window the clients stop and the system drains until
every outstanding request is acknowledged (outside the pinned event
count), so no request is left unaccounted.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List

from harness import Outcome, digest, run_sliced

CLIENT_COUNTS = [1, 2, 4, 7, 10, 14]
N_REPLICAS = 14
SETTLE, WARMUP, DURATION = 2.0, 1.0, 3.0
#: Timing slices of a measured window (see harness.run_sliced).
SLICES = 12
#: Timed set-ups per sweep point; the point loads the last one.  Every
#: set-up builds the same system, so 12 samples a sweep, spread over
#: it, give ``setup_s`` a median that one a point would not.
SETUPS_PER_POINT = 2
#: Measured wall seconds one sweep is counted as when sizing a run
#: from ``--seconds``: its timed windows take 8-10 s on a 2-core x86
#: box (12-17 s with set-ups and drains).  That box's speed drifts by
#: up to 40% over tens of seconds, so two sweeps read steadier than one.
SWEEP_SECONDS = 10.0
#: Events of the whole sweep at seed 0 (the repository's fig5a pin).
PINNED_EVENTS_SEED0 = 3_362_977
#: Figure 5(a) y-values at seed 0: actions per simulated second.
PINNED_THROUGHPUT_SEED0 = {1: 80.0, 2: 160.0, 4: 318.0,
                           7: 555.6666666666666, 10: 791.6666666666666,
                           14: 1105.6666666666667}
DRAIN_STEP, DRAIN_LIMIT = 0.05, 5.0


def _factory(seed: int):
    from repro.baselines import EngineSystem
    from repro.core import EngineConfig
    from repro.net import lan_profile
    from repro.storage import DiskProfile

    def build() -> Any:
        # The paper disk: one forced write + safe delivery lands near
        # the paper's ~11.4 ms single-client latency.
        return EngineSystem(
            N_REPLICAS, seed=seed, network_profile=lan_profile(),
            disk_profile=DiskProfile(forced_write_latency=0.0095),
            engine_config=EngineConfig(forced_client_writes=True))
    return build


def _point(build, clients: int, out: Outcome) -> Dict[str, Any]:
    from repro.bench import spread_clients, summarize
    from repro.core import EngineState

    for _ in range(SETUPS_PER_POINT):
        system = None
        # Collect the last system first: no set-up pays for it and no
        # point's peak memory includes it.
        gc.collect()
        start = time.perf_counter()
        system = build()
        system.start(settle=SETTLE)
        out.setup_s.append(time.perf_counter() - start)
    cluster = system.cluster
    out.check(f"primary installed before load ({clients} clients)",
              all(r.engine.state == EngineState.REG_PRIM
                  for r in cluster.replicas.values()))
    sim = system.sim

    loop = spread_clients(system, clients)
    for client in loop:
        client.start()
    sim.run(until=sim.now + WARMUP)
    for client in loop:
        client.latencies.clear()
    before = system.counters()

    wall, cpu = run_sliced(sim, DURATION, SLICES)
    out.window_wall_s += wall
    out.window_cpu_s += cpu

    after = system.counters()
    latencies: List[float] = []
    for client in loop:
        client.stop()
        latencies.extend(client.latencies)
    counters = {key: after.get(key, 0.0) - value
                for key, value in before.items()}
    result = summarize(system.name, clients, DURATION, latencies, counters)
    events = sim.events_processed
    out.window_greens += len(latencies)

    # Drain: stopped clients still have one request in flight each.
    deadline = sim.now + DRAIN_LIMIT
    while (sum(c.completed for c in loop) < sum(c.submitted for c in loop)
           and sim.now < deadline):
        sim.run(until=sim.now + DRAIN_STEP)
    submitted = sum(c.submitted for c in loop)
    completed = sum(c.completed for c in loop)
    out.attempted += submitted
    out.acked += completed
    try:
        cluster.assert_converged()
        applied = {r.database.applied_count
                   for r in cluster.replicas.values()}
        converged = applied == {submitted}
        detail = f"applied={sorted(applied)} submitted={submitted}"
    except AssertionError as error:
        converged, detail = False, str(error)
    out.check(f"converged, every request applied once ({clients} clients)",
              converged, detail)
    out.ledger.add_sim(sim, cluster.network)
    out.ledger.add_replicas(cluster.replicas.values())
    return {"events": events, "throughput": result.throughput,
            "latencies": latencies}


def _sweep(build, out: Outcome) -> Dict[str, Any]:
    """One full sweep, one unit of measured work; returns its exact
    simulated figures."""
    events = 0
    throughput: Dict[int, float] = {}
    for clients in CLIENT_COUNTS:
        point = _point(build, clients, out)
        events += point["events"]
        throughput[clients] = point["throughput"]
        if clients == CLIENT_COUNTS[-1]:
            out.latencies_ms = [x * 1e3 for x in point["latencies"]]
    out.close_unit()
    out.extras["sim_greens_per_sim_s"] = (throughput[CLIENT_COUNTS[-1]],
                                          "1/s")
    return {"events": events,
            "throughput": {str(k): v for k, v in throughput.items()},
            "latencies_14": digest(out.latencies_ms)}


def run(seed: int, seconds: int) -> Outcome:
    """Whole sweeps of the paper's size, as many as fit ``seconds`` at
    ``SWEEP_SECONDS`` each (at least one).  Every sweep after the first
    must repeat it exactly; wall rates are medians over sweeps."""
    out = Outcome(clock="sim")
    build = _factory(seed)
    for index in range(max(1, round(seconds / SWEEP_SECONDS))):
        exact = _sweep(build, out)
        if index == 0:
            out.exact = exact
        else:
            out.check(f"sweep {index + 1} repeats sweep 1 exactly",
                      exact == out.exact)
    if seed == 0:
        events, throughput = out.exact["events"], out.exact["throughput"]
        out.check("seed-0 event pin", events == PINNED_EVENTS_SEED0,
                  f"events={events} pinned={PINNED_EVENTS_SEED0}")
        out.check("seed-0 throughput table",
                  throughput == {str(k): v for k, v
                                 in PINNED_THROUGHPUT_SEED0.items()},
                  f"throughput={throughput}")
    return out
