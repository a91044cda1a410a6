"""The shard fabric: N replication groups behind one key-range router.

The composition root of the shard layer.  :class:`Fabric` is the whole
deployment whichever runtime drives it: N :class:`~repro.core.cluster.Cluster`
instances — each an unchanged Figure-4 replication group with its own
GCS group (namespaced by the shard id, see
:class:`~repro.gcs.types.HeartbeatMsg`), its own WALs, and its own
quorum — on one shared runtime and wire, stitched together by the
:class:`~repro.shard.router.KeyRangeRouter` and a
:class:`~repro.shard.coordinator.TxnCoordinator` for cross-shard
transactions.  Because the coordinator is runtime-agnostic, not one
line of the commit path differs between the runtimes.  Two
constructors pick the runtime:

* :class:`ShardFabric` — one :class:`~repro.sim.SimRuntime`, one
  :class:`~repro.net.Topology` and :class:`~repro.net.Network` spanning
  every node, and N :class:`~repro.core.ReplicaCluster` groups;
* :class:`LiveShardFabric` — one
  :class:`~repro.runtime.AsyncioRuntime` plus one live transport
  (in-process :class:`~repro.runtime.MemoryTransport` by default, real
  UDP loopback sockets with ``udp=True``) and N
  :class:`~repro.runtime.LiveCluster` groups, driven with ``await``
  (the waits delegate to the member clusters, so this module needs no
  event-loop imports of its own).

Node ids are globalised as ``shard * SHARD_STRIDE + local`` so shard 0
keeps the plain ids ``1..n``: a one-shard fabric is *bit-identical* to
a standalone ``ReplicaCluster`` (same event count, same digests), which
is what keeps the Figure 5(a) determinism pin honest.

Fault injection composes: :meth:`Fabric.crash` of the coordinator's
home node halts the coordinator with it (the paper's node model —
co-located components fail together), and
:meth:`Fabric.recover_transactions` is the sweep a replacement
coordinator runs to terminate whatever the crash left staged.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Generic, List, Optional, Sequence,
                    TypeVar)

from ..core.cluster import Cluster, ReplicaCluster, sim_substrate
from ..core.engine import EngineConfig
from ..core.replica import Replica
from ..core.state_machine import EngineState
from ..db import Database, RangeMap, ShardedDatabase
from ..gcs import GcsSettings
from ..net import NetworkProfile, complete_partition
from ..obs import Observability
from ..runtime import (AsyncioRuntime, AsyncioTransport, LiveCluster,
                       MemoryTransport, loopback_addresses)
from ..sim import Tracer
from ..storage import DiskProfile
from .coordinator import DoneFn, TxnCoordinator
from .router import KeyRangeRouter, global_id, shard_of, shard_server_ids
from .txn import install_txn_procedures, staged_transactions

#: The member cluster type: what one replication group is on a runtime.
ClusterT = TypeVar("ClusterT", bound=Cluster)


class Fabric(Generic[ClusterT]):
    """N replication groups behind one key-range router.

    Subclasses build the runtime, the shared wire and the member
    clusters, then hand them to :meth:`_compose`; ``links`` is what a
    partition cuts.
    """

    def __init__(self, num_shards: int, replicas_per_shard: int,
                 range_map: Optional[RangeMap],
                 observability: Observability) -> None:
        self.router = KeyRangeRouter(num_shards, range_map)
        self.num_shards = num_shards
        self.replicas_per_shard = replicas_per_shard
        self.obs = observability
        self.all_ids = [node for shard in range(num_shards)
                        for node in shard_server_ids(shard,
                                                     replicas_per_shard)]

    def _compose(self, runtime: Any, links: Any, tracer: Optional[Tracer],
                 clusters: Dict[int, ClusterT],
                 coordinator_home: Optional[int],
                 prepare_timeout: float) -> None:
        self.runtime = runtime
        self._links = links
        self.tracer = tracer
        self.clusters = clusters
        for cluster in clusters.values():
            for replica in cluster.replicas.values():
                install_txn_procedures(replica.register_procedure)
        self._coordinator_generation = 0
        self.coordinator = self._make_coordinator(
            coordinator_home if coordinator_home is not None
            else global_id(0, 1), prepare_timeout)

    def _make_coordinator(self, home: int,
                          prepare_timeout: float) -> TxnCoordinator:
        self._coordinator_generation += 1
        return TxnCoordinator(
            self.runtime, self.router, self._submit_to_shard,
            name=f"txn{self._coordinator_generation}", home=home,
            prepare_timeout=prepare_timeout, tracer=self.tracer,
            obs=self.obs)

    # ==================================================================
    # per-shard plumbing
    # ==================================================================
    def cluster_of(self, node: int) -> ClusterT:
        return self.clusters[shard_of(node)]

    def _lowest_running(self, shard: int) -> Optional[Replica]:
        """The shard's reference replica: its lowest running id."""
        replicas = self.clusters[shard].replicas
        for node in sorted(replicas):
            replica = replicas[node]
            if replica.running and not replica.engine.exited:
                return replica
        return None

    def _reference(self, shard: int) -> Replica:
        replica = self._lowest_running(shard)
        if replica is None:
            raise RuntimeError(f"no running replica in shard {shard}")
        return replica

    def _submit_replica(self, shard: int) -> Replica:
        """Deterministic submission target in ``shard``: the
        coordinator's home node when it lives there, else the lowest
        running replica id."""
        home = self.coordinator.home
        if home is not None and shard_of(home) == shard:
            replica = self.clusters[shard].replicas.get(home)
            if replica is not None and replica.running:
                return replica
        return self._reference(shard)

    def _submit_to_shard(self, shard: int, update: Any,
                         on_complete: Optional[Callable[..., None]],
                         meta: Optional[dict] = None) -> Any:
        return self._submit_replica(shard).submit(
            update=update, on_complete=on_complete, meta=meta)

    # ==================================================================
    # lifecycle & fault injection
    # ==================================================================
    def start_all(self) -> None:
        """Start every replica of every shard."""
        for shard in sorted(self.clusters):
            for replica in self.clusters[shard].replicas.values():
                replica.start()

    def partition(self, *groups: Sequence[int]) -> None:
        """Partition the shared wire with the one rule of every
        deployment (:func:`~repro.net.complete_partition`): the nodes
        no group names form one remaining component, so a caller can
        cut one shard's minority away without enumerating the whole
        fabric."""
        self._links.partition(complete_partition(self._links.nodes, groups))

    def heal(self) -> None:
        self._links.heal()

    def crash(self, node: int) -> None:
        """Crash a node; the coordinator dies with its home node."""
        self.cluster_of(node).crash(node)
        if self.coordinator.alive and self.coordinator.home == node:
            self.coordinator.halt()

    def recover(self, node: int) -> None:
        self.cluster_of(node).recover(node)

    # ==================================================================
    # the client surface
    # ==================================================================
    def submit(self, update: Any,
               on_done: Optional[DoneFn] = None) -> str:
        """Route an update: shard-local updates commit through their
        shard's total order, cross-shard ones through the coordinator's
        prepare/decide/finish protocol.  Returns the transaction id."""
        return self.coordinator.submit_transaction(update, on_done)

    def submit_local(self, shard: int, update: Any,
                     on_complete: Optional[Callable[..., None]] = None
                     ) -> Any:
        """Submit directly to one shard, bypassing the router (for
        workloads that pre-partition their keys)."""
        return self._submit_to_shard(shard, update, on_complete)

    def query(self, query: Any) -> Any:
        """Strict-consistency read routed by key."""
        key = query[1]
        shard = self.router.shard_for_key(key)
        return self._submit_replica(shard).query_consistent(query)

    # ==================================================================
    # coordinator recovery
    # ==================================================================
    def staged(self) -> Dict[str, Dict[str, Any]]:
        """Every staged (prepared, unfinished) transaction across all
        shards, read from one running replica per shard."""
        merged: Dict[str, Dict[str, Any]] = {}
        for shard in sorted(self.clusters):
            replica = self._lowest_running(shard)
            if replica is not None:
                merged.update(staged_transactions(replica.database.state))
        return merged

    def new_coordinator(self, home: Optional[int] = None,
                        prepare_timeout: float = 5.0) -> TxnCoordinator:
        """Replace a crashed coordinator (fresh txn-id namespace)."""
        self.coordinator = self._make_coordinator(
            home if home is not None else global_id(0, 1),
            prepare_timeout)
        return self.coordinator

    def recover_transactions(self,
                             on_done: Optional[DoneFn] = None
                             ) -> List[str]:
        """The recovery sweep: terminate every staged transaction left
        behind by a crashed coordinator (abort races the old
        coordinator's decision; the decider's total order wins)."""
        return self.coordinator.recover_staged(self.staged(), on_done)

    # ==================================================================
    # observables (per-shard convergence, digests, green orders)
    # ==================================================================
    def sharded_database(self) -> ShardedDatabase:
        """Router-aware read facade over one live database per shard."""
        databases: Dict[int, Database] = {
            shard: self._reference(shard).database
            for shard in sorted(self.clusters)}
        return ShardedDatabase(self.router.range_map, databases)

    def digests(self) -> Dict[int, str]:
        """Per-shard database digests from a live replica each."""
        return self.sharded_database().digests()

    def green_order(self, shard: int) -> List[Any]:
        """The shard's applied green order (from a live replica)."""
        return list(self._reference(shard).database.applied_log)

    def green_count(self, shard: int) -> int:
        replica = self._lowest_running(shard)
        return replica.database.applied_count if replica is not None else 0

    def assert_converged(self) -> None:
        """Every shard's replication group converged internally."""
        for shard in sorted(self.clusters):
            self.clusters[shard].assert_converged()

    def states(self) -> Dict[int, Dict[int, str]]:
        return {shard: cluster.states()
                for shard, cluster in sorted(self.clusters.items())}


class ShardFabric(Fabric[ReplicaCluster]):
    """N simulated replication groups on one deterministic kernel."""

    def __init__(self, num_shards: int = 2, replicas_per_shard: int = 3,
                 seed: int = 0,
                 network_profile: Optional[NetworkProfile] = None,
                 disk_profile: Optional[DiskProfile] = None,
                 gcs_settings: Optional[GcsSettings] = None,
                 engine_config: Optional[EngineConfig] = None,
                 trace: bool = False,
                 observability: Optional[Observability] = None,
                 range_map: Optional[RangeMap] = None,
                 coordinator_home: Optional[int] = None,
                 prepare_timeout: float = 5.0) -> None:
        super().__init__(num_shards, replicas_per_shard, range_map,
                         observability if observability is not None
                         else Observability.disabled())
        # One kernel, one clock, one topology, one wire — shared by
        # every group, exactly like N processes on one LAN.
        self.sim, self.streams, tracer, self.topology, self.network = \
            sim_substrate(self.all_ids, seed, network_profile, trace)
        clusters: Dict[int, ReplicaCluster] = {
            shard: ReplicaCluster(
                server_ids=shard_server_ids(shard, replicas_per_shard),
                disk_profile=disk_profile,
                gcs_settings=gcs_settings,
                engine_config=engine_config,
                observability=self.obs.for_shard(shard),
                shard=shard,
                runtime=self.sim, network=self.network,
                topology=self.topology, streams=self.streams,
                tracer=tracer)
            for shard in range(num_shards)}
        self._compose(self.sim, self.topology, tracer, clusters,
                      coordinator_home, prepare_timeout)

    def start_all(self, settle: float = 2.0) -> None:
        """Start every replica of every shard; run until views settle."""
        super().start_all()
        if settle > 0:
            self.run_for(settle)

    def run_for(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def run_until_idle(self) -> None:
        self.sim.run()


class LiveShardFabric(Fabric[LiveCluster]):
    """N live replication groups on one asyncio event loop."""

    def __init__(self, num_shards: int = 2, replicas_per_shard: int = 3,
                 *, udp: bool = False,
                 gcs_settings: Optional[GcsSettings] = None,
                 engine_config: Optional[EngineConfig] = None,
                 disk_profile: Optional[DiskProfile] = None,
                 trace: bool = False,
                 observability: Optional[Observability] = None,
                 range_map: Optional[RangeMap] = None,
                 coordinator_home: Optional[int] = None,
                 prepare_timeout: float = 5.0) -> None:
        super().__init__(num_shards, replicas_per_shard, range_map,
                         observability if observability is not None
                         else Observability())
        runtime = AsyncioRuntime()
        if udp:
            transport: Any = AsyncioTransport(
                runtime, loopback_addresses(self.all_ids))
            for node in self.all_ids:
                transport.open(node)
        else:
            transport = MemoryTransport(runtime)
        self.transport = transport
        # Each group keeps its own (bounded) tracer; the coordinator
        # records into its flight ring and spans only.
        clusters: Dict[int, LiveCluster] = {
            shard: LiveCluster(
                shard_server_ids(shard, replicas_per_shard),
                runtime=runtime, transport=transport,
                gcs_settings=gcs_settings,
                engine_config=engine_config,
                disk_profile=disk_profile, trace=trace,
                observability=self.obs.for_shard(shard), shard=shard)
            for shard in range(num_shards)}
        self._compose(runtime, transport, None, clusters,
                      coordinator_home, prepare_timeout)

    def shutdown(self) -> None:
        """Tear every cluster down (closing the shared transport and
        stopping and closing the shared runtime are idempotent)."""
        for cluster in self.clusters.values():
            cluster.shutdown()

    # ==================================================================
    # waiting (delegates to the member clusters)
    # ==================================================================
    async def wait_all_primary(self, timeout: float) -> None:
        """Every shard's replicas in REG_PRIM."""
        for shard in sorted(self.clusters):
            await self.clusters[shard].wait_all_engine_state(
                EngineState.REG_PRIM, timeout)

    async def wait_green(self, shard: int, count: int,
                         timeout: float) -> None:
        await self.clusters[shard].wait_green(count, timeout)

    async def wait_until(self, predicate: Callable[[], bool],
                         timeout: float, what: str = "condition") -> None:
        await self.clusters[0].wait_until(predicate, timeout, what)

    async def run_for(self, seconds: float) -> None:
        await self.clusters[0].run_for(seconds)

    async def wait_no_inflight(self, timeout: float) -> None:
        await self.wait_until(lambda: self.coordinator.in_flight == 0,
                              timeout, "coordinator drain")
