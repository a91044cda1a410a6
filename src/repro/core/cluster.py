"""Cluster harness: build and drive a whole replicated system.

:class:`Cluster` is one replication group's deployment as every caller
sees it, whichever runtime drives it: replica construction, clients,
fault injection, and the consistency assertions that encode the paper's
correctness theorems.  :class:`ReplicaCluster` runs it on the
deterministic simulator (used by the tests, the examples, and the
benchmark harness); :class:`~repro.runtime.LiveCluster` runs the same
surface on a live asyncio loop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..db import ActionId
from ..gcs import GcsSettings
from ..net import Network, NetworkProfile, Topology, complete_partition
from ..obs import Observability
from ..sim import RandomStreams, SimRuntime, Tracer
from ..storage import DiskProfile
from .client import Client
from .engine import EngineConfig
from .reconfig import JoinerProtocol, TransferHeader
from .replica import Replica
from .state_machine import EngineState


class Cluster:
    """One replication group: its hosted replicas and observables.

    ``transport`` carries the replicas' datagrams; ``links`` is what a
    partition cuts (the simulated :class:`~repro.net.Topology`, or the
    live transport's software partition), and its ``nodes`` are every
    node on that wire — the whole fabric when groups share it.
    Subclasses add the runtime's way of letting time pass.
    """

    def __init__(self, runtime: Any, transport: Any, links: Any,
                 server_ids: Sequence[int], hosted: Sequence[int], *,
                 shard: int, tracer: Tracer, obs: Observability,
                 gcs_settings: GcsSettings,
                 disk_profile: Optional[DiskProfile],
                 engine_config: Optional[EngineConfig]) -> None:
        self.server_ids = list(server_ids)
        # Which replication group of a fabric this cluster is; 0 is the
        # standalone single-group system.  The shard id namespaces the
        # GCS group on a shared transport.
        self.shard = shard
        self.runtime = runtime
        self.transport = transport
        self._links = links
        self.tracer = tracer
        self.obs = obs
        # With tracing on, mirror tracer records (state transitions,
        # installs, disk syncs, crashes) into the flight rings.
        if self.obs.flight_hub is not None:
            self.obs.flight_hub.attach(self.tracer)
        self.directory: Set[int] = set(self.server_ids)
        self.gcs_settings = gcs_settings
        self.disk_profile = disk_profile
        self.engine_config_factory = (
            (lambda: engine_config) if engine_config is not None
            else EngineConfig)
        self.replicas: Dict[int, Replica] = {}
        self._client_counter: Dict[int, int] = {}
        for node in hosted:
            self.replicas[node] = self._build_replica(node,
                                                      self.server_ids)

    def _build_replica(self, node: int,
                       server_ids: Sequence[int]) -> Replica:
        config = self.engine_config_factory()
        return Replica(self.runtime, node, self.transport, self.directory,
                       list(server_ids), disk_profile=self.disk_profile,
                       gcs_settings=self.gcs_settings,
                       engine_config=config, tracer=self.tracer,
                       obs=self.obs, shard=self.shard)

    # ==================================================================
    # lifecycle & fault injection
    # ==================================================================
    def start_all(self) -> None:
        """Start every hosted replica."""
        for replica in self.replicas.values():
            replica.start()

    def partition(self, *groups: Sequence[int]) -> None:
        """Split the network into ``groups``; nodes named in no group
        stay together in one more (see
        :func:`~repro.net.complete_partition`)."""
        self._links.partition(complete_partition(self._links.nodes, groups))

    def heal(self) -> None:
        self._links.heal()

    def crash(self, node: int) -> None:
        self.replicas[node].crash()

    def recover(self, node: int) -> None:
        self.replicas[node].recover()

    # ==================================================================
    # clients
    # ==================================================================
    def client(self, node: int, name: Optional[str] = None) -> Client:
        """Attach a client to a replica.

        Default names are deterministic per cluster (not drawn from a
        process-global counter), so identical seeds replay identical
        histories even when client ids end up in the database.
        """
        if name is None:
            self._client_counter[node] = \
                self._client_counter.get(node, 0) + 1
            name = f"client-{node}.{self._client_counter[node]}"
        return Client(self.replicas[node], name=name)

    def submit(self, node: int, update: Tuple,
               on_complete: Optional[Callable] = None) -> ActionId:
        return self.replicas[node].submit(update, on_complete=on_complete)

    # ==================================================================
    # consistency checks (the paper's theorems, executable)
    # ==================================================================
    def running_replicas(self) -> List[Replica]:
        return [r for r in self.replicas.values()
                if r.running and not r.engine.exited]

    def applied_logs(self) -> Dict[int, List[ActionId]]:
        return {r.node: list(r.database.applied_log)
                for r in self.running_replicas()}

    def green_order(self, node: int) -> List[ActionId]:
        """Every green action id applied at ``node``, in order (the
        database's applied log is never truncated by checkpoints)."""
        return list(self.replicas[node].database.applied_log)

    def green_counts(self) -> Dict[int, int]:
        """Applied green actions per running replica."""
        return {r.node: r.database.applied_count
                for r in self.running_replicas()}

    def assert_prefix_consistent(self) -> None:
        """Global Total Order: any two applied logs agree on their
        common prefix (Theorem 1)."""
        logs = list(self.applied_logs().items())
        for i in range(len(logs)):
            for j in range(i + 1, len(logs)):
                (node_a, log_a), (node_b, log_b) = logs[i], logs[j]
                common = min(len(log_a), len(log_b))
                if log_a[:common] != log_b[:common]:
                    diverge = next(k for k in range(common)
                                   if log_a[k] != log_b[k])
                    raise AssertionError(
                        f"total order violated between {node_a} and "
                        f"{node_b} at position {diverge}: "
                        f"{log_a[diverge]} vs {log_b[diverge]}")

    def assert_converged(self) -> None:
        """After a fault-free stable period, all running replicas hold
        identical green sequences and database states (Liveness)."""
        replicas = self.running_replicas()
        if not replicas:
            return
        self.assert_prefix_consistent()
        counts = self.green_counts()
        if len(set(counts.values())) != 1:
            raise AssertionError(f"replicas not converged: {counts}")
        digests = {r.node: r.database.digest() for r in replicas}
        if len(set(digests.values())) != 1:
            raise AssertionError(f"database digests differ: {digests}")

    def primary_members(self) -> List[int]:
        """Nodes currently in a primary component."""
        return [n for n, r in self.replicas.items()
                if r.running and r.engine.in_primary]

    def assert_single_primary(self) -> None:
        """At most one component believes it is primary."""
        prims = set()
        for node, replica in self.replicas.items():
            if replica.running and replica.engine.state \
                    == EngineState.REG_PRIM:
                conf = replica.engine.conf
                if conf is not None:
                    prims.add(conf.view_id)
        if len(prims) > 1:
            raise AssertionError(f"multiple primary components: {prims}")

    def states(self) -> Dict[int, str]:
        return {n: (str(r.engine.state) if r.running else
                    ("exited" if r.engine.exited else "down"))
                for n, r in self.replicas.items()}


def sim_substrate(node_ids: Sequence[int], seed: int,
                  network_profile: Optional[NetworkProfile], trace: bool
                  ) -> Tuple[SimRuntime, RandomStreams, Tracer, Topology,
                             Network]:
    """One deterministic kernel, seeded streams, tracer, topology and
    network spanning ``node_ids`` — what one or many simulated groups
    run on."""
    sim = SimRuntime()
    streams = RandomStreams(seed)
    tracer = Tracer(enabled=trace)
    topology = Topology(node_ids)
    network = Network(sim, topology, network_profile,
                      rng=streams.stream("network"), tracer=tracer)
    return sim, streams, tracer, topology, network


class ReplicaCluster(Cluster):
    """A simulated cluster of database replicas."""

    def __init__(self, n: int = 3,
                 server_ids: Optional[Sequence[int]] = None,
                 seed: int = 0,
                 network_profile: Optional[NetworkProfile] = None,
                 disk_profile: Optional[DiskProfile] = None,
                 gcs_settings: Optional[GcsSettings] = None,
                 engine_config: Optional[EngineConfig] = None,
                 trace: bool = False,
                 observability: Optional[Observability] = None,
                 *,
                 shard: int = 0,
                 runtime: Optional[SimRuntime] = None,
                 network: Optional[Network] = None,
                 topology: Optional[Topology] = None,
                 streams: Optional[RandomStreams] = None,
                 tracer: Optional[Tracer] = None) -> None:
        ids = (list(server_ids) if server_ids is not None
               else list(range(1, n + 1)))
        # The deterministic Runtime, also reachable as `runtime`.  A
        # shard fabric injects one shared kernel/topology/network so N
        # groups run on a single deterministic event loop; standalone
        # clusters build their own (the historical, bit-identical path).
        if runtime is None:
            runtime, streams, tracer, topology, network = sim_substrate(
                ids, seed, network_profile, trace)
        elif network is None or topology is None or streams is None \
                or tracer is None:
            raise ValueError("injected runtime requires network, topology, "
                             "streams, and tracer as well")
        self.sim, self.streams = runtime, streams
        self.topology, self.network = topology, network
        # Disabled by default: simulated clusters keep plain counters
        # but pay nothing for spans/histograms unless asked.
        super().__init__(
            self.sim, self.network, self.topology, ids, ids, shard=shard,
            tracer=tracer,
            obs=(observability if observability is not None
                 else Observability.disabled()),
            gcs_settings=gcs_settings or GcsSettings(),
            disk_profile=disk_profile, engine_config=engine_config)
        if self.gcs_settings.use_topology_hints:
            self.topology.subscribe(self._topology_hint)

    # ==================================================================
    # virtual time & fault injection
    # ==================================================================
    def start_all(self, settle: float = 2.0) -> None:
        """Start every replica and run until the first view settles."""
        super().start_all()
        if settle > 0:
            self.run_for(settle)

    def run_for(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def run_until_idle(self) -> None:
        self.sim.run()

    def crash(self, node: int) -> None:
        self.topology.crash(node)
        super().crash(node)

    def recover(self, node: int) -> None:
        self.topology.recover(node)
        super().recover(node)

    def _topology_hint(self) -> None:
        """Fast-path failure detection (heartbeats remain the backstop)."""
        joined = {n for n, r in self.replicas.items()
                  if r.daemon.joined and self.topology.is_alive(n)}
        for node, replica in self.replicas.items():
            daemon = replica.daemon
            if not daemon.joined or not self.topology.is_alive(node):
                continue
            reachable = {m for m in
                         self.topology.component_members(node) if m in
                         joined}
            current = (set(daemon.view.members) if daemon.view is not None
                       else set())
            if reachable != current:
                daemon.topology_hint()

    # ==================================================================
    # dynamic membership
    # ==================================================================
    def add_replica(self, new_id: int, peer: int,
                    peers: Optional[Sequence[int]] = None,
                    on_joined: Optional[Callable[[Replica], None]] = None
                    ) -> Replica:
        """Instantiate a brand-new replica (Section 5.1/5.2).

        The new node connects to ``peer`` (falling back to ``peers`` on
        failure), receives the database transfer, and then joins the
        replicated group.
        """
        if new_id in self.replicas:
            raise ValueError(f"replica {new_id} already exists")
        self.topology.add_node(new_id, component_like=peer)
        self.directory.add(new_id)
        replica = self._build_replica(new_id, [new_id])
        self.replicas[new_id] = replica
        replica.start(join_group=False)

        contact_order = list(peers) if peers else [peer]
        if peer not in contact_order:
            contact_order.insert(0, peer)

        def ready(header: TransferHeader) -> None:
            self._complete_join(replica, header)
            if on_joined is not None:
                on_joined(replica)

        replica.joiner = JoinerProtocol(self.sim, replica, contact_order,
                                        ready)
        replica.joiner.start()
        return replica

    def _complete_join(self, replica: Replica,
                       header: TransferHeader) -> None:
        """CodeSegment 5.2 lines 28-30: adopt the transferred state and
        start executing the replication algorithm."""
        engine = replica.engine
        for server in header.servers:
            engine.queue.add_server(server)
        engine.removed_servers = set(header.removed)
        engine.queue.green_offset = header.green_count
        engine.queue.set_green_line(replica.node, header.green_count)
        # The inherited database incorporates every action in its
        # applied log (Theorem 2): the red cut must reflect that, or the
        # first exchange would wait for retransmission of actions that
        # exist only as inherited state.
        # Creators no longer in the membership (servers that left) must
        # not be resurrected into the cuts.
        for action_id in replica.database.applied_log:
            if action_id.server_id not in engine.queue.red_cut:
                continue
            if action_id.index > engine.queue.red_cut[action_id.server_id]:
                engine.queue.red_cut[action_id.server_id] = action_id.index
        engine.prim_component = type(engine.prim_component)(
            prim_index=0, attempt_index=0,
            servers=tuple(sorted(header.servers)))
        replica.store.wal.append("db_snapshot",
                                 replica.database.snapshot(), forced=False)
        engine._persist_records()
        replica.store.sync()
        engine.state = EngineState.NON_PRIM
        replica.daemon.join()
        self.tracer.emit(self.sim.now, replica.node, "replica.joined",
                         green=header.green_count)
