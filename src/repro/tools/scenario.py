"""Declarative scenario runner.

Describes a whole experiment — cluster size, faults, workload,
expectations — as plain data (JSON-compatible), runs it on a simulated
cluster, and produces a structured report.  Useful for regression
scenarios, documentation, and exploring the protocol from the command
line:

    python -m repro.tools.scenario my_scenario.json

A scenario can also be replayed on the live asyncio runtime
(``"runtime": "asyncio"`` in the spec, or ``--runtime asyncio`` on the
command line): the same steps then execute against a
:class:`~repro.runtime.LiveCluster` in wall-clock time.  Crash,
recover, join, and leave steps are simulator-only (the live in-process
harness has no process supervisor); everything else — submit, run,
partition, heal, and every check — behaves identically, which is the
point of the Runtime/Transport seam.  One :class:`ScenarioRunner`
interprets the steps for every target.

Scenario format::

    {
      "replicas": 5,
      "seed": 7,
      "settle": 2.0,
      "steps": [
        {"op": "submit", "node": 1, "update": ["SET", "k", 1]},
        {"op": "run", "seconds": 1.0},
        {"op": "partition", "groups": [[1, 2], [3, 4, 5]]},
        {"op": "crash", "node": 4},
        {"op": "recover", "node": 4},
        {"op": "heal"},
        {"op": "join", "node": 6, "peer": 2},
        {"op": "leave", "node": 1},
        {"op": "check", "kind": "converged"}
      ]
    }

``check`` kinds: ``converged``, ``prefix``, ``single_primary``,
``primary_is`` (with ``members``), ``key`` (with ``node``, ``key``,
``value``), ``all_primary`` (every running replica back in RegPrim),
``completions`` (with ``at_least``).  A ``partition`` need not name
every node: the nodes no group names stay together in one more group,
on every runtime (:func:`~repro.net.complete_partition`).

Optional top-level keys tune a simulated build (cluster or fabric) —
all plain data, so a shrunk fuzzer repro pins its exact timers and
policy; live runs keep their wall-clock defaults:

* ``"gcs"`` — keyword overrides for :class:`~repro.gcs.GcsSettings`;
* ``"disk"`` — keyword overrides for
  :class:`~repro.storage.DiskProfile`;
* ``"quorum"`` — ``"dynamic-linear"`` (default), ``"static-majority"``,
  or ``"both-halves"`` (the deliberately broken tie policy from
  :mod:`repro.check.mutations`, for regression replays of fuzzer
  counterexamples).

Sharded scenarios
-----------------

A spec with a ``"shards"`` key (or ``--shards N`` on the command line)
runs against a :class:`~repro.shard.ShardFabric` of N replication
groups instead of a single cluster.  Updates are *routed* — submit by
content, not by node — and may span shards, in which case they commit
through the cross-shard transaction coordinator::

    {
      "shards": 2, "replicas": 3,
      "steps": [
        {"op": "txn", "update": [["SET", "a", 1], ["SET", "b", 2]]},
        {"op": "run", "seconds": 2.0},
        {"op": "crash", "node": 101},
        {"op": "recover", "node": 101},
        {"op": "recover_txns"},
        {"op": "check", "kind": "converged"},
        {"op": "check", "kind": "key", "key": "a", "value": 1},
        {"op": "check", "kind": "txns", "commits": 1}
      ]
    }

Node ids in sharded scenarios are *global* (shard × 100 + local).
Sharded scenarios are simulator-only; drive the live fabric with
``examples/live_cluster.py --shards N`` instead.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional

from ..core import ReplicaCluster
from ..obs import Observability


class ScenarioError(Exception):
    """Raised for malformed scenarios or failed checks."""


def _cluster_kwargs(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Resolve the optional ``gcs``/``disk``/``quorum`` spec keys into
    simulated cluster or fabric constructor arguments."""
    kwargs: Dict[str, Any] = {}
    if "gcs" in spec:
        from ..gcs import GcsSettings
        kwargs["gcs_settings"] = GcsSettings(**spec["gcs"])
    if "disk" in spec:
        from ..storage import DiskProfile
        kwargs["disk_profile"] = DiskProfile(**spec["disk"])
    if "quorum" in spec:
        kwargs["engine_config"] = _engine_config(spec["quorum"])
    return kwargs


def _engine_config(quorum: str) -> Any:
    from ..core.engine import EngineConfig
    from ..core.quorum import DynamicLinearVoting, StaticMajority
    if quorum == "dynamic-linear":
        return EngineConfig(quorum=DynamicLinearVoting())
    if quorum == "static-majority":
        return EngineConfig(quorum=StaticMajority())
    if quorum == "both-halves":
        from ..check.mutations import BothHalvesQuorum
        return EngineConfig(quorum=BothHalvesQuorum())
    raise ScenarioError(f"unknown quorum policy {quorum!r}")


@dataclass
class ScenarioReport:
    """Outcome of a scenario run."""

    steps_executed: int = 0
    submissions: int = 0
    completions: int = 0
    checks_passed: int = 0
    final_states: Dict[int, str] = field(default_factory=dict)
    final_green_counts: Dict[int, int] = field(default_factory=dict)
    events: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


#: The ops each target runs; any other op raises ScenarioError.
_TARGET_OPS: Dict[str, FrozenSet[str]] = {
    "cluster": frozenset({"submit", "run", "partition", "heal", "crash",
                          "recover", "join", "leave", "check"}),
    # The live in-process harness has no process supervisor.
    "live": frozenset({"submit", "run", "partition", "heal", "check"}),
    "fabric": frozenset({"submit", "txn", "run", "partition", "heal",
                         "crash", "recover", "recover_txns", "check"}),
}

_CLUSTER_CHECKS = frozenset({"converged", "prefix", "single_primary",
                             "primary_is", "key", "all_primary",
                             "completions"})

#: The check kinds each target runs.
_TARGET_CHECKS: Dict[str, FrozenSet[str]] = {
    "cluster": _CLUSTER_CHECKS,
    "live": _CLUSTER_CHECKS,
    "fabric": frozenset({"converged", "key", "txns"}),
}

_TARGET_NAMES = {"cluster": "a simulated cluster",
                 "live": "the asyncio runtime",
                 "fabric": "a sharded scenario"}

#: Seconds each fault op lets pass afterwards unless the step says.
_SETTLE = {"partition": 1.0, "heal": 2.0, "crash": 1.0, "recover": 2.0,
           "join": 5.0, "leave": 2.0, "recover_txns": 2.0}


class ScenarioRunner:
    """Executes one scenario spec against a fresh deployment.

    The spec picks the target: a simulated
    :class:`~repro.core.ReplicaCluster` by default, a
    :class:`~repro.shard.ShardFabric` when it has ``"shards"``, a
    :class:`~repro.runtime.LiveCluster` when its ``"runtime"`` is
    ``"asyncio"``.  One step interpreter drives all three; they differ
    only in the ops and checks they support and in how time passes
    (``run_for`` on the simulator, awaited on asyncio).
    """

    def __init__(self, spec: Dict[str, Any],
                 observability: Optional[Observability] = None):
        self.spec = spec
        self.report = ScenarioReport()
        self.obs = observability
        runtime = spec.get("runtime", "sim")
        if runtime not in ("sim", "asyncio"):
            raise ScenarioError(f"unknown runtime {runtime!r}")
        if "shards" in spec:
            if runtime != "sim":
                raise ScenarioError(
                    "sharded scenarios are simulator-only; use "
                    "examples/live_cluster.py --shards for live runs")
            self.target = "fabric"
        else:
            self.target = "cluster" if runtime == "sim" else "live"
        self._completions = 0
        self.outcomes: Dict[str, int] = {"commit": 0, "abort": 0}
        self.deployment: Any = None
        if self.target != "live":
            self.deployment = self._build_sim()

    def _build_sim(self) -> Any:
        spec = self.spec
        common: Dict[str, Any] = dict(
            seed=int(spec.get("seed", 0)),
            trace=(self.obs is not None
                   and self.obs.flight_hub is not None),
            observability=self.obs, **_cluster_kwargs(spec))
        if self.target == "fabric":
            from ..shard import ShardFabric
            return ShardFabric(
                num_shards=int(spec.get("shards", 2)),
                replicas_per_shard=int(spec.get("replicas", 3)), **common)
        return ReplicaCluster(n=int(spec.get("replicas", 3)), **common)

    # ------------------------------------------------------------------
    def run(self) -> ScenarioReport:
        if self.target == "live":
            return asyncio.run(self._run_live())
        self.deployment.start_all(settle=float(self.spec.get("settle", 2.0)))
        for seconds in self._steps():
            self.deployment.run_for(seconds)
        return self._finish()

    async def _run_live(self) -> ScenarioReport:
        from ..core.state_machine import EngineState
        from ..runtime import LiveCluster
        n = int(self.spec.get("replicas", 3))
        self.deployment = LiveCluster(list(range(1, n + 1)),
                                      observability=self.obs)
        try:
            self.deployment.start_all()
            settle = float(self.spec.get("settle", 2.0))
            await self.deployment.wait_all_engine_state(
                EngineState.REG_PRIM, timeout=max(10.0, settle * 5))
            for seconds in self._steps():
                await self.deployment.run_for(seconds)
            return self._finish()
        finally:
            self.deployment.shutdown()

    def _finish(self) -> ScenarioReport:
        self.report.completions = self._completions
        if self.target == "fabric":
            for states in self.deployment.states().values():
                self.report.final_states.update(states)
            self.report.final_green_counts = {
                shard: self.deployment.green_count(shard)
                for shard in sorted(self.deployment.clusters)}
        else:
            self.report.final_states = self.deployment.states()
            self.report.final_green_counts = \
                self.deployment.green_counts()
        return self.report

    # ------------------------------------------------------------------
    def _steps(self) -> Iterator[float]:
        """Interpret the steps in order, yielding every span of time
        the scenario lets pass; the caller advances its runtime."""
        for step in self.spec.get("steps", []):
            op = step.get("op")
            if op not in _TARGET_OPS[self.target]:
                raise ScenarioError(
                    f"op {op!r} is not supported in "
                    f"{_TARGET_NAMES[self.target]}")
            message = self._apply(op, step)
            if op == "run":
                yield float(step.get("seconds", 1.0))
            elif op in _SETTLE:
                yield float(step.get("settle", _SETTLE[op]))
            if message:
                self._log(message)
            self.report.steps_executed += 1

    def _apply(self, op: str, step: Dict[str, Any]) -> str:
        """Perform one op; returns the line to log once it settled."""
        deployment = self.deployment
        if op in ("submit", "txn") and self.target == "fabric":
            update = step["update"]
            self.report.submissions += 1

            def done(_txn_id: str, outcome: str) -> None:
                self._completions += 1
                self._count_outcome(outcome)

            txn_id = deployment.submit(update, done)
            return f"submit {txn_id}: {update}"
        if op == "submit":
            node = int(step["node"])
            update = tuple(step["update"])
            self.report.submissions += 1

            def complete(_a: Any, _p: Any, _r: Any) -> None:
                self._completions += 1

            deployment.submit(node, update, on_complete=complete)
            return f"submit at {node}: {update}"
        if op == "partition":
            groups = [list(map(int, g)) for g in step["groups"]]
            deployment.partition(*groups)
            return f"partition {groups}"
        if op == "heal":
            deployment.heal()
            return "heal"
        if op in ("crash", "recover"):
            getattr(deployment, op)(int(step["node"]))
            return f"{op} {step['node']}"
        if op == "join":
            deployment.add_replica(int(step["node"]),
                                   peer=int(step["peer"]))
            return f"join {step['node']} via {step['peer']}"
        if op == "leave":
            deployment.replicas[int(step["node"])].leave()
            return f"leave {step['node']}"
        if op == "recover_txns":
            if not deployment.coordinator.alive:
                home = step.get("home")
                deployment.new_coordinator(
                    home=int(home) if home is not None else None)
            swept = deployment.recover_transactions(
                lambda _txn, outcome: self._count_outcome(outcome))
            return f"recover_txns swept {swept}"
        if op == "check":
            return self._check(step)
        return ""

    def _count_outcome(self, outcome: str) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def _check(self, step: Dict[str, Any]) -> str:
        kind = step.get("kind")
        if kind not in _TARGET_CHECKS[self.target]:
            raise ScenarioError(
                f"check kind {kind!r} not supported in "
                f"{_TARGET_NAMES[self.target]}")
        deployment = self.deployment
        try:
            if kind == "converged":
                deployment.assert_converged()
            elif kind == "prefix":
                deployment.assert_prefix_consistent()
            elif kind == "single_primary":
                deployment.assert_single_primary()
            elif kind == "primary_is":
                expected = sorted(int(n) for n in step["members"])
                actual = sorted(deployment.primary_members())
                if actual != expected:
                    raise AssertionError(
                        f"primary is {actual}, expected {expected}")
            elif kind == "key" and self.target == "fabric":
                value = deployment.sharded_database().get(step["key"])
                if value != step["value"]:
                    raise AssertionError(
                        f"{step['key']!r} is {value!r}, "
                        f"expected {step['value']!r}")
            elif kind == "key":
                node = int(step["node"])
                value = deployment.replicas[node].database.state.get(
                    step["key"])
                if value != step["value"]:
                    raise AssertionError(
                        f"{step['key']!r} at {node} is {value!r}, "
                        f"expected {step['value']!r}")
            elif kind == "all_primary":
                laggards = {n: s for n, s in deployment.states().items()
                            if s != "RegPrim"}
                if laggards:
                    raise AssertionError(
                        f"not all replicas are primary: {laggards}")
            elif kind == "completions":
                expected = int(step["at_least"])
                if self._completions < expected:
                    raise AssertionError(
                        f"only {self._completions} completions, "
                        f"expected at least {expected}")
            elif kind == "txns":
                for outcome in ("commits", "aborts"):
                    if outcome in step:
                        actual = self.outcomes.get(outcome.rstrip("s"), 0)
                        if actual != int(step[outcome]):
                            raise AssertionError(
                                f"{outcome}={actual}, expected "
                                f"{step[outcome]}")
        except AssertionError as failure:
            raise ScenarioError(f"check {kind!r} failed: {failure}") \
                from failure
        self.report.checks_passed += 1
        return f"check {kind}: ok"

    def _log(self, message: str) -> None:
        self.report.events.append(
            f"[{self.deployment.runtime.now:9.3f}] {message}")


def run_scenario(spec: Dict[str, Any],
                 runtime: Optional[str] = None,
                 observability: Optional[Observability] = None
                 ) -> ScenarioReport:
    """Run a scenario spec; raises ScenarioError on failed checks.

    ``runtime`` (or the spec's ``"runtime"`` key) selects the execution
    substrate: ``"sim"`` (default, deterministic virtual time) or
    ``"asyncio"`` (live wall-clock run on a :class:`LiveCluster`).
    Pass an enabled :class:`~repro.obs.Observability` to collect spans
    and histograms during the run (``repro.tools.obsreport`` does).
    """
    if runtime is not None:
        spec = dict(spec, runtime=runtime)
    return ScenarioRunner(spec, observability=observability).run()


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="Run a replication scenario from a JSON spec.")
    parser.add_argument("spec", help="path to the scenario JSON file")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    parser.add_argument("--runtime", choices=("sim", "asyncio"),
                        default=None,
                        help="execution substrate (default: spec's "
                             "'runtime' key, else sim)")
    parser.add_argument("--shards", type=int, default=None,
                        help="run against a shard fabric of N groups "
                             "(overrides the spec's 'shards' key)")
    parser.add_argument("--trace-out", metavar="DIR", default=None,
                        help="enable distributed tracing and dump the "
                             "per-node flight recorders into DIR "
                             "(merge with repro-trace)")
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.shards is not None:
        spec["shards"] = args.shards
    obs = None
    if args.trace_out is not None:
        obs = Observability(flight=True, staleness=True)
    report = run_scenario(spec, runtime=args.runtime, observability=obs)
    if obs is not None:
        from .tracecli import dump_flight
        paths = dump_flight(obs, args.trace_out)
        print(f"wrote {len(paths)} flight dumps to {args.trace_out}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for event in report.events:
            print(event)
        print(f"steps={report.steps_executed} "
              f"submissions={report.submissions} "
              f"completions={report.completions} "
              f"checks={report.checks_passed}")
        print(f"final states: {report.final_states}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
