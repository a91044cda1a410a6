"""One partition rule on both runtimes.

``partition(*groups)`` on a simulated :class:`ReplicaCluster` and on a
:class:`LiveCluster` over :class:`MemoryTransport` accepts and rejects
exactly the same calls: an unknown node or a node named in two groups
is an error (and changes nothing), and the nodes no group names stay
together in one more group.  A member cluster of a shard fabric places
every node of the fabric the same way on both runtimes.
"""

import asyncio

import pytest

from repro.core import ReplicaCluster
from repro.net import TopologyError, complete_partition
from repro.runtime import LiveCluster
from repro.shard import LiveShardFabric, ShardFabric

NODES = [1, 2, 3, 4]
FABRIC_NODES = [1, 2, 101, 102]


def _components(reachable, nodes):
    """The connectivity the partition installed, as sorted groups."""
    groups = []
    for node in nodes:
        for group in groups:
            if reachable(node, group[0]):
                group.append(node)
                break
        else:
            groups.append([node])
    return groups


def _exercise(cluster, reachable, nodes):
    observed = {}
    for name, groups in (("duplicate", (nodes[:2], nodes[1:])),
                         ("unknown", ([nodes[0], 9], nodes[1:]))):
        with pytest.raises(TopologyError):
            cluster.partition(*groups)
        observed[name] = _components(reachable, nodes)
    cluster.partition([nodes[0]], [nodes[1]])
    observed["partial"] = _components(reachable, nodes)
    cluster.heal()
    observed["healed"] = _components(reachable, nodes)
    return observed


async def _live_observed(member):
    if member:
        fabric = LiveShardFabric(num_shards=2, replicas_per_shard=2)
        try:
            return _exercise(fabric.clusters[0],
                             fabric.transport.filter.allows, FABRIC_NODES)
        finally:
            fabric.shutdown()
    cluster = LiveCluster(NODES)
    try:
        return _exercise(cluster, cluster.transport.filter.allows, NODES)
    finally:
        cluster.shutdown()


@pytest.mark.parametrize("member", [False, True],
                         ids=["cluster", "fabric-member"])
@pytest.mark.parametrize("runtime", ["sim", "memory"])
def test_partition_rule(runtime, member):
    nodes = FABRIC_NODES if member else NODES
    if runtime == "sim" and member:
        fabric = ShardFabric(num_shards=2, replicas_per_shard=2, seed=0)
        observed = _exercise(fabric.clusters[0], fabric.topology.reachable,
                             nodes)
    elif runtime == "sim":
        cluster = ReplicaCluster(n=len(NODES), seed=0)
        observed = _exercise(cluster, cluster.topology.reachable, nodes)
    else:
        observed = asyncio.run(_live_observed(member))
    assert observed == {
        # A rejected call leaves the network as it was.
        "duplicate": [nodes], "unknown": [nodes],
        # The uncovered nodes form one component, not singletons — on a
        # fabric member, the other shard's nodes included.
        "partial": [[nodes[0]], [nodes[1]], nodes[2:]],
        "healed": [nodes],
    }


def test_complete_partition_appends_the_rest_once():
    assert complete_partition(NODES, [[2], [4]]) == [[2], [4], [1, 3]]
    assert complete_partition(NODES, [[1, 2], [3, 4]]) \
        == [[1, 2], [3, 4]]
