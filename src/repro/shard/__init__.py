"""The shard fabric: N replication groups behind a key-range router.

Scaling the paper's architecture *out*: each shard is an unchanged
Figure-4 replication engine with its own GCS group, write-ahead logs,
and quorum; a deterministic key-range router
(:mod:`repro.db.partition` + :class:`KeyRangeRouter`) places every key
in exactly one shard; and cross-shard transactions commit through a
2PC-style coordinator (:class:`TxnCoordinator`) whose prepare, decide,
and finish records are ordinary green actions in the participant
shards' total orders (:mod:`repro.shard.txn`) — atomic commitment
riding entirely on the single-shard machinery the paper proves correct.

Layering (enforced by the ``shard-isolation`` seam rule): the policy
modules — :mod:`router <repro.shard.router>`, :mod:`txn
<repro.shard.txn>`, :mod:`coordinator <repro.shard.coordinator>` —
never import the engine or GCS internals; only the composition root
:mod:`fabric <repro.shard.fabric>` (one :class:`Fabric`, built on the
simulator by :class:`ShardFabric` or on asyncio/UDP by
:class:`LiveShardFabric`) touches :mod:`repro.core` and
:mod:`repro.runtime`.
"""

from .coordinator import TxnCoordinator
from .fabric import Fabric, LiveShardFabric, ShardFabric
from .router import (SHARD_STRIDE, KeyRangeRouter, RouterError, global_id,
                     local_id, shard_of, shard_server_ids, statement_key)
from .txn import (ABORT, COMMIT, TXN_DECIDE, TXN_FINISH, TXN_KEY,
                  TXN_PREPARE, TXN_PROCEDURES, decide_update,
                  decided_transactions, finish_update,
                  install_txn_procedures, prepare_update,
                  staged_transactions)

__all__ = [
    "ABORT",
    "COMMIT",
    "Fabric",
    "KeyRangeRouter",
    "LiveShardFabric",
    "RouterError",
    "SHARD_STRIDE",
    "ShardFabric",
    "TXN_DECIDE",
    "TXN_FINISH",
    "TXN_KEY",
    "TXN_PREPARE",
    "TXN_PROCEDURES",
    "TxnCoordinator",
    "decide_update",
    "decided_transactions",
    "finish_update",
    "global_id",
    "install_txn_procedures",
    "local_id",
    "prepare_update",
    "shard_of",
    "shard_server_ids",
    "staged_transactions",
    "statement_key",
]
