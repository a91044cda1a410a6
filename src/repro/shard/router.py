"""The key→shard router and the global node id namespace.

Every key deterministically belongs to exactly one shard (see
:mod:`repro.db.partition` for the hashed key-range machinery); the
router additionally understands the statement language, so whole
updates can be classified as shard-local or cross-shard and split into
per-shard fragments.

This module is pure data-plane policy: it never touches engines, GCS
daemons, or runtimes (the ``shard-isolation`` seam rule enforces
that).  The composition root (:mod:`repro.shard.fabric`) wires its
decisions to actual replication groups.

Node id namespace
-----------------

All groups of one fabric share a single transport, so node ids must be
globally unique.  Shard ``s``'s replica ``r`` gets the global id
``s * SHARD_STRIDE + r`` — shard 0 keeps the plain ids ``1..n``, which
is what makes the single-shard fabric bit-identical to a standalone
:class:`~repro.core.ReplicaCluster`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..db.partition import RangeMap

#: Width of each shard's node-id block; replica ids are local in
#: ``1..SHARD_STRIDE-1``.
SHARD_STRIDE = 100


def global_id(shard: int, local: int) -> int:
    """Global node id of shard ``shard``'s local replica ``local``."""
    if shard < 0:
        raise ValueError(f"negative shard id {shard}")
    if not 0 < local < SHARD_STRIDE:
        raise ValueError(
            f"local replica id must be in 1..{SHARD_STRIDE - 1}, "
            f"got {local}")
    return shard * SHARD_STRIDE + local


def shard_of(node: int) -> int:
    """The shard a global node id belongs to."""
    return node // SHARD_STRIDE


def local_id(node: int) -> int:
    """The within-shard replica id of a global node id."""
    return node % SHARD_STRIDE


def shard_server_ids(shard: int, count: int) -> List[int]:
    """The global ids of shard ``shard``'s ``count`` replicas."""
    return [global_id(shard, local) for local in range(1, count + 1)]


class RouterError(ValueError):
    """An update cannot be routed (malformed or keyless statement)."""


#: Statement ops whose key is the second element.
_KEYED_OPS = frozenset({"SET", "GET", "INC", "DEL", "APPEND", "CAS"})


def statement_key(statement: Any) -> Any:
    """The routing key of one statement tuple.

    ``CALL`` statements route by their first argument when it is a
    string key (the convention for user-registered procedures); the
    cross-shard transaction records themselves never pass through the
    router — the coordinator places them explicitly.
    """
    if not statement:
        raise RouterError("empty statement")
    op = statement[0]
    if op in _KEYED_OPS:
        if len(statement) < 2:
            raise RouterError(f"{op} statement without a key")
        return statement[1]
    if op == "CALL":
        if len(statement) >= 3:
            args = statement[2]
            if (isinstance(args, (list, tuple)) and args
                    and isinstance(args[0], str)):
                return args[0]
        raise RouterError(
            f"CALL statement {statement!r} has no routable key "
            f"(first procedure argument must be a string key)")
    raise RouterError(f"unroutable statement op {op!r}")


def _statements(update: Any) -> List[Any]:
    """Normalise an update part (one statement or a sequence) into a
    statement list, mirroring :func:`repro.db.sql.execute_update`."""
    if update and isinstance(update[0], str):
        return [update]
    return list(update)


class KeyRangeRouter:
    """Deterministic key→shard placement over contiguous hash ranges.

    The mapping is a pure function of the key and the shard count
    (``RangeMap.even``), so it is identical across runtimes and stable
    under any membership change that preserves the shard count.
    """

    def __init__(self, num_shards: int,
                 range_map: Optional[RangeMap] = None):
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards
        self.range_map = (range_map if range_map is not None
                          else RangeMap.even(num_shards))

    def shard_for_key(self, key: Any) -> int:
        return self.range_map.shard_for_key(key)

    def shards_for_update(self, update: Any) -> List[int]:
        """Sorted shard ids an update touches."""
        return sorted({self.shard_for_key(statement_key(stmt))
                       for stmt in _statements(update)})

    def is_local(self, update: Any) -> bool:
        return len(self.shards_for_update(update)) == 1

    def split_update(self, update: Any) -> Dict[int, Tuple[Any, ...]]:
        """Split an update into per-shard statement tuples.

        Statement order within each shard is preserved; a shard-local
        update comes back as a single-entry dict.
        """
        fragments: Dict[int, List[Any]] = {}
        for stmt in _statements(update):
            shard = self.shard_for_key(statement_key(stmt))
            fragments.setdefault(shard, []).append(stmt)
        return {shard: tuple(stmts)
                for shard, stmts in sorted(fragments.items())}
