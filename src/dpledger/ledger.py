"""Append-only hash-chained block store and the world state it folds into.

Commits are serialized per channel (single writer); committed values are
immutable and safe to share. A channel's settings are one ``ChannelConfig``
that its genesis block carries and hashes, so a chain is judged from the
chain alone. ``replay_chain`` is the one walk of a chain: it requires a
genesis block that matches its config, then folds each block onto the one
before (``fold_block``), as commit folds a block onto its chain head;
``verify_chain`` is replay's verdict plus each block's endorsements, checked
against the genesis config by ``policy_problems`` as commit checks them,
and each block's hash. ``fold_block`` states each rule once: the link,
``_envelope_problem`` for each envelope's content, and no tx id twice on
the chain. It walks a block once: it lists each write's eight attribute cell
ids and its quantity, as two flat arrays, and collects the block's answers
as one dict, a later answer of a category replacing an earlier one. Every
member then applies the fold with bulk operations only (``apply_block``):
one ``np.add.at`` per counter array, one ``set.update`` for the tx ids and
one ``dict.update`` for the answers, which reuses the hashes the fold's dict
stored. The world state is an index of what queries read: the cell counters,
the newest answer per category, the height and the committed tx ids. The
history itself, every write and every query effect with the ε left after
it, is on the chain only.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import (AbstractSet, Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from .budget import _check_threshold
from .codec import conforms, from_json, to_json
from .errors import ConfigInvalid, DPLedgerError, EmptyBatch, IoFailure, ValidationFailure
from .laplace import check_epsilon
from .transactions import (Aggregate, CategoryKey, Envelope, QueryRecord, QueryTransaction,
                           WriteTransaction, _encodable, _i64, _u32, normalize, validate,
                           validate_write)

# The id of the one channel the simulator runs.
CHANNEL_ID = "mychannel"
GENESIS_PREV_HASH = bytes(32)


@dataclass(frozen=True)
class ChannelConfig:
    """A channel's settings, as its genesis block states them: its id, its
    members' peer ids, how many distinct members must endorse an envelope,
    and ε_t, the most fresh ε its chain may spend. Checked when built; a bad
    one is ``ConfigInvalid``. ``member_keys`` maps each member to its UTF-8
    encoding, in member order, encoded once."""

    channel_id: str
    members: Tuple[str, ...]
    endorsement_policy: int
    epsilon_t: float

    def __post_init__(self):
        channel_id, members, policy = self.channel_id, self.members, self.endorsement_policy
        if not (conforms(channel_id, str) and channel_id and _encodable(channel_id)):
            raise ConfigInvalid(f"channel id {channel_id!r} must be a non-empty string")
        if not (isinstance(members, (list, tuple))
                and all(conforms(m, str) and m and _encodable(m) for m in members)):
            raise ConfigInvalid(f"members {members!r} must be a list or tuple of "
                                "non-empty peer ids")
        if len(set(members)) != len(members):
            raise ConfigInvalid(f"a peer id is listed more than once in {members!r}")
        if not (conforms(policy, int) and 1 <= policy <= len(members)):
            raise ConfigInvalid(f"endorsement policy {policy!r} outside "
                                f"[1, {len(members)}] for the configured members")
        _check_threshold(self.epsilon_t)
        object.__setattr__(self, "members", tuple(members))
        object.__setattr__(self, "epsilon_t", float(self.epsilon_t))
        object.__setattr__(self, "member_keys", {m: m.encode("utf-8") for m in members})


# Every attribute cell, a (customer, product, colour) triple of normalized
# names with None as the wildcard, is numbered the first time any state
# counts a write in it. The numbering is process-wide and append-only, so a
# cell's id never changes; each state keeps its own counters, indexed by id.
_CELL_IDS: Dict[tuple, int] = {}
_CELLS: List[tuple] = []


def _cell_id(cell: tuple) -> int:
    i = _CELL_IDS.get(cell)
    if i is None:
        i = _CELL_IDS[cell] = len(_CELLS)
        _CELLS.append(cell)
    return i


@functools.lru_cache(maxsize=4096)
def _write_cells(customer: str, product: str, color: str) -> Tuple[int, ...]:
    """The ids of the eight cells a write with these raw attributes counts
    in: one per subset of its normalized attributes, the others wildcarded.
    Memoized: a run writes many records with each of a few attribute triples."""
    customer, product, color = normalize(customer), normalize(product), normalize(color)
    return tuple(map(_cell_id, ((None, None, None), (None, None, color),
                                (None, product, None), (None, product, color),
                                (customer, None, None), (customer, None, color),
                                (customer, product, None), (customer, product, color))))


class CellDelta(NamedTuple):
    """Writes to add into cell counters: ``ids`` lists the eight cell ids of
    each write in turn, and ``quantities`` each write's quantity once per id.
    An id repeats once per write in its cell, so a state adds the delta with
    ``np.add.at``, which counts every repeat."""

    ids: np.ndarray
    quantities: np.ndarray


def _cell_delta(ids: List[int], quantities: List[int]) -> CellDelta:
    """The delta of writes whose cell ids (eight per write) and quantities
    (one per write) were listed in write order."""
    return CellDelta(np.array(ids, dtype=np.intp),
                     np.array(quantities, dtype=np.int64).repeat(8))


_NO_CELLS = _cell_delta([], [])


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class Block:
    """A batch of transactions chained to its predecessor by hash. Only the
    genesis block carries a ``config``, which its hash binds."""

    height: int
    prev_hash: bytes
    envelopes: Tuple[Envelope, ...]
    block_hash: bytes
    config: Optional[ChannelConfig] = None


def compute_block_hash(height: int, prev_hash: bytes,
                       envelopes: Sequence[Envelope]) -> bytes:
    """SHA-256 over the height, the previous hash and each envelope's
    block-level encoding (its payload digest plus its endorsements)."""
    parts = [b"B", _i64(height), prev_hash, _u32(len(envelopes))]
    for env in envelopes:
        raw = env.canonical_bytes()
        parts += (_u32(len(raw)), raw)
    return _sha256(b"".join(parts))


def _json_line(doc) -> str:
    """``doc`` as one line of canonical JSON: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def make_genesis(config: ChannelConfig) -> Block:
    """Empty height-0 block carrying ``config``; its hash binds the config's
    JSON line, which is also the header of the chain's export."""
    digest = _sha256(b"G" + _json_line(to_json(config)).encode("utf-8"))
    return Block(0, GENESIS_PREV_HASH, (), digest, config)


def genesis_config(chain: Sequence[Block]) -> Optional[ChannelConfig]:
    """The config of ``chain``'s genesis block, or None unless the chain
    starts with the genesis block of the config it carries."""
    config = getattr(chain[0], "config", None) if chain else None
    valid = isinstance(config, ChannelConfig) and chain[0] == make_genesis(config)
    return config if valid else None


def build_block(pending: Sequence[Envelope], prev: Block) -> Block:
    """Package pending transactions into the next block of the chain."""
    if not pending:
        raise EmptyBatch("cannot build a block from an empty batch")
    envelopes = tuple(pending)
    height = prev.height + 1
    return Block(
        height=height,
        prev_hash=prev.block_hash,
        envelopes=envelopes,
        block_hash=compute_block_hash(height, prev.block_hash, envelopes),
    )


def _envelope_problem(env: Envelope) -> str:
    """Why ``env`` may not be on the chain for its content, or "" when it
    may: its body must be a valid write or query (``validate``), a write
    must carry no query effect, and a query must carry a fresh effect that
    answers it: its ε one the engine could spend (``check_epsilon``), keyed
    by its category, with its tx id as the query id and a response that
    states that ε."""
    tx = env.tx
    try:
        validate(tx)
    except DPLedgerError as err:
        return str(err)
    if isinstance(tx, WriteTransaction):
        return "write envelope carries a query effect" if env.effect is not None else ""
    if env.effect is None:
        return "query envelope carries no query effect"
    rec = env.effect.record
    if rec.response.reused:
        return "query effect carries a reused answer"
    try:
        check_epsilon(rec.epsilon_spent)
    except DPLedgerError as err:
        return f"query effect's {err}"
    if rec.response.epsilon_used != rec.epsilon_spent:
        return "query effect's response epsilon differs from epsilon spent"
    if rec.key is not tx.key and rec.key != tx.key:
        return "query effect is keyed for another query"
    if rec.response.query_id != env.tx_id:
        return "query effect's query id differs from its tx id"
    return ""


def _signature(peer_key: bytes, payload_digest: bytes) -> bytes:
    """The signature of the peer whose UTF-8 encoded id is ``peer_key``."""
    return hashlib.sha256(peer_key + payload_digest).digest()


# The body types; an envelope holding anything else breaks the content rule.
_BODIES = (WriteTransaction, QueryTransaction)


def policy_problems(envelopes: Sequence[Envelope], config: ChannelConfig) -> List[str]:
    """The endorsement policy of ``config``, checked for a block's envelopes
    in one call: "<tx id>: endorsement policy not met" for each transaction
    body whose envelope lacks valid endorsements from ``endorsement_policy``
    distinct members, in block order. An envelope holding anything else has
    no digest, and the content rule names it. An envelope's check stops at
    the policy's count, and an endorsement that is invalid, from a
    non-member or from a member already counted never counts, so the verdict
    is the same. The members counted so far are a tuple: at policy 1 nothing
    is built per envelope."""
    keys, need = config.member_keys, config.endorsement_policy
    problems = []
    for env in envelopes:
        if not isinstance(env.tx, _BODIES):
            continue
        digest = env.payload_digest
        counted = ()
        for peer_id, signature in env.endorsements:
            key = keys.get(peer_id)
            if (key is not None and peer_id not in counted
                    and signature == _signature(key, digest)):
                if len(counted) + 1 == need:
                    break
                counted += (peer_id,)
        else:
            problems.append(f"{env.tx_id}: endorsement policy not met")
    return problems


class BlockFold(NamedTuple):
    """A block's effect on a world state, computed once for every member.

    ``cells`` is the cell delta of the block's writes, ``answers`` maps each
    category a fresh answer of the block is keyed by to its last such answer
    in block order, and ``tx_ids`` is the set of the block's tx ids. All
    three are only read: each member adds them, one bulk operation each,
    into counters, an answer index and a set of its own.
    """

    height: int
    cells: CellDelta
    answers: Dict[CategoryKey, QueryRecord]
    tx_ids: Set[str]


def fold_block(block: Block, prev: Block, committed: AbstractSet[str]) -> BlockFold:
    """Check that ``block`` follows ``prev`` (the next height, carrying its
    hash) and carries no config, which only the genesis block's hash binds,
    and each envelope against the content rule and ``committed``, the tx ids
    already on the chain; list each write in the block's cell delta and
    collect each category's last answer. Once the content rule has passed an
    envelope, one without a query effect is a write. Raises
    ``ValidationFailure`` on a broken link or a config, or naming the first
    envelope that breaks the content rule or repeats a tx id."""
    if block.height != prev.height + 1 or block.prev_hash != prev.block_hash:
        raise ValidationFailure(f"block {block.height} does not follow block {prev.height}")
    if block.config is not None:
        raise ValidationFailure(f"block {block.height} carries a channel config")
    ids: List[int] = []
    quantities: List[int] = []
    answers: Dict[CategoryKey, QueryRecord] = {}
    tx_ids: Set[str] = set()
    for env in block.envelopes:
        tx_id = env.tx_id
        problem = _envelope_problem(env)
        if not problem and (tx_id in committed or tx_id in tx_ids):
            problem = "repeated tx id"
        if problem:
            raise ValidationFailure(f"{tx_id}: {problem}")
        tx_ids.add(tx_id)
        effect = env.effect
        if effect is None:
            tx = env.tx
            ids += _write_cells(tx.customer_name, tx.product_name, tx.color)
            quantities.append(tx.quantity)
        else:
            rec = effect.record
            answers[rec.key] = rec
    cells = _cell_delta(ids, quantities) if ids else _NO_CELLS
    return BlockFold(block.height, cells, answers, tx_ids)


class WorldState:
    """One member's index of a channel ledger: what its queries read.

    ``_counts`` and ``_sums`` are ``int64`` arrays that hold each attribute
    cell's count and quantity sum at the cell's id (a sum wraps only past
    9e16 units, 9e14 writes at ``QUANTITY_MAX``); they grow when the state
    counts a write in a cell numbered after their end, and a cell past their
    end reads as empty. Every reader returns Python numbers.
    ``_latest`` maps each category to its newest committed answer, and
    ``tx_ids`` is the set of committed tx ids that ``fold_block`` checks a
    block against. The writes and query effects themselves stay on the chain.
    """

    def __init__(self):
        self.height = 0
        self._latest: Dict[CategoryKey, QueryRecord] = {}
        self._counts = np.zeros(0, dtype=np.int64)
        self._sums = np.zeros(0, dtype=np.int64)
        self.tx_ids: Set[str] = set()

    # -- writes

    def _add_cells(self, delta: CellDelta) -> None:
        """Add a cell delta into the counters, first extending them with
        zeros over the cells numbered since they last grew."""
        if not len(delta.ids):
            return
        n = len(_CELLS)
        if n > len(self._counts):
            # No view of the counters is ever handed out, so they resize in place.
            self._counts.resize(n, refcheck=False)
            self._sums.resize(n, refcheck=False)
        np.add.at(self._counts, delta.ids, 1)
        np.add.at(self._sums, delta.ids, delta.quantities)

    def apply_writes(self, txs: Iterable[WriteTransaction]) -> None:
        """Count validated writes in their attribute cells, as one delta;
        if any write is invalid, none is counted."""
        ids: List[int] = []
        quantities: List[int] = []
        for tx in txs:
            validate_write(tx)
            ids += _write_cells(tx.customer_name, tx.product_name, tx.color)
            quantities.append(tx.quantity)
        self._add_cells(_cell_delta(ids, quantities))

    def apply_write(self, tx: WriteTransaction) -> None:
        """Count one validated write in its attribute cells."""
        self.apply_writes((tx,))

    def aggregate_cell(self, customer: Optional[str], product: Optional[str],
                       color: Optional[str]) -> Tuple[int, int]:
        """(count, quantity sum) for a normalized attribute cell."""
        i = _CELL_IDS.get((customer, product, color))
        if i is None or i >= len(self._counts):
            return (0, 0)
        return (self._counts.item(i), self._sums.item(i))

    def answer(self, key: CategoryKey) -> float:
        """The exact answer to ``key``'s query: its cell's count for COUNT,
        its quantity sum for SUM, and 0.0 for an empty cell."""
        i = _CELL_IDS.get((key.customer_name, key.product_name, key.color))
        if i is None or i >= len(self._counts):
            return 0.0
        return float((self._counts if key.aggregate is Aggregate.COUNT else self._sums).item(i))

    def cells(self) -> Iterator[Tuple[tuple, Tuple[int, int]]]:
        """Every non-empty attribute cell with its (count, quantity sum)."""
        ids = np.flatnonzero(self._counts)
        return ((_CELLS[i], (count, qty)) for i, count, qty in
                zip(ids.tolist(), self._counts[ids].tolist(), self._sums[ids].tolist()))

    # -- answers

    def record_query(self, rec: QueryRecord) -> None:
        """Make a checked query record its category's newest answer. Commit
        and replay do not call it: ``apply_block`` adds a block's answers in
        one ``dict.update``."""
        self._latest[rec.key] = rec

    def lookup(self, key: CategoryKey) -> Optional[QueryRecord]:
        """Most recent record with exactly this key, if any."""
        return self._latest.get(key)

    # -- serialization

    def serialize(self) -> bytes:
        """Canonical JSON encoding of the index; equal states serialize
        bit-identically, whatever order they saw their writes in. Cells
        are sorted with None before any name, answers by their key's
        canonical bytes, and the tx ids enter as the SHA-256 of their
        sorted JSON list."""
        cells = sorted(self.cells(),
                       key=lambda item: [(v is not None, v or "") for v in item[0]])
        latest = sorted(self._latest.items(), key=lambda item: item[0].canonical_bytes())
        tx_ids = _json_line(sorted(self.tx_ids)).encode("utf-8")
        doc = {
            "height": self.height,
            "cells": [[*cell, *slot] for cell, slot in cells],
            "latest": [to_json(rec) for _, rec in latest],
            "tx_ids_sha256": _sha256(tx_ids).hex(),
        }
        return _json_line(doc).encode("utf-8")


def apply_block(state: WorldState, fold: BlockFold) -> None:
    """Apply one block's fold to a world state, one bulk operation per part:
    add its cell delta into the state's own counters, its tx ids into the
    state's own set and its answers into the state's own index, where each
    becomes its category's newest. ``dict.update`` reuses the hashes the
    fold's dict stored, so no key is hashed again."""
    state.tx_ids.update(fold.tx_ids)
    state._add_cells(fold.cells)
    state._latest.update(fold.answers)
    state.height = fold.height


def replay_chain(chain: Sequence[Block], channel_id: str = CHANNEL_ID) -> WorldState:
    """World state rebuilt by folding each block onto the one before it; no
    endorsement is checked. Raises ``ValidationFailure`` as commit's
    ``fold_block`` would audit, and on a chain that does not start with the
    genesis block of the config it carries, or of another channel than
    ``channel_id``."""
    config = genesis_config(chain)
    if config is None or config.channel_id != channel_id:
        raise ValidationFailure("chain does not start with the genesis block of "
                                f"{channel_id!r}")
    state = WorldState()
    for prev, block in zip(chain, chain[1:]):
        apply_block(state, fold_block(block, prev, state.tx_ids))
    return state


def verify_chain(chain: Sequence[Block]) -> bool:
    """True iff ``replay_chain`` accepts ``chain``, every block meets the
    endorsement policy of the genesis block's config (``policy_problems``,
    as commit checks it) and every block matches its hash; a
    ``DPLedgerError`` is False, and any other error propagates."""
    try:
        replay_chain(chain)
        config = chain[0].config
        return all(not policy_problems(b.envelopes, config)
                   and b.block_hash == compute_block_hash(b.height, b.prev_hash, b.envelopes)
                   for b in chain[1:])
    except DPLedgerError:
        return False


# ---------------------------------------------------------------------------
# JSON-lines export / import

def export_transactions(chain: Sequence[Block]) -> str:
    """One JSON object per committed transaction, after a header line that is
    the genesis block's channel config. Raises ``IoFailure`` unless ``chain``
    starts with the genesis block of the config it carries, so that
    ``import_transactions`` reads back every export."""
    config = genesis_config(chain)
    if config is None:
        raise IoFailure("chain does not start with the genesis block of its channel config")
    lines = [_json_line(to_json(config))]
    for block in chain:
        for env in block.envelopes:
            lines.append(_json_line({"height": block.height, **to_json(env)}))
    return "\n".join(lines) + "\n"


def import_transactions(text: str) -> Tuple[ChannelConfig, List[Tuple[int, Envelope]]]:
    """Parse a transaction export back into (channel config, [(height,
    envelope)]). Raises ``IoFailure`` naming the line on a line that is not a
    JSON object, a header that is not a valid ``ChannelConfig``, a row
    without an integer height, heights that start below 1 or decrease, or an
    envelope that does not read back."""
    rows = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError as err:
            raise IoFailure(f"line {number} is not JSON: {err}") from err
        if not isinstance(row, dict):
            raise IoFailure(f"line {number}: expected a JSON object, got {row!r}")
        rows.append((number, row))
    if not rows:
        raise IoFailure("transaction export is empty")
    number, header = rows[0]
    try:
        config = from_json(ChannelConfig, header, IoFailure, f"line {number}")
    except ConfigInvalid as err:
        raise IoFailure(f"line {number}: {err}") from err
    out = []
    floor = 1
    for number, row in rows[1:]:
        height = from_json(int, row.pop("height", None), IoFailure, f"line {number}.height")
        if height < floor:
            raise IoFailure(f"line {number}: height {height} is below {floor}")
        floor = height
        out.append((height, from_json(Envelope, row, IoFailure, f"line {number}")))
    return config, out


def export_blocks(chain: Sequence[Block]) -> str:
    """Block metadata dump, one JSON object per block."""
    lines = [_json_line({"height": block.height, "prev_hash": block.prev_hash.hex(),
                         "block_hash": block.block_hash.hex(),
                         "tx_count": len(block.envelopes)}) for block in chain]
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise IoFailure(str(err)) from err
