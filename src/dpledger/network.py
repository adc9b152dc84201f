"""Simulated permissioned network: member peers, one channel, Solo ordering.

Every transaction walks four phases: (1) proposal, (2) endorsement with
privacy-preserving execution for queries, (3) Solo ordering into blocks,
(4) validation and commit on every channel member. Every peer is a
member of the one channel, ``CHANNEL_ID``. Time is a discrete
tick counter and the whole simulation is a pure function of the
members, seeds, and submission schedule. The first three phases run at
a submission's tick and the fourth at the tick that cuts its block, so a
receipt holds two ticks and, if it was rejected, the phase it stopped
in, with no record per phase.

The channel has one chaincode engine and one budget accountant. The
engine checks a query's ε before anything else, so a rejected ε is
neither spent nor logged as a reuse. The engine answers a
query from the executor peer's committed world state plus its overlay
of fresh answers endorsed but not yet committed, so every member serves
the identical answer. A repeat's receipt holds the recorded answer's own
response, whose query id names the query that drew its noise; the
receipt's CACHED status alone says that no ε was spent. A block that
commits or goes to audit takes its answers out of the overlay; an audited
answer is never served again, and its epsilon stays spent. The peer that
executes a query produces the effect envelope; other members countersign
its digest without re-executing, which keeps endorsement deterministic
under fresh noise.

``submit`` validates a body before anything encodes it, so a malformed
body or ε, or a non-body, gets a typed rejected receipt and never raises.
The body keeps the verdict, so commit's content rule does not run the
full check again. Each envelope's payload digest (SHA-256 over its tx id,
body and query effect) is computed once and kept as raw bytes: endorsers
sign it, committers check signatures against it, and the block hash binds
the height, the previous hash, and each envelope's payload digest plus
its endorsements. An endorsement is only (peer id, signature), both raw
in memory: the signature binds that peer to the digest of the envelope
carrying it, so it verifies on no other payload. Each member id is
encoded once, and ``Channel.sign`` keeps the (id, encoding) pairs in member
order. Each member signs a proposal once and the endorsed envelope is built
once: ``Envelope.endorsed`` encodes the payload and hashes it, the channel
signs that digest, and the envelope is constructed with its endorsements
and its kept digest, no field set twice. A block commits only if every envelope has
endorsements from enough distinct channel members, the one rule checked
here. The check of an envelope stops once the policy's count is met: at
policy 1, an envelope whose first endorsement is valid costs one
signature. The block also keeps the rules of ``ledger``: ``fold_block``
checks it against the chain head as replay does (the link, each
envelope's content, no tx id twice) and sums its writes into one cell
delta. Every member applies that one fold; an invalid block goes to
audit, its receipts name the broken rule, and no member changes. Only
in-flight receipts are indexed, from hand-over to the orderer until their
block commits or goes to audit; a cached or rejected receipt is final at
submit, and an audited replay of a committed envelope leaves its receipt alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .budget import BudgetAccountant
from .chaincode import ChaincodeEngine
from .codec import conforms
from .errors import (
    ConfigInvalid,
    DPLedgerError,
    NotAuthorized,
    NotMember,
    ValidationFailure,
)
from .ledger import (
    CHANNEL_ID,
    Block,
    WorldState,
    apply_block,
    build_block,
    fold_block,
    make_genesis,
)
from .transactions import (
    Endorsement,
    Envelope,
    QueryEffect,
    QueryTransaction,
    Transaction,
    WriteTransaction,
    _encodable,
    validate_query,
    validate_write,
)

DEFAULT_MEMBERS = ("peer0.org1", "peer0.org2")
BATCH_SIZE = 10
BATCH_TIMEOUT = 2


# The body types; an envelope holding anything else breaks the content rule.
_BODIES = (WriteTransaction, QueryTransaction)

# The tx id's preimage starts with the channel id.
_TX_ID_PREFIX = CHANNEL_ID.encode("utf-8")


def _signature(peer_key: bytes, payload_digest: bytes) -> bytes:
    """The signature of the peer whose UTF-8 encoded id is ``peer_key``."""
    return hashlib.sha256(peer_key + payload_digest).digest()


def sign_endorsement(peer_id: str, payload_digest: bytes) -> Endorsement:
    return Endorsement(peer_id, _signature(peer_id.encode("utf-8"), payload_digest))


def endorsement_valid(end: Endorsement, payload_digest: bytes) -> bool:
    """True iff ``end`` signs ``payload_digest``, the carrying envelope's."""
    return end.signature == _signature(end.peer_id.encode("utf-8"), payload_digest)


def channel_members(members, endorsement_policy: int) -> List[str]:
    """``members``, a list or tuple of peer ids, as a list. Raises ``ConfigInvalid``
    for an id that is not a non-empty string UTF-8 can encode, an id listed twice,
    or a policy that is not an integer in [1, members]."""
    if not (isinstance(members, (list, tuple))
            and all(conforms(m, str) and m and _encodable(m) for m in members)):
        raise ConfigInvalid(f"members {members!r} must be a list or tuple of non-empty peer ids")
    if len(set(members)) != len(members):
        raise ConfigInvalid(f"a peer id is listed more than once in {members!r}")
    if not (conforms(endorsement_policy, int) and 1 <= endorsement_policy <= len(members)):
        raise ConfigInvalid(f"endorsement policy {endorsement_policy!r} outside "
                            f"[1, {len(members)}] for the configured members")
    return list(members)


class ReceiptStatus(Enum):
    PENDING = "pending"
    COMMITTED = "committed"
    CACHED = "cached"
    REJECTED = "rejected"


@dataclass(slots=True)
class TransactionReceipt:
    """Outcome of one submission across the four flow phases.

    Proposal, endorsement and ordering run at ``submit_tick``, and
    validation runs at ``commit_tick``. A rejected receipt names the phase
    it stopped in (``reject_phase``), the error type (``reject_reason``)
    and its message (``detail``). A query's ``response`` is its recorded
    answer's response, the very object for a repeat. A cached receipt
    served from an answer that is endorsed but not yet committed names that
    answer in ``detail``.
    A receipt keeps no record per phase: one is made per submission, and
    every object it holds would stay live for the garbage collector to
    walk until the network is dropped.
    """

    tx_id: str
    kind: str
    submit_tick: int
    status: ReceiptStatus = ReceiptStatus.PENDING
    commit_height: Optional[int] = None
    commit_tick: Optional[int] = None
    reject_phase: str = ""
    reject_reason: str = ""
    detail: str = ""
    response: Optional[object] = None

    @property
    def latency(self) -> Optional[int]:
        if self.commit_tick is None:
            return None
        return self.commit_tick - self.submit_tick


class Peer:
    """One blockchain peer: its chain replica and world state of the channel,
    each keyed by ``CHANNEL_ID``."""

    def __init__(self, peer_id: str, seed_seq: np.random.SeedSequence, genesis: Block):
        self.peer_id = peer_id
        self.rng = np.random.default_rng(seed_seq)
        self.chains: Dict[str, List[Block]] = {CHANNEL_ID: [genesis]}
        self.states: Dict[str, WorldState] = {CHANNEL_ID: WorldState()}


class Channel:
    """Shared ledger scope: members, policy, the orderer's chain, the
    chaincode engine, the budget accountant, and the audit store.

    Committed world state lives only in each member's ``Peer.states``.
    """

    def __init__(self, members: Sequence[str], endorsement_policy: int,
                 epsilon_t: float, engine: ChaincodeEngine):
        self.members = list(members)
        # Each member id, encoded once for checking and, as (id, encoding)
        # pairs in member order, for signing.
        self.member_keys: Dict[str, bytes] = {m: m.encode("utf-8") for m in self.members}
        self._signers: Tuple[Tuple[str, bytes], ...] = tuple(self.member_keys.items())
        self.endorsement_policy = endorsement_policy
        self.chain: List[Block] = [make_genesis(CHANNEL_ID)]
        self.engine = engine
        self.accountant = BudgetAccountant(epsilon_t)
        self.audit: List[Block] = []

    def sign(self, payload_digest: bytes) -> Tuple[Endorsement, ...]:
        """Every member's endorsement of ``payload_digest``, in member order.
        Each is built in C by ``tuple.__new__``, as ``Endorsement._make`` does."""
        new = tuple.__new__
        return tuple([new(Endorsement, (m, _signature(key, payload_digest)))
                      for m, key in self._signers])

    def meets_policy(self, env: Envelope) -> bool:
        """True iff ``env`` carries valid endorsements from at least
        ``endorsement_policy`` distinct members. Checking stops at that
        count: an endorsement that is invalid, from a non-member or from a
        member already counted never counts, so the verdict is the same."""
        keys, digest, need = self.member_keys, env.payload_digest, self.endorsement_policy
        counted: Set[str] = set()
        for peer_id, signature in env.endorsements:
            key = keys.get(peer_id)
            if (key is not None and peer_id not in counted
                    and signature == _signature(key, digest)):
                counted.add(peer_id)
                if len(counted) == need:
                    return True
        return False


class SoloOrderer:
    """Single ordering peer: one FIFO, cut into batches of ``BATCH_SIZE``
    and a remainder once its oldest has waited ``BATCH_TIMEOUT`` ticks."""

    def __init__(self):
        self._pending: List[Tuple[int, Envelope]] = []

    def enqueue(self, env: Envelope, tick: int) -> None:
        self._pending.append((tick, env))

    def has_pending(self) -> bool:
        return bool(self._pending)

    def cut_due(self, tick: int) -> List[List[Envelope]]:
        """Batches ready at this tick: full batches plus a timed-out remainder."""
        out = []
        queue = self._pending
        while len(queue) >= BATCH_SIZE:
            out.append([env for _, env in queue[:BATCH_SIZE]])
            del queue[:BATCH_SIZE]
        if queue and tick - queue[0][0] >= BATCH_TIMEOUT:
            out.append([env for _, env in queue])
            queue.clear()
        return out


class Network:
    """Deterministic driver for the whole simulated network. Each input is
    checked once, here, in ``channel_members`` or, for ``epsilon_t``, by the
    budget accountant; a bad one is ``ConfigInvalid``."""

    def __init__(self, *, members: Sequence[str] = DEFAULT_MEMBERS,
                 endorsement_policy: int = 1, epsilon_t: float = 1.0,
                 reuse_enabled: bool = True, seed: int = 0):
        peer_ids = channel_members(members, endorsement_policy)
        if not isinstance(reuse_enabled, bool):
            raise ConfigInvalid(f"reuse_enabled {reuse_enabled!r} must be a bool")
        if not (conforms(seed, int) and seed >= 0):
            raise ConfigInvalid(f"seed {seed!r} must be an integer >= 0")
        self.clock = 0
        self.orderer = SoloOrderer()
        self.clients: Set[str] = set()
        self.receipts: List[TransactionReceipt] = []
        # The receipts of envelopes handed to the orderer and not yet committed or audited.
        self._receipts_by_id: Dict[str, TransactionReceipt] = {}
        self._submit_seq = 0

        peer_seeds = np.random.SeedSequence([seed, 1]).spawn(len(peer_ids))
        channel = Channel(peer_ids, endorsement_policy, epsilon_t,
                          ChaincodeEngine(reuse_enabled=reuse_enabled))
        # Every peer is a member of the one channel; like each peer's chains
        # and states, it is keyed by its id.
        self.channels: Dict[str, Channel] = {CHANNEL_ID: channel}
        self.peers: Dict[str, Peer] = {
            peer_id: Peer(peer_id, peer_seed, channel.chain[0])
            for peer_id, peer_seed in zip(peer_ids, peer_seeds)}

    def register_client(self, client_id: str) -> None:
        self.clients.add(client_id)

    # -- phase 2: endorsement

    def _collect_endorsements(self, channel: Channel, tx_id: str, tx: Transaction,
                              effect: Optional[QueryEffect] = None) -> Envelope:
        """The envelope endorsed once by every channel member."""
        return Envelope.endorsed(tx_id, tx, effect, channel.sign)

    def _endorse_tx(self, channel: Channel, tx: Transaction, tx_id: str,
                    eps_f: Optional[float],
                    target_peer: Optional[str]):
        """Run phase 2 on a body that ``submit`` has validated. Returns
        (envelope or None, the query's recorded answer or None); a query
        gets an envelope only when its answer is fresh, drawn for ``tx_id``."""
        if isinstance(tx, WriteTransaction):
            return self._collect_endorsements(channel, tx_id, tx), None

        executor_id = target_peer if target_peer is not None else channel.members[0]
        if executor_id not in channel.members:
            raise NotMember(f"{executor_id} is not a member of {CHANNEL_ID}")
        executor = self.peers[executor_id]
        if eps_f is None:
            raise ConfigInvalid("eps_f is required for queries")
        record = channel.engine.answer_query(tx, executor.states[CHANNEL_ID],
                                             channel.accountant, eps_f, executor.rng,
                                             query_id=tx_id)
        if record.response.query_id != tx_id:
            # Served from the recorded answer; nothing new goes to ordering.
            return None, record
        # The fresh answer just endorsed goes to ordering with the balance left.
        effect = QueryEffect(record, channel.accountant.epsilon_rem)
        return self._collect_endorsements(channel, tx_id, tx, effect), record

    # -- submission (phases 1-3; phase 4 happens on tick)

    def submit(self, client_id: str, tx: Transaction, *,
               eps_f: Optional[float] = None,
               target_peer: Optional[str] = None) -> TransactionReceipt:
        """Run phases 1-3 for ``tx`` and return its receipt; a body that fails
        validation, or no body at all, is rejected at endorsement, never raised.

        The body is validated before anything encodes it, and the result is
        kept on it. The tx id is the SHA-256 hex digest of the channel id,
        the 8-byte submission number and the body's canonical bytes; a body
        that fails validation is never encoded, and its tx id hashes the
        channel id and the submission number alone.
        """
        channel = self.channels[CHANNEL_ID]
        self._submit_seq += 1
        is_write = isinstance(tx, WriteTransaction)
        try:
            if not (is_write or isinstance(tx, QueryTransaction)):
                raise ValidationFailure(f"{tx!r} is not a transaction body")
            (validate_write if is_write else validate_query)(tx)
        except DPLedgerError as err:
            invalid, body = err, b""
        else:
            invalid, body = None, tx.canonical_bytes()
        tx_id = hashlib.sha256(
            _TX_ID_PREFIX + self._submit_seq.to_bytes(8, "big") + body).hexdigest()
        receipt = TransactionReceipt(tx_id, "write" if is_write else "query", self.clock)
        self.receipts.append(receipt)

        # Phase 1: proposal from a known, authorized participant.
        if client_id not in self.clients:
            return self._reject(receipt, "proposal", "client not authorized",
                                NotAuthorized.__name__)

        # Phase 2: endorsement (queries execute the privacy module here).
        if invalid is not None:
            return self._reject(receipt, "endorsement", str(invalid), type(invalid).__name__)
        try:
            envelope, record = self._endorse_tx(channel, tx, tx_id, eps_f, target_peer)
        except DPLedgerError as err:
            return self._reject(receipt, "endorsement", str(err), type(err).__name__)
        if record is not None:
            receipt.response = record.response

        if envelope is None:
            pending = channel.engine.pending
            if pending and pending.get(record.key) is record:
                receipt.detail = f"served pending answer {record.response.query_id}"
            receipt.status = ReceiptStatus.CACHED
            receipt.commit_tick = self.clock
            return receipt

        # Phase 3: hand over to the ordering service; the receipt is now in flight.
        self._receipts_by_id[tx_id] = receipt
        self.orderer.enqueue(envelope, self.clock)
        return receipt

    @staticmethod
    def _reject(receipt: TransactionReceipt, phase: str, detail: str,
                reason: str) -> TransactionReceipt:
        receipt.status = ReceiptStatus.REJECTED
        receipt.reject_phase = phase
        receipt.reject_reason = reason
        receipt.detail = detail
        return receipt

    # -- phase 4: ordering output, validation, commit

    def tick(self) -> None:
        """Advance simulated time by one tick and commit any due blocks."""
        self.clock += 1
        channel = self.channels[CHANNEL_ID]
        for batch in self.orderer.cut_due(self.clock):
            block = build_block(batch, channel.chain[-1])
            self.deliver_and_commit(channel, block)

    def run_until_idle(self) -> None:
        """Tick until the orderer holds nothing: within ``BATCH_TIMEOUT`` ticks."""
        while self.orderer.has_pending():
            self.tick()

    def deliver_and_commit(self, channel: Channel, block: Block) -> bool:
        """Check the endorsements, then ``fold_block`` onto the chain head; append
        the block on every member and return True, or audit it and return False.
        Each in-flight receipt of the block leaves the index with its final
        status; an envelope not in flight, such as a committed one replayed,
        changes no receipt."""
        # A digest exists only for a transaction body; the content rule names any other.
        problems = [f"{env.tx_id}: endorsement policy not met" for env in block.envelopes
                    if isinstance(env.tx, _BODIES) and not channel.meets_policy(env)]

        fold = None
        if not problems:
            # Every member has committed the same tx ids; the first one's set stands for all.
            committed = self.peers[channel.members[0]].states[CHANNEL_ID].tx_ids
            try:
                fold = fold_block(block, channel.chain[-1], committed)
            except ValidationFailure as err:
                problems.append(str(err))
        # Committed or audited, the block's answers stop being pending.
        if channel.engine.pending:
            for env in block.envelopes:
                if env.effect is not None:
                    channel.engine.settle(env.effect.record)
        if fold is None:
            channel.audit.append(block)
            for env in block.envelopes:
                receipt = self._receipts_by_id.pop(env.tx_id, None)
                if receipt is not None:
                    self._reject(receipt, "validation", "; ".join(problems),
                                 "ValidationFailure")
            return False

        channel.chain.append(block)
        for peer_id in channel.members:
            peer = self.peers[peer_id]
            peer.chains[CHANNEL_ID].append(block)
            apply_block(peer.states[CHANNEL_ID], fold)
        for env in block.envelopes:
            receipt = self._receipts_by_id.pop(env.tx_id, None)
            if receipt is not None:
                receipt.status = ReceiptStatus.COMMITTED
                receipt.commit_height = block.height
                receipt.commit_tick = self.clock
        return True
