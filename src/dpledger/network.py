"""Simulated permissioned network: member peers, one channel, Solo ordering.

Every transaction walks four phases: (1) proposal, (2) endorsement with
privacy-preserving execution for queries, (3) Solo ordering into blocks,
(4) validation and commit on every channel member. The network is its
one channel, ``CHANNEL_ID``, and a peer is its replica of the chain and
its world state. Time is a discrete
tick counter and the whole simulation is a pure function of the
members, seeds, and submission schedule. The first three phases run at
a submission's tick and the fourth at the tick that cuts its block, so a
receipt holds two ticks and, if it was rejected, the phase it stopped
in, with no record per phase.

The network has one chaincode engine and one budget accountant. The
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
body or ε, or a non-body, gets a typed rejected receipt and never raises;
so does a client id that is unknown or not a string.
The body keeps the verdict, so commit's content rule does not run the
full check again. Each envelope's payload digest (SHA-256 over its tx id,
body and query effect) is computed once and kept as raw bytes: endorsers
sign it, committers check signatures against it, and the block hash binds
the height, the previous hash, and each envelope's payload digest plus
its endorsements. An endorsement is only (peer id, signature), both raw
in memory: the signature binds that peer to the digest of the envelope
carrying it, so it verifies on no other payload. Each member id is
encoded once, and ``Network.sign`` keeps the (id, encoding) pairs in member
order. Each member signs a proposal once and the endorsed envelope is built
once: ``Envelope.endorsed`` encodes the payload and hashes it, the network
signs that digest, and the envelope is constructed with its endorsements
and its kept digest, no field set twice.

A block is committed one call per stage. A block commits only if every
envelope has endorsements from enough distinct channel members, the one
rule checked here: ``Network.policy_problems`` checks a block's envelopes
in one call and names each that falls short. The check of an envelope
stops once the policy's count is met: at policy 1, an envelope whose first
endorsement is valid costs one signature and builds nothing. The block
also keeps the rules of ``ledger``: ``fold_block`` checks it against the
chain head as replay does (the link, each envelope's content, no tx id
twice), sums its writes into one cell delta and collects its answers once.
Every member applies that one fold with bulk operations only; an invalid
block goes to audit, its receipts name the broken rule, and no member
changes. Only in-flight receipts are indexed, from hand-over to the orderer
until their block commits or goes to audit, and a committed block settles
its receipts in one loop; a cached or rejected receipt is final at submit,
and an audited replay of a committed envelope leaves its receipt alone.
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
    """One blockchain peer: its replica of the chain and its world state."""

    def __init__(self, peer_id: str, seed_seq: np.random.SeedSequence, genesis: Block):
        self.peer_id = peer_id
        self.rng = np.random.default_rng(seed_seq)
        self.chain: List[Block] = [genesis]
        self.state = WorldState()

    @property
    def chains(self) -> Dict[str, List[Block]]:
        """``{CHANNEL_ID: self.chain}``, read only by perfbench; the benchmark
        change of ROADMAP item 0 moves it to ``chain`` and deletes this view."""
        return {CHANNEL_ID: self.chain}

    @property
    def states(self) -> Dict[str, WorldState]:
        """``{CHANNEL_ID: self.state}``, read only by perfbench; the benchmark
        change of ROADMAP item 0 moves it to ``state`` and deletes this view."""
        return {CHANNEL_ID: self.state}


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
    """Deterministic driver for the whole simulated network, which is also
    its one channel: the members, the policy, the orderer's chain, the
    chaincode engine, the budget accountant and the audit store. Committed
    world state lives only in each member's ``Peer.state``. Each input is
    checked once, here, in ``channel_members`` or, for ``epsilon_t``, by the
    budget accountant; a bad one is ``ConfigInvalid``."""

    def __init__(self, *, members: Sequence[str] = DEFAULT_MEMBERS,
                 endorsement_policy: int = 1, epsilon_t: float = 1.0,
                 reuse_enabled: bool = True, seed: int = 0):
        self.members = channel_members(members, endorsement_policy)
        if not isinstance(reuse_enabled, bool):
            raise ConfigInvalid(f"reuse_enabled {reuse_enabled!r} must be a bool")
        if not (conforms(seed, int) and seed >= 0):
            raise ConfigInvalid(f"seed {seed!r} must be an integer >= 0")
        # Each member id, encoded once for checking and, as (id, encoding)
        # pairs in member order, for signing.
        self.member_keys: Dict[str, bytes] = {m: m.encode("utf-8") for m in self.members}
        self._signers: Tuple[Tuple[str, bytes], ...] = tuple(self.member_keys.items())
        self.endorsement_policy = endorsement_policy
        self.chain: List[Block] = [make_genesis(CHANNEL_ID)]
        self.engine = ChaincodeEngine(reuse_enabled=reuse_enabled)
        self.accountant = BudgetAccountant(epsilon_t)
        self.audit: List[Block] = []
        self.clock = 0
        self.orderer = SoloOrderer()
        self.clients: Set[str] = set()
        self.receipts: List[TransactionReceipt] = []
        # The receipts of envelopes handed to the orderer and not yet committed or audited.
        self._receipts_by_id: Dict[str, TransactionReceipt] = {}
        self._submit_seq = 0

        peer_seeds = np.random.SeedSequence([seed, 1]).spawn(len(self.members))
        self.peers: Dict[str, Peer] = {
            peer_id: Peer(peer_id, peer_seed, self.chain[0])
            for peer_id, peer_seed in zip(self.members, peer_seeds)}

    @property
    def channels(self) -> Dict[str, "Network"]:
        """``{CHANNEL_ID: self}``, read only by perfbench; the benchmark change
        of ROADMAP item 0 moves it to the network's own fields and deletes
        this view."""
        return {CHANNEL_ID: self}

    def register_client(self, client_id: str) -> None:
        """Authorize ``client_id`` to submit; raises ``ConfigInvalid`` for an id
        that is not a string."""
        if not conforms(client_id, str):
            raise ConfigInvalid(f"client id {client_id!r} must be a string")
        self.clients.add(client_id)

    def sign(self, payload_digest: bytes) -> Tuple[Endorsement, ...]:
        """Every member's endorsement of ``payload_digest``, in member order.
        Each is built in C by ``tuple.__new__``, as ``Endorsement._make`` does."""
        new = tuple.__new__
        return tuple([new(Endorsement, (m, _signature(key, payload_digest)))
                      for m, key in self._signers])

    def policy_problems(self, envelopes: Sequence[Envelope]) -> List[str]:
        """The endorsement policy, checked for a block's envelopes in one call:
        "<tx id>: endorsement policy not met" for each transaction body whose
        envelope lacks valid endorsements from ``endorsement_policy`` distinct
        members, in block order. An envelope holding anything else has no
        digest, and the content rule names it. An envelope's check stops at
        the policy's count, and an endorsement that is invalid, from a
        non-member or from a member already counted never counts, so the
        verdict is the same. The members counted so far are a tuple: at
        policy 1 nothing is built per envelope."""
        keys, need = self.member_keys, self.endorsement_policy
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

    # -- phase 2: endorsement

    def _collect_endorsements(self, tx_id: str, tx: Transaction,
                              effect: Optional[QueryEffect] = None) -> Envelope:
        """The envelope endorsed once by every channel member."""
        return Envelope.endorsed(tx_id, tx, effect, self.sign)

    def _endorse_tx(self, tx: Transaction, tx_id: str, eps_f: Optional[float],
                    target_peer: Optional[str]):
        """Run phase 2 on a body that ``submit`` has validated. Returns
        (envelope or None, the query's recorded answer or None); a query
        gets an envelope only when its answer is fresh, drawn for ``tx_id``."""
        if isinstance(tx, WriteTransaction):
            return self._collect_endorsements(tx_id, tx), None

        executor_id = target_peer if target_peer is not None else self.members[0]
        if executor_id not in self.members:
            raise NotMember(f"{executor_id} is not a member of {CHANNEL_ID}")
        executor = self.peers[executor_id]
        if eps_f is None:
            raise ConfigInvalid("eps_f is required for queries")
        record = self.engine.answer_query(tx, executor.state, self.accountant, eps_f,
                                          executor.rng, query_id=tx_id)
        if record.response.query_id != tx_id:
            # Served from the recorded answer; nothing new goes to ordering.
            return None, record
        # The fresh answer just endorsed goes to ordering with the balance left.
        effect = QueryEffect(record, self.accountant.epsilon_rem)
        return self._collect_endorsements(tx_id, tx, effect), record

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

        # Phase 1: proposal from a known, authorized participant, whose id is a string.
        if not (isinstance(client_id, str) and client_id in self.clients):
            return self._reject(receipt, "proposal", "client not authorized",
                                NotAuthorized.__name__)

        # Phase 2: endorsement (queries execute the privacy module here).
        if invalid is not None:
            return self._reject(receipt, "endorsement", str(invalid), type(invalid).__name__)
        try:
            envelope, record = self._endorse_tx(tx, tx_id, eps_f, target_peer)
        except DPLedgerError as err:
            return self._reject(receipt, "endorsement", str(err), type(err).__name__)
        if record is not None:
            receipt.response = record.response

        if envelope is None:
            pending = self.engine.pending
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
        for batch in self.orderer.cut_due(self.clock):
            self.deliver_and_commit(build_block(batch, self.chain[-1]))

    def run_until_idle(self) -> None:
        """Tick until the orderer holds nothing: within ``BATCH_TIMEOUT`` ticks."""
        while self.orderer.has_pending():
            self.tick()

    def deliver_and_commit(self, block: Block) -> bool:
        """Check the endorsements, then ``fold_block`` onto the chain head; append
        the block on every member and return True, or audit it and return False.
        Each in-flight receipt of the block leaves the index with its final
        status; an envelope not in flight, such as a committed one replayed,
        changes no receipt."""
        problems = self.policy_problems(block.envelopes)

        fold = None
        if not problems:
            # Every member has committed the same tx ids; the first one's set stands for all.
            committed = self.peers[self.members[0]].state.tx_ids
            try:
                fold = fold_block(block, self.chain[-1], committed)
            except ValidationFailure as err:
                problems.append(str(err))
        # Committed or audited, the block's answers stop being pending.
        if self.engine.pending:
            for env in block.envelopes:
                if env.effect is not None:
                    self.engine.settle(env.effect.record)
        if fold is None:
            self.audit.append(block)
            for env in block.envelopes:
                receipt = self._receipts_by_id.pop(env.tx_id, None)
                if receipt is not None:
                    self._reject(receipt, "validation", "; ".join(problems),
                                 "ValidationFailure")
            return False

        self.chain.append(block)
        for peer_id in self.members:
            peer = self.peers[peer_id]
            peer.chain.append(block)
            apply_block(peer.state, fold)
        for env in block.envelopes:
            receipt = self._receipts_by_id.pop(env.tx_id, None)
            if receipt is not None:
                receipt.status = ReceiptStatus.COMMITTED
                receipt.commit_height = block.height
                receipt.commit_tick = self.clock
        return True
