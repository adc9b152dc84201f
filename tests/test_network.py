import dataclasses
import gc
import hashlib
import importlib
import inspect
import itertools
import json
import math
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest

import dpledger
from dpledger import (
    Aggregate,
    Block,
    CategoryKey,
    ConfigInvalid,
    Envelope,
    Network,
    Peer,
    PerturbedResponse,
    QueryEffect,
    QueryRecord,
    QueryTransaction,
    ReceiptStatus,
    SoloOrderer,
    build_block,
    export_blocks,
    export_transactions,
    import_transactions,
    make_genesis,
    policy_problems,
    replay_chain,
    verify_chain,
)
from dpledger import ledger, network, transactions
from dpledger.bench import EpsilonSchedule, WorkloadConfig, generate_workload
from dpledger.codec import from_json, to_json
from dpledger.errors import IoFailure, ValidationFailure
from dpledger.ledger import CHANNEL_ID, compute_block_hash, fold_block
from dpledger.network import DEFAULT_MEMBERS, endorsement_valid, sign_endorsement
from dpledger.transactions import Endorsement, WriteTransaction

from conftest import make_query, make_write


def _network(**kwargs):
    defaults = dict(epsilon_t=10.0, seed=3)
    defaults.update(kwargs)
    net = Network(**defaults)
    net.register_client("loader-app")
    net.register_client("distributor-a")
    return net


def _load(net, n=12):
    for i in range(n):
        net.submit("loader-app", make_write(quantity=1 + i % 100,
                                            color=("red", "blue")[i % 2]))
    net.run_until_idle()


def _signed(env, signers):
    """``env`` carrying endorsements by ``signers`` over its payload digest."""
    digest = hashlib.sha256(env.payload_bytes()).digest()
    ends = tuple(sign_endorsement(s, digest) for s in signers)
    return dataclasses.replace(env, endorsements=ends)


def _assert_audited(net, committed, height, n_audited=1):
    assert committed is False
    assert net.chain[-1].height == height
    assert len(net.audit) == n_audited
    assert all(len(p.chain) == height + 1 for p in net.peers.values())


# ---------------------------------------------------------------------------
# ledger export

def test_exported_ledger_rebuilds_every_block_hash():
    net = _network()
    _load(net, 12)
    for _ in range(2):
        for color in ("red", "blue", "green"):
            net.submit("distributor-a", make_query(color=color), eps_f=0.5)
        net.submit("loader-app", make_write(quantity=7))
        net.tick()
    net.run_until_idle()
    statuses = [r.status for r in net.receipts]
    assert ReceiptStatus.CACHED in statuses and ReceiptStatus.REJECTED not in statuses
    chain = net.chain
    assert any(env.effect is not None for block in chain for env in block.envelopes)

    config, rows = import_transactions(export_transactions(chain))
    assert config == net.config and make_genesis(config) == chain[0]
    hashes = [chain[0].block_hash]
    for height, group in itertools.groupby(rows, key=lambda row: row[0]):
        envelopes = [env for _, env in group]
        assert envelopes == list(chain[height].envelopes)
        hashes.append(compute_block_hash(height, hashes[-1], envelopes))
    assert hashes == [block.block_hash for block in chain]
    dumped = [json.loads(line)["block_hash"] for line in export_blocks(chain).splitlines()]
    assert dumped == [h.hex() for h in hashes]


# ---------------------------------------------------------------------------
# write path

def test_valid_write_commits_on_both_peers():
    net = _network()
    receipt = net.submit("loader-app", make_write())
    net.run_until_idle()
    assert receipt.status is ReceiptStatus.COMMITTED
    assert receipt.commit_height == 1
    chains = [p.chain for p in net.peers.values()]
    assert len(chains) == 2
    assert chains[0][-1].block_hash == chains[1][-1].block_hash
    assert all(verify_chain(c) for c in chains)


def test_peer_world_states_serialize_identically_after_commits():
    net = _network()
    _load(net, 25)
    states = [p.state for p in net.peers.values()]
    assert states[0].serialize() == states[1].serialize()
    exports = [export_transactions(p.chain)
               for p in net.peers.values()]
    assert exports[0] == exports[1]


def test_invalid_write_rejected_at_endorsement():
    net = _network()
    receipt = net.submit("loader-app", make_write(quantity=500))
    assert receipt.status is ReceiptStatus.REJECTED
    assert receipt.reject_reason == "InvalidQuantity"
    assert receipt.reject_phase == "endorsement"
    net.run_until_idle()
    assert all(len(p.chain) == 1 for p in net.peers.values())


def test_unregistered_client_rejected_at_proposal():
    net = _network()
    receipt = net.submit("stranger", make_write())
    assert receipt.status is ReceiptStatus.REJECTED
    assert receipt.reject_reason == "NotAuthorized"
    assert receipt.reject_phase == "proposal"
    assert receipt.detail == "client not authorized"


@pytest.mark.parametrize("client", [["c"], {"a": 1}], ids=["list", "dict"])
def test_unhashable_client_rejected_at_proposal(client):
    """An id that cannot be a client gets a rejected receipt, not a raise,
    and leaves no receipt pending."""
    net = _network()
    receipt = net.submit(client, make_write())
    assert (receipt.status, receipt.reject_phase, receipt.reject_reason) == (
        ReceiptStatus.REJECTED, "proposal", "NotAuthorized")
    net.run_until_idle()
    assert all(r.status is not ReceiptStatus.PENDING for r in net.receipts)


@pytest.mark.parametrize("client", [["c"], 7, None, b"c"], ids=["list", "int", "none", "bytes"])
def test_register_client_refuses_a_non_string_id(client):
    net = Network()
    with pytest.raises(ConfigInvalid):
        net.register_client(client)
    assert net.clients == set()


def _median_key_query():
    q = make_query(Aggregate.SUM, color="red")
    return dataclasses.replace(q, key=dataclasses.replace(q.key, aggregate="MEDIAN"))


@pytest.mark.parametrize("client,tx,eps_f,reason", [
    ("distributor-a", _median_key_query(), 0.1, "UnsupportedAggregate"),
    ("loader-app", make_write(quantity="5"), None, "InvalidQuantity"),
    ("loader-app", make_write(quantity=2**70), None, "InvalidQuantity"),
    ("loader-app", make_write(quantity=True), None, "InvalidQuantity"),
    ("loader-app", make_write(customer=None), None, "MissingField"),
    ("loader-app", make_write(color=3), None, "ValidationFailure"),
    ("distributor-a", QueryTransaction(CategoryKey(Aggregate.SUM, None, None, 3),
                                       "distributor-a"), 0.1, "ValidationFailure"),
    ("distributor-a", make_query(Aggregate.SUM, color="red", requester=None), 0.1,
     "MissingField"),
    ("distributor-a", make_query(Aggregate.SUM, color="red"), "0.1", "NonPositiveEpsilon"),
    ("distributor-a", None, 0.1, "ValidationFailure"),
    ("loader-app", 5, None, "ValidationFailure"),
    ("loader-app", make_write(customer="\ud800"), None, "ValidationFailure"),
    ("distributor-a", QueryTransaction(CategoryKey(Aggregate.SUM, None, None, "\ud800"),
                                       "distributor-a"), 0.1, "ValidationFailure"),
    ("distributor-a", make_query(Aggregate.SUM, color="red", requester="\ud800"), 0.1,
     "ValidationFailure"),
], ids=["median-aggregate", "string-quantity", "quantity-past-64-bits", "bool-quantity",
        "no-customer", "int-colour", "int-key-attribute", "no-requester", "string-epsilon",
        "none-body", "int-body", "surrogate-write-field", "surrogate-key-attribute",
        "surrogate-requester"])
def test_malformed_submission_gets_a_typed_rejection(client, tx, eps_f, reason):
    """``submit`` returns a rejected receipt naming the error, and raises
    nothing, for a body or ε that no encoding or spend can take."""
    net = _network()
    _load(net, 3)
    events, height = list(net.accountant.events), net.chain[-1].height
    receipt = net.submit(client, tx, eps_f=eps_f)
    assert receipt.status is ReceiptStatus.REJECTED
    assert (receipt.reject_phase, receipt.reject_reason) == ("endorsement", reason)
    assert receipt.detail and receipt.response is None
    assert not net.orderer.has_pending()
    assert net.accountant.events == events
    net.run_until_idle()
    assert net.chain[-1].height == height


def test_audited_receipts_name_the_broken_link():
    """A block that does not follow the chain head goes to audit, and each of
    its receipts says so."""
    net = _network()
    _load(net, 3)
    receipt = net.submit("loader-app", make_write())
    (_, env), = net.orderer._pending
    block = build_block([env], net.chain[-2])
    height = net.chain[-1].height
    _assert_audited(net, net.deliver_and_commit(block), height)
    assert (receipt.status, receipt.reject_phase) == (ReceiptStatus.REJECTED, "validation")
    assert receipt.detail == f"block {height} does not follow block {height}"


def test_replayed_envelope_leaves_its_committed_receipt():
    """An envelope ordered again after its block committed sends the new block
    to audit; its committed receipt keeps its status and height, and its
    transaction stays on every member's chain."""
    net = _network()
    receipts = [net.submit("loader-app", make_write(quantity=q)) for q in (1, 2)]
    net.run_until_idle()
    replayed = net.chain[-1].envelopes[0]
    assert replayed.tx_id == receipts[0].tx_id
    net.orderer.enqueue(replayed, net.clock)
    net.run_until_idle()
    assert [b.height for b in net.audit] == [2]
    assert [(r.status, r.commit_height, r.detail) for r in receipts] == [
        (ReceiptStatus.COMMITTED, 1, "")] * 2
    assert all(p.chain[1].envelopes[0] is replayed for p in net.peers.values())


def test_tx_id_hashes_the_body_only_when_it_is_valid():
    """A valid body's tx id hashes the channel id, the submission number and
    the body's bytes; a body that fails validation is never encoded, and its
    tx id hashes the first two alone."""
    net = _network()
    good, bad = make_write(), make_write(quantity=0)
    ids = [net.submit("loader-app", tx).tx_id for tx in (good, bad)]
    assert ids == [
        hashlib.sha256(b"mychannel" + (1).to_bytes(8, "big") + good.canonical_bytes()).hexdigest(),
        hashlib.sha256(b"mychannel" + (2).to_bytes(8, "big")).hexdigest()]


# ---------------------------------------------------------------------------
# query path

def test_query_over_exhausted_budget_rejected_without_ledger_change():
    net = _network(epsilon_t=0.25)
    _load(net)
    for i in range(2):
        net.submit("distributor-a", make_query(Aggregate.SUM, color=f"c{i}"), eps_f=0.1)
    pending = dict(net.engine.pending)
    events = list(net.accountant.events)
    height = net.chain[-1].height
    receipt = net.submit("distributor-a", make_query(Aggregate.SUM), eps_f=0.12)
    assert receipt.status is ReceiptStatus.REJECTED
    assert receipt.reject_reason == "BudgetExhausted"
    assert net.engine.pending == pending
    assert net.accountant.events == events
    net.run_until_idle()
    assert net.chain[-1].height == height + 1  # only the two fresh answers


@pytest.mark.parametrize("reuse_enabled", [True, False], ids=["reuse", "naive"])
@pytest.mark.parametrize("change,reason", [
    ({"requester_id": ""}, "MissingField"),
    ({"key": CategoryKey(Aggregate.SUM, None, None, " Red")}, "ValidationFailure"),
], ids=["no-requester", "unnormalized-key"])
def test_invalid_query_rejected_at_endorsement(reuse_enabled, change, reason):
    net = _network(reuse_enabled=reuse_enabled)
    _load(net)
    q = make_query(Aggregate.SUM, color="red")
    # A valid twin is already answered; with reuse on its category is a cache hit.
    net.submit("distributor-a", q, eps_f=0.2)
    pending = dict(net.engine.pending)
    events = list(net.accountant.events)
    queue = list(net.orderer._pending)
    receipt = net.submit("distributor-a", dataclasses.replace(q, **change), eps_f=0.2)
    assert receipt.status is ReceiptStatus.REJECTED
    assert receipt.reject_reason == reason
    assert receipt.reject_phase == "endorsement"
    assert receipt.detail
    assert receipt.response is None
    assert net.engine.pending == pending
    assert net.accountant.events == events
    assert net.orderer._pending == queue


@pytest.mark.parametrize("reuse_enabled", [True, False], ids=["reuse", "naive"])
def test_query_without_epsilon_rejected_before_any_spend_or_reuse(reuse_enabled):
    net = _network(reuse_enabled=reuse_enabled)
    _load(net)
    q = make_query(Aggregate.SUM, color="red")
    # A valid twin is already answered; with reuse on its category is a cache hit.
    net.submit("distributor-a", q, eps_f=0.2)
    events = list(net.accountant.events)
    receipt = net.submit("distributor-a", q)
    assert receipt.status is ReceiptStatus.REJECTED
    assert receipt.reject_reason == "ConfigInvalid"
    assert receipt.response is None
    assert net.accountant.events == events


@pytest.mark.parametrize("reuse_enabled", [True, False], ids=["reuse", "naive"])
@pytest.mark.parametrize("eps_f", [1e-9, float("nan"), float("inf"), float("-inf"), 0.0, -1.0],
                         ids=["sub-floor", "nan", "inf", "-inf", "zero", "negative"])
def test_bad_epsilon_rejected_before_any_spend_or_reuse(reuse_enabled, eps_f):
    net = _network(epsilon_t=5.0, reuse_enabled=reuse_enabled)
    _load(net)
    q = make_query(Aggregate.SUM, color="red")
    # A valid twin is already answered; with reuse on its category is a cache hit.
    net.submit("distributor-a", q, eps_f=0.2)
    total = net.accountant.accumulated_exact()
    events = list(net.accountant.events)
    pending = dict(net.engine.pending)
    receipt = net.submit("distributor-a", q, eps_f=eps_f)
    assert receipt.status is ReceiptStatus.REJECTED
    assert receipt.reject_reason == "NonPositiveEpsilon"
    assert receipt.reject_phase == "endorsement"
    assert receipt.response is None
    assert net.accountant.accumulated_exact() == total
    assert net.accountant.events == events
    assert net.engine.pending == pending
    net.run_until_idle()
    on_chain = sum((Fraction(repr(env.effect.record.epsilon_spent))
                    for block in net.chain for env in block.envelopes
                    if env.effect is not None), Fraction(0))
    assert on_chain == net.accountant.accumulated_exact() == Fraction("0.2")


def test_repeated_query_served_from_cache_without_new_block():
    net = _network()
    _load(net)
    q = make_query(Aggregate.SUM, color="red")
    first = net.submit("distributor-a", q, eps_f=0.2)
    net.run_until_idle()
    height = net.chain[-1].height
    second = net.submit("distributor-a", q, eps_f=0.2)
    net.run_until_idle()
    assert first.status is ReceiptStatus.COMMITTED
    assert second.status is ReceiptStatus.CACHED
    assert second.response is first.response
    assert net.chain[-1].height == height


def test_cached_answers_identical_across_peers():
    net = _network()
    _load(net)
    q = make_query(Aggregate.SUM, color="red")
    values = set()
    for peer_id in list(net.peers) * 3:
        receipt = net.submit("distributor-a", q, eps_f=0.2, target_peer=peer_id)
        values.add(receipt.response.value)
    assert len(values) == 1


def test_repeat_of_a_pending_answer_is_marked_on_its_receipt():
    net = _network()
    _load(net)
    q = make_query(Aggregate.SUM, color="red")
    first = net.submit("distributor-a", q, eps_f=0.2)
    early = net.submit("distributor-a", q, eps_f=0.2, target_peer="peer0.org2")
    net.run_until_idle()
    late = net.submit("distributor-a", q, eps_f=0.2)
    assert first.status is ReceiptStatus.COMMITTED
    assert early.status is late.status is ReceiptStatus.CACHED
    assert early.response.value == late.response.value == first.response.value
    assert early.detail == f"served pending answer {first.tx_id}"
    assert late.detail == ""
    assert net.engine.pending == {}


def test_audited_answer_is_never_served_again():
    net = _network()
    _load(net)
    q = make_query(Aggregate.SUM, color="red")
    first = net.submit("distributor-a", q, eps_f=0.2)
    queue = net.orderer._pending
    queue[:] = [(t, dataclasses.replace(env, endorsements=())) for t, env in queue]
    net.run_until_idle()
    assert first.status is ReceiptStatus.REJECTED
    assert len(net.audit) == 1

    second = net.submit("distributor-a", q, eps_f=0.2)
    assert second.status is not ReceiptStatus.CACHED
    assert second.response.query_id == second.tx_id
    net.run_until_idle()
    assert second.status is ReceiptStatus.COMMITTED
    # The audited answer was released, so its epsilon stays spent.
    assert [e.query_id for e in net.accountant.spend_log] == [first.tx_id, second.tx_id]
    third = net.submit("distributor-a", q, eps_f=0.2)
    assert third.status is ReceiptStatus.CACHED
    assert third.response.value == second.response.value
    for peer in net.peers.values():
        assert (peer.state.serialize()
                == replay_chain(peer.chain).serialize())


def test_receipts_of_an_audited_block_name_the_failing_envelope():
    net = _network()
    good = net.submit("loader-app", make_write())
    bad = net.submit("loader-app", make_write(quantity=7))
    queue = net.orderer._pending
    queue[1] = (queue[1][0], dataclasses.replace(queue[1][1], endorsements=()))
    net.run_until_idle()
    assert len(net.audit) == 1
    for receipt in (good, bad):
        assert receipt.status is ReceiptStatus.REJECTED
        assert receipt.reject_phase == "validation"
        assert receipt.reject_reason == "ValidationFailure"
        assert receipt.detail == f"{bad.tx_id}: endorsement policy not met"
        assert receipt.commit_tick is None


@pytest.mark.parametrize("body", [None, 5], ids=["none", "int"])
def test_block_with_an_envelope_without_a_body_goes_to_audit(body):
    """Commit leaves an envelope whose body is not a transaction, which has
    no payload digest to check endorsements against, to the content rule:
    its block goes to audit and the block's receipts name it."""
    net = _network()
    stray = Block(1, net.chain[-1].block_hash, (Envelope(tx_id="z", tx=body),), bytes(32))
    _assert_audited(net, net.deliver_and_commit(stray), 0)

    good = net.submit("loader-app", make_write())
    bad = net.submit("loader-app", make_write(quantity=7))
    (_, good_env), (_, bad_env) = net.orderer._pending
    net.orderer._pending.clear()
    block = Block(1, net.chain[-1].block_hash,
                  (good_env, dataclasses.replace(bad_env, tx=body)), bytes(32))
    _assert_audited(net, net.deliver_and_commit(block), 0, n_audited=2)
    for receipt in (good, bad):
        assert (receipt.status, receipt.reject_phase) == (ReceiptStatus.REJECTED, "validation")
        assert receipt.detail == f"{bad.tx_id}: {body!r} is not a transaction body"


def test_query_to_non_member_peer_rejected():
    net = _network()
    _load(net)
    receipt = net.submit("distributor-a", make_query(Aggregate.SUM),
                         eps_f=0.1, target_peer="peer9.orgX")
    assert receipt.status is ReceiptStatus.REJECTED
    assert receipt.reject_reason == "NotMember"


# ---------------------------------------------------------------------------
# endorsement tokens

def test_endorsement_token_verifies_against_digest():
    end = sign_endorsement("peer0.org1", b"\xab" * 32)
    assert endorsement_valid(end, b"\xab" * 32)
    assert not endorsement_valid(end, b"\xcd" * 32)


THREE_MEMBERS = ("peer0.retailer", "peer0.distributor", "peer1.distributor")


def test_channel_signs_as_each_member_would_alone():
    net = _network(members=THREE_MEMBERS)
    for digest in (bytes(32), b"\xab" * 32, hashlib.sha256(b"payload").digest()):
        ends = net.sign(digest)
        assert ends == tuple(sign_endorsement(m, digest) for m in THREE_MEMBERS)
        assert [type(end) for end in ends] == [Endorsement] * 3
        assert [end.peer_id for end in ends] == list(THREE_MEMBERS)


@pytest.mark.parametrize("fresh_query", [False, True], ids=["write", "fresh-query"])
def test_endorsed_envelope_equals_the_one_built_field_by_field(fresh_query):
    net = _network(members=THREE_MEMBERS)
    if fresh_query:
        tx = make_query(Aggregate.COUNT, color="red")
        resp = PerturbedResponse(value=4.5, epsilon_used=0.1, reused=False, query_id="t1")
        effect = QueryEffect(QueryRecord(tx.key, 0.1, resp), eps_rem=9.9)
    else:
        tx, effect = make_write(quantity=7), None
    endorsed = Envelope.endorsed("t1", tx, effect, net.sign)
    unsigned = Envelope("t1", tx, effect)
    by_field = Envelope("t1", tx, effect, net.sign(unsigned.payload_digest))
    assert endorsed == by_field
    assert endorsed.payload_digest == by_field.payload_digest == unsigned.payload_digest
    assert endorsed.canonical_bytes() == by_field.canonical_bytes()


@pytest.mark.parametrize("policy", [1, 2, 3])
def test_policy_check_agrees_with_a_reference_count(policy):
    """Every sequence of up to three endorsements drawn from valid, forged,
    duplicated and non-member ones, and the empty one: the policy check
    passes a block of that one envelope iff at least ``policy`` distinct
    members signed this digest."""
    net = _network(members=THREE_MEMBERS, endorsement_policy=policy)
    env = Envelope("w", make_write())
    digest = env.payload_digest
    pool = [sign_endorsement(m, digest) for m in THREE_MEMBERS] + [
        sign_endorsement(THREE_MEMBERS[0], bytes(32)),      # signs another digest
        Endorsement(THREE_MEMBERS[1], bytes(32)),           # forged signature
        sign_endorsement("mallory", digest),                # not a member
    ]

    def reference(ends):
        return len({e.peer_id for e in ends if e.peer_id in THREE_MEMBERS
                    and endorsement_valid(e, digest)}) >= policy

    verdicts = set()
    for n in range(4):
        for ends in itertools.product(pool, repeat=n):
            signed = dataclasses.replace(env, endorsements=ends)
            verdict = not policy_problems([signed], net.config)
            assert verdict == reference(ends), ends
            verdicts.add(verdict)
    assert verdicts == {False, True}


def _bad_endorsements(kind, policy, digest):
    """Valid endorsements of ``digest`` by the first ``policy - 1`` members,
    then one of ``kind``; only a duplicate at policy 1 meets the policy."""
    ends = [sign_endorsement(m, digest) for m in THREE_MEMBERS[:policy - 1]]
    last = THREE_MEMBERS[policy - 1]
    ends.append({"forged": Endorsement(last, bytes(32)),
                 "duplicate-member": sign_endorsement(THREE_MEMBERS[0], digest),
                 "non-member": sign_endorsement("mallory", digest),
                 "wrong-digest": sign_endorsement(last, bytes(32))}[kind])
    return tuple(ends)


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("kind", ["forged", "duplicate-member", "non-member", "wrong-digest"])
@pytest.mark.parametrize("policy", [1, 2, 3])
def test_block_policy_check_names_what_a_reference_count_rejects(policy, kind, position):
    """In a block of three writes, one endorsed badly: the block's policy
    check names exactly the envelopes that fewer than ``policy`` distinct
    members validly signed, in block order, and each audited receipt's
    detail joins those names."""
    net = _network(members=THREE_MEMBERS, endorsement_policy=policy)
    receipts = [net.submit("loader-app", make_write(quantity=q)) for q in (1, 2, 3)]
    pending = net.orderer._pending
    tick, env = pending[position]
    pending[position] = (tick, dataclasses.replace(
        env, endorsements=_bad_endorsements(kind, policy, env.payload_digest)))
    envelopes = [env for _, env in pending]

    def meets(env):
        return len({e.peer_id for e in env.endorsements if e.peer_id in THREE_MEMBERS
                    and endorsement_valid(e, env.payload_digest)}) >= policy

    expected = [f"{env.tx_id}: endorsement policy not met"
                for env in envelopes if not meets(env)]
    assert len(expected) == (0 if (policy, kind) == (1, "duplicate-member") else 1)
    assert policy_problems(envelopes, net.config) == expected
    net.run_until_idle()
    if expected:
        _assert_audited(net, False, 0)
        assert [(r.status, r.reject_phase, r.reject_reason, r.detail) for r in receipts] == [
            (ReceiptStatus.REJECTED, "validation", "ValidationFailure", "; ".join(expected))] * 3
    else:
        assert [r.status for r in receipts] == [ReceiptStatus.COMMITTED] * 3


def test_policy_one_needs_a_single_endorsement():
    net = _network(endorsement_policy=1)
    receipt = net.submit("loader-app", make_write())
    net.run_until_idle()
    assert receipt.status is ReceiptStatus.COMMITTED


# ---------------------------------------------------------------------------
# ordering

def test_full_batches_cut_in_arrival_order():
    net = _network()
    for i in range(20):
        net.submit("loader-app", make_write(quantity=i + 1))
    net.run_until_idle()
    chain = net.chain
    assert [b.height for b in chain] == [0, 1, 2]
    assert [len(b.envelopes) for b in chain[1:]] == [10, 10]
    quantities = [env.tx.quantity for b in chain[1:] for env in b.envelopes]
    assert quantities == list(range(1, 21))


def test_timeout_flushes_partial_batch():
    net = _network()
    for i in range(3):
        net.submit("loader-app", make_write())
    net.run_until_idle()
    chain = net.chain
    assert len(chain) == 2
    assert len(chain[1].envelopes) == 3


def test_identical_schedules_produce_identical_chains():
    def run():
        net = _network(seed=11)
        for i in range(17):
            net.submit("loader-app", make_write(quantity=1 + i))
            if i % 5 == 4:
                net.tick()
        net.run_until_idle()
        return [b.block_hash for b in net.chain]

    assert run() == run()


# ---------------------------------------------------------------------------
# validation and commit

def test_a_later_fresh_answer_in_one_block_wins():
    """Two fresh answers of one category in one block: commit, replay and
    every member's serialized state all keep the later one."""
    net = _network(reuse_enabled=False)
    _load(net, 12)
    query = make_query(Aggregate.SUM, color="red")
    first, second = (net.submit("distributor-a", query, eps_f=0.5) for _ in range(2))
    net.run_until_idle()
    assert first.status is second.status is ReceiptStatus.COMMITTED
    assert first.commit_height == second.commit_height
    assert first.response.value != second.response.value
    chain = net.chain
    replayed = replay_chain(chain)
    states = [p.state for p in net.peers.values()]
    for state in [replayed, *states]:
        assert state.lookup(query.key).response is second.response
        assert state.serialize() == replayed.serialize()
    assert second.tx_id.encode() in replayed.serialize()
    assert first.tx_id.encode() not in replayed.serialize()


def test_unendorsed_transaction_sends_block_to_audit():
    net = _network()
    _load(net, 5)
    height = net.chain[-1].height
    rogue = build_block([Envelope(tx_id="rogue", tx=make_write())], net.chain[-1])
    committed = net.deliver_and_commit(rogue)
    _assert_audited(net, committed, height)

    # Endorsed, then given another body: the endorsements no longer match.
    endorsed = net._collect_endorsements("swap", make_write())
    swapped = dataclasses.replace(endorsed, tx=make_write(quantity=99))
    committed = net.deliver_and_commit(build_block([swapped], net.chain[-1]))
    _assert_audited(net, committed, height, n_audited=2)


def test_verify_and_commit_refuse_a_block_stripped_of_its_endorsements(monkeypatch):
    """A 40-write chain whose block 1 lost every endorsement, the later blocks
    re-linked onto it: verify rejects it and commit audits that block, both
    because one ``policy_problems`` names the same ten envelopes."""
    net = _network()
    _load(net, 40)
    chain = [net.chain[0]]
    for i, block in enumerate(net.chain[1:]):
        envelopes = tuple(dataclasses.replace(env, endorsements=()) for env in block.envelopes)
        chain.append(build_block(envelopes if i == 0 else block.envelopes, chain[-1]))
    assert network.policy_problems is ledger.policy_problems
    calls = []

    def spy(envelopes, config):
        problems = policy_problems(envelopes, config)
        calls.append(problems)
        return problems

    monkeypatch.setattr(ledger, "policy_problems", spy)
    monkeypatch.setattr(network, "policy_problems", spy)
    assert replay_chain(chain).serialize() == net.peers[DEFAULT_MEMBERS[0]].state.serialize()
    assert verify_chain(chain) is False
    fresh = _network()
    assert fresh.deliver_and_commit(chain[1]) is False and fresh.audit == [chain[1]]
    expected = [f"{env.tx_id}: endorsement policy not met" for env in chain[1].envelopes]
    assert len(expected) == 10 and calls == [expected, expected]


@pytest.mark.parametrize("signers,commits", [
    (("peer0.org1", "peer0.org2"), True),
    (("mallory", "mallory"), False),
    (("peer0.org1", "peer0.org1"), False),
], ids=["two-members", "non-member", "same-member-twice"])
def test_policy_counts_only_distinct_channel_members(signers, commits):
    net = _network(endorsement_policy=2)
    env = _signed(Envelope(tx_id="w", tx=make_write()), signers)
    committed = net.deliver_and_commit(build_block([env], net.chain[-1]))
    if commits:
        assert committed is True
        assert net.chain[-1].height == 1
        assert all(len(p.chain) == 2 for p in net.peers.values())
    else:
        _assert_audited(net, committed, 0)


@pytest.mark.parametrize("policy,first,commits", [
    (1, "forged", True),
    (1, "non-member", True),
    (2, "forged", False),
], ids=["policy-1-forged-first", "policy-1-non-member-first", "policy-2-one-forged"])
def test_policy_check_stops_only_at_enough_valid_endorsements(policy, first, commits):
    """The check stops once the policy's count of distinct valid members is
    reached; an endorsement before that which does not count is skipped."""
    net = _network(endorsement_policy=policy)
    env = _signed(Envelope(tx_id="w", tx=make_write()), ("mallory", "peer0.org2"))
    if first == "forged":
        env = dataclasses.replace(env, endorsements=(
            Endorsement("peer0.org1", bytes(32)), env.endorsements[1]))
    committed = net.deliver_and_commit(build_block([env], net.chain[-1]))
    if commits:
        assert committed is True
        assert all(len(p.chain) == 2 for p in net.peers.values())
    else:
        _assert_audited(net, committed, 0)


def test_endorsed_invalid_write_sends_block_to_audit():
    net = _network()
    _load(net, 3)
    height = net.chain[-1].height
    before = [(p.chain[:], p.state.serialize())
              for p in net.peers.values()]
    good = _signed(Envelope(tx_id="w1", tx=make_write(quantity=5)), net.members)
    bad = _signed(Envelope(tx_id="w0", tx=make_write(quantity=0)), net.members)
    committed = net.deliver_and_commit(build_block([good, bad], net.chain[-1]))
    _assert_audited(net, committed, height)
    assert [(p.chain, p.state.serialize())
            for p in net.peers.values()] == before


def test_members_share_no_mutable_cell():
    net = _network()
    _load(net, 12)
    mine, other = (p.state for p in net.peers.values())
    cells, serialized = dict(other.cells()), other.serialize()
    assert dict(mine.cells()) == cells
    mine.apply_write(make_write(quantity=5, color="red"))
    assert mine.aggregate_cell(None, None, None) == (13, 83)
    assert {cell: other.aggregate_cell(*cell) for cell in cells} == cells
    assert other.serialize() == serialized


def _assert_no_answer_committed(net):
    """No query effect is on any member's chain, and no member's state
    holds an answer."""
    for peer in net.peers.values():
        assert all(env.effect is None
                   for block in peer.chain for env in block.envelopes)
        assert peer.state._latest == {}


@pytest.mark.parametrize("eps_spent,eps_used,reused", [
    (0.0, 0.0, False),
    (0.1, 0.1, True),
    (0.1, 0.2, False),
], ids=["no-epsilon", "reused", "epsilon-mismatch"])
def test_invalid_query_effect_sends_block_to_audit(eps_spent, eps_used, reused):
    net = _network()
    _load(net, 3)
    height = net.chain[-1].height
    key = CategoryKey(Aggregate.SUM, None, None, "red")
    resp = PerturbedResponse(value=5.0, epsilon_used=eps_used, reused=reused, query_id="q")
    effect = QueryEffect(QueryRecord(key, eps_spent, resp), eps_rem=9.9)
    env = _signed(Envelope(tx_id="q", tx=make_query(color="red"), effect=effect),
                  net.members)
    committed = net.deliver_and_commit(build_block([env], net.chain[-1]))
    _assert_audited(net, committed, height)
    _assert_no_answer_committed(net)


@pytest.mark.parametrize("tx,with_effect", [
    (make_query(Aggregate.SUM, color="red"), False),
    (make_write(), True),
], ids=["query-without-effect", "write-with-effect"])
def test_effect_must_match_envelope_kind(tx, with_effect):
    net = _network()
    _load(net, 3)
    height = net.chain[-1].height
    key = CategoryKey(Aggregate.SUM, None, None, "red")
    resp = PerturbedResponse(value=5.0, epsilon_used=0.1, reused=False, query_id="x")
    effect = QueryEffect(QueryRecord(key, 0.1, resp), eps_rem=9.9) if with_effect else None
    env = net._collect_endorsements("x", tx, effect)
    committed = net.deliver_and_commit(build_block([env], net.chain[-1]))
    _assert_audited(net, committed, height)
    _assert_no_answer_committed(net)


def _effect(eps_spent=0.1, eps_used=0.1, reused=False, qid="x0", color="red"):
    key = CategoryKey(Aggregate.SUM, None, None, color)
    resp = PerturbedResponse(value=5.0, epsilon_used=eps_used, reused=reused, query_id=qid)
    return QueryEffect(QueryRecord(key, eps_spent, resp), eps_rem=9.9)


@pytest.mark.parametrize("contents,valid", [
    ([(make_write(), None), (make_query(color="red"), _effect(qid="x1"))], True),
    ([(make_query(color="red"), None)], False),
    ([(make_write(), _effect())], False),
    ([(make_query(color="red"), _effect(reused=True))], False),
    ([(make_query(color="red"), _effect(eps_used=0.2))], False),
    ([(make_query(color="red"), _effect(0.0, 0.0))], False),
    ([(make_query(color="red"), _effect(math.inf, math.inf))], False),
    ([(make_query(color="red"), _effect(1e-9, 1e-9))], False),
    ([(make_query(color="red"), _effect(color="blue"))], False),
    ([(make_query(color="red"), _effect(qid="q"))], False),
    ([(make_query(color="red", requester=""), _effect())], False),
    ([(QueryTransaction(CategoryKey(Aggregate.SUM, None, None, " Red"), "distributor-a"),
       _effect(color=" Red"))], False),
], ids=["clean", "query-without-effect", "write-with-effect", "reused-effect",
        "epsilon-mismatch", "zero-epsilon", "infinite-epsilon", "below-epsilon-min",
        "effect-for-another-query", "query-id-of-another-tx", "query-without-requester",
        "unnormalized-key"])
def test_commit_replay_and_verify_apply_one_content_rule(contents, valid):
    """An endorsed block that commit audits is one that replay raises on and
    verify rejects; a block that commit appends, both accept."""
    net = _network()
    _load(net, 3)
    envs = [net._collect_endorsements(f"x{i}", tx, effect)
            for i, (tx, effect) in enumerate(contents)]
    block = build_block(envs, net.chain[-1])
    chain = net.chain + [block]
    assert net.deliver_and_commit(block) is valid
    assert verify_chain(chain) is valid
    if valid:
        for peer in net.peers.values():
            assert replay_chain(chain).serialize() == peer.state.serialize()
    else:
        with pytest.raises(ValidationFailure, match="^x0: "):
            replay_chain(chain)


def test_only_the_genesis_block_carries_a_config():
    """A config on a later block is bound by no hash: commit audits the
    block, replay raises on it and verify rejects it."""
    net = _network()
    _load(net, 3)
    envs = [net._collect_endorsements("x0", make_write())]
    block = dataclasses.replace(build_block(envs, net.chain[-1]), config=net.config)
    chain = net.chain + [block]
    assert net.deliver_and_commit(block) is False
    assert verify_chain(chain) is False
    with pytest.raises(ValidationFailure, match="^block 2 carries a channel config$"):
        replay_chain(chain)


@pytest.mark.parametrize("make_body", [
    lambda tx: dataclasses.replace(tx, quantity=0),
    lambda tx: from_json(WriteTransaction, {**to_json(tx), "quantity": 0}, IoFailure),
    lambda tx: WriteTransaction(tx.product_name, tx.color, 0, tx.customer_name),
], ids=["replace", "from-json", "constructed"])
def test_kept_validation_does_not_carry_to_a_new_write(make_body):
    """A write validated and committed once; a new body with quantity 0
    built from it is rejected at endorsement, and an envelope forged around
    it, never validated, is rejected by commit, fold, replay and verify."""
    net = _network()
    tx = make_write()
    assert net.submit("loader-app", tx) and tx._canonical is not None
    net.run_until_idle()
    bad = make_body(tx)
    assert bad._canonical is None
    receipt = net.submit("loader-app", bad)
    assert (receipt.status, receipt.reject_reason) == (ReceiptStatus.REJECTED,
                                                       "InvalidQuantity")
    env = net._collect_endorsements("x0", bad)
    block = build_block([env], net.chain[-1])
    with pytest.raises(ValidationFailure, match="^x0: quantity 0"):
        fold_block(block, net.chain[-1], set())
    chain = net.chain + [block]
    _assert_audited(net, net.deliver_and_commit(block), 1)
    with pytest.raises(ValidationFailure, match="^x0: "):
        replay_chain(chain)
    assert verify_chain(chain) is False


def test_kept_validation_does_not_carry_to_a_new_query():
    """As for writes: a query answered once, then given an unnormalized key
    by ``dataclasses.replace``, is rejected at endorsement and at commit."""
    net = _network()
    _load(net, 3)
    q = make_query(Aggregate.SUM, color="red")
    assert net.submit("distributor-a", q, eps_f=0.1).status is ReceiptStatus.PENDING
    assert q._canonical is not None
    bad = dataclasses.replace(q, key=dataclasses.replace(q.key, color=" Red"))
    receipt = net.submit("distributor-a", bad, eps_f=0.1)
    assert (receipt.status, receipt.reject_reason) == (ReceiptStatus.REJECTED,
                                                       "ValidationFailure")
    net.run_until_idle()
    height = net.chain[-1].height
    env = net._collect_endorsements("x0", bad, _effect(color=" Red"))
    block = build_block([env], net.chain[-1])
    with pytest.raises(ValidationFailure, match="not normalized"):
        fold_block(block, net.chain[-1], set())
    _assert_audited(net, net.deliver_and_commit(block), height)
    assert verify_chain(net.chain + [block]) is False


@pytest.mark.parametrize("case", ["replayed-write", "replayed-query",
                                  "one-query-id-twice-in-a-block"])
def test_commit_replay_and_verify_reject_a_repeated_tx_id(case):
    """A tx id already on the chain, or earlier in its block, sends the block
    to audit, and replay raises on it and verify rejects it: a write counts
    once, and a query's fresh epsilon is on the chain once."""
    net = _network()
    _load(net, 3)
    tx, effect = ((make_write(), None) if case == "replayed-write"
                  else (make_query(color="red"), _effect(qid="x")))
    env = net._collect_endorsements("x", tx, effect)
    if case == "one-query-id-twice-in-a-block":
        block = build_block([env, env], net.chain[-1])
    else:
        assert net.deliver_and_commit(build_block([env], net.chain[-1]))
        block = build_block([env], net.chain[-1])
    states = [p.state.serialize() for p in net.peers.values()]
    chain = net.chain + [block]
    _assert_audited(net, net.deliver_and_commit(block), block.height - 1)
    assert [p.state.serialize() for p in net.peers.values()] == states
    assert verify_chain(chain) is False
    with pytest.raises(ValidationFailure, match="^x: repeated tx id$"):
        replay_chain(chain)


@pytest.mark.parametrize("kwargs", [
    {"endorsement_policy": 5},
    {"endorsement_policy": 0},
    {"endorsement_policy": True},
    {"members": ("p0", "p0")},
    {"members": ()},
    {"members": ("p0", "")},
    {"members": ("p0", 7)},
    {"members": ("p0", "\ud800")},
    {"members": "p0"},
    {"seed": -1},
    {"seed": 1.5},
    {"seed": True},
    {"epsilon_t": 0.0},
    {"epsilon_t": -1.0},
    {"epsilon_t": math.inf},
    {"epsilon_t": math.nan},
    {"epsilon_t": True},
    {"epsilon_t": "1.0"},
    {"reuse_enabled": "no"},
    {"reuse_enabled": 1},
], ids=["policy-above-members", "policy-zero", "policy-bool", "member-twice", "no-members",
        "member-empty", "member-not-string", "member-not-utf8", "members-string",
        "seed-negative", "seed-float", "seed-bool", "epsilon-zero", "epsilon-negative",
        "epsilon-inf", "epsilon-nan", "epsilon-bool", "epsilon-string", "reuse-string",
        "reuse-int"])
def test_bad_topology_rejected_at_construction(kwargs):
    with pytest.raises(ConfigInvalid):
        Network(**kwargs)


def test_network_takes_only_what_a_caller_varies():
    # Every keyword is set by a shipped caller or carries the distinct-member
    # invariant; batching is fixed, and draining needs no bound.
    assert list(inspect.signature(Network).parameters) == [
        "members", "endorsement_policy", "epsilon_t", "reuse_enabled", "seed"]
    assert not inspect.signature(SoloOrderer).parameters
    assert list(inspect.signature(Network.run_until_idle).parameters) == ["self"]


@pytest.mark.parametrize("members", [DEFAULT_MEMBERS, THREE_MEMBERS], ids=["default", "three"])
def test_channel_views_read_the_flat_scope(members):
    """The network is its one channel, and a peer's chain and state are its
    own fields; the keyed views return those very objects."""
    net = _network(members=members)
    _load(net, 3)
    assert list(net.channels) == [CHANNEL_ID] and net.channels[CHANNEL_ID] is net
    for peer in net.peers.values():
        assert list(peer.chains) == list(peer.states) == [CHANNEL_ID]
        assert peer.chains[CHANNEL_ID] is peer.chain
        assert peer.states[CHANNEL_ID] is peer.state
    assert all(p.chain == net.chain for p in net.peers.values())
    # Views, not stored fields: a stored {CHANNEL_ID: net} would make every
    # network a reference cycle.
    for cls, name in ((Network, "channels"), (Peer, "chains"), (Peer, "states")):
        assert isinstance(vars(cls)[name], property) and vars(cls)[name].fset is None


def test_library_keeps_one_flat_channel_scope():
    """No module defines a channel object or looks the channel up by id."""
    src = Path(__file__).resolve().parents[1] / "src" / "dpledger"
    hits = [(path.name, match) for path in sorted(src.rglob("*.py"))
            for match in re.findall(r"^class Channel\b|\[CHANNEL_ID\]",
                                    path.read_text(), re.M)]
    assert hits == []


def test_custom_topology_commits_a_generated_schedule():
    # Three members, two endorsements per envelope.
    net = _network(members=("peer0.retailer", "peer0.distributor", "peer1.distributor"),
                   endorsement_policy=2)
    schedule = generate_workload(WorkloadConfig(
        n_writes=40, n_queries=4, epsilon_t=5.0,
        epsilon_schedule=EpsilonSchedule(kind="uniform", low=0.01, high=0.12), seed=13))
    for _, tx in schedule.writes:
        net.submit("loader-app", tx)
    net.run_until_idle()
    for plan in schedule.queries:
        net.submit(plan.tx.requester_id, plan.tx, eps_f=plan.eps_f)
    net.run_until_idle()
    assert [r.status for r in net.receipts] == [ReceiptStatus.COMMITTED] * (40 + 4)
    chain = net.chain
    assert all(len(env.endorsements) >= 2 for block in chain[1:] for env in block.envelopes)
    assert len(net.peers) == 3
    for peer in net.peers.values():
        assert [b.block_hash for b in peer.chain] == [b.block_hash for b in chain]
    states = {p.state.serialize() for p in net.peers.values()}
    assert len(states) == 1


def test_phase_ticks_are_monotone():
    net = _network()
    for i in range(30):
        net.submit("loader-app", make_write())
        if i % 7 == 0:
            net.tick()
    net.run_until_idle()
    for receipt in net.receipts:
        assert receipt.status is ReceiptStatus.COMMITTED
        assert receipt.commit_tick >= receipt.submit_tick
        assert receipt.latency == receipt.commit_tick - receipt.submit_tick



# ---------------------------------------------------------------------------
# objects kept per transaction

def _tracked_per_submission(net, stream):
    """Growth of the objects the garbage collector tracks, per submission of
    ``stream``, once every block has committed. The closed loop of the
    benchmark: one tick per ten submissions."""
    gc.collect()
    before = len(gc.get_objects())
    for i, (client, tx, eps_f) in enumerate(stream, 1):
        net.submit(client, tx, eps_f=eps_f)
        if i % 10 == 0:
            net.tick()
    net.run_until_idle()
    gc.collect()
    return (len(gc.get_objects()) - before) / len(stream)


def test_tracked_objects_kept_per_transaction():
    """A committed write, a committed fresh query and a cached query each
    leave only their own records: the receipt, the envelope with its
    endorsements and, for a fresh query, its response, record and effect.
    A cached query keeps its receipt alone, which holds the recorded
    response itself. The budget's event log, the receipts' phases and the
    world state keep none: a write is on the chain only."""
    writes = [("loader-app", make_write(quantity=1 + i % 100), None)
              for i in range(1000)]
    queries = [("distributor-a", make_query(Aggregate.SUM, color=f"c{i}"), 0.01)
               for i in range(20)]
    naive = _network(epsilon_t=100.0, reuse_enabled=False)
    assert _tracked_per_submission(naive, writes) == pytest.approx(5.2, abs=0.3)
    assert _tracked_per_submission(naive, queries * 50) == pytest.approx(8.2, abs=0.3)
    reuse = _network(epsilon_t=100.0)
    _tracked_per_submission(reuse, writes[:100] + queries)
    assert _tracked_per_submission(reuse, queries * 50) == pytest.approx(1.0, abs=0.3)
    assert all(r.status is not ReceiptStatus.REJECTED for r in naive.receipts + reuse.receipts)


def test_work_per_fresh_query(monkeypatch):
    """On the default topology at policy 1, a committed fresh query costs
    5.1 SHA-256 calls: its tx id, its payload digest, one signature per
    member, one signature checked at commit (the policy is met there) and a
    tenth of its block's hash. Each query body runs ``validate_query``'s
    full check once, however often it is submitted: the check normalizes
    each key attribute, and these keys have one."""
    net = _network(epsilon_t=100.0, reuse_enabled=False)
    queries = [make_query(Aggregate.SUM, color=f"c{i}") for i in range(20)]
    calls = dict.fromkeys(("sha256", "normalize"), 0)
    sha256, normalize = hashlib.sha256, transactions.normalize

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(hashlib, "sha256", counted("sha256", sha256))
    monkeypatch.setattr(transactions, "normalize", counted("normalize", normalize))
    for i, q in enumerate(queries * 10, 1):
        net.submit("distributor-a", q, eps_f=0.01)
        if i % 10 == 0:
            net.tick()
    net.run_until_idle()
    monkeypatch.undo()
    committed = [r for r in net.receipts if r.status is ReceiptStatus.COMMITTED]
    assert len(committed) == 200
    assert calls["sha256"] / len(committed) == pytest.approx(5.1)
    assert calls["normalize"] / len(queries) == 1


def test_work_per_write(monkeypatch):
    """On the default topology at policy 1, a committed write costs 5.1
    SHA-256 calls: its tx id, its payload digest, one signature per member,
    one signature checked at commit and a tenth of its block's hash. Each
    write body runs ``validate_write``'s full check once: the check asks
    each text field whether it is ASCII, and here the product name counts."""
    asked = [0]

    class Product(str):
        def isascii(self):
            asked[0] += 1
            return super().isascii()

    net = _network()
    writes = [make_write(product=Product("bolt"), quantity=1 + i % 100) for i in range(200)]
    calls = [0]
    sha256 = hashlib.sha256

    def counted(*args):
        calls[0] += 1
        return sha256(*args)

    monkeypatch.setattr(hashlib, "sha256", counted)
    for i, w in enumerate(writes, 1):
        net.submit("loader-app", w)
        if i % 10 == 0:
            net.tick()
    net.run_until_idle()
    monkeypatch.undo()
    committed = [r for r in net.receipts if r.status is ReceiptStatus.COMMITTED]
    assert len(committed) == 200
    assert calls[0] / len(committed) == pytest.approx(5.1)
    assert asked[0] / len(writes) == 1


def test_work_per_cached_query(monkeypatch):
    """A repeat served while no answer is pending hashes its key once, in the
    committed state, and no receipt stays indexed once the network is idle:
    the index holds only receipts whose envelopes are in flight."""
    queries = [make_query(Aggregate.SUM, color=f"c{i}") for i in range(20)]
    for reuse_enabled in (False, True):
        net = _network(epsilon_t=100.0, reuse_enabled=reuse_enabled)
        _load(net, 50)
        for _ in range(10):
            for q in queries:
                net.submit("distributor-a", q, eps_f=0.01)
            net.tick()
        net.run_until_idle()
        assert len(net.receipts) == 250
        assert net._receipts_by_id == {}

    assert net.engine.pending == {}
    calls = [0]
    key_hash = CategoryKey.__hash__

    def counted(key):
        calls[0] += 1
        return key_hash(key)

    monkeypatch.setattr(CategoryKey, "__hash__", counted)
    cached = [net.submit("distributor-a", q, eps_f=0.01) for q in queries * 10]
    monkeypatch.undo()
    assert all(r.status is ReceiptStatus.CACHED for r in cached)
    assert calls[0] / len(cached) == 1.0
    assert net._receipts_by_id == {}


def test_serialized_state_does_not_grow_with_the_history():
    """A member's ``serialize()`` encodes the index, not the chain: over
    1,000 committed writes, and over 200 fresh queries on 5 categories, it
    grows by at most 80 bytes per committed transaction."""
    net = _network(epsilon_t=100.0, reuse_enabled=False)
    state = net.peers[net.members[0]].state
    sizes = [len(state.serialize())]
    for stream in ([("loader-app", make_write(quantity=1 + i % 100), None)
                    for i in range(1000)],
                   [("distributor-a", make_query(Aggregate.SUM, color=f"c{i % 5}"), 0.01)
                    for i in range(200)]):
        for client, tx, eps_f in stream:
            net.submit(client, tx, eps_f=eps_f)
        net.run_until_idle()
        sizes.append(len(state.serialize()))
    assert all(r.status is ReceiptStatus.COMMITTED for r in net.receipts)
    assert (sizes[1] - sizes[0]) / 1000 <= 80
    assert (sizes[2] - sizes[1]) / 200 <= 80


def test_library_leaves_the_garbage_collector_alone():
    """Fewer objects, not collector settings, keep collections short."""
    src = Path(__file__).resolve().parents[1] / "src" / "dpledger"
    importers = [path.name for path in src.rglob("*.py")
                 if re.search(r"^\s*(import|from)\s+gc\b", path.read_text(), re.M)]
    assert importers == []


def test_no_module_binds_sha256_itself():
    """The SHA-256 work pins count calls through ``hashlib.sha256``; a module
    that bound that function to a global at import would hide its calls."""
    modules = [importlib.import_module(f"dpledger.{info.name}")
               for info in pkgutil.iter_modules(dpledger.__path__)]
    assert len(modules) >= 11
    holders = [(m.__name__, name) for m in [dpledger, *modules]
               for name, value in vars(m).items() if value is hashlib.sha256]
    assert holders == []
