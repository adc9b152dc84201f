import dataclasses
import hashlib
import json

import pytest

from dpledger import (
    Aggregate,
    Block,
    BudgetAccountant,
    CategoryKey,
    ChannelConfig,
    EmptyBatch,
    Envelope,
    InvalidQuantity,
    MissingField,
    PerturbedResponse,
    QueryEffect,
    QueryRecord,
    WorldState,
    build_block,
    export_blocks,
    export_transactions,
    import_transactions,
    make_genesis,
    replay_chain,
    verify_chain,
)
from dpledger import ledger
from dpledger.bench import WorkloadConfig, generate_workload
from dpledger.codec import from_json, to_json
from dpledger.errors import ConfigInvalid, IoFailure, ValidationFailure
from dpledger.ledger import _CELL_IDS, _CELLS, GENESIS_PREV_HASH, apply_block, fold_block
from dpledger.network import DEFAULT_MEMBERS, sign_endorsement
from dpledger.transactions import normalize

from conftest import make_query, make_write

CONFIG = ChannelConfig("mychannel", DEFAULT_MEMBERS, 1, 1.0)
GENESIS = make_genesis(CONFIG)


def _endorsed(tx_id, tx, effect=None):
    """The envelope endorsed by the first member, which meets ``CONFIG``'s policy."""
    return Envelope.endorsed(tx_id, tx, effect,
                             lambda digest: (sign_endorsement(DEFAULT_MEMBERS[0], digest),))


def _chain_of(n_blocks, txs_per_block=3):
    chain = [GENESIS]
    seq = 0
    for _ in range(n_blocks):
        envs = []
        for _ in range(txs_per_block):
            seq += 1
            envs.append(_endorsed(f"tx{seq}", make_write(quantity=1 + seq % 100)))
        chain.append(build_block(envs, chain[-1]))
    return chain


def _record(key_color="red", qid="q0", eps=0.05, value=42.0, reused=False):
    key = CategoryKey(Aggregate.SUM, None, None, key_color)
    resp = PerturbedResponse(value=value, epsilon_used=eps, reused=reused, query_id=qid)
    return QueryRecord(key=key, epsilon_spent=eps, response=resp)


# ---------------------------------------------------------------------------
# writes

def test_single_write_folds_into_one_record(small_state):
    state = WorldState()
    state.apply_write(make_write("Bob", "productX", "red", 10))
    assert state.aggregate_cell("bob", "productx", "red") == (1, 10)
    assert state.aggregate_cell(None, None, None) == (1, 10)


def test_workload_of_500_writes_folds_to_500_records():
    cfg = WorkloadConfig(n_writes=500, n_queries=0)
    schedule = generate_workload(cfg)
    state = WorldState()
    for _, tx in schedule.writes:
        state.apply_write(tx)
    assert state.aggregate_cell(None, None, None) == (
        500, sum(tx.quantity for _, tx in schedule.writes))


def test_quantity_bounds_enforced():
    state = WorldState()
    with pytest.raises(InvalidQuantity):
        state.apply_write(make_write(quantity=101))
    with pytest.raises(InvalidQuantity):
        state.apply_write(make_write(quantity=0))
    assert list(state.cells()) == []


def test_empty_string_fields_rejected():
    state = WorldState()
    with pytest.raises(MissingField):
        state.apply_write(make_write(customer=""))


def test_a_batch_with_an_invalid_write_counts_none():
    state = WorldState()
    with pytest.raises(InvalidQuantity):
        state.apply_writes([make_write(quantity=5), make_write(quantity=0)])
    assert list(state.cells()) == []


_TRIPLE_CELLS = [(c, p, k) for c in (None, "bob") for p in (None, "bolt") for k in (None, "red")]


def test_a_block_of_writes_in_one_triple_counts_every_write_in_each_cell():
    """Ten writes in one block share all eight cells, so each cell id repeats
    ten times in the block's delta; a member must count every repeat."""
    writes = [make_write("Bob", "bolt", "red", q) for q in range(1, 11)]
    genesis = GENESIS
    block = build_block([Envelope(tx_id=f"w{i}", tx=tx) for i, tx in enumerate(writes)],
                        genesis)
    folded, bulk = WorldState(), WorldState()
    apply_block(folded, fold_block(block, genesis, set()))
    bulk.apply_writes(writes)
    for state in (folded, bulk):
        assert {cell: state.aggregate_cell(*cell) for cell in _TRIPLE_CELLS} == \
            dict.fromkeys(_TRIPLE_CELLS, (10, 55))
        assert dict(state.cells()) == dict.fromkeys(_TRIPLE_CELLS, (10, 55))


def test_readers_return_python_numbers(small_state):
    """Counters may be held in any form, but every reader hands out the
    int and float types that ``json.dumps`` encodes."""
    key = CategoryKey(Aggregate.SUM, "bob", None, None)
    for cell in [("bob", "bolt", "red"), (None, None, None), ("nobody", None, None)]:
        assert all(type(v) is int for v in small_state.aggregate_cell(*cell))
    for cell, (count, qty) in small_state.cells():
        assert type(count) is int and type(qty) is int
    assert type(small_state.answer(key)) is float and small_state.answer(key) == 30.0
    assert type(small_state.answer(CategoryKey(Aggregate.COUNT, "nobody", None, None))) is float
    json.loads(small_state.serialize())


# ---------------------------------------------------------------------------
# blocks and chains

def test_block_links_to_genesis():
    genesis = GENESIS
    block = build_block([_endorsed("t1", make_write())], genesis)
    assert block.height == 1
    assert block.prev_hash == genesis.block_hash
    assert verify_chain([genesis, block])


def test_block_hash_is_deterministic():
    genesis = GENESIS
    envs = [Envelope(tx_id="t1", tx=make_write())]
    assert build_block(envs, genesis).block_hash == build_block(envs, genesis).block_hash


def test_empty_batch_rejected():
    with pytest.raises(EmptyBatch):
        build_block([], GENESIS)


def _endorsed_chain():
    """Chain whose middle block holds writes and a query effect, each endorsed twice."""
    chain = _chain_of(1)
    envs = [Envelope(tx_id="w1", tx=make_write()),
            Envelope(tx_id="q1", tx=make_query(color="red"),
                     effect=QueryEffect(record=_record(qid="q1"), eps_rem=0.95)),
            Envelope(tx_id="w2", tx=make_write(quantity=7))]
    envs = [Envelope.endorsed(env.tx_id, env.tx, env.effect,
                              lambda digest: tuple(sign_endorsement(p, digest)
                                                   for p in ("peer0.org1", "peer0.org2")))
            for env in envs]
    chain.append(build_block(envs, chain[-1]))
    chain.append(build_block([_endorsed("w3", make_write())], chain[-1]))
    return chain


def _alter_tx(env):
    return dataclasses.replace(env, tx=dataclasses.replace(env.tx, requester_id="mallory"))


def _alter_eps_rem(env):
    return dataclasses.replace(env, effect=dataclasses.replace(env.effect, eps_rem=0.5))


def _alter_signature(env):
    forged = env.endorsements[0]._replace(signature=bytes(32))
    return dataclasses.replace(env, endorsements=(forged,) + env.endorsements[1:])


def _drop_endorsement(env):
    return dataclasses.replace(env, endorsements=env.endorsements[1:])


@pytest.mark.parametrize("alter", [_alter_tx, _alter_eps_rem, _alter_signature,
                                   _drop_endorsement],
                         ids=["tx-field", "eps-rem", "signature", "dropped-endorsement"])
def test_tampering_one_transaction_breaks_verification(alter):
    chain = _endorsed_chain()
    assert verify_chain(chain)
    target = chain[2]
    envelopes = list(target.envelopes)
    envelopes[1] = alter(envelopes[1])
    chain[2] = dataclasses.replace(target, envelopes=tuple(envelopes))
    assert verify_chain(chain) is False


def test_fresh_chain_verifies():
    assert verify_chain(_chain_of(10)) is True


def test_altered_prev_hash_detected():
    chain = _chain_of(6)
    chain[5] = dataclasses.replace(chain[5], prev_hash=bytes(32))
    assert verify_chain(chain) is False


def test_reordered_blocks_detected():
    """A chain with two blocks swapped, or with a block missing, fails the
    link rule: verify rejects it and replay raises on it."""
    chain = _chain_of(6)
    for broken in ([*chain[:2], chain[3], chain[2], *chain[4:]],
                   [*chain[:3], chain[4], chain[3], *chain[5:]],
                   [*chain[:2], *chain[3:]]):
        assert verify_chain(broken) is False
        with pytest.raises(ValidationFailure, match="does not follow"):
            replay_chain(broken)


def test_genesis_invariants():
    genesis = GENESIS
    assert genesis.height == 0
    assert genesis.prev_hash == GENESIS_PREV_HASH
    assert verify_chain([genesis])
    assert verify_chain([]) is False


_CHANGED_FIELDS = {"channel_id": "other", "members": ("peer0.org1", "peer0.org3"),
                   "endorsement_policy": 2, "epsilon_t": 2.0}


@pytest.mark.parametrize("field", _CHANGED_FIELDS)
def test_each_config_field_changes_the_genesis_hash(field):
    changed = dataclasses.replace(CONFIG, **{field: _CHANGED_FIELDS[field]})
    assert make_genesis(changed).block_hash != GENESIS.block_hash


@pytest.mark.parametrize("field", _CHANGED_FIELDS)
def test_a_genesis_whose_config_was_swapped_is_refused(field):
    """A genesis block that keeps its stored hash but carries another config
    starts no chain that replay, verify or export accept."""
    chain = _chain_of(2)
    swapped = dataclasses.replace(CONFIG, **{field: _CHANGED_FIELDS[field]})
    chain[0] = dataclasses.replace(GENESIS, config=swapped)
    assert verify_chain(chain) is False
    with pytest.raises(ValidationFailure, match="genesis block of 'mychannel'"):
        replay_chain(chain)
    with pytest.raises(IoFailure):
        export_transactions(chain)


def test_config_reads_back_from_its_json_form():
    config = ChannelConfig("mychannel", ["peer0.org1", "peer0.org2"], 2, 3)
    assert config.members == ("peer0.org1", "peer0.org2") and config.epsilon_t == 3.0
    # An int ε_t and its float read as one config, so they hash as one genesis.
    assert make_genesis(config) == make_genesis(dataclasses.replace(config, epsilon_t=3.0))
    assert from_json(ChannelConfig, to_json(config), IoFailure) == config
    assert config.member_keys == {"peer0.org1": b"peer0.org1", "peer0.org2": b"peer0.org2"}


@pytest.mark.parametrize("channel_id", ["", 5], ids=["empty", "int"])
def test_config_refuses_a_bad_channel_id(channel_id):
    """The other fields' checks are reached through ``Network``'s keywords
    (``test_network.py::test_bad_topology_rejected_at_construction``)."""
    with pytest.raises(ConfigInvalid, match="channel id"):
        dataclasses.replace(CONFIG, channel_id=channel_id)


def _two_block_chain(genesis):
    return [genesis, build_block([Envelope(tx_id="t1", tx=make_write())], genesis)]


OTHER = make_genesis(dataclasses.replace(CONFIG, channel_id="other"))


@pytest.mark.parametrize("chain", [[], _two_block_chain(GENESIS)[1:], _two_block_chain(OTHER)],
                         ids=["empty", "no-genesis", "other-channels-genesis"])
def test_replay_and_verify_need_the_channels_genesis_block(chain):
    """As export does, replay raises on and verify rejects a chain that does
    not start with the channel's genesis block."""
    assert verify_chain(chain) is False
    with pytest.raises(ValidationFailure, match="genesis block of 'mychannel'"):
        replay_chain(chain)


@pytest.mark.parametrize("body", [None, 5], ids=["none", "int"])
def test_content_rule_refuses_an_envelope_without_a_body(body):
    """An envelope whose body is neither a write nor a query fails the
    content rule: replay raises naming its tx id, and verify rejects it."""
    genesis = GENESIS
    chain = [genesis, Block(1, genesis.block_hash, (Envelope(tx_id="z", tx=body),), bytes(32))]
    with pytest.raises(ValidationFailure, match=r"^z: .* is not a transaction body$"):
        replay_chain(chain)
    assert verify_chain(chain) is False


def test_verify_never_raises_on_garbage():
    assert verify_chain([None, 3, "block"]) is False


def test_verify_lets_a_library_fault_propagate(monkeypatch):
    """Only a broken rule (a ``DPLedgerError``) makes verify return False;
    any other error is a fault of the library and is raised."""
    def faulty_fold(*args):
        raise AttributeError("faulty fold")

    monkeypatch.setattr(ledger, "fold_block", faulty_fold)
    with pytest.raises(AttributeError, match="faulty fold"):
        verify_chain(_chain_of(2))


# ---------------------------------------------------------------------------
# query effects: the log is the chain, the state keeps the newest answer

def _query_envelope(rec, eps_rem):
    color = rec.key.color
    return _endorsed(rec.response.query_id, make_query(color=color),
                     QueryEffect(record=rec, eps_rem=eps_rem))


def _effects(chain):
    return [env.effect for block in chain for env in block.envelopes
            if env.effect is not None]


def test_chain_keeps_query_effects_in_commit_order():
    chain = _chain_of(1)
    envs = [_query_envelope(_record(qid=f"q{i}"), 1.0 - i * 0.05) for i in range(3)]
    chain.append(build_block(envs[:2], chain[-1]))
    chain.append(build_block(envs[2:] + [_query_envelope(
        _record(key_color="blue", qid="q3"), 0.8)], chain[-1]))
    assert [e.record.response.query_id for e in _effects(chain)] == ["q0", "q1", "q2", "q3"]
    state = replay_chain(chain)
    assert state.lookup(_record().key).response.query_id == "q2"
    assert state.lookup(_record(key_color="blue").key).response.query_id == "q3"


def test_recorded_eps_rem_matches_accountant_arithmetic(rng):
    acct = BudgetAccountant(2.0)
    chain = [GENESIS]
    for block in range(3):
        envs = []
        for i in range(10 * block, 10 * block + 10):
            eps = round(float(rng.uniform(0.01, 0.05)), 4)
            acct.try_spend(eps, f"q{i}", "r")
            envs.append(_query_envelope(_record(qid=f"q{i}", eps=eps), acct.epsilon_rem))
        chain.append(build_block(envs, chain[-1]))
    assert verify_chain(chain)
    effects = _effects(chain)
    assert len(effects) == 30
    spent = sum(e.record.epsilon_spent for e in effects)
    assert effects[-1].eps_rem == pytest.approx(acct.epsilon_t - spent, abs=1e-9)


def test_lookup_returns_most_recent_record():
    state = WorldState()
    first = _record(qid="q0", value=10.0)
    second = _record(qid="q1", value=10.0, reused=True)
    state.record_query(first)
    state.record_query(second)
    assert state.lookup(first.key) is second


# ---------------------------------------------------------------------------
# replay and export

def test_replay_is_deterministic_and_matches_incremental():
    chain = _chain_of(8)
    state_a = replay_chain(chain)
    state_b = replay_chain(chain)
    assert state_a.serialize() == state_b.serialize()

    incremental = WorldState()
    for block in chain[1:]:
        apply_block(incremental, fold_block(block, chain[block.height - 1], incremental.tx_ids))
    assert incremental.serialize() == state_a.serialize()


def _mixed_writes():
    names = ("Bob", " bob", "Claire", "David")
    return [make_write(names[i % 4], ("bolt", "valve", "gear")[i % 3],
                       ("red", "blue")[i % 2], 1 + i) for i in range(24)]


def _write_chain(writes):
    chain = [GENESIS]
    for start in range(0, len(writes), 5):
        chain.append(build_block([Envelope(tx_id=f"w{i}", tx=tx) for i, tx in
                                  enumerate(writes[start:start + 5], start)], chain[-1]))
    return chain


def test_cells_equal_a_loop_over_the_writes():
    """The reference the counters must match: each write adds one and its
    quantity to each of its eight cells, one cell at a time."""
    writes = _mixed_writes()
    want = {}
    for tx in writes:
        triple = (normalize(tx.customer_name), normalize(tx.product_name), normalize(tx.color))
        for mask in range(8):
            cell = tuple(v if mask >> i & 1 else None for i, v in enumerate(triple))
            count, qty = want.get(cell, (0, 0))
            want[cell] = (count + 1, qty + tx.quantity)
    assert dict(replay_chain(_write_chain(writes)).cells()) == want


def test_serialize_is_independent_of_write_order():
    """A state that saw the writes in one order through block folds, one
    that saw them reversed through ``apply_write`` and one that counted them
    as one batch through ``apply_writes`` encode the same index."""
    writes = _mixed_writes()
    chain = _write_chain(writes)
    folded = replay_chain(chain)

    applied, batched = WorldState(), WorldState()
    for tx in reversed(writes):
        applied.apply_write(tx)
    batched.apply_writes(writes)
    for state in (applied, batched):
        state.tx_ids.update(f"w{i}" for i in reversed(range(len(writes))))
        state.height = chain[-1].height
        assert state.serialize() == folded.serialize()


def _bump_cell(state):
    state._counts[_CELL_IDS[("bob", "bolt", "red")]] += 1


def _newer_answer(state):
    state.record_query(_record(qid="q1", value=43.0))


def _other_tx_id(state):
    state.tx_ids.discard("w0")
    state.tx_ids.add("w0x")


@pytest.mark.parametrize("change", [_bump_cell, _newer_answer, _other_tx_id],
                         ids=["cell-count", "latest-answer", "tx-id"])
def test_serialize_tells_one_changed_datum(change):
    chain = [GENESIS]
    chain.append(build_block([Envelope(tx_id=f"w{i}", tx=tx)
                              for i, tx in enumerate(_mixed_writes())], chain[-1]))
    chain.append(build_block([_query_envelope(_record(qid="q0"), 0.95)], chain[-1]))
    state = replay_chain(chain)
    assert state.serialize() == replay_chain(chain).serialize()
    change(state)
    assert state.serialize() != replay_chain(chain).serialize()


def test_state_reads_a_cell_numbered_after_its_counters_as_empty():
    """Cell ids are process-wide. A state whose counters end before a cell
    that another state numbers later reads it as empty and serializes as
    before; once it applies a write in that cell, by a block fold or by
    ``apply_write``, it counts it like a state that saw every write."""
    by_fold, by_write = WorldState(), WorldState()
    for state in (by_fold, by_write):
        state.apply_write(make_write("Bob", "bolt", "red", 10))
    before = by_fold.serialize()
    cell = (f"customer {len(_CELLS)}", "sprocket", "mauve")
    assert cell not in _CELL_IDS
    late = make_write(*cell, quantity=4)
    other = WorldState()
    other.apply_write(late)
    assert _CELL_IDS[cell] >= len(by_fold._counts)
    for state in (by_fold, by_write):
        assert state.aggregate_cell(*cell) == (0, 0)
        assert state.answer(CategoryKey(Aggregate.SUM, *cell)) == 0.0
        assert state.serialize() == before
    genesis = GENESIS
    apply_block(by_fold, fold_block(build_block([Envelope(tx_id="w1", tx=late)], genesis),
                                    genesis, set()))
    by_write.apply_write(late)
    for state in (by_fold, by_write):
        assert state.aggregate_cell(*cell) == (1, 4)
        assert state.answer(CategoryKey(Aggregate.COUNT, *cell)) == 1.0
        assert state.aggregate_cell(None, None, None) == (2, 14)
    assert dict(by_fold.cells()) == dict(by_write.cells())


def test_export_import_round_trip(tmp_path):
    chain = _chain_of(5)
    text = export_transactions(chain)
    config, rows = import_transactions(text)
    assert config == CONFIG and make_genesis(config) == chain[0]
    assert len(rows) == 15
    heights = [h for h, _ in rows]
    assert heights == sorted(heights)
    rebuilt = WorldState()
    for _, env in rows:
        rebuilt.apply_write(env.tx)
    assert rebuilt.aggregate_cell(None, None, None)[0] == 15
    assert dict(rebuilt.cells()) == dict(replay_chain(chain).cells())


def test_genesis_only_chain_round_trips():
    chain = [GENESIS]
    text = export_transactions(chain)
    config, rows = import_transactions(text)
    assert config == CONFIG
    assert rows == []
    # The genesis hash binds the header line itself.
    assert GENESIS.block_hash == hashlib.sha256(b"G" + text.splitlines()[0].encode()).digest()


# The genesis block of another channel, carrying this channel's config: its
# config was swapped and its stored hash kept.
_SWAPPED = dataclasses.replace(OTHER, config=CONFIG)


@pytest.mark.parametrize("chain", [[], [_SWAPPED], _chain_of(2)[1:]],
                         ids=["empty", "other-channel", "no-genesis"])
def test_export_needs_the_channels_genesis_block(chain):
    with pytest.raises(IoFailure):
        export_transactions(chain)


def _dump(*docs) -> str:
    return "".join(json.dumps(doc) + "\n" for doc in docs)


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def _with_tx(row: dict, **fields) -> dict:
    return {**row, "tx": {**row["tx"], **fields}}


_MALFORMED = {
    "not-json": lambda h, r: _dump(h) + _dump(r)[:-2] + "\n",
    "header-not-object": lambda h, r: _dump([h], r),
    "row-not-object": lambda h, r: _dump(h, [r]),
    "height-missing": lambda h, r: _dump(h, _without(r, "height")),
    "height-string": lambda h, r: _dump(h, {**r, "height": "1"}),
    "height-bool": lambda h, r: _dump(h, {**r, "height": True}),
    "tx-missing": lambda h, r: _dump(h, _without(r, "tx")),
    "tx-kind-unknown": lambda h, r: _dump(h, _with_tx(r, kind="delete")),
    "quantity-string": lambda h, r: _dump(h, _with_tx(r, quantity="5")),
    "signature-not-hex": lambda h, r: _dump(h, {**r, "endorsements": [
        {"peer_id": "peer0.org1", "signature": "not hex"}]}),
    "unknown-key": lambda h, r: _dump(h, {**r, "note": 1}),
    # A field that transaction bodies no longer carry is an unknown field too.
    "tx-contract-id": lambda h, r: _dump(h, _with_tx(r, contract_id="supply-ledger")),
    # The header is the genesis block's channel config.
    "header-without-channel": lambda h, r: _dump({"x": 1}, r),
    "header-channel-not-string": lambda h, r: _dump({**h, "channel_id": 5}, r),
    "header-genesis-missing": lambda h, r: _dump(_without(h, "epsilon_t"), r),
    "header-genesis-of-another-channel": lambda h, r: _dump(
        {**h, "genesis_hash": OTHER.block_hash.hex()}, r),
    "height-negative": lambda h, r: _dump(h, {**r, "height": -4}),
    "height-zero": lambda h, r: _dump(h, {**r, "height": 0}),
    "height-decreasing": lambda h, r: _dump(h, {**r, "height": 2}, r),
}


@pytest.mark.parametrize("corrupt", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_export_fails_as_io_failure(corrupt):
    env = Envelope.endorsed("w1", make_write(), None,
                            lambda digest: (sign_endorsement("peer0.org1", digest),))
    chain = [GENESIS]
    chain.append(build_block([env], chain[0]))
    header, row = map(json.loads, export_transactions(chain).splitlines())
    assert import_transactions(_dump(header, row))[1] == [(1, env)]
    with pytest.raises(IoFailure):
        import_transactions(corrupt(header, row))


@pytest.mark.parametrize("header", [
    {"channel_id": "mychannel", "genesis_hash": GENESIS.block_hash.hex()},
    {**to_json(CONFIG), "endorsement_policy": 3},
], ids=["old-format", "invalid-config"])
def test_a_header_that_is_not_a_channel_config_fails_on_line_1(header):
    row = {"height": 1, **to_json(_endorsed("w1", make_write()))}
    with pytest.raises(IoFailure, match="^line 1"):
        import_transactions(_dump(header, row))


def test_block_dump_lists_metadata():
    chain = _chain_of(3)
    lines = export_blocks(chain).strip().splitlines()
    assert len(lines) == 4
    row = json.loads(lines[2])
    assert row["height"] == 2
    assert row["tx_count"] == 3
    assert row["prev_hash"] == chain[1].block_hash.hex()
