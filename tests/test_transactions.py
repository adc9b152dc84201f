import dataclasses
import hashlib
import json

import pytest

from dpledger import (
    Aggregate,
    CategoryKey,
    Endorsement,
    Envelope,
    MissingField,
    PerturbedResponse,
    QueryEffect,
    QueryPredicate,
    QueryRecord,
    UnsupportedAggregate,
    make_genesis,
    normalize,
    validate_query,
    validate_write,
)
from dpledger.codec import from_json, to_json
from dpledger.errors import IoFailure
from dpledger.ledger import compute_block_hash
from dpledger.network import sign_endorsement

from conftest import make_query, make_write


def test_normalize_trims_and_casefolds():
    assert normalize("  ReD ") == "red"
    assert normalize("Straße") == normalize("STRASSE")


def test_canonical_bytes_stable_and_distinct():
    a = make_write()
    assert a.canonical_bytes() == make_write().canonical_bytes()
    assert a.canonical_bytes() != make_write(quantity=11).canonical_bytes()
    q = make_query(Aggregate.SUM, color="red")
    assert q.canonical_bytes() != make_query(Aggregate.COUNT, color="red").canonical_bytes()


def test_write_validation_covers_every_string_field():
    for field in ("product_name", "color", "customer_name"):
        tx = make_write()
        broken = dataclasses.replace(tx, **{field: ""})
        with pytest.raises(MissingField):
            validate_write(broken)


def test_query_requires_supported_aggregate():
    q = make_query()
    broken = dataclasses.replace(q, aggregate="MEDIAN")
    with pytest.raises(UnsupportedAggregate):
        validate_query(broken)


def test_predicate_normalization_is_fieldwise():
    pred = QueryPredicate(customer_name=" Bob ", color="RED")
    norm = pred.normalized()
    assert norm.customer_name == "bob"
    assert norm.product_name is None
    assert norm.color == "red"


def test_envelope_dict_round_trip():
    env = Envelope(tx_id="t1", tx=make_write())
    again = from_json(Envelope, to_json(env), IoFailure)
    assert again == env
    qenv = Envelope(tx_id="t2", tx=make_query(Aggregate.COUNT, customer="Bob"))
    assert from_json(Envelope, to_json(qenv), IoFailure) == qenv
    record = QueryRecord(CategoryKey(Aggregate.SUM, "bob", None, "red"), 0.25,
                         PerturbedResponse(123.456, 0.25, False, "t3"))
    full = Envelope("t3", make_query(Aggregate.SUM, customer="Bob", color="red"),
                    QueryEffect(record, eps_rem=0.75),
                    (Endorsement("peer0.org1", bytes(range(32))),
                     Endorsement("peer0.org2", bytes(32))))
    row = json.loads(json.dumps(to_json(full)))
    # A predicate writes only the attributes it filters on; nulls still read.
    assert row["tx"]["predicate"] == {"customer_name": "Bob", "color": "red"}
    again = from_json(Envelope, row, IoFailure)
    assert again == full
    row["tx"]["predicate"]["product_name"] = None
    assert from_json(Envelope, row, IoFailure) == full
    assert again.payload_digest == full.payload_digest
    assert again.canonical_bytes() == full.canonical_bytes()


def test_envelope_payload_digest_comes_from_its_own_fields():
    env = Envelope(tx_id="t1", tx=make_write())
    digest = hashlib.sha256(env.payload_bytes()).digest()
    assert env.payload_digest == digest
    with pytest.raises(TypeError):
        Envelope(tx_id="t1", tx=make_write(), _payload_digest=bytes(32))
    altered = dataclasses.replace(env, tx=make_write(quantity=11))
    assert altered.payload_digest != digest
    # A row naming the digest is rejected, not read: the digest never comes
    # from input.
    with pytest.raises(IoFailure):
        from_json(Envelope, {**to_json(altered), "_payload_digest": digest}, IoFailure)
    assert (from_json(Envelope, to_json(altered), IoFailure).payload_digest
            == altered.payload_digest)
    signed = []
    endorsed = Envelope.endorsed("t1", make_write(), None,
                                 lambda d: signed.append(d) or ())
    assert signed == [digest] and endorsed.payload_digest is signed[0]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_encodings():
    # Pinned before bodies kept their encodings; any change to a canonical
    # encoding changes every tx id, payload digest and block hash.
    write = make_write()
    query = make_query(Aggregate.SUM, customer="Bob", color="red")
    record = QueryRecord(CategoryKey(Aggregate.SUM, "bob", None, "red"), 0.25,
                         PerturbedResponse(123.456, 0.25, False, "q1"))
    qenv = Envelope("q1", query, QueryEffect(record, eps_rem=0.75))
    wenv = Envelope.endorsed("w1", write, None,
                             lambda digest: tuple(sign_endorsement(p, digest)
                                                  for p in ("peer0.org1", "peer0.org2")))
    for _ in range(2):  # computed, then kept
        assert _sha256(write.canonical_bytes()) == (
            "f231b68f41badf87368d79966d2bd23c5ecbe6b09554f4b70fee739b2dcb218b")
        assert _sha256(query.canonical_bytes()) == (
            "fde2370e2be931efdc2188562a98b36381ded4abf9dfa3ea79af29c5ddccd327")
    assert _sha256(qenv.payload_bytes()) == (
        "ccb81a60a7c391405c66b67ecdbb756a244a466794538f4312f35082741a2807")
    block_hash = compute_block_hash(1, make_genesis("mychannel").block_hash, (wenv, qenv))
    assert block_hash.hex() == (
        "2ce5da111158ee0d1a7a73730d21552508c3dd42ddfc2ae32b7f15574338e144")


_WRITE = [("product_name", "nut"), ("color", "blue"), ("quantity", 11),
          ("customer_name", "Alice")]
_QUERY = [("predicate", QueryPredicate("Bob", "bolt")), ("aggregate", Aggregate.COUNT),
          ("requester_id", "other")]


@pytest.mark.parametrize("body,field,value", [
    *[pytest.param(make_write(), f, v, id=f"write-{f}") for f, v in _WRITE],
    *[pytest.param(make_query(Aggregate.SUM, customer="Bob"), f, v, id=f"query-{f}")
      for f, v in _QUERY],
])
def test_kept_encoding_belongs_to_its_own_object(body, field, value):
    kept = body.canonical_bytes()
    assert body.canonical_bytes() is kept
    copy = dataclasses.replace(body, **{field: value})
    assert copy.canonical_bytes() != kept
    fresh = type(body)(**{f.name: getattr(copy, f.name)
                          for f in dataclasses.fields(copy)})
    assert copy.canonical_bytes() == fresh.canonical_bytes()
    assert body == dataclasses.replace(copy, **{field: getattr(body, field)})
