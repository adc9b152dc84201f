import copy
import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from dpledger import (
    Aggregate,
    CategoryKey,
    Endorsement,
    Envelope,
    InvalidQuantity,
    MissingField,
    PerturbedResponse,
    QueryEffect,
    QueryRecord,
    QueryTransaction,
    UnsupportedAggregate,
    WriteTransaction,
    make_genesis,
    normalize,
    validate_query,
    validate_write,
)
from dpledger.codec import from_json, to_json
from dpledger.errors import IoFailure, ValidationFailure
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


@pytest.mark.parametrize("quantity", [True, False, "5", 5.0, 2**70, 0],
                         ids=["true", "false", "string", "float", "past-64-bits", "zero"])
def test_write_quantity_must_be_an_int_in_range(quantity):
    # A bool is not an int here, as in ``codec``: a write of quantity True
    # would commit, and its export would not import back.
    with pytest.raises(InvalidQuantity):
        validate_write(make_write(quantity=quantity))


def test_write_string_fields_must_be_strings():
    with pytest.raises(MissingField):
        validate_write(make_write(customer=None))
    with pytest.raises(ValidationFailure, match="not a string"):
        validate_write(make_write(color=5))


def test_query_requires_supported_aggregate():
    q = make_query()
    broken = dataclasses.replace(q, key=dataclasses.replace(q.key, aggregate="MEDIAN"))
    with pytest.raises(UnsupportedAggregate):
        validate_query(broken)


def test_category_key_of_normalizes_fieldwise():
    key = CategoryKey.of(Aggregate.SUM, customer_name=" Bob ", color="RED")
    assert key == CategoryKey(Aggregate.SUM, "bob", None, "red")
    validate_query(QueryTransaction(key, "distributor-a"))


@pytest.mark.parametrize("field,value", [
    ("customer_name", " bob"), ("product_name", "Bolt"), ("color", "RED "),
], ids=["customer_name", "product_name", "color"])
def test_query_key_must_be_normalized(field, value):
    key = dataclasses.replace(CategoryKey(Aggregate.SUM), **{field: value})
    with pytest.raises(ValidationFailure, match="not normalized"):
        validate_query(QueryTransaction(key, "distributor-a"))


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
    # A key writes only the attributes it filters on; nulls still read.
    assert row["tx"]["key"] == {"aggregate": "SUM", "customer_name": "bob", "color": "red"}
    again = from_json(Envelope, row, IoFailure)
    assert again == full
    row["tx"]["key"]["product_name"] = None
    assert from_json(Envelope, row, IoFailure) == full
    assert again.payload_digest == full.payload_digest
    assert again.canonical_bytes() == full.canonical_bytes()
    # A query row in the form before the body was its key does not read back.
    old = {**row["tx"], "predicate": {"customer_name": "Bob", "color": "red"},
           "aggregate": "SUM"}
    del old["key"]
    with pytest.raises(IoFailure, match="unknown"):
        from_json(Envelope, {**row, "tx": old}, IoFailure)


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
            "ec0ed5e3f8256a60ec31e0089e6b96747f9152046d551377e4613568020b2fb1")
    assert _sha256(qenv.payload_bytes()) == (
        "244b00a7b861c180d3c6b172f9b768924aa17a007819fea7372aae6651a923ab")
    block_hash = compute_block_hash(1, make_genesis("mychannel").block_hash, (wenv, qenv))
    assert block_hash.hex() == (
        "c8ae42f71d16ac10478a00cd1cc80baa39757361b50f72adca18f1f3f91016ae")


_WRITE = [("product_name", "nut"), ("color", "blue"), ("quantity", 11),
          ("customer_name", "Alice")]
_QUERY = [("key", CategoryKey(Aggregate.SUM, "bob", "bolt"), "key-attributes"),
          ("key", CategoryKey(Aggregate.COUNT, "bob"), "key-aggregate"),
          ("requester_id", "other", "requester_id")]


@pytest.mark.parametrize("body,field,value", [
    *[pytest.param(make_write(), f, v, id=f"write-{f}") for f, v in _WRITE],
    *[pytest.param(make_query(Aggregate.SUM, customer="Bob"), f, v, id=f"query-{name}")
      for f, v, name in _QUERY],
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


@pytest.mark.parametrize("body,field,value,error", [
    (make_write(), "quantity", 0, InvalidQuantity),
    (make_write(), "customer_name", "", MissingField),
    (make_query(Aggregate.SUM, color="red"), "key",
     CategoryKey(Aggregate.SUM, None, None, " Red"), ValidationFailure),
    (make_query(Aggregate.SUM, color="red"), "requester_id", "", MissingField),
], ids=["write-quantity", "write-customer", "query-key", "query-requester"])
def test_kept_validation_belongs_to_its_own_object(body, field, value, error):
    # The verdict shares the encoding's attribute: None until validated.
    validate = validate_write if isinstance(body, WriteTransaction) else validate_query
    validate(body)
    assert body._canonical is not None
    kept = body.canonical_bytes()
    validate(body)  # kept: returns at once
    assert body.canonical_bytes() is kept and body._canonical is kept
    copy_ = dataclasses.replace(body, **{field: value})
    assert copy_._canonical is None
    with pytest.raises(error):
        validate(copy_)
    assert copy_.canonical_bytes() == copy_._encode()
    assert copy_._canonical is None  # a failure is never kept
    row = {**to_json(body), field: to_json(value) if field == "key" else value}
    read = from_json(type(body), row, IoFailure)
    assert read._canonical is None
    with pytest.raises(error):
        validate(read)


def test_equal_keys_hash_alike_however_built():
    built = [CategoryKey.of(Aggregate.SUM, customer_name=" Bob", color="RED"),
             CategoryKey(Aggregate.SUM, "bob", None, "red"),
             from_json(CategoryKey, {"aggregate": "SUM", "customer_name": "bob",
                                     "color": "red"}, IoFailure)]
    assert len({id(k) for k in built}) == 3
    assert len({hash(k) for k in built}) == 1
    assert all(k == built[0] for k in built)
    assert len(set(built)) == 1
    other = dataclasses.replace(built[0], aggregate=Aggregate.COUNT)
    assert other._canonical is None and other != built[0]
    assert {built[0]: 1}.get(other) is None


def test_key_hash_is_made_afresh_in_another_process():
    # String and bytes hashes differ between processes. A key hashed here
    # and pickled must hash in a process with another hash seed as a key
    # built there does, so that it finds its own dict entries.
    key = CategoryKey.of(Aggregate.SUM, customer_name="Bob", color="red")
    hash(key)
    code = ("import pickle, sys\n"
            "from dpledger import Aggregate, CategoryKey\n"
            "key = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = CategoryKey.of(Aggregate.SUM, customer_name='Bob', color='red')\n"
            "print(hash(key) == hash(fresh), {fresh: 1}.get(key), hash(fresh))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    hashes = set()
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(key), capture_output=True,
            check=True, env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            timeout=60).stdout.split()
        assert out[:2] == [b"True", b"1"]
        hashes.add(out[2])
    assert len(hashes) == 2  # the seeds do give different hashes
    assert copy.deepcopy(key) == key and hash(copy.deepcopy(key)) == hash(key)
