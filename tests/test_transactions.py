import dataclasses
import hashlib

import pytest

from dpledger import (
    Aggregate,
    Envelope,
    MissingField,
    QueryPredicate,
    UnsupportedAggregate,
    normalize,
    validate_query,
    validate_write,
)
from dpledger.transactions import QueryTransaction

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
    for field in ("contract_id", "contract_version", "contract_function",
                  "product_name", "color", "customer_name"):
        tx = make_write()
        broken = tx.__class__(**{**tx.__dict__, field: ""})
        with pytest.raises(MissingField):
            validate_write(broken)


def test_query_must_be_read_only():
    q = make_query()
    broken = QueryTransaction(**{**q.__dict__, "read_only": False})
    with pytest.raises(Exception):
        validate_query(broken)


def test_query_requires_supported_aggregate():
    q = make_query()
    broken = QueryTransaction(**{**q.__dict__, "aggregate": "MEDIAN"})
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
    again = Envelope.from_dict(env.to_dict())
    assert again == env
    qenv = Envelope(tx_id="t2", tx=make_query(Aggregate.COUNT, customer="Bob"))
    assert Envelope.from_dict(qenv.to_dict()) == qenv


def test_envelope_payload_digest_comes_from_its_own_fields():
    env = Envelope(tx_id="t1", tx=make_write())
    digest = hashlib.sha256(env.payload_bytes()).hexdigest()
    assert env.payload_digest == digest
    with pytest.raises(TypeError):
        Envelope(tx_id="t1", tx=make_write(), _payload_digest="00" * 32)
    altered = dataclasses.replace(env, tx=make_write(quantity=11))
    assert altered.payload_digest != digest
    assert Envelope.from_dict({**altered.to_dict(), "_payload_digest": digest}
                              ).payload_digest == altered.payload_digest
    assert env.with_endorsements(()).payload_digest is env.payload_digest
