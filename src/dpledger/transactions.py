"""Transaction bodies, category keys, and canonical encodings.

A channel ledger records two transaction kinds: purchase writes and
read-only statistical queries (COUNT/SUM over the write attributes). A
query body is its category key plus its requester.
Canonical encodings are length-prefixed and field-ordered so that every
hash derived from them is reproducible across platforms and runs. A
transaction body or category key encodes itself once: ``canonical_bytes()``
is computed on first use and kept on the frozen object, so the tx id and
the envelope's payload digest read the same bytes, and a key shared by
many queries and their effects is encoded once. A category key's hash is
that of its kept encoding.

A body is validated once as well, and the verdict shares the encoding's
attribute, ``_canonical``: it is None until the body's validator
(``validate_write`` or ``validate_query``) passes it, then ``_CHECKED``
until the body is encoded, then the encoding. So endorsement and commit
do not both run the full check, and only a validated body keeps its
encoding. A body that fails is never kept and is encoded afresh on each
call; only forged or malformed input does that. One attribute holds both
because CPython 3.11 keeps just one attribute set after construction in
an object's inline values when the objects were built in bulk (as
``generate_workload`` builds writes); a second one gives each object a
dict of its own, about 270 bytes per write. Each kept value lives on its
own object only: ``dataclasses.replace``, ``codec.from_json`` and direct
construction start without it.

An envelope's payload encoding is written once, in ``_payload_bytes``,
which ``Envelope.endorsed`` and ``Envelope.payload_bytes`` both call: an
endorsed envelope encodes and hashes its payload once, before it is
constructed with its endorsements and its kept digest. Payload digests and
endorsement signatures stay raw 32-byte values in memory; only exports
write them as hex. The JSON form of every record here
is read from its field annotations by ``codec``; the two transaction
bodies carry the tag ``json_kind``.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Tuple, Union

from .errors import (
    DPLedgerError,
    InvalidQuantity,
    MissingField,
    UnsupportedAggregate,
    ValidationFailure,
)

# Bound on items purchased in a single write transaction.
QUANTITY_MIN = 1
QUANTITY_MAX = 100


class Aggregate(Enum):
    """Statistical aggregates the query interface supports."""

    COUNT = "COUNT"
    SUM = "SUM"


def normalize(value: str) -> str:
    """Canonical attribute form: whitespace-trimmed and case-folded."""
    return value.strip().casefold()


def _normalize_filter(value: Optional[str]) -> Optional[str]:
    """A query attribute in canonical form; None, the wildcard, stays None."""
    return None if value is None else normalize(value)


# ---------------------------------------------------------------------------
# encoding helpers

_u32 = struct.Struct(">I").pack
_i64 = struct.Struct(">q").pack
_f64 = struct.Struct(">d").pack
# A query effect's fields between its key and its query id: ε spent, the
# response tag, the noisy value, ε used, the reuse flag, the query id's length.
_effect_middle = struct.Struct(">dcdd?I").pack


def _text(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _u32(len(raw)) + raw


def _opt_text(s: Optional[str]) -> bytes:
    if s is None:
        return b"\x00"
    return b"\x01" + _text(s)


# A body's ``_canonical`` once its validator has passed it and before it is
# encoded; no encoding is empty.
_CHECKED = b""


def _encodable(value: str) -> bool:
    """True iff UTF-8 can encode ``value``; callers test ``value.isascii()`` first."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _kept_encoding(tx: "Transaction", validate: Callable[["Transaction"], None]) -> bytes:
    """The encoding of ``tx``, a body not yet encoded: kept if ``validate``
    passes it, else encoded without being kept."""
    try:
        validate(tx)
    except DPLedgerError:
        return tx._encode()
    raw = tx._encode()
    object.__setattr__(tx, "_canonical", raw)
    return raw


@functools.lru_cache(maxsize=1024)
def _endorsement_head(peer_id: str, signature_len: int) -> bytes:
    """An endorsement's encoding before its signature: the peer id, then the
    signature's length. A channel has few members, so each is encoded once."""
    return _text(peer_id) + _u32(signature_len)


# ---------------------------------------------------------------------------
# transaction bodies

@dataclass(frozen=True)
class WriteTransaction:
    """Purchase record appended to the channel ledger."""

    product_name: str
    color: str
    quantity: int
    customer_name: str
    # Not fields (no annotation): the JSON tag; the verdict, then the
    # encoding (see the module docstring).
    json_kind = "write"
    _canonical = None

    def canonical_bytes(self) -> bytes:
        raw = self._canonical
        return raw if raw else _kept_encoding(self, validate_write)

    def _encode(self) -> bytes:
        # Each text field as ``_text`` encodes it: its UTF-8 length, then its bytes.
        product = self.product_name.encode("utf-8")
        color = self.color.encode("utf-8")
        customer = self.customer_name.encode("utf-8")
        return b"".join((b"W", _u32(len(product)), product, _u32(len(color)), color,
                         _i64(self.quantity), _u32(len(customer)), customer))


def validate_write(tx: WriteTransaction) -> None:
    """Reject writes that violate the transaction-body invariants: every
    string field is a non-empty string UTF-8 can encode, and the quantity is
    an int (a bool is not one, as in ``codec``) in [QUANTITY_MIN, QUANTITY_MAX].
    Success is kept on ``tx``, so a second call returns at once."""
    if tx._canonical is not None:
        return
    for name in ("product_name", "color", "customer_name"):
        value = getattr(tx, name)
        if not value:
            raise MissingField(f"write transaction field {name!r} is empty")
        if not isinstance(value, str) or not (value.isascii() or _encodable(value)):
            raise ValidationFailure(f"write transaction field {name!r} is not a string "
                                    "UTF-8 can encode")
    qty = tx.quantity
    if type(qty) is not int or not QUANTITY_MIN <= qty <= QUANTITY_MAX:
        raise InvalidQuantity(
            f"quantity {qty!r} is not an int in [{QUANTITY_MIN}, {QUANTITY_MAX}]"
        )
    object.__setattr__(tx, "_canonical", _CHECKED)


# ---------------------------------------------------------------------------
# query categories and query bodies

@dataclass(frozen=True)
class CategoryKey:
    """Cache identity of a query: aggregate plus normalized attribute tuple.

    Two queries share a key only when the aggregate and every attribute
    match exactly after normalization; None, the wildcard, selects every
    value of its attribute. ``of`` builds a key from caller input.

    A key's hash is the hash of its kept encoding, which holds the
    aggregate's value and the attributes; the bytes object caches it. A
    pickle holds the encoding's bytes, not their hash, so a key read back
    in another process, where hashes differ, hashes afresh.
    """

    aggregate: Aggregate
    customer_name: Optional[str] = None
    product_name: Optional[str] = None
    color: Optional[str] = None
    # Not a field (no annotation): set on first use of canonical_bytes.
    _canonical = None

    def __hash__(self) -> int:
        raw = self._canonical
        return hash(self.canonical_bytes() if raw is None else raw)

    @classmethod
    def of(cls, aggregate: Aggregate, customer_name: Optional[str] = None,
           product_name: Optional[str] = None, color: Optional[str] = None) -> "CategoryKey":
        """The key with each given attribute trimmed and case-folded."""
        return cls(aggregate, _normalize_filter(customer_name),
                   _normalize_filter(product_name), _normalize_filter(color))

    def canonical_bytes(self) -> bytes:
        raw = self._canonical
        if raw is None:
            raw = (b"K" + _text(self.aggregate.value)
                   + _opt_text(self.customer_name)
                   + _opt_text(self.product_name)
                   + _opt_text(self.color))
            object.__setattr__(self, "_canonical", raw)
        return raw

    def label(self) -> str:
        return category_label(self.aggregate, self.customer_name, self.product_name, self.color)


def category_label(aggregate: Aggregate, customer_name: Optional[str],
                   product_name: Optional[str], color: Optional[str]) -> str:
    """The label of the category with these fields, "*" for a wildcard."""
    return (f"{aggregate.value} customer={'*' if customer_name is None else customer_name}"
            f" product={'*' if product_name is None else product_name}"
            f" color={'*' if color is None else color}")


@dataclass(frozen=True)
class QueryTransaction:
    """Read-only statistical query against a channel ledger: the body is
    the query's category and its requester."""

    key: CategoryKey
    requester_id: str
    # Not fields (no annotation): the JSON tag; the verdict, then the
    # encoding (see the module docstring).
    json_kind = "query"
    _canonical = None

    def canonical_bytes(self) -> bytes:
        raw = self._canonical
        return raw if raw else _kept_encoding(self, validate_query)

    def _encode(self) -> bytes:
        return b"Q" + self.key.canonical_bytes() + _text(self.requester_id)


def validate_query(tx: QueryTransaction) -> None:
    """Reject a query whose key is not a ``CategoryKey``, whose aggregate is
    unsupported, whose requester is not a non-empty string, or whose key
    holds an attribute that is not None or a normalized string; UTF-8 must
    encode each string. Success is kept on ``tx``, so a second call returns at once."""
    if tx._canonical is not None:
        return
    key = tx.key
    if not isinstance(key, CategoryKey):
        raise ValidationFailure(f"query key {key!r} is not a CategoryKey")
    if not isinstance(key.aggregate, Aggregate):
        raise UnsupportedAggregate(f"unsupported aggregate {key.aggregate!r}")
    requester = tx.requester_id
    if not requester:
        raise MissingField("query transaction field 'requester_id' is empty")
    if not isinstance(requester, str) or not (requester.isascii() or _encodable(requester)):
        raise ValidationFailure("query transaction field 'requester_id' is not a string "
                                "UTF-8 can encode")
    for value in (key.customer_name, key.product_name, key.color):
        if value is not None and (not isinstance(value, str) or value != normalize(value)
                                  or not (value.isascii() or _encodable(value))):
            raise ValidationFailure(f"query attribute {value!r} is not normalized UTF-8 text")
    object.__setattr__(tx, "_canonical", _CHECKED)


# ---------------------------------------------------------------------------
# query responses and the query log

@dataclass(frozen=True)
class PerturbedResponse:
    """Query answer handed back to a requester, with noise provenance:
    ``query_id`` names the query that drew the noise. A repeat gets the
    recorded response itself, so ``reused`` is false on every response the
    library builds; the on-chain effect still encodes it."""

    value: float
    epsilon_used: float
    reused: bool
    query_id: str


@dataclass(frozen=True)
class QueryRecord:
    """Entry of the on-ledger query log: key, spent budget, cached answer.
    Its height is that of the block committing it."""

    key: CategoryKey
    epsilon_spent: float
    response: PerturbedResponse


# ---------------------------------------------------------------------------
# endorsement and committed envelopes

class Endorsement(NamedTuple):
    """Simulated signed approval of the envelope that carries it: signature =
    SHA-256 of (peer id, that envelope's payload digest), 32 raw bytes; the
    digest is not stored here. Exported as hex."""

    peer_id: str
    signature: bytes


@dataclass(frozen=True)
class QueryEffect:
    """Chaincode write-set of a fresh query: the log entry plus the budget left."""

    record: QueryRecord
    eps_rem: float

    def canonical_bytes(self) -> bytes:
        """``E``, then the record: ``L``, its key's kept encoding and ε
        spent; then the response: ``R``, the value, ε used, the reuse flag
        and the length-prefixed query id; then ε left. Built in one pass."""
        rec = self.record
        resp = rec.response
        query_id = resp.query_id.encode("utf-8")
        return b"".join((
            b"EL", rec.key.canonical_bytes(),
            _effect_middle(rec.epsilon_spent, b"R", resp.value, resp.epsilon_used,
                           resp.reused, len(query_id)),
            query_id, _f64(self.eps_rem)))


Transaction = Union[WriteTransaction, QueryTransaction]


def _payload_bytes(tx_id: str, tx: Transaction, effect: Optional[QueryEffect]) -> bytes:
    """What an envelope's payload digest hashes: the length-prefixed tx id, the
    body's encoding and, for a fresh query, its effect's."""
    return b"".join((_text(tx_id), tx.canonical_bytes(),
                     b"" if effect is None else effect.canonical_bytes()))


@dataclass(frozen=True)
class Envelope:
    """A transaction as committed to a block: id, body, effects, endorsements.

    ``payload_digest`` is the raw 32-byte SHA-256 digest of
    ``payload_bytes()``: what endorsers sign, committers check and block
    hashes bind. It is computed from the envelope's own fields on first use
    and then kept, never taken from input, so ``dataclasses.replace``,
    ``codec.from_json`` and direct construction all start without it.
    """

    tx_id: str
    tx: Transaction
    effect: Optional[QueryEffect] = None
    endorsements: Tuple[Endorsement, ...] = ()
    # Not a field (no annotation): set on first use of payload_digest.
    _payload_digest = None

    @classmethod
    def endorsed(cls, tx_id: str, tx: Transaction, effect: Optional[QueryEffect],
                 sign: Callable[[bytes], Tuple[Endorsement, ...]]) -> "Envelope":
        """The envelope carrying ``sign(payload_digest)`` as its endorsements.

        Built once: the payload is encoded and hashed, its digest signed, and
        the envelope constructed with those endorsements and that digest kept,
        so no unendorsed copy exists and no field is set twice.
        """
        digest = hashlib.sha256(_payload_bytes(tx_id, tx, effect)).digest()
        env = cls(tx_id, tx, effect, sign(digest))
        object.__setattr__(env, "_payload_digest", digest)
        return env

    def payload_bytes(self) -> bytes:
        return _payload_bytes(self.tx_id, self.tx, self.effect)

    @property
    def payload_digest(self) -> bytes:
        digest = self._payload_digest
        if digest is None:
            digest = hashlib.sha256(self.payload_bytes()).digest()
            object.__setattr__(self, "_payload_digest", digest)
        return digest

    def canonical_bytes(self) -> bytes:
        """Block-level encoding: the 32-byte payload digest, then each
        endorsement's peer id and length-prefixed raw signature."""
        parts = [self.payload_digest]
        for peer_id, signature in self.endorsements:
            parts += (_endorsement_head(peer_id, len(signature)), signature)
        return b"".join(parts)
