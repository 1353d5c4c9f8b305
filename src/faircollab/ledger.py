"""In-process hash-chained ledger with signed transactions.

One block is sealed per protocol round by a rotating leader (consensus is
simulated; every submission passes through this single serialized
component). The genesis block records each party's verification key and
initial token grant, then the punishments of initialisation. Gradient
sales run as purchase_order / fulfillment transaction pairs: the order
names the gradient count and carries the buyer's encryption key, the
fulfillment publishes an encrypted payload to a content-addressed store
and records its hash plus a pointer back to the order. Tokens move only
then, one per gradient from buyer to seller; an order that is never
filled moves none.

Primitives are real, not stubs: Ed25519 signatures, SHA-256 chaining, and
a hybrid envelope (fresh AES-256-GCM key per payload, wrapped for the
recipient via ephemeral X25519 + HKDF + AES-GCM).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .numerics import SparseUpdate

TRANSACTION_KINDS = ("register", "purchase_order", "fulfillment", "punishment")

_WRAP_INFO = b"faircollab payload key wrap"


class LedgerError(RuntimeError):
    pass


def sha256_hex(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class KeyPair:
    """Signing keys (Ed25519) plus encryption keys (X25519) for one party."""

    def __init__(self, signing_key: Ed25519PrivateKey, decryption_key: X25519PrivateKey):
        self.signing_key = signing_key
        self.decryption_key = decryption_key

    @classmethod
    def generate(cls, rng: np.random.Generator) -> "KeyPair":
        # Derived from the party's seeded stream so runs are reproducible.
        return cls(Ed25519PrivateKey.from_private_bytes(rng.bytes(32)),
                   X25519PrivateKey.from_private_bytes(rng.bytes(32)))

    @property
    def verify_key_hex(self) -> str:
        return self.signing_key.public_key().public_bytes_raw().hex()

    @property
    def encrypt_key_hex(self) -> str:
        return self.decryption_key.public_key().public_bytes_raw().hex()

    def sign(self, message: bytes) -> str:
        return self.signing_key.sign(message).hex()


def verify_signature(verify_key_hex: str, message: bytes, signature_hex: str) -> bool:
    try:
        key = Ed25519PublicKey.from_public_bytes(bytes.fromhex(verify_key_hex))
        key.verify(bytes.fromhex(signature_hex), message)
        return True
    except (InvalidSignature, ValueError):
        return False


@dataclass(frozen=True)
class Transaction:
    kind: str
    payload: dict
    author: str
    signature: str

    def __post_init__(self):
        if self.kind not in TRANSACTION_KINDS:
            raise ValueError(f"unknown transaction kind {self.kind!r}")

    @staticmethod
    def signing_bytes(kind: str, payload: dict, author: str) -> bytes:
        return _canonical({"kind": kind, "payload": payload, "author": author})

    @classmethod
    def signed(cls, kind: str, payload: dict, author: str, keypair: KeyPair) -> "Transaction":
        return cls(kind, payload, author, keypair.sign(cls.signing_bytes(kind, payload, author)))

    @property
    def tx_id(self) -> str:
        return sha256_hex(_canonical(self.to_dict()))[:24]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "payload": self.payload,
                "author": self.author, "signature": self.signature}

    @classmethod
    def from_dict(cls, obj: dict) -> "Transaction":
        return cls(obj["kind"], obj["payload"], obj["author"], obj["signature"])


@dataclass(frozen=True)
class Block:
    index: int
    prev_hash: str
    transactions: tuple
    leader: str
    block_hash: str = ""

    @staticmethod
    def compute_hash(index: int, prev_hash: str, transactions, leader: str) -> str:
        body = _canonical({
            "index": index,
            "prev_hash": prev_hash,
            "leader": leader,
            "transactions": [tx.to_dict() for tx in transactions],
        })
        return sha256_hex(body)

    @classmethod
    def sealed(cls, index: int, prev_hash: str, transactions, leader: str) -> "Block":
        txs = tuple(transactions)
        return cls(index, prev_hash, txs, leader,
                   cls.compute_hash(index, prev_hash, txs, leader))

    def to_dict(self) -> dict:
        return {"index": self.index, "prev_hash": self.prev_hash, "leader": self.leader,
                "transactions": [tx.to_dict() for tx in self.transactions],
                "block_hash": self.block_hash}

    @classmethod
    def from_dict(cls, obj: dict) -> "Block":
        return cls(obj["index"], obj["prev_hash"],
                   tuple(Transaction.from_dict(t) for t in obj["transactions"]),
                   obj["leader"], obj["block_hash"])


@dataclass(frozen=True)
class EncryptedPayload:
    """Hybrid envelope: AES-GCM ciphertext under a fresh symmetric key,
    that key wrapped for the recipient via ephemeral X25519 + HKDF."""

    ciphertext: bytes
    nonce: bytes
    wrapped_key: bytes
    wrap_nonce: bytes
    ephemeral_public: bytes

    @property
    def payload_hash(self) -> str:
        return sha256_hex(self.ciphertext)


def _wrap_key_for(recipient_pk_hex: str, fsk: bytes, rng: np.random.Generator) -> tuple[bytes, bytes, bytes]:
    ephemeral = X25519PrivateKey.from_private_bytes(rng.bytes(32))
    shared = ephemeral.exchange(X25519PublicKey.from_public_bytes(bytes.fromhex(recipient_pk_hex)))
    kek = HKDF(algorithm=SHA256(), length=32, salt=None, info=_WRAP_INFO).derive(shared)
    wrap_nonce = rng.bytes(12)
    wrapped = AESGCM(kek).encrypt(wrap_nonce, fsk, None)
    return wrapped, wrap_nonce, ephemeral.public_key().public_bytes_raw()


def encrypt_payload(plaintext: bytes, recipient_pk_hex: str, rng: np.random.Generator,
                    aad: bytes = b"") -> EncryptedPayload:
    """Seal the plaintext under a fresh key drawn from rng, wrapped for the
    recipient."""
    fsk = rng.bytes(32)
    nonce = rng.bytes(12)
    ciphertext = AESGCM(fsk).encrypt(nonce, plaintext, aad)
    wrapped, wrap_nonce, eph_pub = _wrap_key_for(recipient_pk_hex, fsk, rng)
    return EncryptedPayload(ciphertext, nonce, wrapped, wrap_nonce, eph_pub)


def decrypt_payload(payload: EncryptedPayload, keypair: KeyPair, aad: bytes = b"") -> bytes:
    shared = keypair.decryption_key.exchange(
        X25519PublicKey.from_public_bytes(payload.ephemeral_public))
    kek = HKDF(algorithm=SHA256(), length=32, salt=None, info=_WRAP_INFO).derive(shared)
    fsk = AESGCM(kek).decrypt(payload.wrap_nonce, payload.wrapped_key, None)
    return AESGCM(fsk).decrypt(payload.nonce, payload.ciphertext, aad)


@dataclass
class Order:
    order_id: str
    buyer: str
    seller: str
    count: int
    buyer_encrypt_key: str
    status: str = "open"  # open | fulfilled


class Ledger:
    """Serialized ledger facade: token balances, orders, payload store,
    and the block chain itself. A sale settles in fulfill_order."""

    def __init__(self):
        self.chain: list[Block] = []
        self.pending: list[Transaction] = []
        self.balances: dict[str, int] = {}
        self.orders: dict[str, Order] = {}
        self.payload_store: dict[str, EncryptedPayload] = {}
        self.round_index = 0

    # -- genesis ------------------------------------------------------

    def create_genesis(self, grants: dict[str, int], keypairs: dict[str, KeyPair]) -> Block:
        """Register every party of grants (party id -> tokens) in id order;
        the smallest id leads.

        Block 0 holds the registrations followed by whatever is pending,
        such as punishments recorded at initialisation."""
        if len(grants) < 2:
            raise LedgerError("genesis needs at least 2 registrations")
        parties = sorted(grants)
        txs = []
        for party_id in parties:
            payload = {"party": party_id, "verify_key": keypairs[party_id].verify_key_hex,
                       "tokens": int(grants[party_id])}
            txs.append(Transaction.signed("register", payload, party_id, keypairs[party_id]))
            self.balances[party_id] = int(grants[party_id])
        genesis = Block.sealed(0, "0" * 64, txs + self.pending, parties[0])
        self.chain.append(genesis)
        self.pending = []
        self.round_index = 1
        return genesis

    # -- trading ------------------------------------------------------

    def balance(self, party_id: str) -> int:
        return self.balances[party_id]

    def total_tokens(self) -> int:
        return sum(self.balances.values())

    def submit_purchase_order(self, buyer_keypair: KeyPair, buyer: str, seller: str,
                              count: int) -> Order:
        """Order count gradients at one token each, paid when filled."""
        if count < 1:
            raise LedgerError("order must request at least one gradient")
        if self.balances[buyer] < count:
            raise LedgerError(f"{buyer} cannot pay {count} tokens")
        payload = {"buyer": buyer, "seller": seller, "count": int(count),
                   "encrypt_key": buyer_keypair.encrypt_key_hex, "round": self.round_index}
        tx = Transaction.signed("purchase_order", payload, buyer, buyer_keypair)
        order_id = tx.tx_id
        # Signatures are deterministic, so a repeated order has the same id
        # and would replace the first one, fulfilled or not.
        if order_id in self.orders:
            raise LedgerError(f"identical order {order_id} already placed this round")
        order = Order(order_id, buyer, seller, count, payload["encrypt_key"])
        self.orders[order_id] = order
        self.pending.append(tx)
        return order

    def fulfill_order(self, seller_keypair: KeyPair, seller: str, order_id: str,
                      update: SparseUpdate, rng: np.random.Generator
                      ) -> tuple[Transaction, EncryptedPayload]:
        """Ship an order and pay for it: count tokens move from buyer to
        seller. Returns the transaction and the published payload."""
        order = self.orders.get(order_id)
        if order is None:
            raise LedgerError(f"no such order {order_id}")
        if order.status != "open":
            raise LedgerError(f"order {order_id} is {order.status}")
        if order.seller != seller:
            raise LedgerError(f"order {order_id} is not addressed to {seller}")
        if len(update) != order.count:
            raise LedgerError(f"order wants {order.count} gradients, got {len(update)}")
        if self.balances[order.buyer] < order.count:
            raise LedgerError(f"{order.buyer} can no longer pay {order.count} tokens")
        payload_obj = encrypt_payload(update.to_bytes(), order.buyer_encrypt_key, rng,
                                      aad=order_id.encode())
        self.payload_store[payload_obj.payload_hash] = payload_obj
        tx_payload = {"order": order_id, "payload_hash": payload_obj.payload_hash,
                      "seller": seller, "round": self.round_index}
        tx = Transaction.signed("fulfillment", tx_payload, seller, seller_keypair)
        self.pending.append(tx)
        order.status = "fulfilled"
        self.balances[order.buyer] -= order.count
        self.balances[seller] += order.count
        return tx, payload_obj

    def record_punishment(self, keypair: KeyPair, author: str, against: str,
                          reason: str) -> Transaction:
        payload = {"against": against, "reason": reason, "round": self.round_index}
        tx = Transaction.signed("punishment", payload, author, keypair)
        self.pending.append(tx)
        return tx

    # -- rounds -------------------------------------------------------

    def seal_block(self, leader: str) -> Block:
        prev = self.chain[-1].block_hash if self.chain else "0" * 64
        block = Block.sealed(len(self.chain), prev, self.pending, leader)
        self.chain.append(block)
        self.pending = []
        self.round_index += 1
        return block


def verify_chain(chain) -> bool:
    """True iff hashes link from genesis, parties register in the genesis
    block only and once each, and every signature verifies against the key
    registered for its author."""
    if not chain:
        return False
    verify_keys: dict[str, str] = {}
    for tx in chain[0].transactions:
        if tx.kind == "register":
            party = tx.payload.get("party")
            key = tx.payload.get("verify_key")
            if party is None or key is None or tx.author != party or party in verify_keys:
                return False
            verify_keys[party] = key
    prev_hash = "0" * 64
    for position, block in enumerate(chain):
        if block.index != position or block.prev_hash != prev_hash:
            return False
        for tx in block.transactions:
            if tx.kind == "register" and position > 0:
                return False
            key = verify_keys.get(tx.author)
            if key is None:
                return False
            if not verify_signature(key, Transaction.signing_bytes(
                    tx.kind, tx.payload, tx.author), tx.signature):
                return False
        if Block.compute_hash(block.index, block.prev_hash,
                              block.transactions, block.leader) != block.block_hash:
            return False
        prev_hash = block.block_hash
    return True


def dump_chain(chain, path) -> None:
    """One block per line as canonical JSON."""
    with open(path, "w") as fh:
        for block in chain:
            fh.write(json.dumps(block.to_dict(), sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def load_chain(path) -> list[Block]:
    blocks = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                blocks.append(Block.from_dict(json.loads(line)))
    return blocks
