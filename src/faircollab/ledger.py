"""In-process hash-chained ledger with signed transactions.

One block is sealed per protocol round by a rotating leader (consensus is
simulated; every submission passes through this single serialized
component). The genesis block records each party's verification key and
initial token grant, then the punishments of initialisation. Gradient
sales are batched per party and round: a buyer signs one purchase_order
carrying its encryption key, its total count and one line (seller,
count) per seller, and a seller signs one fulfillment listing (order
line, payload hash) for every line it shipped. A line is filled on its
own: the seller publishes an encrypted payload to a content-addressed
store and count tokens move from buyer to seller then, one per gradient;
a line never filled moves none. The seller's signature over its fills is
added once trading ends, and no block is sealed while a fill is
unsigned.

Primitives are real, not stubs: Ed25519 signatures, SHA-256 chaining, and
a hybrid envelope: a fresh AES-256-GCM key per payload, wrapped with
AES-GCM under a key the seller and the buyer share. That pair key comes
from one static-static X25519 agreement per pair of parties and cell,
through HKDF-SHA256, and each side caches it (the C(0e, 2s) scheme of
NIST SP 800-56A rev. 3). The trade-off: a party's X25519 key is drawn
per cell, and if it leaks, it opens every payload to or from that party
in the cell; there is no per-payload forward secrecy against the
sender's key. The recipient trusts the sender key carried in the
envelope; authenticity comes from the seller's signed fulfillment over
the payload hash.
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

_PAIR_INFO = b"faircollab pair key"


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
        # Public halves, derived once: every seal, order and registration reads them.
        self.encrypt_public = decryption_key.public_key().public_bytes_raw()
        self.encrypt_key_hex = self.encrypt_public.hex()
        self.verify_key_hex = signing_key.public_key().public_bytes_raw().hex()
        # peer's raw X25519 public key -> AES-GCM under the pair key
        self._pair_ciphers: dict[bytes, AESGCM] = {}

    @classmethod
    def generate(cls, rng: np.random.Generator) -> "KeyPair":
        # Derived from the party's seeded stream so runs are reproducible.
        return cls(Ed25519PrivateKey.from_private_bytes(rng.bytes(32)),
                   X25519PrivateKey.from_private_bytes(rng.bytes(32)))

    def sign(self, message: bytes) -> str:
        return self.signing_key.sign(message).hex()

    def pair_cipher(self, peer_public: bytes) -> AESGCM:
        """AES-GCM under the key this party shares with the holder of
        peer_public; X25519 is symmetric, so both sides derive the same
        one. The agreement runs once per peer."""
        cipher = self._pair_ciphers.get(peer_public)
        if cipher is None:
            shared = self.decryption_key.exchange(X25519PublicKey.from_public_bytes(peer_public))
            cipher = AESGCM(HKDF(algorithm=SHA256(), length=32, salt=None,
                                 info=_PAIR_INFO).derive(shared))
            self._pair_ciphers[peer_public] = cipher
        return cipher


def verify_signature(verify_key_hex: str, message: bytes, signature_hex: str) -> bool:
    try:
        key = Ed25519PublicKey.from_public_bytes(bytes.fromhex(verify_key_hex))
        key.verify(bytes.fromhex(signature_hex), message)
        return True
    except (InvalidSignature, TypeError, ValueError):
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
    """Hybrid envelope: AES-GCM ciphertext under a fresh content key, that
    key wrapped under the pair key of sender and recipient, with the same
    aad. ephemeral_public holds the sender's X25519 key for the cell, not
    a per-payload key; a leak of either party's key opens the payload."""

    ciphertext: bytes
    nonce: bytes
    wrapped_key: bytes
    wrap_nonce: bytes
    ephemeral_public: bytes

    @property
    def payload_hash(self) -> str:
        return sha256_hex(self.ciphertext)


def encrypt_payload(plaintext: bytes, recipient_pk_hex: str, sender: KeyPair,
                    rng: np.random.Generator, aad: bytes = b"") -> EncryptedPayload:
    """Seal the plaintext under a fresh key drawn from rng, wrapped under
    the pair key of sender and recipient."""
    draw = rng.bytes(88)
    # [44:76] is drawn but unused, so the sender's later draws (DP-SGD noise) keep their values.
    content_key, nonce, wrap_nonce = draw[:32], draw[32:44], draw[76:88]
    ciphertext = AESGCM(content_key).encrypt(nonce, plaintext, aad)
    wrapped = sender.pair_cipher(bytes.fromhex(recipient_pk_hex)).encrypt(
        wrap_nonce, content_key, aad)
    return EncryptedPayload(ciphertext, nonce, wrapped, wrap_nonce, sender.encrypt_public)


def decrypt_payload(payload: EncryptedPayload, keypair: KeyPair, aad: bytes = b"") -> bytes:
    content_key = keypair.pair_cipher(payload.ephemeral_public).decrypt(
        payload.wrap_nonce, payload.wrapped_key, aad)
    return AESGCM(content_key).decrypt(payload.nonce, payload.ciphertext, aad)


@dataclass
class Order:
    """One line of a purchase order: count gradients from one seller."""

    order_id: str    # line id, "<purchase_order tx id>:<seller>"
    buyer: str
    seller: str
    count: int
    buyer_encrypt_key: str
    status: str = "open"  # open | fulfilled


def _line_id(batch_id: str, seller: str) -> str:
    return f"{batch_id}:{seller}"


class Ledger:
    """Serialized ledger facade: token balances, order lines, payload
    store, and the block chain itself. A line settles in fulfill_order."""

    def __init__(self):
        self.chain: list[Block] = []
        self.pending: list[Transaction] = []
        self.balances: dict[str, int] = {}
        self.orders: dict[str, Order] = {}
        self.payload_store: dict[str, EncryptedPayload] = {}
        # seller -> [line id, payload hash] of each fill it has not signed yet
        self.unsigned_fills: dict[str, list[list[str]]] = {}
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

    def submit_purchase_order(self, buyer_keypair: KeyPair, buyer: str,
                              lines: dict[str, int]) -> dict[str, Order]:
        """Sign one order of lines (seller -> count) at one token per
        gradient, each line paid when filled. Returns seller -> line, in
        seller order."""
        if not lines or min(lines.values()) < 1:
            raise LedgerError("every order line must request at least one gradient")
        unknown = sorted(set(lines) - set(self.balances))
        if unknown:
            raise LedgerError(f"order names unregistered sellers {unknown}")
        total = sum(lines.values())
        if self.balances[buyer] < total:
            raise LedgerError(f"{buyer} cannot pay {total} tokens")
        payload = {"count": int(total), "encrypt_key": buyer_keypair.encrypt_key_hex,
                   "lines": [[seller, int(count)] for seller, count in sorted(lines.items())],
                   "round": self.round_index}
        tx = Transaction.signed("purchase_order", payload, buyer, buyer_keypair)
        batch_id = tx.tx_id
        # Signatures are deterministic, so a repeated order has the same id
        # and its lines would replace the first ones, fulfilled or not.
        if _line_id(batch_id, payload["lines"][0][0]) in self.orders:
            raise LedgerError(f"identical order {batch_id} already placed this round")
        placed = {}
        for seller, count in payload["lines"]:
            order = Order(_line_id(batch_id, seller), buyer, seller, count,
                          payload["encrypt_key"])
            self.orders[order.order_id] = order
            placed[seller] = order
        self.pending.append(tx)
        return placed

    def fulfill_order(self, seller_keypair: KeyPair, seller: str, order_id: str,
                      update: SparseUpdate, rng: np.random.Generator) -> EncryptedPayload:
        """Ship one order line and pay for it: count tokens move from buyer
        to seller. The fill awaits the seller's sign_fulfillment. Returns
        the published payload."""
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
        payload_obj = encrypt_payload(update.to_bytes(), order.buyer_encrypt_key,
                                      seller_keypair, rng, aad=order_id.encode())
        payload_hash = payload_obj.payload_hash
        self.payload_store[payload_hash] = payload_obj
        self.unsigned_fills.setdefault(seller, []).append([order_id, payload_hash])
        order.status = "fulfilled"
        self.balances[order.buyer] -= order.count
        self.balances[seller] += order.count
        return payload_obj

    def sign_fulfillment(self, seller_keypair: KeyPair, seller: str) -> Transaction:
        """One signed fulfillment listing every line seller has filled
        since its last one."""
        lines = self.unsigned_fills.pop(seller, None)
        if not lines:
            raise LedgerError(f"{seller} has no unsigned fills")
        payload = {"lines": lines, "round": self.round_index}
        tx = Transaction.signed("fulfillment", payload, seller, seller_keypair)
        self.pending.append(tx)
        return tx

    def record_punishment(self, keypair: KeyPair, author: str, against: str,
                          reason: str) -> Transaction:
        payload = {"against": against, "reason": reason, "round": self.round_index}
        tx = Transaction.signed("punishment", payload, author, keypair)
        self.pending.append(tx)
        return tx

    # -- rounds -------------------------------------------------------

    def seal_block(self, leader: str) -> Block:
        if self.unsigned_fills:
            raise LedgerError(f"unsigned fills by {sorted(self.unsigned_fills)}")
        prev = self.chain[-1].block_hash if self.chain else "0" * 64
        block = Block.sealed(len(self.chain), prev, self.pending, leader)
        self.chain.append(block)
        self.pending = []
        self.round_index += 1
        return block


def _settle_lines(tx: Transaction, open_lines: dict[str, str]) -> bool:
    """Track order lines (line id -> seller) through one transaction. False
    when an order's count is not the sum of its lines, or a fulfillment
    names a line not open to its author: unknown, addressed to another
    seller, or already filled."""
    try:
        if tx.kind == "purchase_order":
            batch_id = tx.tx_id
            total = 0
            for seller, count in tx.payload["lines"]:
                open_lines[_line_id(batch_id, seller)] = seller
                total += count
            return total == tx.payload["count"]
        if tx.kind == "fulfillment":
            for line_id, _payload_hash in tx.payload["lines"]:
                if open_lines.pop(line_id, None) != tx.author:
                    return False
    except (KeyError, TypeError, ValueError):
        return False
    return True


def verify_chain(chain) -> bool:
    """True iff hashes link from genesis, parties register in the genesis
    block only and once each, every signature verifies against the key
    registered for its author, and every fulfillment line fills, once, a
    line ordered from its author earlier in the chain. False, too, for a
    field of the wrong type."""
    if not chain:
        return False
    verify_keys: dict[str, str] = {}
    for tx in chain[0].transactions:
        if tx.kind == "register":
            if not isinstance(tx.payload, dict):
                return False
            party = tx.payload.get("party")
            key = tx.payload.get("verify_key")
            if (not isinstance(party, str) or not isinstance(key, str)
                    or tx.author != party or party in verify_keys):
                return False
            verify_keys[party] = key
    open_lines: dict[str, str] = {}
    prev_hash = "0" * 64
    for position, block in enumerate(chain):
        if block.index != position or block.prev_hash != prev_hash:
            return False
        for tx in block.transactions:
            if tx.kind == "register" and position > 0:
                return False
            key = verify_keys.get(tx.author) if isinstance(tx.author, str) else None
            if key is None:
                return False
            if not verify_signature(key, Transaction.signing_bytes(
                    tx.kind, tx.payload, tx.author), tx.signature):
                return False
            if not _settle_lines(tx, open_lines):
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


def iter_chain(path):
    """The blocks of a dump in order. A line that does not parse as a block
    raises ValueError naming the line, after the blocks before it."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                block = Block.from_dict(json.loads(line))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"line {number}: {type(exc).__name__}: {exc}") from exc
            yield block


def load_chain(path) -> list[Block]:
    return list(iter_chain(path))
