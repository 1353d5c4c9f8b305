"""In-process hash-chained ledger with signed transactions.

One block is sealed per protocol round by a rotating leader (consensus is
simulated; every submission passes through this single serialized
component). The genesis block records each party's verification key and
initial token grant, then the punishments of initialisation. Gradient
sales are batched per party and round: a buyer signs one purchase_order
carrying its encryption key, its total count and one line (seller,
count) per seller, and a seller signs one fulfillment listing (order
line, payload hash) for every line it shipped. An order is paid in full
where it is placed, one token per gradient from the buyer to each
seller, and each of its lines must be filled before its block seals: the
seller publishes an encrypted payload to a content-addressed store, and
its signature over its fills is added once trading ends. The store holds
a payload only until a signed fulfillment lists its hash, so it is empty
whenever a block seals; the chain keeps the hash. A payload's
plaintext is the line's SparseUpdate.to_bytes: an 8-byte header, then
per gradient entry its index (2 bytes up to 65,536 parameters, 4 above)
and its >f4 value, so k entries of the desk model ship as 8 + 6k bytes
of plaintext and 24 + 6k of ciphertext with the AES-GCM tag (8 + 8k and
24 + 8k for the 101,770-parameter paper model). ChainState
holds the market's rules, which the Ledger and verify_chain both apply.

Primitives are real, not stubs: Ed25519 signatures, SHA-256 chaining, and
AES-256-GCM under a key the seller and the buyer share, one seal per
payload. That pair key comes from one static-static X25519 agreement per
pair of parties and cell, through HKDF-SHA256, and each side caches it
(the C(0e, 2s) scheme of NIST SP 800-56A rev. 3). The trade-off: a
party's X25519 key is drawn per cell, and if it leaks, it opens every
payload to or from that party in the cell; there is no per-payload
forward secrecy against the sender's key. The recipient trusts the
sender key carried in the payload; authenticity comes from the seller's
signed fulfillment over the payload hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def tx_id(self) -> str:
        # Hashed once: an order's id names each of its lines.
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
        return sha256_hex(_canonical({"index": index, "prev_hash": prev_hash, "leader": leader,
                                      "transactions": [tx.to_dict() for tx in transactions]}))

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
    """AES-GCM ciphertext under the pair key of sender and recipient, bound
    to an aad. sender_public is the sender's X25519 key for the cell, not a
    per-payload key; a leak of either party's key opens the payload."""

    ciphertext: bytes
    nonce: bytes
    sender_public: bytes

    @property
    def payload_hash(self) -> str:
        return sha256_hex(self.ciphertext)


def encrypt_payload(plaintext: bytes, recipient_pk_hex: str, sender: KeyPair,
                    rng: np.random.Generator, aad: bytes) -> EncryptedPayload:
    """Seal the plaintext under the pair key of sender and recipient with a
    nonce drawn from rng, bound to aad, which the ledger sets to the order
    line id."""
    # Only [32:44] is used; the full 88-byte draw keeps the sender's later
    # draws (its DP-SGD noise), and so every output, at their values.
    nonce = rng.bytes(88)[32:44]
    ciphertext = sender.pair_cipher(bytes.fromhex(recipient_pk_hex)).encrypt(nonce, plaintext, aad)
    return EncryptedPayload(ciphertext, nonce, sender.encrypt_public)


def decrypt_payload(payload: EncryptedPayload, keypair: KeyPair, aad: bytes) -> bytes:
    cipher = keypair.pair_cipher(payload.sender_public)
    return cipher.decrypt(payload.nonce, payload.ciphertext, aad)


@dataclass
class Order:
    """One line of a purchase order: count gradients from one seller."""

    order_id: str    # line id, "<purchase_order tx id>:<seller>"
    seller: str
    count: int
    buyer_encrypt_key: str
    status: str = "open"  # open | fulfilled


class ChainState:
    """The market's rules, applied one transaction at a time; apply and
    seal raise LedgerError, changing nothing, on a step that breaks one:
    - a party registers in block 0 only, once, before any punishment,
      signed by itself, with an int grant >= 0; block 0 holds 2 or more;
    - no transaction comes from, and no order line names, a banned party
      (one punished in an earlier block); every round is its block's index;
    - an order asks each of its sellers, never its buyer, once for at
      least 1 gradient, counts the sum of its lines, and is paid in full
      where it is placed, so the buyer's balance must cover it there;
    - a fulfillment fills, once each, lines of its block open to its author;
    - a block seals once none of its lines is open, under the leader
      sorted(active)[index % len(active)] of the registered parties not
      banned, who signs its punishments;
    - a block punishes a party at most once: block 0 only parties that
      did not register, a later block only active ones.
    Only an int is a count or a round (JSON true and 1.0 equal 1)."""

    def __init__(self):
        self.verify_keys: dict[str, str] = {}
        self.balances: dict[str, int] = {}
        self.banned: set[str] = set()
        self.index = 0                    # the open block
        self.punished: set[str] = set()   # by the open block
        # The open block's order lines: line id -> seller, None once filled.
        self.lines: dict[str, str | None] = {}

    def leader(self) -> str:
        active = sorted(self.verify_keys.keys() - self.banned)
        if not active:
            raise LedgerError(f"block {self.index} has no active party to lead it")
        return active[self.index % len(active)]

    def signing_key(self, tx: Transaction):
        """The key a registration registers, else its author's; None if none."""
        if tx.kind == "register":
            return tx.payload.get("verify_key") if isinstance(tx.payload, dict) else None
        return self.verify_keys.get(tx.author) if isinstance(tx.author, str) else None

    def apply(self, tx: Transaction) -> None:
        author, payload = tx.author, tx.payload
        try:
            if not isinstance(author, str):
                raise TypeError(f"author {author!r} is not a party id")
            if tx.kind == "register":
                grant = payload["tokens"]
                if (self.index or self.punished or author in self.verify_keys
                        or payload["party"] != author or not isinstance(payload["verify_key"], str)
                        or type(grant) is not int or grant < 0):
                    raise LedgerError(f"registration of {author} breaks a genesis rule")
                self.verify_keys[author], self.balances[author] = payload["verify_key"], grant
                return
            if author not in self.verify_keys or author in self.banned:
                raise LedgerError(f"{author} is not an active party")
            if type(payload["round"]) is not int or payload["round"] != self.index:
                raise LedgerError(f"{tx.kind} of round {payload['round']!r} in block {self.index}")
            if tx.kind == "purchase_order":
                self._order(author, payload, tx.tx_id)
            elif tx.kind == "fulfillment":
                filled = [line_id for line_id, _payload_hash in payload["lines"]]
                if len(set(filled)) < len(filled) or any(self.lines.get(line_id) != author
                                                         for line_id in filled):
                    raise LedgerError(f"fulfillment by {author} names a line not open to it")
                self.lines.update(dict.fromkeys(filled))
            elif author != self.leader() or not isinstance(payload["against"], str):
                raise LedgerError(f"punishment by {author}, not by block {self.index}'s leader")
            else:
                against = payload["against"]
                if (against in self.punished or against in self.banned
                        or (against in self.verify_keys) != (self.index > 0)):
                    raise LedgerError(f"block {self.index} cannot punish {against}")
                self.punished.add(against)
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerError(f"malformed {tx.kind}: {type(exc).__name__}: {exc}") from exc

    def _order(self, buyer: str, payload: dict, order_id: str) -> None:
        sellers = [seller for seller, _count in payload["lines"]]
        counts = [count for _seller, count in payload["lines"]]
        if (not sellers or len(set(sellers)) < len(sellers)
                or not all(type(count) is int and count >= 1 for count in counts)):
            raise LedgerError("an order needs lines of at least 1 gradient, one per seller")
        if buyer in sellers:
            raise LedgerError(f"order of {buyer} names {buyer} as its seller")
        inactive = sorted(s for s in sellers if s not in self.verify_keys or s in self.banned)
        if inactive:
            raise LedgerError(f"order names sellers that are not active: {inactive}")
        total = sum(counts)
        if type(payload["count"]) is not int or payload["count"] != total:
            raise LedgerError(f"order count {payload['count']!r} is not its lines' {total}")
        if self.balances[buyer] < total:
            raise LedgerError(f"{buyer} cannot pay {total} tokens")
        line_ids = [f"{order_id}:{seller}" for seller in sellers]
        # Signatures are deterministic, so a repeated order has the same id.
        if line_ids[0] in self.lines:
            raise LedgerError(f"identical order {order_id} already placed in this block")
        self.balances[buyer] -= total
        for line_id, seller, count in zip(line_ids, sellers, counts):
            self.lines[line_id] = seller
            self.balances[seller] += count

    def seal(self, leader: str) -> None:
        """Close the open block under leader."""
        if (any(seller is not None for seller in self.lines.values())
                or self.index == 0 and len(self.verify_keys) < 2):
            raise LedgerError(f"block {self.index} has an open line or, as genesis, < 2 parties")
        if leader != self.leader():
            raise LedgerError(f"block {self.index} is led by {self.leader()}, not {leader!r}")
        self.banned |= self.punished
        self.punished, self.lines = set(), {}
        self.index += 1


class Ledger:
    """Serialized ledger facade: order lines, the payload store (each
    payload from its fill until a signed fulfillment lists its hash), the
    block chain, and the ChainState every accepted transaction goes
    through."""

    def __init__(self):
        self.chain: list[Block] = []
        self.pending: list[Transaction] = []
        self.state = ChainState()
        self.balances = self.state.balances
        self.orders: dict[str, Order] = {}
        self.payload_store: dict[str, EncryptedPayload] = {}
        # seller -> [line id, payload hash] of each fill it has not signed yet
        self.unsigned_fills: dict[str, list[list[str]]] = {}

    def _accept(self, tx: Transaction) -> Transaction:
        self.state.apply(tx)
        self.pending.append(tx)
        return tx

    def create_genesis(self, grants: dict[str, int], keypairs: dict[str, KeyPair],
                       punished: dict[str, str] | None = None) -> Block:
        """Seal block 0: every party of grants (party id -> tokens)
        registers, in id order, and then its leader, the smallest id,
        punishes each party of punished (party id -> reason)."""
        for party_id in sorted(grants):
            payload = {"party": party_id, "verify_key": keypairs[party_id].verify_key_hex,
                       "tokens": grants[party_id]}
            self._accept(Transaction.signed("register", payload, party_id, keypairs[party_id]))
        for against, reason in (punished or {}).items():
            leader = self.state.leader()
            self.record_punishment(keypairs[leader], leader, against, reason)
        return self.seal_block()

    def total_tokens(self) -> int:
        return sum(self.balances.values())

    def submit_purchase_order(self, buyer_keypair: KeyPair, buyer: str,
                              lines: dict[str, int]) -> dict[str, Order]:
        """Sign one order of lines (seller -> count) at one token per
        gradient, paid in full now; each line must be filled before the
        block seals. Returns seller -> line, in seller order."""
        payload = {"count": sum(int(count) for count in lines.values()),
                   "encrypt_key": buyer_keypair.encrypt_key_hex,
                   "lines": [[seller, int(count)] for seller, count in sorted(lines.items())],
                   "round": len(self.chain)}
        tx = self._accept(Transaction.signed("purchase_order", payload, buyer, buyer_keypair))
        placed = {seller: Order(f"{tx.tx_id}:{seller}", seller, count, payload["encrypt_key"])
                  for seller, count in payload["lines"]}
        self.orders.update((order.order_id, order) for order in placed.values())
        return placed

    def fulfill_order(self, seller_keypair: KeyPair, seller: str, order_id: str,
                      update: SparseUpdate, rng: np.random.Generator) -> EncryptedPayload:
        """Ship one order line; the fill awaits the seller's
        sign_fulfillment, and its payload stays in payload_store until
        then. Returns the published payload."""
        order = self.orders.get(order_id)
        if order is None or order.status != "open" or order.seller != seller:
            raise LedgerError(f"order {order_id} is not open to {seller}")
        if len(update) != order.count:
            raise LedgerError(f"order wants {order.count} gradients, got {len(update)}")
        payload_obj = encrypt_payload(update.to_bytes(), order.buyer_encrypt_key,
                                      seller_keypair, rng, aad=order_id.encode())
        payload_hash = payload_obj.payload_hash
        self.payload_store[payload_hash] = payload_obj
        self.unsigned_fills.setdefault(seller, []).append([order_id, payload_hash])
        order.status = "fulfilled"
        return payload_obj

    def sign_fulfillment(self, seller_keypair: KeyPair, seller: str) -> Transaction:
        """One signed fulfillment listing every line seller has filled
        since its last one, each with its payload hash; those payloads
        leave payload_store, and the chain keeps their hashes."""
        lines = self.unsigned_fills.get(seller)
        if not lines:
            raise LedgerError(f"{seller} has no unsigned fills")
        payload = {"lines": lines, "round": len(self.chain)}
        tx = self._accept(Transaction.signed("fulfillment", payload, seller, seller_keypair))
        del self.unsigned_fills[seller]
        for _line_id, payload_hash in lines:
            del self.payload_store[payload_hash]
        return tx

    def record_punishment(self, keypair: KeyPair, author: str, against: str,
                          reason: str) -> Transaction:
        payload = {"against": against, "reason": reason, "round": len(self.chain)}
        return self._accept(Transaction.signed("punishment", payload, author, keypair))

    def seal_block(self) -> Block:
        """Seal what is pending under this block's leader."""
        leader = self.state.leader()
        self.state.seal(leader)
        prev = self.chain[-1].block_hash if self.chain else "0" * 64
        block = Block.sealed(len(self.chain), prev, self.pending, leader)
        self.chain.append(block)
        self.pending = []
        return block


def verify_chain(chain) -> bool:
    """True iff hashes link from genesis, every signature verifies under its
    ChainState.signing_key, and every transaction and seal replays through
    a fresh ChainState. False, too, for a field of the wrong type."""
    if not chain:
        return False
    state = ChainState()
    prev_hash = "0" * 64
    try:
        for position, block in enumerate(chain):
            if (type(block.index) is not int or block.index != position
                    or block.prev_hash != prev_hash):
                return False
            for tx in block.transactions:
                if not verify_signature(state.signing_key(tx), Transaction.signing_bytes(
                        tx.kind, tx.payload, tx.author), tx.signature):
                    return False
                state.apply(tx)
            state.seal(block.leader)
            if Block.compute_hash(block.index, block.prev_hash,
                                  block.transactions, block.leader) != block.block_hash:
                return False
            prev_hash = block.block_hash
    except LedgerError:
        return False
    return True


def dump_chain(chain, path) -> None:
    """One block per line as canonical JSON."""
    with open(path, "w") as fh:
        for block in chain:
            fh.write(_canonical(block.to_dict()).decode() + "\n")


def iter_chain(path):
    """The blocks of a dump in order. A line that does not parse as a block
    raises ValueError naming the line, after the blocks before it."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                block = Block.from_dict(json.loads(line))
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise ValueError(f"line {number}: {type(exc).__name__}: {exc}") from exc
            yield block
