import copy
import dataclasses
import json

import numpy as np
import pytest
from cryptography.exceptions import InvalidTag
from hypothesis import given, settings
from hypothesis import strategies as st

from faircollab.credibility import init_tokens
from faircollab.ledger import (Block, Ledger, LedgerError, KeyPair, Transaction, decrypt_payload,
                               dump_chain, encrypt_payload, iter_chain, sha256_hex,
                               verify_chain)
from faircollab.numerics import SparseUpdate


def make_keys():
    rng = np.random.default_rng(0)
    return {pid: KeyPair.generate(rng) for pid in ("p00", "p01", "p02", "p03")}


@pytest.fixture
def keys():
    return make_keys()


def fresh_ledger(keys, tokens=300):
    ledger = Ledger()
    ledger.create_genesis({pid: tokens for pid in keys}, keys)
    return ledger


def fill_all(ledger, keys, orders):
    """Fill every line of orders (seller -> line) and sign each seller's fills."""
    rng = np.random.default_rng(7)
    for seller, order in orders.items():
        ledger.fulfill_order(keys[seller], seller, order.order_id,
                             SparseUpdate(np.arange(order.count), np.ones(order.count), 1000),
                             rng)
    for seller in sorted(ledger.unsigned_fills):
        ledger.sign_fulfillment(keys[seller], seller)


def signed(keys, kind, author, **payload):
    return Transaction.signed(kind, payload, author, keys[author])


def trade(keys, buyer, seller, count, round_index):
    """A validly signed order of count gradients from seller, and its fill."""
    order = signed(keys, "purchase_order", buyer, count=count,
                   encrypt_key=keys[buyer].encrypt_key_hex, lines=[[seller, count]],
                   round=round_index)
    return [order, signed(keys, "fulfillment", seller,
                          lines=[[f"{order.tx_id}:{seller}", "0" * 64]], round=round_index)]


def append_block(chain, txs, leader):
    """Hash-link a block of txs under leader onto chain, checking no rule."""
    chain.append(Block.sealed(len(chain), chain[-1].block_hash, txs, leader))
    return chain


def sample_update(n=5, count=30):
    rng = np.random.default_rng(42)
    values = rng.normal(size=count)
    return SparseUpdate(np.arange(count), values, 1000)


class TestKeysAndEnvelope:
    def test_signature_round_trip(self):
        kp = KeyPair.generate(np.random.default_rng(1))
        sig = kp.sign(b"hello")
        from faircollab.ledger import verify_signature
        assert verify_signature(kp.verify_key_hex, b"hello", sig)
        assert not verify_signature(kp.verify_key_hex, b"tampered", sig)

    def test_deterministic_keys_from_seed(self):
        a = KeyPair.generate(np.random.default_rng(7))
        b = KeyPair.generate(np.random.default_rng(7))
        assert a.verify_key_hex == b.verify_key_hex
        assert a.encrypt_key_hex == b.encrypt_key_hex

    def test_hybrid_round_trip(self):
        kp = KeyPair.generate(np.random.default_rng(2))
        sender = KeyPair.generate(np.random.default_rng(12))
        rng = np.random.default_rng(3)
        payload = encrypt_payload(b"secret gradients", kp.encrypt_key_hex, sender, rng, b"line")
        assert decrypt_payload(payload, kp, b"line") == b"secret gradients"
        assert len(payload.nonce) == 12

    def test_wrong_recipient_cannot_decrypt(self):
        kp_a = KeyPair.generate(np.random.default_rng(4))
        kp_b = KeyPair.generate(np.random.default_rng(5))
        sender = KeyPair.generate(np.random.default_rng(12))
        payload = encrypt_payload(b"x", kp_a.encrypt_key_hex, sender, np.random.default_rng(6),
                                  b"line")
        with pytest.raises(Exception):
            decrypt_payload(payload, kp_b, b"line")

    def test_round_trip_at_full_model_size(self):
        kp = KeyPair.generate(np.random.default_rng(8))
        sender = KeyPair.generate(np.random.default_rng(12))
        update = SparseUpdate(np.arange(5000), np.random.default_rng(9).normal(size=5000), 5000)
        payload = encrypt_payload(update.to_bytes(), kp.encrypt_key_hex, sender,
                                  np.random.default_rng(10), b"line")
        again = SparseUpdate.from_bytes(decrypt_payload(payload, kp, b"line"))
        assert np.array_equal(again.values, update.values)

    def test_pair_cipher_cached_and_shared_by_both_sides(self, keys):
        a, b = keys["p00"], keys["p01"]
        b_pub = bytes.fromhex(b.encrypt_key_hex)
        assert a.pair_cipher(b_pub) is a.pair_cipher(b_pub)
        payload = encrypt_payload(b"line", b.encrypt_key_hex, a, np.random.default_rng(1),
                                  aad=b"batch:p00")
        assert payload.sender_public == bytes.fromhex(a.encrypt_key_hex)
        assert decrypt_payload(payload, b, aad=b"batch:p00") == b"line"

    def test_seal_bound_to_line_id(self, keys):
        a, b = keys["p00"], keys["p01"]
        payload = encrypt_payload(b"line", b.encrypt_key_hex, a, np.random.default_rng(1),
                                  aad=b"batch:p00")
        with pytest.raises(InvalidTag):
            decrypt_payload(payload, b, aad=b"batch:p02")

    def test_two_sellers_to_one_buyer_open_for_the_buyer_only(self, keys):
        buyer, outsider = keys["p00"], keys["p03"]
        rng = np.random.default_rng(1)
        payloads = {seller: encrypt_payload(seller.encode(), buyer.encrypt_key_hex, keys[seller],
                                            rng, aad=seller.encode())
                    for seller in ("p01", "p02")}
        for seller, payload in payloads.items():
            assert decrypt_payload(payload, buyer, aad=seller.encode()) == seller.encode()
            with pytest.raises(InvalidTag):
                decrypt_payload(payload, outsider, aad=seller.encode())

    @pytest.mark.parametrize("field", ["sender_public", "nonce", "ciphertext"])
    def test_flipped_envelope_byte_fails_to_open(self, keys, field):
        payload = encrypt_payload(b"line", keys["p01"].encrypt_key_hex, keys["p00"],
                                  np.random.default_rng(1), aad=b"batch:p00")
        blob = bytearray(getattr(payload, field))
        blob[0] ^= 0x01
        with pytest.raises(InvalidTag):
            decrypt_payload(dataclasses.replace(payload, **{field: bytes(blob)}), keys["p01"],
                            aad=b"batch:p00")

    def test_rng_draws_and_ciphertext_pinned(self, keys):
        # The payload hash and the seller's later draws (its DP-SGD noise)
        # rest on this layout of the rng stream.
        a, b = keys["p00"], keys["p01"]
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        plaintext, aad = b"secret gradients", b"batch:p01"
        payload = encrypt_payload(plaintext, b.encrypt_key_hex, a, rng, aad)
        nonce = twin.bytes(88)[32:44]
        assert rng.bit_generator.state == twin.bit_generator.state
        assert payload.nonce == nonce
        assert payload.ciphertext == a.pair_cipher(
            bytes.fromhex(b.encrypt_key_hex)).encrypt(nonce, plaintext, aad)


class TestGenesis:
    def test_balances_from_init_tokens(self, keys):
        ledger = Ledger()
        tokens = init_tokens(0.1, 1000, 4)
        # Registered in id order whatever the order of the grants.
        genesis = ledger.create_genesis({pid: tokens for pid in sorted(keys, reverse=True)}, keys)
        assert genesis.index == 0
        assert genesis.prev_hash == "0" * 64
        assert genesis.leader == "p00"
        assert [tx.payload["party"] for tx in genesis.transactions] == sorted(keys)
        assert all(ledger.balances[pid] == 300 for pid in keys)
        assert verify_chain(ledger.chain)

    def test_single_registration_rejected(self, keys):
        with pytest.raises(LedgerError):
            Ledger().create_genesis({"p00": 10}, keys)

    @pytest.mark.parametrize("grant", [-5, "lots", True], ids=["negative", "str", "bool"])
    def test_grant_that_is_not_a_count_rejected(self, keys, grant):
        with pytest.raises(LedgerError):
            Ledger().create_genesis({"p00": grant, "p01": 10}, keys)
        # The same registration, validly signed, does not verify either.
        txs = [signed(keys, "register", pid, party=pid, verify_key=keys[pid].verify_key_hex,
                      tokens=tokens) for pid, tokens in (("p00", grant), ("p01", 10))]
        assert not verify_chain([Block.sealed(0, "0" * 64, txs, "p00")])
        txs[0] = signed(keys, "register", "p00", party="p00",
                        verify_key=keys["p00"].verify_key_hex, tokens=0)
        assert verify_chain([Block.sealed(0, "0" * 64, txs, "p00")])


class TestTrading:
    def test_seal_refused_while_a_line_is_open(self, keys):
        # The order is paid in full where it is placed; its block seals
        # only once every line of it is filled.
        ledger = fresh_ledger(keys)
        orders = ledger.submit_purchase_order(keys["p00"], "p00", {"p02": 10, "p01": 30})
        assert list(orders) == ["p01", "p02"]
        paid = {"p00": 260, "p01": 330, "p02": 310, "p03": 300}
        assert ledger.balances == paid
        rng = np.random.default_rng(1)
        ledger.fulfill_order(keys["p01"], "p01", orders["p01"].order_id,
                             SparseUpdate(np.arange(30), np.ones(30), 100), rng)
        ledger.sign_fulfillment(keys["p01"], "p01")
        pending = list(ledger.pending)
        with pytest.raises(LedgerError):
            ledger.seal_block()
        assert len(ledger.chain) == 1 and ledger.pending == pending
        assert ledger.balances == paid and orders["p02"].status == "open"
        ledger.fulfill_order(keys["p02"], "p02", orders["p02"].order_id,
                             SparseUpdate(np.arange(10), np.ones(10), 100), rng)
        ledger.sign_fulfillment(keys["p02"], "p02")
        ledger.seal_block()
        assert ledger.balances == paid
        assert ledger.chain[1].transactions[0].payload["lines"] == [["p01", 30], ["p02", 10]]
        assert ledger.chain[1].transactions[0].payload["count"] == 40
        assert verify_chain(ledger.chain)

    def test_identical_order_in_one_round_rejected(self, keys):
        ledger = fresh_ledger(keys)
        orders = ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 1, "p02": 2})
        with pytest.raises(LedgerError):
            ledger.submit_purchase_order(keys["p00"], "p00", {"p02": 2, "p01": 1})
        assert len(ledger.orders) == 2 and len(ledger.pending) == 1
        assert ledger.balances["p00"] == 297 and ledger.total_tokens() == 1200
        fill_all(ledger, keys, orders)
        # The round is signed into the order, so the next round may repeat it.
        ledger.seal_block()
        ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 1, "p02": 2})
        assert len(ledger.orders) == 4

    def test_order_exceeding_balance_rejected(self, keys):
        # Each line fits the balance; together they do not.
        ledger = fresh_ledger(keys, tokens=20)
        with pytest.raises(LedgerError):
            ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 15, "p02": 15})
        assert not ledger.orders and not ledger.pending

    def test_second_order_the_buyer_cannot_pay_rejected(self, keys):
        # Both orders fit the balance on their own; the first one, paid
        # where it is placed, leaves too little for the second.
        ledger = fresh_ledger(keys)
        ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 200})
        balances, pending, orders = dict(ledger.balances), list(ledger.pending), dict(ledger.orders)
        with pytest.raises(LedgerError):
            ledger.submit_purchase_order(keys["p00"], "p00", {"p02": 200})
        assert ledger.balances == balances == {"p00": 100, "p01": 500, "p02": 300, "p03": 300}
        assert ledger.pending == pending and ledger.orders == orders

    # An order paying an unregistered seller would debit the buyer and
    # credit no one.
    @pytest.mark.parametrize("lines", [{}, {"p01": 3, "p02": 0}, {"p01": 3, "p09": 2},
                                       {"p00": 5}],
                             ids=["no_line", "zero_count", "unregistered_seller", "own_buyer"])
    def test_bad_line_rejected(self, keys, lines):
        ledger = fresh_ledger(keys)
        with pytest.raises(LedgerError):
            ledger.submit_purchase_order(keys["p00"], "p00", lines)
        assert not ledger.orders and not ledger.pending
        assert ledger.balances == dict.fromkeys(keys, 300)

    def test_unregistered_or_banned_buyer_rejected(self, keys):
        ledger = Ledger()
        ledger.create_genesis({pid: 300 for pid in ("p00", "p01", "p03")}, keys)
        with pytest.raises(LedgerError):
            ledger.submit_purchase_order(keys["p02"], "p02", {"p01": 2})
        assert not ledger.pending and not ledger.orders
        # Block 1's leader punishes p03; from block 2 on it cannot buy.
        ledger.record_punishment(keys[ledger.state.leader()], ledger.state.leader(), "p03", "test")
        ledger.seal_block()
        balances = dict(ledger.balances)
        with pytest.raises(LedgerError):
            ledger.submit_purchase_order(keys["p03"], "p03", {"p01": 2})
        assert not ledger.pending and not ledger.orders and ledger.balances == balances

    def test_fulfillment_round_trip(self, keys):
        ledger = fresh_ledger(keys)
        update = sample_update()
        orders = ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 30, "p02": 5})
        order = orders["p01"]
        payload = ledger.fulfill_order(keys["p01"], "p01", order.order_id, update,
                                       np.random.default_rng(1))
        blob = decrypt_payload(payload, keys["p00"], aad=order.order_id.encode())
        recovered = SparseUpdate.from_bytes(blob)
        assert np.array_equal(recovered.indices, update.indices)
        assert np.array_equal(recovered.values, update.values)
        # Paid when the order was placed, not when its line is filled.
        assert ledger.balances == {"p00": 265, "p01": 330, "p02": 305, "p03": 300}
        assert ledger.orders[order.order_id].status == "fulfilled"
        assert orders["p02"].status == "open"
        assert order.order_id == ledger.pending[0].tx_id + ":p01"
        tx = ledger.sign_fulfillment(keys["p01"], "p01")
        assert tx.author == "p01"
        assert tx.payload["lines"] == [[order.order_id, sha256_hex(payload.ciphertext)]]
        assert not ledger.unsigned_fills
        fill_all(ledger, keys, {"p02": orders["p02"]})
        ledger.seal_block()
        assert verify_chain(ledger.chain)

    @pytest.mark.parametrize("k", [1, 138])
    def test_filled_line_ciphertext_is_six_bytes_an_entry(self, keys, k):
        # Desk-scale model (1,386 parameters): 8-byte header, a >u2 index
        # and a >f4 value per entry, and the 16-byte AES-GCM tag.
        ledger = fresh_ledger(keys)
        order = ledger.submit_purchase_order(keys["p00"], "p00", {"p01": k})["p01"]
        update = SparseUpdate(np.linspace(0, 1_385, k).astype(np.int64), np.ones(k), 1_386)
        payload = ledger.fulfill_order(keys["p01"], "p01", order.order_id, update,
                                       np.random.default_rng(1))
        assert len(payload.ciphertext) == 8 + 6 * k + 16
        assert ledger.payload_store[payload.payload_hash] is payload

    def test_one_fulfillment_covers_every_fill_of_a_seller(self, keys):
        ledger = fresh_ledger(keys)
        rng = np.random.default_rng(1)
        lines = []
        for buyer in ("p00", "p02", "p03"):
            order = ledger.submit_purchase_order(keys[buyer], buyer, {"p01": 4})["p01"]
            payload = ledger.fulfill_order(keys["p01"], "p01", order.order_id,
                                           SparseUpdate(np.arange(4), np.ones(4), 10), rng)
            lines.append([order.order_id, payload.payload_hash])
        tx = ledger.sign_fulfillment(keys["p01"], "p01")
        assert tx.payload["lines"] == lines
        assert [t.kind for t in ledger.pending] == ["purchase_order"] * 3 + ["fulfillment"]
        with pytest.raises(LedgerError):
            ledger.sign_fulfillment(keys["p01"], "p01")  # nothing left to sign

    def test_payload_stored_until_its_sellers_signature(self, keys):
        # p01 fills a line of p00 and one of p03, p02 a line of p00; each
        # signature drops its own seller's payloads and no other.
        ledger = fresh_ledger(keys)
        rng = np.random.default_rng(1)
        orders = ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 4, "p02": 4})
        orders["p03"] = ledger.submit_purchase_order(keys["p03"], "p03", {"p01": 4})["p01"]
        stored = {}
        for key, seller in (("p01", "p01"), ("p02", "p02"), ("p03", "p01")):
            payload = ledger.fulfill_order(keys[seller], seller, orders[key].order_id,
                                           SparseUpdate(np.arange(4), np.ones(4), 10), rng)
            stored[key] = payload.payload_hash
            assert ledger.payload_store[payload.payload_hash] is payload
        assert set(ledger.payload_store) == set(stored.values())
        tx = ledger.sign_fulfillment(keys["p01"], "p01")
        assert [line[1] for line in tx.payload["lines"]] == [stored["p01"], stored["p03"]]
        assert set(ledger.payload_store) == {stored["p02"]}
        ledger.sign_fulfillment(keys["p02"], "p02")
        assert not ledger.payload_store and not ledger.unsigned_fills
        # The sealed chain keeps each payload's hash in its fill line.
        block = ledger.seal_block()
        assert {line[1] for tx in block.transactions if tx.kind == "fulfillment"
                for line in tx.payload["lines"]} == set(stored.values())
        assert verify_chain(ledger.chain)

    def test_seal_refused_while_a_fill_is_unsigned(self, keys):
        ledger = fresh_ledger(keys)
        order = ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 30})["p01"]
        ledger.fulfill_order(keys["p01"], "p01", order.order_id, sample_update(),
                             np.random.default_rng(1))
        pending = list(ledger.pending)
        with pytest.raises(LedgerError):
            ledger.seal_block()
        assert len(ledger.chain) == 1 and ledger.pending == pending
        ledger.sign_fulfillment(keys["p01"], "p01")
        ledger.seal_block()
        assert verify_chain(ledger.chain)

    def test_double_fulfillment_rejected(self, keys):
        ledger = fresh_ledger(keys)
        update = sample_update()
        order = ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 30, "p02": 30})["p01"]
        ledger.fulfill_order(keys["p01"], "p01", order.order_id, update,
                             np.random.default_rng(1))
        balances = dict(ledger.balances)
        with pytest.raises(LedgerError):
            ledger.fulfill_order(keys["p01"], "p01", order.order_id, update,
                                 np.random.default_rng(2))
        assert ledger.balances == balances == {"p00": 240, "p01": 330, "p02": 330, "p03": 300}
        assert len(ledger.unsigned_fills["p01"]) == 1

    def test_wrong_count_rejected(self, keys):
        ledger = fresh_ledger(keys)
        order = ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 30, "p02": 1})["p01"]
        with pytest.raises(LedgerError):
            ledger.fulfill_order(keys["p01"], "p01", order.order_id,
                                 SparseUpdate([0], [1.0], 1000), np.random.default_rng(1))
        assert order.status == "open" and not ledger.unsigned_fills

    def test_conservation_across_activity(self, keys):
        ledger = fresh_ledger(keys)
        for round_index in range(5):
            fill_all(ledger, keys,
                     ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 10, "p02": 3}))
            fill_all(ledger, keys, ledger.submit_purchase_order(keys["p02"], "p02", {"p03": 7}))
            ledger.seal_block()
            assert ledger.total_tokens() == 1200
            assert not ledger.payload_store  # does not grow with the rounds
        assert ledger.balances == {"p00": 235, "p01": 350, "p02": 280, "p03": 335}
        assert verify_chain(ledger.chain)

    # A round is a list of (buyer, {seller: (count, fill first?)}): counts
    # up to 200 on up to three lines overrun the 300-token balances and a
    # batch may repeat within a round, so some orders are refused. The
    # lines marked True are filled first; the seal is refused while any
    # other line is open, and succeeds once those are filled too.
    @given(st.lists(st.lists(st.tuples(
        st.integers(0, 3),
        st.dictionaries(st.integers(0, 3), st.tuples(st.integers(1, 200), st.booleans()),
                        min_size=1, max_size=3)),
        max_size=4), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_conservation_property(self, rounds):
        keys = make_keys()
        ledger = fresh_ledger(keys)
        pids = sorted(keys)
        rng = np.random.default_rng(11)
        for batches in rounds:
            placed, first, later = set(), [], []
            for b, lines in batches:
                buyer = pids[b]
                counts = {pids[s]: count for s, (count, _fill) in lines.items()}
                key = (buyer, tuple(sorted(counts.items())))
                expected = dict(ledger.balances)
                try:
                    orders = ledger.submit_purchase_order(keys[buyer], buyer, counts)
                except LedgerError:
                    assert (sum(counts.values()) > expected[buyer] or key in placed
                            or buyer in counts)
                    assert ledger.balances == expected
                    continue
                placed.add(key)
                # Paid in full where it is placed.
                expected[buyer] -= sum(counts.values())
                for seller, count in counts.items():
                    expected[seller] += count
                assert ledger.balances == expected
                assert all(balance >= 0 for balance in ledger.balances.values())
                for s, (_count, fill) in lines.items():
                    (first if fill else later).append(orders[pids[s]])
            balances = dict(ledger.balances)
            for group in (first, later):
                for order in group:
                    update = SparseUpdate(np.arange(order.count), np.ones(order.count), 400)
                    ledger.fulfill_order(keys[order.seller], order.seller, order.order_id,
                                         update, rng)
                    assert order.status == "fulfilled"
                for seller in sorted(ledger.unsigned_fills):
                    ledger.sign_fulfillment(keys[seller], seller)
                if group is first and later:
                    with pytest.raises(LedgerError):
                        ledger.seal_block()
            assert ledger.balances == balances  # fills move no tokens
            ledger.seal_block()
            assert ledger.total_tokens() == 1200
        assert verify_chain(ledger.chain)


def _replace_tx(ledger, block_index, position, payload):
    """Swap one transaction's payload, keeping its signature and the block hash."""
    block = ledger.chain[block_index]
    txs = list(block.transactions)
    tx = txs[position]
    txs[position] = Transaction(tx.kind, payload, tx.author, tx.signature)
    ledger.chain[block_index] = type(block)(block.index, block.prev_hash, tuple(txs),
                                            block.leader, block.block_hash)


class TestChainVerification:
    def _active_chain(self, keys, rounds=3):
        # Per round: p00 buys from p01 and p02, p03 from p01; p01 ships two
        # lines in one fulfillment, p02 one.
        ledger = fresh_ledger(keys)
        rng = np.random.default_rng(4)
        for r in range(rounds):
            batches = [ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 5, "p02": 3}),
                       ledger.submit_purchase_order(keys["p03"], "p03", {"p01": 4})]
            for orders in batches:
                for seller, order in orders.items():
                    ledger.fulfill_order(keys[seller], seller, order.order_id,
                                         SparseUpdate(np.arange(order.count),
                                                      np.ones(order.count), 100), rng)
            ledger.sign_fulfillment(keys["p01"], "p01")
            ledger.sign_fulfillment(keys["p02"], "p02")
            ledger.seal_block()
        return ledger

    def _forge(self, ledger, keys, seller, lines):
        """Seal a validly signed fulfillment by seller naming lines."""
        payload = {"lines": lines, "round": len(ledger.chain)}
        ledger.pending.append(Transaction.signed("fulfillment", payload, seller, keys[seller]))
        ledger.seal_block()

    def test_untampered_chain_verifies(self, keys):
        ledger = self._active_chain(keys)
        assert verify_chain(ledger.chain)
        assert [tx.kind for tx in ledger.chain[1].transactions] == [
            "purchase_order", "purchase_order", "fulfillment", "fulfillment"]
        assert len(ledger.chain[1].transactions[2].payload["lines"]) == 2

    def test_payload_hash_flip_detected(self, keys):
        # The second line of p01's fulfillment in block 1.
        ledger = self._active_chain(keys)
        tx = ledger.chain[1].transactions[2]
        lines = [list(line) for line in tx.payload["lines"]]
        h = lines[1][1]
        lines[1][1] = ("0" if h[0] != "0" else "1") + h[1:]
        _replace_tx(ledger, 1, 2, {**tx.payload, "lines": lines})
        assert not verify_chain(ledger.chain)

    def test_count_flip_detected(self, keys):
        # The second line of p00's order in block 1.
        ledger = self._active_chain(keys)
        tx = ledger.chain[1].transactions[0]
        lines = [list(line) for line in tx.payload["lines"]]
        lines[1][1] += 1
        _replace_tx(ledger, 1, 0, {**tx.payload, "lines": lines})
        assert not verify_chain(ledger.chain)

    def test_fulfillment_of_unknown_line_rejected(self, keys):
        ledger = self._active_chain(keys, rounds=1)
        self._forge(ledger, keys, "p01", [["0" * 24 + ":p01", "0" * 64]])
        assert not verify_chain(ledger.chain)

    def test_fulfillment_of_another_sellers_line_rejected(self, keys):
        # p02 names p01's line before p01 fills it, so the line is open then.
        ledger = self._active_chain(keys, rounds=1)
        orders = ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 2})
        ledger.pending.append(signed(keys, "fulfillment", "p02", round=2,
                                     lines=[[orders["p01"].order_id, "0" * 64]]))
        fill_all(ledger, keys, orders)
        ledger.seal_block()
        assert not verify_chain(ledger.chain)

    def test_line_filled_twice_rejected(self, keys):
        ledger = self._active_chain(keys, rounds=1)
        filled = ledger.chain[1].transactions[2].payload["lines"][0]
        self._forge(ledger, keys, "p01", [filled])
        assert not verify_chain(ledger.chain)

    def test_fulfillment_before_its_order_rejected(self, keys):
        ledger = fresh_ledger(keys)
        order_tx = Transaction.signed(
            "purchase_order", {"count": 2, "encrypt_key": keys["p00"].encrypt_key_hex,
                               "lines": [["p01", 2]], "round": 1}, "p00", keys["p00"])
        fill_tx = Transaction.signed(
            "fulfillment", {"lines": [[order_tx.tx_id + ":p01", "0" * 64]], "round": 1},
            "p01", keys["p01"])
        ledger.pending += [fill_tx, order_tx]
        ledger.seal_block()
        assert not verify_chain(ledger.chain)
        ledger.chain[1] = Block.sealed(1, ledger.chain[0].block_hash, [order_tx, fill_tx], "p01")
        assert verify_chain(ledger.chain)

    def test_order_count_other_than_its_lines_rejected(self, keys):
        ledger = fresh_ledger(keys)
        payload = {"count": 3, "encrypt_key": keys["p00"].encrypt_key_hex,
                   "lines": [["p01", 2], ["p02", 2]], "round": 1}
        ledger.pending.append(Transaction.signed("purchase_order", payload, "p00", keys["p00"]))
        ledger.seal_block()
        assert not verify_chain(ledger.chain)

    @pytest.mark.parametrize("lines", [None, 5, [["only-one-field"]], [[["unhashable"], "x"]]],
                             ids=["none", "int", "short_line", "unhashable_line_id"])
    def test_malformed_fulfillment_rejected(self, keys, lines):
        ledger = self._active_chain(keys, rounds=1)
        self._forge(ledger, keys, "p01", lines)
        assert not verify_chain(ledger.chain)

    def test_block_reorder_detected(self, keys):
        ledger = self._active_chain(keys)
        chain = list(ledger.chain)
        chain[1], chain[2] = chain[2], chain[1]
        assert not verify_chain(chain)

    def test_dump_load_round_trip(self, keys, tmp_path):
        ledger = self._active_chain(keys)
        path = tmp_path / "chain.jsonl"
        dump_chain(ledger.chain, path)
        loaded = list(iter_chain(path))
        assert len(loaded) == len(ledger.chain)
        assert verify_chain(loaded)
        assert [b.block_hash for b in loaded] == [b.block_hash for b in ledger.chain]

    def test_single_byte_flip_in_dump_detected(self, keys, tmp_path):
        ledger = self._active_chain(keys)
        path = tmp_path / "chain.jsonl"
        dump_chain(ledger.chain, path)
        blob = bytearray(path.read_bytes())
        rng = np.random.default_rng(5)
        for _ in range(25):
            pos = int(rng.integers(0, len(blob)))
            original = blob[pos]
            flip = original ^ (1 << int(rng.integers(0, 7)))
            if flip in (0x0a,) or original == 0x0a:
                continue  # keep the line structure; separate concern
            blob[pos] = flip
            path.write_bytes(bytes(blob))
            try:
                assert not verify_chain(list(iter_chain(path)))
            except (json.JSONDecodeError, KeyError, ValueError, TypeError):
                pass  # corruption that breaks parsing is also detection
            blob[pos] = original

    def test_foreign_signature_rejected(self, keys):
        ledger = fresh_ledger(keys)
        intruder = KeyPair.generate(np.random.default_rng(6))
        # Signed for block 1's leader, p01, but not with its registered key.
        tx = Transaction.signed("punishment", {"against": "p02", "reason": "forged", "round": 1},
                                "p01", intruder)
        ledger.pending.append(tx)
        ledger.seal_block()
        assert not verify_chain(ledger.chain)

    def test_registration_after_genesis_rejected(self, keys):
        # A self-signed registration that would mint a new party's tokens.
        ledger = fresh_ledger(keys)
        newcomer = KeyPair.generate(np.random.default_rng(6))
        payload = {"party": "p09", "verify_key": newcomer.verify_key_hex, "tokens": 1_000_000}
        ledger.pending.append(Transaction.signed("register", payload, "p09", newcomer))
        ledger.seal_block()
        assert not verify_chain(ledger.chain)
        assert verify_chain(ledger.chain[:1])

    # Each chain below is validly signed and hash-linked, so only the rule
    # under test decides; the first case of each keeps it and verifies.
    @pytest.mark.parametrize("count, valid", [(10, True), (11, False), (500, False)])
    def test_overdraft_rejected(self, keys, count, valid):
        chain = append_block(fresh_ledger(keys, tokens=10).chain,
                             trade(keys, "p00", "p01", count, 1), "p01")
        assert verify_chain(chain) is valid

    @pytest.mark.parametrize("buyer, seller, valid", [
        ("p03", "p00", True), ("p02", "p00", False), ("p00", "p02", False),
    ], ids=["active", "banned_buyer", "banned_seller"])
    def test_party_banned_in_an_earlier_block_cannot_trade(self, keys, buyer, seller, valid):
        # Block 1's leader, p01, punishes p02; block 2's active parties are
        # p00, p01 and p03, so p03 leads it.
        punishment = signed(keys, "punishment", "p01", against="p02", reason="test", round=1)
        chain = append_block(fresh_ledger(keys).chain, [punishment], "p01")
        assert verify_chain(append_block(chain, trade(keys, buyer, seller, 5, 2), "p03")) is valid

    @pytest.mark.parametrize("seller, valid", [("p02", True), ("p00", False)],
                             ids=["another_party", "its_buyer"])
    def test_self_purchase_rejected(self, keys, seller, valid):
        chain = append_block(fresh_ledger(keys).chain, trade(keys, "p00", seller, 5, 1), "p01")
        assert verify_chain(chain) is valid

    @pytest.mark.parametrize("leader, valid", [("p01", True), ("p99", False), ("p00", False)],
                             ids=["in_turn", "unregistered", "out_of_turn"])
    def test_block_sealed_by_its_leader_only(self, keys, leader, valid):
        chain = append_block(fresh_ledger(keys).chain, trade(keys, "p00", "p02", 5, 1), leader)
        assert verify_chain(chain) is valid

    @pytest.mark.parametrize("round_index, valid", [(1, True), (0, False), (2, False)])
    def test_round_other_than_its_block_index_rejected(self, keys, round_index, valid):
        chain = append_block(fresh_ledger(keys).chain,
                             trade(keys, "p00", "p02", 5, round_index), "p01")
        assert verify_chain(chain) is valid

    @pytest.mark.parametrize("author, valid", [("p01", True), ("p00", False), ("p03", False)])
    def test_punishment_signed_by_its_blocks_leader_only(self, keys, author, valid):
        punishment = signed(keys, "punishment", author, against="p02", reason="test", round=1)
        chain = append_block(fresh_ledger(keys).chain, [punishment], "p01")
        assert verify_chain(chain) is valid

    # Block 1's leader is p01; once it bans p02, p03 leads block 2.
    @pytest.mark.parametrize("punished, valid", [
        ([["p02"]], True), ([["p02"], ["p00"]], True), ([["p77"]], False),
        ([["p02", "p02"]], False), ([["p02"], ["p02"]], False),
    ], ids=["active", "active_in_a_later_block", "unregistered", "twice_in_a_block",
            "banned_in_an_earlier_block"])
    def test_punishment_of_an_active_party_only(self, keys, punished, valid):
        chain = fresh_ledger(keys).chain
        for index, (leader, against) in enumerate(zip(("p01", "p03"), punished), 1):
            chain = append_block(chain, [signed(keys, "punishment", leader, against=party,
                                                reason="test", round=index)
                                         for party in against], leader)
        assert verify_chain(chain) is valid

    @pytest.mark.parametrize("against, valid", [
        (["p09"], True), (["p03"], False), (["p09", "p09"], False),
    ], ids=["unregistered", "registered", "twice"])
    def test_genesis_punishes_parties_that_did_not_register(self, keys, against, valid):
        registrations = [signed(keys, "register", pid, party=pid,
                                verify_key=keys[pid].verify_key_hex, tokens=300)
                         for pid in sorted(keys)]
        punishments = [signed(keys, "punishment", "p00", against=party, reason="test", round=0)
                       for party in against]
        genesis = Block.sealed(0, "0" * 64, registrations + punishments, "p00")
        assert verify_chain([genesis]) is valid

    @pytest.mark.parametrize("index, valid", [(1, True), (True, False), (1.0, False)],
                             ids=["int", "json_true", "float"])
    def test_block_index_other_than_an_int_rejected(self, keys, index, valid):
        # Block 1 is resealed under index and block 2 relinked to it, so
        # every hash links and only the index's type is wrong.
        chain = self._active_chain(keys, rounds=2).chain
        block = chain[1]
        chain[1] = Block.sealed(index, block.prev_hash, block.transactions, block.leader)
        block = chain[2]
        chain[2] = Block.sealed(2, chain[1].block_hash, block.transactions, block.leader)
        assert verify_chain(chain) is valid

    def test_refused_transaction_changes_nothing(self, keys):
        # Each is refused only at a later part of it: an unregistered second
        # seller, an overdraft past valid lines, a second line that is not
        # open, a punishment by p00 while p01 leads block 1, and p01's
        # punishments of a party that never registered and of p02, whom
        # it has punished in this block already.
        ledger = fresh_ledger(keys)
        order = ledger.submit_purchase_order(keys["p00"], "p00", {"p01": 5})["p01"]
        ledger.record_punishment(keys["p01"], "p01", "p02", "test")
        refused = [
            signed(keys, "purchase_order", "p02", count=7, encrypt_key="",
                   lines=[["p01", 5], ["p09", 2]], round=1),
            trade(keys, "p02", "p01", 301, 1)[0],
            signed(keys, "fulfillment", "p01", round=1,
                   lines=[[order.order_id, "0" * 64], ["0" * 24 + ":p01", "0" * 64]]),
            signed(keys, "punishment", "p00", against="p02", reason="test", round=1),
            signed(keys, "punishment", "p01", against="p77", reason="test", round=1),
            signed(keys, "punishment", "p01", against="p02", reason="test", round=1),
        ]
        for tx in refused:
            before = copy.deepcopy(vars(ledger.state))
            with pytest.raises(LedgerError):
                ledger.state.apply(tx)
            assert vars(ledger.state) == before
