import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircollab.credibility import init_tokens
from faircollab.ledger import (Ledger, LedgerError, KeyPair, Transaction, decrypt_payload,
                               dump_chain, encrypt_payload, load_chain, sha256_hex,
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
        rng = np.random.default_rng(3)
        payload = encrypt_payload(b"secret gradients", kp.encrypt_key_hex, rng)
        assert decrypt_payload(payload, kp) == b"secret gradients"
        assert len(payload.nonce) == 12

    def test_wrong_recipient_cannot_decrypt(self):
        kp_a = KeyPair.generate(np.random.default_rng(4))
        kp_b = KeyPair.generate(np.random.default_rng(5))
        payload = encrypt_payload(b"x", kp_a.encrypt_key_hex, np.random.default_rng(6))
        with pytest.raises(Exception):
            decrypt_payload(payload, kp_b)

    def test_round_trip_at_full_model_size(self):
        kp = KeyPair.generate(np.random.default_rng(8))
        update = SparseUpdate(np.arange(5000), np.random.default_rng(9).normal(size=5000), 5000)
        payload = encrypt_payload(update.to_bytes(), kp.encrypt_key_hex,
                                  np.random.default_rng(10))
        again = SparseUpdate.from_bytes(decrypt_payload(payload, kp))
        assert np.array_equal(again.values, update.values)


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
        assert all(ledger.balance(pid) == 300 for pid in keys)
        assert verify_chain(ledger.chain)

    def test_single_registration_rejected(self, keys):
        with pytest.raises(LedgerError):
            Ledger().create_genesis({"p00": 10}, keys)


class TestTrading:
    def test_unfilled_order_moves_no_tokens(self, keys):
        ledger = fresh_ledger(keys)
        order = ledger.submit_purchase_order(keys["p00"], "p00", "p01", 30)
        assert ledger.balance("p00") == 300
        ledger.seal_block("p00")
        assert {pid: ledger.balance(pid) for pid in keys} == {pid: 300 for pid in keys}
        assert ledger.orders[order.order_id].status == "open"
        assert ledger.chain[1].transactions[0].payload["count"] == 30

    def test_identical_order_in_one_round_rejected(self, keys):
        ledger = fresh_ledger(keys)
        ledger.submit_purchase_order(keys["p00"], "p00", "p01", 1)
        with pytest.raises(LedgerError):
            ledger.submit_purchase_order(keys["p00"], "p00", "p01", 1)
        assert len(ledger.orders) == len(ledger.pending) == 1
        assert ledger.total_tokens() == 1200

    def test_order_exceeding_balance_rejected(self, keys):
        ledger = fresh_ledger(keys, tokens=20)
        with pytest.raises(LedgerError):
            ledger.submit_purchase_order(keys["p00"], "p00", "p01", 30)

    def test_fulfillment_round_trip(self, keys):
        ledger = fresh_ledger(keys)
        update = sample_update()
        order = ledger.submit_purchase_order(keys["p00"], "p00", "p01", 30)
        tx, payload = ledger.fulfill_order(keys["p01"], "p01", order.order_id,
                                           update, np.random.default_rng(1))
        blob = decrypt_payload(payload, keys["p00"], aad=order.order_id.encode())
        recovered = SparseUpdate.from_bytes(blob)
        assert np.array_equal(recovered.indices, update.indices)
        assert np.array_equal(recovered.values, update.values)
        assert (ledger.balance("p00"), ledger.balance("p01")) == (270, 330)
        assert ledger.orders[order.order_id].status == "fulfilled"
        assert tx.payload["payload_hash"] == sha256_hex(payload.ciphertext)
        assert tx.payload["order"] == order.order_id
        assert order.order_id == ledger.pending[0].tx_id

    def test_double_fulfillment_rejected(self, keys):
        ledger = fresh_ledger(keys)
        update = sample_update()
        order = ledger.submit_purchase_order(keys["p00"], "p00", "p01", 30)
        ledger.fulfill_order(keys["p01"], "p01", order.order_id, update, np.random.default_rng(1))
        with pytest.raises(LedgerError):
            ledger.fulfill_order(keys["p01"], "p01", order.order_id, update,
                                 np.random.default_rng(2))
        assert (ledger.balance("p00"), ledger.balance("p01")) == (270, 330)

    def test_wrong_count_rejected(self, keys):
        ledger = fresh_ledger(keys)
        order = ledger.submit_purchase_order(keys["p00"], "p00", "p01", 30)
        with pytest.raises(LedgerError):
            ledger.fulfill_order(keys["p01"], "p01", order.order_id,
                                 SparseUpdate([0], [1.0], 1000), np.random.default_rng(1))

    def test_fill_the_buyer_cannot_pay_rejected(self, keys):
        # Both orders fit the balance when placed; the first fill leaves
        # too little for the second.
        ledger = fresh_ledger(keys)
        first = ledger.submit_purchase_order(keys["p00"], "p00", "p01", 200)
        second = ledger.submit_purchase_order(keys["p00"], "p00", "p02", 200)
        rng = np.random.default_rng(1)
        ledger.fulfill_order(keys["p01"], "p01", first.order_id,
                             SparseUpdate(np.arange(200), np.ones(200), 400), rng)
        balances = dict(ledger.balances)
        pending = list(ledger.pending)
        store = dict(ledger.payload_store)
        state = rng.bit_generator.state
        with pytest.raises(LedgerError):
            ledger.fulfill_order(keys["p02"], "p02", second.order_id,
                                 SparseUpdate(np.arange(200), np.ones(200), 400), rng)
        assert ledger.balances == balances
        assert ledger.pending == pending
        assert ledger.payload_store == store
        assert rng.bit_generator.state == state
        assert second.status == "open"

    def test_conservation_across_activity(self, keys):
        ledger = fresh_ledger(keys)
        rng = np.random.default_rng(3)
        for round_index in range(5):
            order = ledger.submit_purchase_order(keys["p00"], "p00", "p01", 10)
            ledger.fulfill_order(keys["p01"], "p01", order.order_id,
                                 SparseUpdate(np.arange(10), np.ones(10), 1000), rng)
            ledger.submit_purchase_order(keys["p02"], "p02", "p03", 7)  # never filled
            ledger.seal_block("p00")
            assert ledger.total_tokens() == 1200
        assert (ledger.balance("p00"), ledger.balance("p01")) == (250, 350)
        assert (ledger.balance("p02"), ledger.balance("p03")) == (300, 300)
        assert verify_chain(ledger.chain)

    # (buyer, seller, count, fill?): counts up to 400 overrun the 300-token
    # balances and repeats of an order within a round occur, so some orders
    # are refused; a round's orders are filled after all are placed, so an
    # earlier fill can leave the buyer short of a later one.
    @given(st.lists(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                       st.integers(1, 400), st.booleans()),
                             max_size=6), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_conservation_property(self, rounds):
        keys = make_keys()
        ledger = fresh_ledger(keys)
        pids = sorted(keys)
        rng = np.random.default_rng(11)
        for orders in rounds:
            placed = {}
            for b, s, count, fill in orders:
                buyer, seller = pids[b], pids[s]
                before = dict(ledger.balances)
                try:
                    order = ledger.submit_purchase_order(keys[buyer], buyer, seller, count)
                except LedgerError:
                    assert count > before[buyer] or (b, s, count) in placed
                    continue
                finally:
                    assert ledger.balances == before
                placed[(b, s, count)] = (order, fill)
            for order, fill in placed.values():
                if not fill:
                    continue
                before = dict(ledger.balances)
                update = SparseUpdate(np.arange(order.count), np.ones(order.count), 400)
                try:
                    ledger.fulfill_order(keys[order.seller], order.seller, order.order_id,
                                         update, rng)
                except LedgerError:
                    # A fill may be refused only when the buyer is short.
                    assert before[order.buyer] < order.count
                    assert ledger.balances == before
                    assert order.status == "open"
                    continue
                before[order.buyer] -= order.count
                before[order.seller] += order.count
                assert ledger.balances == before
                assert order.status == "fulfilled"
                assert all(balance >= 0 for balance in ledger.balances.values())
            ledger.seal_block(pids[0])
            assert ledger.total_tokens() == 1200
        assert verify_chain(ledger.chain)


class TestChainVerification:
    def _active_chain(self, keys, rounds=3):
        ledger = fresh_ledger(keys)
        rng = np.random.default_rng(4)
        for r in range(rounds):
            order = ledger.submit_purchase_order(keys["p00"], "p00", "p01", 5)
            ledger.fulfill_order(keys["p01"], "p01", order.order_id,
                                 SparseUpdate(np.arange(5), np.ones(5), 100), rng)
            ledger.seal_block(f"p0{r % 4}")
        return ledger

    def test_untampered_chain_verifies(self, keys):
        ledger = self._active_chain(keys)
        assert verify_chain(ledger.chain)

    def test_payload_hash_flip_detected(self, keys):
        ledger = self._active_chain(keys)
        block = ledger.chain[1]
        tampered = []
        for tx in block.transactions:
            if tx.kind == "fulfillment":
                bad = dict(tx.payload)
                h = bad["payload_hash"]
                bad["payload_hash"] = ("0" if h[0] != "0" else "1") + h[1:]
                tampered.append(Transaction(tx.kind, bad, tx.author, tx.signature))
            else:
                tampered.append(tx)
        ledger.chain[1] = type(block)(block.index, block.prev_hash, tuple(tampered),
                                      block.leader, block.block_hash)
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
        loaded = load_chain(path)
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
                assert not verify_chain(load_chain(path))
            except (json.JSONDecodeError, KeyError, ValueError, TypeError):
                pass  # corruption that breaks parsing is also detection
            blob[pos] = original

    def test_foreign_signature_rejected(self, keys):
        ledger = fresh_ledger(keys)
        intruder = KeyPair.generate(np.random.default_rng(6))
        tx = Transaction.signed("punishment", {"against": "p01", "reason": "forged", "round": 1},
                                "p00", intruder)  # not p00's registered key
        ledger.pending.append(tx)
        ledger.seal_block("p00")
        assert not verify_chain(ledger.chain)

    def test_registration_after_genesis_rejected(self, keys):
        # A self-signed registration that would mint a new party's tokens.
        ledger = fresh_ledger(keys)
        newcomer = KeyPair.generate(np.random.default_rng(6))
        payload = {"party": "p09", "verify_key": newcomer.verify_key_hex, "tokens": 1_000_000}
        ledger.pending.append(Transaction.signed("register", payload, "p09", newcomer))
        ledger.seal_block("p00")
        assert not verify_chain(ledger.chain)
        assert verify_chain(ledger.chain[:1])
