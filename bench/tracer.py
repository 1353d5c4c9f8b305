"""Spans around calls into faircollab's modules, recorded from outside the package.

``protocol`` and ``harness`` bind most layer functions with ``from ...
import``, so a wrapper is installed in the namespace of the module that
makes the call, not in the module that defines the function; ledger
methods are wrapped on the ``Ledger`` class. ``traced`` restores every
original on exit.

Spans nest as cell -> stage (pretrain, initialisation, round i,
baseline) -> layer call, and the spans of one cell carry the cell's id.
A span's self time is its duration minus the time covered by its child
spans, so self times over all spans sum to at most the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

from faircollab import credibility, harness, privacy, protocol
from faircollab.ledger import Ledger
from metrics import LAYER_METRICS

# (owner of the binding, attribute, metric the span's self time goes to).
# Functions that the package calls through a ``from ... import`` name are
# wrapped where that name lives.
LAYER_CALLS = [
    (protocol, "dp_sgd_step", "privacy.dp_sgd_step"),
    (protocol, "train_sgd", "numerics.train_sgd"),
    (protocol, "sgd_step", "numerics.sgd_step"),
    (protocol, "select_largest", "numerics.select_largest"),
    (protocol, "apply_updates", "numerics.apply_updates"),
    (protocol, "evaluate", "numerics.evaluate"),
    (protocol, "augment", "samplegen.augment"),
    (protocol, "generate_release", "samplegen.generate_release"),
    (protocol, "decrypt_payload", "ledger.decrypt_payload"),
    (Ledger, "submit_purchase_order", "ledger.submit_purchase_order"),
    (Ledger, "fulfill_order", "ledger.fulfill_order"),
    (Ledger, "seal_block", "ledger.seal_block"),
    (harness, "verify_chain", "ledger.verify_chain"),
    (protocol, "freerider_gradients", "adversary"),
    (protocol, "freerider_label", "adversary"),
    (harness, "detection_report", "adversary"),
    (protocol, "pretrain", "protocol.pretrain"),
    (protocol, "run_initialisation", "protocol.run_initialisation"),
    (protocol, "run_update_round", "protocol.run_update_round"),
    (protocol, "run_baseline", "protocol.run_baseline"),
    (harness, "build_cell_data", "harness.build_cell_data"),
    (harness, "build_parties", "harness.build_parties"),
    (harness, "run_cell", "harness.run_cell"),
    (harness, "generate_reports", "harness.write"),
    # The trace dump is inline in run_experiment, so its self time is the
    # dump; the report to ``harness.write`` merges the two.
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "run_fdpddl", "protocol.run_fdpddl"),
] + [(credibility, name, "credibility") for name in (
    "default_threshold", "init_credibility", "normalize_and_screen", "consensus_exclude",
    "init_tokens", "download_allocation", "supplement", "credibility_update")]


class Tracer:
    """In-memory spans with per-name self time and call counts."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id, cell, name, detail, start, end)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.cell: str | None = None
        self._stack: list[list] = []   # [id, child time]

    def call(self, name: str, detail: str, fn, args, kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)  # reserve the id; filled in on exit
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1
            self.spans[span_id] = (span_id, parent, self.cell, name, detail, start, end)

    def count_ledger(self, ledger: Ledger) -> None:
        """Traffic counts of one fdpddl cell, read from its final ledger."""
        self.counts["ledger.orders"] += len(ledger.orders)
        self.counts["ledger.refunds"] += sum(o.status == "expired" for o in ledger.orders.values())
        self.counts["ledger.blocks"] += len(ledger.chain)
        self.counts["ledger.transactions"] += (sum(len(b.transactions) for b in ledger.chain)
                                               + len(ledger.pending))
        for payload in ledger.payload_store.values():
            self.counts["ledger.ciphertext_bytes"] += len(payload.ciphertext)
            self.counts["ledger.payload_store_bytes"] += (
                len(payload.ciphertext) + len(payload.nonce) + len(payload.wrapped_key)
                + len(payload.wrap_nonce) + len(payload.ephemeral_public))

    def layer_metrics(self) -> dict[str, float]:
        """Every name in LAYER_METRICS, from the spans recorded so far."""
        out = {}
        for name in LAYER_METRICS:
            base, _, kind = name.rpartition(".")
            if kind == "s":
                out[name] = self.self_time.get(base, 0.0)
            elif kind == "calls":
                out[name] = self.calls.get(base, 0)
            else:
                out[name] = self.counts.get(name, 0)
        out["harness.write.s"] += self.self_time.get("harness.run_experiment", 0.0)
        return out

    def total_self_time(self) -> float:
        return sum(self.self_time.values())

    def dump(self, path) -> None:
        keys = ("id", "parent", "cell", "name", "detail", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")))
                fh.write("\n")


def _detail(name: str, args) -> str:
    if name == "protocol.run_update_round":
        return f"round {args[3]}"
    if name == "protocol.run_baseline":
        return str(args[0])
    return ""


def _wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if name == "harness.run_cell":
            tracer.cell = harness.cell_name(*args[1:4])
        try:
            result = tracer.call(name, _detail(name, args), fn, args, kwargs)
        except privacy.BudgetExhaustedError:
            if name == "privacy.dp_sgd_step":
                tracer.counts["privacy.budget_refusals"] += 1
            raise
        if name == "protocol.run_fdpddl":
            tracer.count_ledger(result[1])
        return result
    return wrapped


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install a wrapper for every entry of LAYER_CALLS; restore all on exit."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in LAYER_CALLS]
    try:
        for (owner, attr, metric), (_, _, fn) in zip(LAYER_CALLS, originals):
            setattr(owner, attr, _wrapper(tracer, metric, fn))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
