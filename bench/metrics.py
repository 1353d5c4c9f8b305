"""Names and units of every metric the benchmark reports."""

# End-to-end metrics (``--trace 0``).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "fdpddl_accuracy": "fraction", "detection_rate": "fraction"}
TRACE_ONLY = {"tracing.wall_s": "s", "tracing.overhead_s": "s",
              "harness.fairness_r": "r", "harness.fairness_degenerate_cells": "count"}

# Per-layer metrics: name -> unit. ``.s`` is self time, ``.calls`` a count.
LAYER_METRICS = {
    "privacy.dp_sgd_step.s": "s", "privacy.dp_sgd_step.calls": "count",
    "privacy.budget_refusals": "count",
    "numerics.train_sgd.s": "s", "numerics.train_sgd.calls": "count",
    "numerics.sgd_step.s": "s",
    "numerics.select_largest.s": "s", "numerics.select_largest.calls": "count",
    "numerics.apply_updates.s": "s", "numerics.apply_updates.calls": "count",
    "numerics.evaluate.s": "s", "numerics.evaluate.calls": "count",
    "samplegen.augment.s": "s", "samplegen.generate_release.s": "s",
    "credibility.s": "s", "credibility.calls": "count",
    **{f"ledger.{op}.{kind}": unit
       for op in ("submit_purchase_order", "fulfill_order", "decrypt_payload",
                  "seal_block", "verify_chain")
       for kind, unit in (("s", "s"), ("calls", "count"))},
    "ledger.orders": "count", "ledger.transactions": "count", "ledger.blocks": "count",
    "ledger.ciphertext_bytes": "bytes", "ledger.refunds": "count",
    "ledger.payload_store_bytes": "bytes",
    "protocol.pretrain.s": "s", "protocol.run_initialisation.s": "s",
    "protocol.run_update_round.s": "s",
    # Only calls for the layers that some workloads never call, so that no
    # reported time reads exactly 0 on every run of a workload.
    "adversary.calls": "count", "protocol.run_baseline.calls": "count",
    "harness.build_cell_data.s": "s", "harness.build_parties.s": "s",
    "harness.run_cell.s": "s", "harness.write.s": "s",
}
