"""Orchestration of a full collaborative run.

Flow: every party starts from the same initial parameters, pretrains a
standalone model on its local data, and exchanges synthetic samples to
bootstrap mutual credibility scores and token grants (recorded in the
ledger's genesis block). Update rounds are synchronous: parties train
locally with DP-SGD, buy each other's top-k gradient selections at one
token per gradient, re-score every peer by leave-one-out validation
accuracy, and a strict majority of "non-credible" reports bans a party.
One block is sealed per round by a rotating leader.

The same party construction also drives the three reference frameworks
(standalone, centralised, distributed selective SGD with round-robin
exchange) so results are comparable on identical data partitions.

Every random draw comes from per-party generators spawned off one master
seed, including key material, so a run is a pure function of its
configuration and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import credibility as cred
from .adversary import AdversaryConfig, AdversaryKind, freerider_gradients, freerider_label
from .ledger import Block, KeyPair, Ledger, decrypt_payload
from .numerics import (Dataset, MlpModel, SparseUpdate, apply_updates, decayed_lr, evaluate,
                       magnitude_order, predict, select_largest, sgd_step, train_sgd)
from .privacy import (BudgetExhaustedError, PrivacyAccountant, PrivacyParams,
                      allocate_budgets, dp_sgd_step, lot_size_for)
# augment is never called here; bench/tracer.py still wraps protocol.augment.
from .samplegen import SampleRelease, augment, generate_release  # noqa: F401


class ProtocolError(RuntimeError):
    pass


FRAMEWORKS = ("standalone", "centralised", "distributed_dssgd", "fdpddl")

PRETRAIN_EPOCHS = 10
BASELINE_EPOCHS_PER_ROUND = 1
DSSGD_UPLOAD_RATE = 0.1  # fraction of the delta a DSSGD party uploads
TOKEN_RESERVE = 1        # tokens a buyer keeps back from its download budget
# Step size LEARNING_RATE / (1 + LR_DECAY * step), for DP-SGD and plain SGD.
LEARNING_RATE = 0.1
LR_DECAY = 1e-7
BATCH_SIZE = 32            # batch of plain (non-private) SGD
VALIDATION_FRACTION = 0.2  # local data held out for leave-one-out scoring
# Each DP-SGD step spends EPSILON_PER_STEP scaled by its sample ratio
# q = L / N, where L = lot_size_for(N) = sqrt(N), and clips to CLIP_NORM.
EPSILON_PER_STEP = 1.0
CLIP_NORM = 1.0
JITTER_STD = 0.02          # feature jitter of the initialisation release


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs for one run; defaults are desk scale."""

    dataset_name: str = "blobs"
    hidden_dims: tuple[int, ...] = (32,)
    # One epoch over the lot schedule (N // L steps) when 0.
    dp_steps_per_round: int = 0
    augment_replication: int = 1
    # Download budget d_i = min(p_i - reserve, fraction * total supply).
    # At 1.0 demand saturates supply and the supplement tops every seller
    # up to capacity; below 1.0 low-credibility sellers undersell, which
    # is what lets the token economy starve free-riders.
    download_fraction: float = 1.0

    def __post_init__(self):
        checks = (
            (self.augment_replication >= 1, "augment_replication must be >= 1"),
            (self.dp_steps_per_round >= 0, "dp_steps_per_round must be >= 0"),
            (0.0 < self.download_fraction <= 1.0, "download_fraction must lie in (0, 1]"),
            (all(width >= 1 for width in self.hidden_dims), "hidden_dims must all be >= 1"),
        )
        errors = [message for ok, message in checks if not ok]
        if errors:
            raise ValueError("; ".join(errors))


@dataclass
class Party:
    id: str
    train_data: Dataset           # raw local training split
    val_data: Dataset             # held-out 20 percent for leave-one-out scoring
    sharing_level: float
    model: MlpModel
    initial_params: np.ndarray
    keypair: KeyPair
    rng: np.random.Generator
    accountant_init: PrivacyAccountant
    accountant_update: PrivacyAccountant
    privacy: PrivacyParams
    adversary: AdversaryConfig | None = None
    credibility: cred.CredibilityList | None = None
    standalone_accuracy: float | None = None
    sgd_steps: int = 0
    publishing: bool = True
    token_exhaustion_reported: bool = False
    last_received_aggregate: np.ndarray | None = None


@dataclass(frozen=True)
class TraceEvent:
    kind: str      # excluded | budget_exhausted | token_exhausted | aborted
    party: str
    round: int
    stage: str     # init | update
    info: str = ""


@dataclass
class RunTrace:
    framework: str
    events: list = field(default_factory=list)
    accuracy_rows: list = field(default_factory=list)      # round, party, accuracy, tokens
    credibility_rows: list = field(default_factory=list)   # round, owner, peer, credibility, balance
    token_totals: list = field(default_factory=list)       # (round, total tokens)
    standalone_accuracies: dict = field(default_factory=dict)
    sharing_levels: dict = field(default_factory=dict)
    final_accuracies: dict = field(default_factory=dict)

    def event(self, kind: str, party: str, round_index: int, stage: str, info: str = "") -> None:
        self.events.append(TraceEvent(kind, party, round_index, stage, info))


@dataclass
class RoundState:
    round_index: int
    received: dict               # buyer -> seller -> SparseUpdate, bans included
    evaluations: dict            # buyer -> (acc, {seller: acc_without})
    block: Block | None
    credible: set


def build_parties(datasets: list[Dataset], sharing_levels, config: ProtocolConfig,
                  seed_seq: np.random.SeedSequence,
                  adversaries: dict[int, AdversaryConfig] | None = None) -> list[Party]:
    """Construct parties with a common initial model and per-party rng
    streams (data split, keys, noise all come from the party's stream)."""
    adversaries = adversaries or {}
    n = len(datasets)
    if n != len(list(sharing_levels)):
        raise ProtocolError("one sharing level per dataset required")
    model_seed, *party_seeds = seed_seq.spawn(n + 1)
    dims = (datasets[0].dim, *config.hidden_dims, datasets[0].num_classes)
    w0 = MlpModel.seeded(dims, np.random.default_rng(model_seed))

    parties = []
    for i, (data, lam) in enumerate(zip(datasets, sharing_levels)):
        if not 0.0 < lam <= 1.0:
            raise ProtocolError(f"sharing level of party {i} outside (0, 1]")
        rng = np.random.default_rng(party_seeds[i])
        train, val = data.split(VALIDATION_FRACTION, rng)
        # DP-SGD samples over the replicated size without storing the copies.
        virtual_size = len(train) * config.augment_replication
        eps_update, delta_update = allocate_budgets("update", config.dataset_name)
        eps_init, delta_init = allocate_budgets("initialisation", config.dataset_name)
        # Per-step delta scaled so epsilon and delta budgets exhaust together.
        delta_step = delta_update * EPSILON_PER_STEP / eps_update
        params = PrivacyParams(EPSILON_PER_STEP, delta_step, CLIP_NORM,
                               lot_size_for(virtual_size), virtual_size)
        parties.append(Party(
            id=f"p{i:02d}",
            train_data=train,
            val_data=val,
            sharing_level=float(lam),
            model=w0.copy(),
            initial_params=w0.params.copy(),
            keypair=KeyPair.generate(rng),
            rng=rng,
            accountant_init=PrivacyAccountant(eps_init, delta_init),
            accountant_update=PrivacyAccountant(eps_update, delta_update),
            privacy=params,
            adversary=adversaries.get(i),
        ))
    return parties


def pretrain(parties: list[Party], test_data: Dataset | None = None,
             epochs: int | None = None) -> None:
    """Standalone pretraining from the shared initial parameters; records
    each party's standalone accuracy for the fairness axis."""
    epochs = PRETRAIN_EPOCHS if epochs is None else epochs
    for p in parties:
        p.sgd_steps += train_sgd(p.model, p.train_data, epochs, LEARNING_RATE,
                                 LR_DECAY, BATCH_SIZE, p.rng, p.sgd_steps)
        p.standalone_accuracy = evaluate(p.model, test_data if test_data is not None else p.val_data)


def _label_release(labeler: Party, release: SampleRelease, num_classes: int) -> np.ndarray:
    if labeler.adversary and labeler.adversary.kind == AdversaryKind.FREE_RIDER_RANDOM_LABEL:
        return freerider_label(release, num_classes, labeler.rng)
    return predict(labeler.model, release.samples)


def _screen_and_exclude(parties: dict[str, Party], credible: set[str],
                        raw_maps: dict[str, dict[str, float]]) -> tuple[set[str], list[str]]:
    """Normalise every party's raw scores over the live credible set,
    collect "non-credible" reports, and apply majority exclusion until
    stable. Mirrors the renormalise-and-rescreen loop of both stages."""
    removed_all: list[str] = []
    while True:
        threshold = cred.default_threshold(len(credible))
        reports: dict[str, set[str]] = {}
        for pid in sorted(credible):
            filtered = {peer: value for peer, value in raw_maps[pid].items()
                        if peer in credible and peer != pid}
            if not filtered:
                raise ProtocolError("credible set too small to score")
            clist, reps = cred.normalize_and_screen(pid, filtered, threshold)
            parties[pid].credibility = clist
            reports[pid] = reps
        credible, removed = cred.consensus_exclude(reports, credible)
        if not removed:
            return credible, removed_all
        removed_all.extend(removed)


def run_initialisation(parties: list[Party], ledger: Ledger, config: ProtocolConfig,
                       trace: RunTrace) -> tuple[set[str], Block]:
    """Sample release, mutual benchmarking, banning, and the genesis block."""
    by_id = {p.id: p for p in parties}
    order = sorted(by_id)
    num_classes = parties[0].train_data.num_classes
    budget = allocate_budgets("initialisation", config.dataset_name)

    releases: dict[str, SampleRelease] = {}
    for pid in order:
        p = by_id[pid]
        # Release volume follows the full local data size; the validation
        # split is carved out of the same local data.
        count = int(p.sharing_level * (len(p.train_data) + len(p.val_data)))
        if count < 1:
            raise ProtocolError(f"{pid} would release zero samples; enlarge its data")
        releases[pid] = generate_release(
            p.train_data, p.sharing_level, budget, p.rng,
            party_id=pid,
            accountant=p.accountant_init, jitter_std=JITTER_STD,
            release_count=count, replication=config.augment_replication)

    raw_maps: dict[str, dict[str, float]] = {}
    for pid in order:
        columns = [_label_release(by_id[labeler], releases[pid], num_classes)
                   for labeler in order]
        matrix = cred.LabelMatrix(np.stack(columns, axis=1), order)
        raw_maps[pid] = cred.init_credibility(matrix)

    credible = set(order)
    credible, removed = _screen_and_exclude(by_id, credible, raw_maps)
    for r in removed:
        trace.event("excluded", r, 0, "init")
    if len(credible) < 2:
        raise ProtocolError("fewer than 2 credible parties after initialisation")

    survivors = sorted(credible)
    leader = by_id[survivors[0]]
    for r in removed:
        ledger.record_punishment(leader.keypair, leader.id, r, "non-credible at initialisation")
    grants = {pid: cred.init_tokens(by_id[pid].sharing_level, by_id[pid].model.param_count,
                                    len(survivors)) for pid in survivors}
    genesis = ledger.create_genesis(grants, {pid: by_id[pid].keypair for pid in survivors})
    trace.token_totals.append((0, ledger.total_tokens()))
    return credible, genesis


def _local_training(p: Party, config: ProtocolConfig, round_index: int,
                    trace: RunTrace) -> np.ndarray | None:
    """Run this round's private local steps; returns the parameter delta
    available for sale, or None when nothing can be published."""
    if p.adversary and p.adversary.kind.free_rider:
        # A free-rider owns no real data, so it fakes its published gradients.
        return freerider_gradients(p.adversary.kind, p.model.param_count,
                                   p.adversary.crafted_scale, p.rng,
                                   echo=p.last_received_aggregate)
    if not p.publishing:
        return None
    steps = config.dp_steps_per_round or max(1, p.privacy.dataset_size // p.privacy.lot_size)
    before = p.model.params.copy()
    done = 0
    for _ in range(steps):
        try:
            grad = dp_sgd_step(p.model, p.train_data, p.privacy, p.rng, p.accountant_update)
        except BudgetExhaustedError:
            p.publishing = False
            trace.event("budget_exhausted", p.id, round_index, "update")
            break
        sgd_step(p.model, grad, decayed_lr(LEARNING_RATE, LR_DECAY, p.sgd_steps))
        p.sgd_steps += 1
        done += 1
    if done == 0:
        return None
    return p.model.params - before


def run_update_round(parties: list[Party], credible: set[str], ledger: Ledger,
                     round_index: int, config: ProtocolConfig, trace: RunTrace,
                     test_data: Dataset | None = None) -> RoundState:
    """One synchronous exchange round (gradient trading, leave-one-out
    credibility update, banning, block seal)."""
    by_id = {p.id: p for p in parties}
    members = sorted(credible)
    leader_id = members[round_index % len(members)]
    param_count = parties[0].model.param_count

    # Local training and sale capacities.
    deltas: dict[str, np.ndarray | None] = {}
    capacities: dict[str, int] = {}
    for pid in members:
        delta = _local_training(by_id[pid], config, round_index, trace)
        deltas[pid] = delta
        capacities[pid] = int(by_id[pid].sharing_level * param_count) if delta is not None else 0

    # Each buyer's top-k is a prefix of its seller's one magnitude ranking.
    rankings = {pid: magnitude_order(delta) for pid, delta in deltas.items()
                if delta is not None}

    # Purchasing by download budget, credibility allocation, and supplement.
    received: dict[str, dict[str, SparseUpdate]] = {pid: {} for pid in members}
    for pid in members:
        buyer = by_id[pid]
        balance = ledger.balance(pid)
        supply = sum(capacities[j] for j in members if j != pid)
        budget = min(balance - TOKEN_RESERVE,
                     int(config.download_fraction * supply))
        if budget < 1:
            continue
        scores = buyer.credibility.scores if buyer.credibility else {}
        sellers = [j for j in members if j != pid and capacities[j] > 0]
        alloc = {j: cred.download_allocation(scores.get(j, 0.0), budget,
                                             by_id[j].sharing_level, param_count)
                 for j in sellers}
        extra = cred.supplement(budget, alloc,
                                {j: capacities[j] for j in sellers},
                                {j: scores.get(j, 0.0) for j in sellers})
        for j in sellers:
            amount = alloc.get(j, 0) + extra.get(j, 0)
            if amount < 1:
                continue
            order = ledger.submit_purchase_order(buyer.keypair, pid, j, amount)
            selection = select_largest(deltas[j], amount, rankings[j])
            _tx, payload = ledger.fulfill_order(by_id[j].keypair, j, order.order_id,
                                                selection, by_id[j].rng)
            blob = decrypt_payload(payload, buyer.keypair, aad=order.order_id.encode())
            received[pid][j] = SparseUpdate.from_bytes(blob)

    # Apply own delta (already in the model) plus purchases; score peers.
    evaluations: dict[str, tuple[float, dict[str, float]]] = {}
    raw_maps: dict[str, dict[str, float]] = {}
    for pid in members:
        p = by_id[pid]
        updates = [received[pid][j] for j in sorted(received[pid])]
        apply_updates(p.model, updates)
        aggregate = np.zeros(param_count)
        for u in updates:
            aggregate[u.indices] += u.values
        p.last_received_aggregate = aggregate
        acc = evaluate(p.model, p.val_data)
        acc_without: dict[str, float] = {}
        raw_new: dict[str, float] = {}
        for j in members:
            if j == pid:
                continue
            update = received[pid].get(j)
            if update is None or len(update) == 0:
                acc_j = acc
            else:
                probe = p.model.copy()
                apply_updates(probe, [update.negated()])
                acc_j = evaluate(probe, p.val_data)
            acc_without[j] = acc_j
            prev = p.credibility.scores.get(j, 0.0) if p.credibility else 0.0
            raw_new[j] = cred.credibility_update(prev, acc, acc_j)
        raw_maps[pid] = raw_new
        evaluations[pid] = (acc, acc_without)

    # Renormalise, report, exclude, and roll back a banned peer's updates.
    new_credible, removed = _screen_and_exclude(by_id, set(members), raw_maps)
    leader = by_id[leader_id]
    for r in removed:
        trace.event("excluded", r, round_index, "update")
        ledger.record_punishment(leader.keypair, leader.id, r, "non-credible")
        for pid in sorted(new_credible):
            update = received[pid].get(r)
            if update is not None and len(update):
                apply_updates(by_id[pid].model, [update.negated()])
                by_id[pid].last_received_aggregate[update.indices] -= update.values

    block = ledger.seal_block(leader_id)
    trace.token_totals.append((round_index, ledger.total_tokens()))
    for pid in sorted(new_credible):
        p = by_id[pid]
        # Token stock depleted to the reserve floor: the party can only
        # recycle its round earnings and is effectively starved out.
        if ledger.balance(pid) <= TOKEN_RESERVE and not p.token_exhaustion_reported:
            p.token_exhaustion_reported = True
            trace.event("token_exhausted", pid, round_index, "update")
        test_acc = evaluate(p.model, test_data) if test_data is not None else evaluations[pid][0]
        trace.accuracy_rows.append({"round": round_index, "party": pid,
                                    "accuracy": test_acc, "tokens": ledger.balance(pid)})
        if p.credibility:
            for peer in sorted(p.credibility.scores):
                trace.credibility_rows.append({
                    "round": round_index, "owner": pid, "peer": peer,
                    "credibility": p.credibility.scores[peer],
                    "balance": ledger.balance(pid)})
    return RoundState(round_index, received, evaluations, block, new_credible)


def run_fdpddl(parties: list[Party], config: ProtocolConfig, rounds: int,
               test_data: Dataset | None = None,
               ledger: Ledger | None = None) -> tuple[RunTrace, Ledger]:
    trace = RunTrace("fdpddl")
    ledger = ledger or Ledger()
    pretrain(parties, test_data)
    for p in parties:
        trace.standalone_accuracies[p.id] = p.standalone_accuracy
        trace.sharing_levels[p.id] = p.sharing_level
    credible, _genesis = run_initialisation(parties, ledger, config, trace)
    for round_index in range(1, rounds + 1):
        state = run_update_round(parties, credible, ledger, round_index, config, trace, test_data)
        credible = state.credible
    for p in parties:
        data = test_data if test_data is not None else p.val_data
        trace.final_accuracies[p.id] = evaluate(p.model, data)
    return trace, ledger


def run_baseline(kind: str, parties: list[Party], rounds: int, test_data: Dataset) -> RunTrace:
    """Reference frameworks on the same party data partition."""
    if kind == "standalone":
        return _run_standalone(parties, rounds, test_data)
    if kind == "centralised":
        return _run_centralised(parties, rounds, test_data)
    if kind == "distributed_dssgd":
        return _run_dssgd(parties, rounds, test_data)
    raise ProtocolError(f"unknown baseline {kind!r}")


def _record_round(trace: RunTrace, round_index: int, parties, test_data) -> None:
    for p in parties:
        trace.accuracy_rows.append({"round": round_index, "party": p.id,
                                    "accuracy": evaluate(p.model, test_data), "tokens": 0})


def _run_standalone(parties, rounds, test_data) -> RunTrace:
    trace = RunTrace("standalone")
    pretrain(parties, test_data)
    for p in parties:
        trace.standalone_accuracies[p.id] = p.standalone_accuracy
        trace.sharing_levels[p.id] = p.sharing_level
    for round_index in range(1, rounds + 1):
        for p in parties:
            p.sgd_steps += train_sgd(p.model, p.train_data, BASELINE_EPOCHS_PER_ROUND,
                                     LEARNING_RATE, LR_DECAY, BATCH_SIZE, p.rng, p.sgd_steps)
        _record_round(trace, round_index, parties, test_data)
    for p in parties:
        trace.final_accuracies[p.id] = evaluate(p.model, test_data)
    return trace


def _run_centralised(parties, rounds, test_data) -> RunTrace:
    """All local data pooled into one model; every party reads the same
    accuracy (model access itself stays with the operator)."""
    trace = RunTrace("centralised")
    pooled = Dataset(
        np.concatenate([p.train_data.features for p in parties]),
        np.concatenate([p.train_data.labels for p in parties]),
        parties[0].train_data.num_classes)
    model = MlpModel(parties[0].model.dims, parties[0].initial_params.copy())
    rng = parties[0].rng
    steps = train_sgd(model, pooled, PRETRAIN_EPOCHS, LEARNING_RATE, LR_DECAY, BATCH_SIZE, rng)
    for p in parties:
        trace.sharing_levels[p.id] = p.sharing_level
    for round_index in range(1, rounds + 1):
        steps += train_sgd(model, pooled, BASELINE_EPOCHS_PER_ROUND,
                           LEARNING_RATE, LR_DECAY, BATCH_SIZE, rng, steps)
        acc = evaluate(model, test_data)
        for p in parties:
            trace.accuracy_rows.append({"round": round_index, "party": p.id,
                                        "accuracy": acc, "tokens": 0})
    final = evaluate(model, test_data)
    for p in parties:
        trace.final_accuracies[p.id] = final
    return trace


def _run_dssgd(parties, rounds, test_data) -> RunTrace:
    """Distributed selective SGD, round-robin order, no differential
    privacy: download the full latest server parameters, train locally,
    upload the largest-magnitude fraction of the delta."""
    trace = RunTrace("distributed_dssgd")
    pretrain(parties, test_data)
    for p in parties:
        trace.standalone_accuracies[p.id] = p.standalone_accuracy
        trace.sharing_levels[p.id] = p.sharing_level
    server = MlpModel(parties[0].model.dims, parties[0].initial_params.copy())
    k = int(DSSGD_UPLOAD_RATE * server.param_count)
    for round_index in range(1, rounds + 1):
        for p in parties:
            p.model.params[:] = server.params
            p.sgd_steps += train_sgd(p.model, p.train_data, BASELINE_EPOCHS_PER_ROUND,
                                     LEARNING_RATE, LR_DECAY, BATCH_SIZE, p.rng, p.sgd_steps)
            delta = p.model.params - server.params
            apply_updates(server, [select_largest(delta, k)])
        _record_round(trace, round_index, parties, test_data)
    for p in parties:
        trace.final_accuracies[p.id] = evaluate(p.model, test_data)
    return trace

