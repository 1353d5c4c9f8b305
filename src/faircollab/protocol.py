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
exchange) so results are comparable on identical data partitions. One
build_parties call can serve all four: centralised starts from the
parties as built, so it takes them first, and FDPDDL, standalone and
DSSGD start from the pretrained standalone models, so one pretraining of
the same parties, in place, serves all three. Each run but the last gets
a copy_parties copy, and the last takes the parties themselves; each
runner pretrains only the parties that arrive without one. Copies share
the parties' data, keys and the one read-only initial-parameter vector.

Pretraining and the standalone baseline's rounds train the parties whose
training splits have equal size side by side when the model is at most
SIDE_BY_SIDE_MAX_BYTES (_train_side_by_side); DP-SGD (one dp_sgd_step per
party per step), DSSGD and centralised train one model at a time.

Every random draw comes from per-party generators spawned off one master
seed, including key material, so a run is a pure function of its
configuration and seed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import credibility as cred
from .adversary import AdversaryConfig, AdversaryKind, freerider_gradients, freerider_label
from .ledger import Block, KeyPair, Ledger, decrypt_payload
from .numerics import (FLOAT, Dataset, MlpModel, RankedPrefix, SparseUpdate, apply_updates,
                       decayed_lr, evaluate, predict, select_largest, sgd_step, train_sgd)
from .privacy import (BudgetExhaustedError, PrivacyAccountant, PrivacyParams,
                      allocate_budgets, dp_sgd_step, lot_size_for)
# augment is never called here; bench/tracer.py still wraps protocol.augment.
from .samplegen import augment, generate_release  # noqa: F401


class ProtocolError(RuntimeError):
    pass


FRAMEWORKS = ("standalone", "centralised", "distributed_dssgd", "fdpddl")
# The frameworks that start from pretrain(); centralised starts from the
# shared initial parameters instead.
PRETRAINED_FRAMEWORKS = ("standalone", "distributed_dssgd", "fdpddl")

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
# Plain SGD trains equal-size parties side by side only for a model of at
# most this many parameter bytes. The 32-32-10 desk model (5.5 KB) gains:
# pretraining and standalone rounds of the desk_grid groups took 0.77-0.80x
# the time of one party per call on a 2-core host. The paper's 784-128-10
# model (407 KB) trains one party at a time: a stack copies every party's
# 784-wide training rows, and four side by side raised paper_shape's peak
# RSS from 75.8 to 85.1 MB (with float64 arrays). Gathering each batch
# from the parties' own rows instead raises its peak RSS from 62.6 to
# 63.0 MB (medians, higher in 12 of 12 pairs), for the stacked copy of
# parameters and gradients, and with every model's parameters on a cache
# line it saves no time: wall_s 0.39-0.41 s against 0.37-0.38 s (medians
# of two sets of 6 pairs). So the limit stays.
SIDE_BY_SIDE_MAX_BYTES = 1 << 16


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs for one run; defaults are desk scale."""

    # The experiment's dataset.name, which ExperimentConfig fills in; it
    # picks the budgets' delta (privacy.allocate_budgets).
    dataset_name: str = ""
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
    credibility: dict[str, float] | None = None  # normalised score per credible peer
    standalone_accuracy: float | None = None
    sgd_steps: int = 0
    publishing: bool = True
    token_exhaustion_reported: bool = False
    # Dense sum of the updates bought last round, net of rolled-back ones.
    # Built only for a free_rider_crafted_grad party, the one kind that
    # echoes it; None for every other party.
    last_received_aggregate: np.ndarray | None = None


@dataclass
class Event:
    kind: str  # excluded | budget_exhausted | token_exhausted
    party: str
    round: int  # 0 at initialisation


@dataclass
class AccuracyRow:
    round: int
    party: str
    accuracy: float
    tokens: int


@dataclass
class CredibilityRow:
    round: int
    owner: str
    peer: str
    credibility: float


@dataclass
class RunTrace:
    """What a run records: a cell trace's trace entry, the home of its per-party maps."""
    events: list[Event] = field(default_factory=list)
    accuracy_rows: list[AccuracyRow] = field(default_factory=list)
    credibility_rows: list[CredibilityRow] = field(default_factory=list)
    token_totals: list[list[int]] = field(default_factory=list)  # [round, total tokens]
    standalone_accuracies: dict[str, float] = field(default_factory=dict)
    sharing_levels: dict[str, float] = field(default_factory=dict)
    final_accuracies: dict[str, float] = field(default_factory=dict)

    def event(self, kind: str, party: str, round_index: int) -> None:
        self.events.append(Event(kind, party, round_index))


def build_parties(datasets: list[Dataset], sharing_levels, config: ProtocolConfig,
                  seed_seq: np.random.SeedSequence,
                  adversaries: dict[int, AdversaryConfig] | None = None) -> list[Party]:
    """Construct parties with a common initial model and per-party rng
    streams (data split, keys, noise all come from the party's stream).
    Every party's initial_params is the same read-only vector.

    The caller hands datasets over: each unsplit dataset is removed from
    the list as soon as its party's train/validation split exists, so the
    whole of a party's data is never held twice. On return the list is
    empty."""
    adversaries = adversaries or {}
    sharing_levels = list(sharing_levels)
    n = len(datasets)
    if n != len(sharing_levels):
        raise ProtocolError("one sharing level per dataset required")
    for i, lam in enumerate(sharing_levels):
        if not 0.0 < lam <= 1.0:
            raise ProtocolError(f"sharing level of party {i} outside (0, 1]")
    model_seed, *party_seeds = seed_seq.spawn(n + 1)
    dims = (datasets[0].dim, *config.hidden_dims, datasets[0].num_classes)
    w0 = MlpModel.seeded(dims, np.random.default_rng(model_seed))
    w0.params.flags.writeable = False  # each party's model trains a copy

    parties = []
    for i, lam in enumerate(sharing_levels):
        rng = np.random.default_rng(party_seeds[i])
        train, val = datasets.pop(0).split(VALIDATION_FRACTION, rng)
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
            initial_params=w0.params,
            keypair=KeyPair.generate(rng),
            rng=rng,
            accountant_init=PrivacyAccountant(eps_init, delta_init),
            accountant_update=PrivacyAccountant(eps_update, delta_update),
            privacy=params,
            adversary=adversaries.get(i),
        ))
    return parties


def copy_parties(parties: list[Party]) -> list[Party]:
    """Independent copies of parties, for several runs from one state.
    Data, keys and the read-only initial parameters are shared, since no
    run writes to them."""
    shared = {id(obj): obj for p in parties
              for obj in (p.train_data, p.val_data, p.keypair, p.initial_params)}
    return copy.deepcopy(parties, shared)


def _train_side_by_side(parties: list[Party], epochs: int) -> None:
    """epochs of plain SGD for each party on its training split, on its
    own rng and decay clock. With a model of at most SIDE_BY_SIDE_MAX_BYTES,
    the parties whose splits have equal size train side by side in one
    train_sgd call; a larger model trains one party per call, on 2-D
    arrays. Every party ends with the bits it would get alone."""
    if parties[0].model.params.nbytes > SIDE_BY_SIDE_MAX_BYTES:
        stacks = [[p] for p in parties]
    else:
        by_size: dict[int, list[Party]] = {}
        for p in parties:
            by_size.setdefault(len(p.train_data), []).append(p)
        stacks = by_size.values()
    for stack in stacks:
        steps = train_sgd([p.model for p in stack], [p.train_data for p in stack], epochs,
                          LEARNING_RATE, LR_DECAY, BATCH_SIZE, [p.rng for p in stack],
                          [p.sgd_steps for p in stack])
        for p in stack:
            p.sgd_steps += steps


def pretrain(parties: list[Party], test_data: Dataset) -> None:
    """Standalone pretraining from the shared initial parameters, side by
    side (_train_side_by_side); records each party's standalone accuracy
    for the fairness axis."""
    _train_side_by_side(parties, PRETRAIN_EPOCHS)
    for p in parties:
        p.standalone_accuracy = evaluate(p.model, test_data)


def _pretrained_trace(parties: list[Party], test_data: Dataset) -> RunTrace:
    """A new trace holding each party's standalone accuracy and sharing
    level, after pretraining the parties that are not pretrained yet."""
    fresh = [p for p in parties if p.standalone_accuracy is None]
    if fresh:
        pretrain(fresh, test_data)
    trace = RunTrace()
    for p in parties:
        trace.standalone_accuracies[p.id] = p.standalone_accuracy
        trace.sharing_levels[p.id] = p.sharing_level
    return trace


def _label_release(labeler: Party, samples: np.ndarray, num_classes: int) -> np.ndarray:
    if labeler.adversary and labeler.adversary.kind == AdversaryKind.FREE_RIDER_RANDOM_LABEL:
        return freerider_label(samples, num_classes, labeler.rng)
    return predict(labeler.model, samples)


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
            scores, reports[pid] = cred.normalize_and_screen(filtered, threshold)
            parties[pid].credibility = scores
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

    releases: dict[str, np.ndarray] = {}
    for pid in order:
        p = by_id[pid]
        # Release volume follows the full local data size; the validation
        # split is carved out of the same local data.
        count = int(p.sharing_level * (len(p.train_data) + len(p.val_data)))
        if count < 1:
            raise ProtocolError(f"{pid} would release zero samples; enlarge its data")
        releases[pid] = generate_release(p.train_data, count, budget, p.rng,
                                         p.accountant_init, config.augment_replication)

    raw_maps: dict[str, dict[str, float]] = {}
    for pid in order:
        columns = [_label_release(by_id[labeler], releases[pid], num_classes)
                   for labeler in order]
        raw_maps[pid] = cred.init_credibility(np.stack(columns, axis=1), order)

    credible = set(order)
    credible, removed = _screen_and_exclude(by_id, credible, raw_maps)
    for r in removed:
        trace.event("excluded", r, 0)
    if len(credible) < 2:
        raise ProtocolError("fewer than 2 credible parties after initialisation")

    grants = {pid: cred.init_tokens(by_id[pid].sharing_level, by_id[pid].model.param_count,
                                    len(credible)) for pid in sorted(credible)}
    genesis = ledger.create_genesis(grants, {pid: by_id[pid].keypair for pid in credible},
                                    dict.fromkeys(removed, "non-credible at initialisation"))
    trace.token_totals.append([0, ledger.total_tokens()])
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
            trace.event("budget_exhausted", p.id, round_index)
            break
        sgd_step(p.model, grad, decayed_lr(LEARNING_RATE, LR_DECAY, p.sgd_steps))
        p.sgd_steps += 1
        done += 1
    if done == 0:
        return None
    # The delta overwrites the saved copy, so no second model-sized vector.
    return np.subtract(p.model.params, before, out=before)


def _leave_one_out(model: MlpModel, bought: dict[str, SparseUpdate], peers: list[str],
                   val_data: Dataset) -> tuple[float, dict[str, float]]:
    """(acc, acc_without): the accuracy of model on val_data, and per peer
    its accuracy without that peer's update. Each probe subtracts one
    update from a scratch copy of model, scores the copy, and puts the
    entries back from model.params, so the copy is model again after
    each probe. A peer that sold nothing keeps acc."""
    acc = evaluate(model, val_data)
    acc_without = dict.fromkeys(peers, acc)
    probe = model.copy()
    for j in peers:
        update = bought.get(j)
        if update is not None and len(update):
            probe.params[update.indices] -= update.values
            acc_without[j] = evaluate(probe, val_data)
            probe.params[update.indices] = model.params[update.indices]
    return acc, acc_without


def run_update_round(parties: list[Party], credible: set[str], ledger: Ledger,
                     round_index: int, config: ProtocolConfig, trace: RunTrace,
                     test_data: Dataset) -> set[str]:
    """One synchronous exchange round (gradient trading, leave-one-out
    credibility update, banning, block seal); returns the new credible set."""
    by_id = {p.id: p for p in parties}
    members = sorted(credible)
    param_count = parties[0].model.param_count

    # Local training and sale capacities. No order line exceeds its
    # seller's capacity int(lambda * P) (download_allocation caps a line at
    # it and supplement at the spare room left), and each buyer's top-k is
    # a prefix of its seller's magnitude ranking. So a seller keeps only
    # its delta's ranked prefix up to the capacity, and its dense delta
    # dies before the next party trains.
    prefixes: dict[str, RankedPrefix] = {}
    capacities: dict[str, int] = {}
    for pid in members:
        delta = _local_training(by_id[pid], config, round_index, trace)
        if delta is None:
            capacities[pid] = 0
            continue
        capacities[pid] = int(by_id[pid].sharing_level * param_count)
        prefixes[pid] = RankedPrefix.of(delta, capacities[pid])
        del delta

    # Purchasing by download budget, credibility allocation, and supplement.
    received: dict[str, dict[str, SparseUpdate]] = {pid: {} for pid in members}
    for pid in members:
        buyer = by_id[pid]
        balance = ledger.balances[pid]
        supply = sum(capacities[j] for j in members if j != pid)
        budget = min(balance - TOKEN_RESERVE,
                     int(config.download_fraction * supply))
        if budget < 1:
            continue
        scores = buyer.credibility
        sellers = [j for j in members if j != pid and capacities[j] > 0]
        alloc = {j: cred.download_allocation(scores.get(j, 0.0), budget, capacities[j])
                 for j in sellers}
        extra = cred.supplement(budget, alloc,
                                {j: capacities[j] for j in sellers},
                                {j: scores.get(j, 0.0) for j in sellers})
        lines = {j: alloc.get(j, 0) + extra.get(j, 0) for j in sellers}
        lines = {j: amount for j, amount in lines.items() if amount >= 1}
        if not lines:
            continue
        # One signed order per buyer; each line is filled at once, in seller order.
        for j, order in ledger.submit_purchase_order(buyer.keypair, pid, lines).items():
            selection = select_largest(prefixes[j], order.count)
            payload = ledger.fulfill_order(by_id[j].keypair, j, order.order_id, selection,
                                           by_id[j].rng)
            blob = decrypt_payload(payload, buyer.keypair, aad=order.order_id.encode())
            received[pid][j] = SparseUpdate.from_bytes(blob)
    # One signed fulfillment per seller covers all of its round's fills.
    for j in sorted(ledger.unsigned_fills):
        ledger.sign_fulfillment(by_id[j].keypair, j)
    del prefixes  # sold out for this round; freed before scoring

    # Apply own delta (already in the model) plus purchases; score peers.
    raw_maps: dict[str, dict[str, float]] = {}
    for pid in members:
        p = by_id[pid]
        updates = [received[pid][j] for j in sorted(received[pid])]
        apply_updates(p.model, updates)
        if p.adversary and p.adversary.kind.echoes_aggregate:
            aggregate = np.zeros(param_count, dtype=FLOAT)
            for u in updates:
                aggregate[u.indices] += u.values
            p.last_received_aggregate = aggregate
        peers = [j for j in members if j != pid]
        acc, acc_without = _leave_one_out(p.model, received[pid], peers, p.val_data)
        raw_new: dict[str, float] = {}
        for j in peers:
            prev = p.credibility.get(j, 0.0)
            raw_new[j] = cred.credibility_update(prev, acc, acc_without[j])
        raw_maps[pid] = raw_new

    # Renormalise, report, exclude, and roll back a banned peer's updates.
    new_credible, removed = _screen_and_exclude(by_id, set(members), raw_maps)
    leader = by_id[ledger.state.leader()]
    for r in removed:
        trace.event("excluded", r, round_index)
        ledger.record_punishment(leader.keypair, leader.id, r, "non-credible")
        for pid in sorted(new_credible):
            update = received[pid].get(r)
            if update is not None:
                by_id[pid].model.params[update.indices] -= update.values
                if by_id[pid].last_received_aggregate is not None:
                    by_id[pid].last_received_aggregate[update.indices] -= update.values

    ledger.seal_block()
    trace.token_totals.append([round_index, ledger.total_tokens()])
    for pid in sorted(new_credible):
        p = by_id[pid]
        # Token stock depleted to the reserve floor: the party can only
        # recycle its round earnings and is effectively starved out.
        if ledger.balances[pid] <= TOKEN_RESERVE and not p.token_exhaustion_reported:
            p.token_exhaustion_reported = True
            trace.event("token_exhausted", pid, round_index)
        # The owner's tokens here are the balance column of its credibility rows.
        trace.accuracy_rows.append(AccuracyRow(round_index, pid, evaluate(p.model, test_data),
                                               ledger.balances[pid]))
        trace.credibility_rows.extend(CredibilityRow(round_index, pid, peer, p.credibility[peer])
                                      for peer in sorted(p.credibility))
    return new_credible


def run_fdpddl(parties: list[Party], config: ProtocolConfig, rounds: int,
               test_data: Dataset) -> tuple[RunTrace, Ledger]:
    trace = _pretrained_trace(parties, test_data)
    ledger = Ledger()
    credible, _genesis = run_initialisation(parties, ledger, config, trace)
    for round_index in range(1, rounds + 1):
        credible = run_update_round(parties, credible, ledger, round_index, config, trace,
                                    test_data)
    for p in parties:
        trace.final_accuracies[p.id] = evaluate(p.model, test_data)
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
        trace.accuracy_rows.append(AccuracyRow(round_index, p.id, evaluate(p.model, test_data), 0))


def _run_standalone(parties, rounds, test_data) -> RunTrace:
    trace = _pretrained_trace(parties, test_data)
    for round_index in range(1, rounds + 1):
        _train_side_by_side(parties, BASELINE_EPOCHS_PER_ROUND)
        _record_round(trace, round_index, parties, test_data)
    for p in parties:
        trace.final_accuracies[p.id] = evaluate(p.model, test_data)
    return trace


def _run_centralised(parties, rounds, test_data) -> RunTrace:
    """All local data pooled into one model; every party reads the same
    accuracy (model access itself stays with the operator)."""
    trace = RunTrace()
    pooled = Dataset(
        np.concatenate([p.train_data.features for p in parties]),
        np.concatenate([p.train_data.labels for p in parties]),
        parties[0].train_data.num_classes)
    model = MlpModel(parties[0].model.dims, parties[0].initial_params)
    rng = parties[0].rng
    steps = train_sgd(model, pooled, PRETRAIN_EPOCHS, LEARNING_RATE, LR_DECAY, BATCH_SIZE, rng)
    for round_index in range(1, rounds + 1):
        steps += train_sgd(model, pooled, BASELINE_EPOCHS_PER_ROUND,
                           LEARNING_RATE, LR_DECAY, BATCH_SIZE, rng, steps)
        acc = evaluate(model, test_data)
        for p in parties:
            trace.accuracy_rows.append(AccuracyRow(round_index, p.id, acc, 0))
    final = evaluate(model, test_data)
    for p in parties:
        trace.sharing_levels[p.id] = p.sharing_level
        trace.final_accuracies[p.id] = final
    return trace


def _run_dssgd(parties, rounds, test_data) -> RunTrace:
    """Distributed selective SGD, round-robin order, no differential
    privacy: download the full latest server parameters, train locally,
    upload the largest-magnitude fraction of the delta."""
    trace = _pretrained_trace(parties, test_data)
    server = MlpModel(parties[0].model.dims, parties[0].initial_params)
    k = int(DSSGD_UPLOAD_RATE * server.param_count)
    for round_index in range(1, rounds + 1):
        for p in parties:
            p.model.params[:] = server.params
            p.sgd_steps += train_sgd(p.model, p.train_data, BASELINE_EPOCHS_PER_ROUND,
                                     LEARNING_RATE, LR_DECAY, BATCH_SIZE, p.rng, p.sgd_steps)
            delta = p.model.params - server.params
            apply_updates(server, [select_largest(RankedPrefix.of(delta, k), k)])
        _record_round(trace, round_index, parties, test_data)
    for p in parties:
        trace.final_accuracies[p.id] = evaluate(p.model, test_data)
    return trace

