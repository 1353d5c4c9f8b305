"""Fair, differentially private, ledger-mediated collaborative learning
at desk scale: local models trade selected gradients for tokens, score
each other's usefulness, and ban free-riders by majority report."""

from .numerics import (Dataset, MlpModel, SparseUpdate, apply_updates, backward, evaluate,
                       forward, select_largest, sgd_step)
from .privacy import (BudgetExhaustedError, PrivacyAccountant, PrivacyParams, allocate_budgets,
                      calibrate_sigma, dp_sgd_step)
from .samplegen import augment, generate_release
from .credibility import (consensus_exclude, credibility_update, default_threshold,
                          download_allocation, init_credibility, init_tokens, majority_vote,
                          normalize_and_screen, sigmoid_map, supplement)
from .ledger import (Block, ChainState, EncryptedPayload, KeyPair, Ledger, Transaction,
                     decrypt_payload, dump_chain, load_chain, verify_chain)
from .adversary import (AdversaryConfig, AdversaryKind, detection_report, freerider_gradients,
                        freerider_label, gan_attacker_setup)
from .protocol import (Party, ProtocolConfig, RunTrace, build_parties, pretrain,
                       run_baseline, run_fdpddl, run_initialisation, run_update_round)
from .harness import (CellTrace, ExperimentConfig, SettingSpec, build_x_axis, fairness,
                      fairness_report, run_cell, run_experiment)

__version__ = "0.1.0"
