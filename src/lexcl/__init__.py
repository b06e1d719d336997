"""Continual vocabulary learning engine with a frozen dual-encoder,
distribution-matched embedding initialization and per-token regularized
updates, plus retrieval-based forgetting metrics."""

from .bpe import MergeRule, TaskVocab, decode, encode, train_bpe
from .embeddings import (AnchorTable, DistStats, EmbeddingTable, dist_stats,
                         expand, fixed_policy, load_checkpoint,
                         matched_policy, save_checkpoint, snapshot_anchor)
from .encoders import (FrozenTextParams, ImageFeatureProvider, encode_text,
                       encode_text_grad, make_text_params)
from .harness import RunArtifacts, RunConfig, run_sequence
from .losses import FeatureBatch, LossConfig, cl_loss, cm_loss, total_loss
from .metrics import (EvalMatrix, average_recall, fisher_trace, forgetting,
                      recall_at_k, ted_histogram)
from .optim import OptimConfig, OptimState, lr_at, step
from .vocab import (Partition, VocabState, lambda_for, merge_vocab,
                    new_state, update_counts)
from .bench import BenchConfig, TrainingTriplet, gen_benchmark, load_dataset

__version__ = "0.1.0"
