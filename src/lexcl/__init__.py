"""Continual vocabulary learning engine with a frozen dual-encoder,
distribution-matched embedding initialization and per-token regularized
updates, plus retrieval-based forgetting metrics."""

from .bpe import MergeRule, TaskVocab, decode, encode, train_bpe
from .embeddings import (FIXED_INIT, DistStats, dist_stats, expand,
                         load_checkpoint, save_checkpoint, snapshot_anchor)
from .encoders import (FrozenTextParams, encode_text, encode_text_grad,
                       make_text_params)
from .harness import RunConfig, run_sequence
from .losses import FeatureBatch, LossConfig, cl_loss, cm_loss, total_loss
from .metrics import (EvalMatrix, average_recall, fisher_and_loss, forgetting,
                      ted_histogram)
from .optim import OptimConfig, OptimState, lr_at, step
from .vocab import VocabState, merge_vocab, new_state
from .bench import BenchConfig, Split, gen_benchmark, load_dataset, load_images

__version__ = "0.1.0"
