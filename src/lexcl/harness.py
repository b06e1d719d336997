"""Orchestration of a full run as a sequence of steps, one per row of the
recall matrix: vocab merge -> expand -> train -> snapshot -> evaluate,
with checkpoint selection by validation recall and end-of-run
diagnostics. The first step pretrains the frozen anchor; `steps` lists
the steps of the continual (also oracle-vocab) and joint modes."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import bpe
from . import vocab as vocab_mod
from .bench import SPLITS, load_corpus, load_dataset, load_images, load_manifest
from .embeddings import (EmbeddingTable, dist_stats, expand, fixed_policy,
                         init_table, ks_statistic, matched_policy,
                         save_checkpoint, snapshot_anchor, vocab_hash)
from .encoders import (encode_text, encode_text_grad, make_text_params,
                       pooling, text_features)
from .errors import InvalidInputError, NumericError
from .losses import FeatureBatch, LossConfig, total_loss
from .metrics import (EvalMatrix, average_recall, fisher_trace, forgetting,
                      mean_sample_loss, paired_recall, score_row)
from .optim import OptimConfig, OptimState, step as optim_step

# Optimiser of the first step, which trains the anchor from the fixed
# init; every later step uses the configured one.
PRETRAIN_OPTIM = {"kind": "adamw", "lr_peak": 0.03}


@dataclass(frozen=True)
class RunConfig:
    data_dir: str
    out_dir: str
    loss: LossConfig = field(default_factory=LossConfig)
    optim_kind: str = "sgd"
    lr_peak: float = 1.0
    weight_decay: float = 0.005
    warmup_fraction: float = 0.1
    vocab_size_per_task: int = 512
    dim: int = 64
    d_out: int = 64
    l_max: int = 32
    encoder_seed: int = 7
    epochs: int = 3
    batch_size: int = 32
    teir_init: bool = True
    teir_reg: bool = True
    oracle_vocab: bool = False
    mode: str = "continual"  # "continual" | "joint"
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise InvalidInputError("run.epochs: must be >= 1")
        if self.batch_size < 2:
            raise InvalidInputError("run.batch_size: must be >= 2")
        if self.mode not in ("continual", "joint"):
            raise InvalidInputError(f"run.mode: unknown mode {self.mode!r}")
        if self.vocab_size_per_task < bpe.N_BYTES + 1:
            raise InvalidInputError(
                f"vocab.size_per_task: must be >= {bpe.N_BYTES + 1}")
        for name in ("dim", "d_out", "l_max"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"model.{name}: must be >= 1")
        self.optim_config(total_steps=1)

    def optim_config(self, total_steps: int, **override) -> OptimConfig:
        """The configured optimiser over `total_steps`, with any field
        replaced by `override`; raises on an invalid setting."""
        return OptimConfig(**{"kind": self.optim_kind, "lr_peak": self.lr_peak,
                              "weight_decay": self.weight_decay,
                              "warmup_fraction": self.warmup_fraction,
                              "total_steps": total_steps, **override})


@dataclass
class RunArtifacts:
    eval_matrix: EvalMatrix
    checkpoint_paths: list[str]
    final_ar: dict[str, float]
    final_f: dict[str, float]
    diagnostics: dict


def sub_seed(master: int, *names) -> int:
    """Deterministic named sub-seed derived from the master seed."""
    h = hashlib.sha256(("/".join(str(n) for n in names)).encode()).digest()
    return (master * 0x1FFFFFFFFFFFFF + int.from_bytes(h[:6], "little")) % (2**63)


def steps(mode: str, n_tasks: int) -> list[tuple[int, list[int]]]:
    """(recall-matrix row, languages trained on) of each step of a run:
    one language per step, or pretraining on language 0 and then one
    step on all of them in a joint run of several languages."""
    if mode == "joint" and n_tasks > 1:
        return [(0, [0]), (n_tasks - 1, list(range(n_tasks)))]
    return [(t, [t]) for t in range(n_tasks)]


def vocab_index(mode: str, oracle_vocab: bool, task: int) -> int:
    """Index of the vocab that language `task` is tokenised with: the one
    shared vocab in oracle-vocab and joint runs, else the task's own."""
    return 0 if oracle_vocab or mode == "joint" else task


class _TaskData:
    """Loaded splits for one language, and their token arrays.

    `tokens[split]` holds the split's foreign captions under the vocab
    the language is scored with, `english` its English train captions
    under vocab 0. Both are filled when that vocab is merged in."""

    def __init__(self, data_dir, language_id, manifest, provider):
        self.language_id = language_id
        self.train, self.val, self.test = (
            load_dataset(data_dir, language_id, split, manifest, provider)
            for split in SPLITS)
        self.corpus = load_corpus(data_dir, language_id)
        self.tokens: dict[str, vocab_mod.TokenArrays] = {}
        self.english: vocab_mod.TokenArrays | None = None


class Runner:
    """Mutable state of one run; use run_sequence() for the full flow."""

    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        manifest = load_manifest(cfg.data_dir)
        self.languages: list[str] = manifest["languages"]
        self.provider = load_images(cfg.data_dir)
        self.tasks = [_TaskData(cfg.data_dir, lid, manifest, self.provider)
                      for lid in self.languages]
        self.params = make_text_params(cfg.dim, cfg.d_out, cfg.l_max,
                                       cfg.encoder_seed)
        self.state = vocab_mod.new_state()
        self.counts = np.zeros(0, dtype=np.int64)
        self.table: EmbeddingTable | None = None
        self.anchor = None
        self.eval_matrix = EvalMatrix()
        self.registry = vocab_mod.RegistryManifest()
        self.checkpoint_paths: list[str] = []
        self.dist_rows: list[dict] = []
        self.loss_rows: list[dict] = []
        self._vocab_of = [vocab_index(cfg.mode, cfg.oracle_vocab, t)
                          for t in range(len(self.tasks))]
        self._vocabs: dict[int, bpe.TaskVocab] = {}
        os.makedirs(cfg.out_dir, exist_ok=True)
        os.makedirs(os.path.join(cfg.out_dir, "diagnostics"), exist_ok=True)
        self.log = open(os.path.join(cfg.out_dir, "run.log"), "w")
        with open(os.path.join(cfg.out_dir, "config.json"), "w") as f:
            json.dump(asdict(cfg), f, indent=1, sort_keys=True)

    # --- tokenization helpers ----------------------------------------

    def _task_vocab(self, row: int) -> bpe.TaskVocab:
        """The vocab that row `row`'s language is tokenised with, trained
        once on the corpora of every language that shares it, with the
        merge budget of one vocab per language."""
        v = self._vocab_of[row]
        if v not in self._vocabs:
            sharing = [td for td, w in zip(self.tasks, self._vocab_of) if w == v]
            target = (bpe.N_BYTES + (self.cfg.vocab_size_per_task - bpe.N_BYTES)
                      * len(sharing))
            self._vocabs[v] = bpe.train_bpe(
                [line for td in sharing for line in td.corpus], target,
                task_index=v)
        return self._vocabs[v]

    def _tokenize(self) -> None:
        """Tokenise every caption read under the vocab just merged in,
        once. Global ids are append-only, so the arrays stay valid for
        the rest of the run."""
        v = len(self.state.task_vocabs) - 1
        memo: dict[str, list[int]] = {}
        for t, td in enumerate(self.tasks):
            if v == 0:
                td.english = self.state.tokenize(
                    [tr.english_text for tr in td.train], 0, memo)
            if self._vocab_of[t] == v:
                td.tokens = {split: self.state.tokenize(
                    [tr.foreign_text for tr in getattr(td, split)], v, memo)
                    for split in SPLITS}

    def _images(self, triplets) -> np.ndarray:
        return self.provider.features[[tr.image_index for tr in triplets]]

    # --- evaluation ---------------------------------------------------

    def _val_score(self, t: int) -> float:
        """Checkpoint-selection score: Recall@{1,5,10} summed over both
        retrieval directions."""
        td = self.tasks[t]
        res = paired_recall(td.tokens["val"], self.table, self.params,
                            self._images(td.val), ks=(1, 5, 10))
        return sum(res[d][k] for d in ("img2txt", "txt2img") for k in (1, 5, 10))

    # --- training -----------------------------------------------------

    def _train_epochs(self, label, train: list[int], lam: np.ndarray) -> None:
        """Epoch loop over the train captions of languages `train`, each
        paired with its image and its anchor English feature, with
        checkpoint selection by validation on those languages. Before the
        anchor exists (pretraining), the English features are zeros, the
        cross-lingual term is off and PRETRAIN_OPTIM is used."""
        cfg = self.cfg
        tasks = [self.tasks[t] for t in train]
        pooled = pooling(vocab_mod.TokenArrays.concat(
            [td.tokens["train"] for td in tasks]), self.table.row_count,
            self.params)
        img_feats = np.concatenate(
            [self._images(td.train) for td in tasks]).astype(np.float64)
        n = len(img_feats)
        steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
        if self.anchor is None:
            eng_feats = np.zeros((n, cfg.d_out))
            loss_cfg = replace(cfg.loss, gamma_cl=0.0)
            ocfg = cfg.optim_config(cfg.epochs * steps_per_epoch,
                                    **PRETRAIN_OPTIM)
        else:
            # anchor features, recomputed per use: cheaper than holding them
            eng_feats = np.concatenate([text_features(td.english, self.anchor,
                                                      self.params)
                                        for td in tasks])
            loss_cfg = cfg.loss
            ocfg = cfg.optim_config(cfg.epochs * steps_per_epoch)
        ostate = OptimState()

        best_score = -1.0
        best_matrix = None
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng(sub_seed(cfg.seed, "shuffle", label, epoch))
            order = rng.permutation(n)
            epoch_loss = 0.0
            for s in range(steps_per_epoch):
                idx = order[s * cfg.batch_size : (s + 1) * cfg.batch_size]
                batch = pooled.take(idx)
                r_f = encode_text(batch, self.table.matrix, self.params)
                loss, grad_rf = total_loss(
                    FeatureBatch(img_feats[idx], eng_feats[idx], r_f), loss_cfg)
                epoch_loss += loss
                rows, grads = encode_text_grad(batch, r_f, self.params, grad_rf)
                optim_step(self.table, rows, lam, grads, ocfg, ostate)
            mean_loss = epoch_loss / steps_per_epoch
            score = sum(self._val_score(t) for t in train)
            self.loss_rows.append({"task": label, "epoch": epoch,
                                   "mean_loss": mean_loss, "val_score": score})
            self.log.write(f"task {label} epoch {epoch} loss {mean_loss:.6f} "
                           f"val_score {score:.3f}\n")
            if score > best_score:
                best_score = score
                best_matrix = self.table.matrix.copy()
        if best_matrix is None:
            raise NumericError(f"task {label}: no epoch gave a finite "
                               "validation score")
        self.table.matrix[:] = best_matrix

    def run_task(self, row: int, train: list[int]) -> None:
        """One step: merge row `row`'s vocab and grow the table, train on
        the languages `train`, then record, save and score tasks 0..row
        into row `row` of the recall matrix.

        The first step draws the whole table from the fixed init, and its
        selected table becomes the frozen anchor; later steps append the
        new rows under the configured init policy. λ needs no first-step
        case: every row is then new, or a byte token seen 0 times."""
        cfg = self.cfg
        tv = self._task_vocab(row)
        vocab_before = self.state.size
        pre_stats = None if self.table is None else dist_stats(self.table)
        self.state, part = vocab_mod.merge_vocab(self.state, tv)
        self._tokenize()
        n_new = self.state.size - vocab_before

        ks = float("nan")
        if pre_stats is None:
            policy, seed = fixed_policy(), sub_seed(cfg.seed, "init", 0)
            self.table = init_table(self.state.size, cfg.dim, policy, seed)
        else:
            policy = matched_policy(pre_stats) if cfg.teir_init else fixed_policy()
            seed = sub_seed(cfg.seed, "expand", row)
            self.table = expand(self.table, n_new, policy, seed)
            if n_new > 0 and pre_stats.sigma > 0:
                ks = ks_statistic(self.table.matrix[vocab_before:],
                                  pre_stats.mu, pre_stats.sigma)

        counts_ext = np.zeros(self.state.size, dtype=np.int64)
        counts_ext[: len(self.counts)] = self.counts
        lam = (vocab_mod.lambda_for(part, counts_ext) if cfg.teir_reg
               else np.ones(self.state.size))

        # the joint step's shuffle seeds are named "joint": its pinned
        # checkpoints depend on that name
        self._train_epochs(row if train == [row] else "joint", train, lam)
        if self.anchor is None:
            self.anchor = snapshot_anchor(self.table)
        self.counts = vocab_mod.update_counts(self.counts, tv, self.state)
        self.registry.add(row, vocab_before, self.state.size, part, self.counts)
        s = dist_stats(self.table)
        self.dist_rows.append({"task": row, "mu": s.mu, "sigma": s.sigma,
                               "ks_stat": ks})

        out = cfg.out_dir
        bpe.save_vocab(tv.tokens, os.path.join(out, f"vocab_task{row}.txt"))
        bpe.save_merges(tv.rules, os.path.join(out, f"merges_task{row}.txt"))
        path = os.path.join(out, f"ckpt_task{row}.bin")
        save_checkpoint(self.table, {
            "vocab_hash": vocab_hash(self.state.tokens),
            "task_index": row, "policy": policy.kind, "rng_seed": seed,
        }, path)
        self.checkpoint_paths.append(path)
        score_row(self.eval_matrix, row, self.table, self.params,
                  [(td.tokens["test"], self._images(td.test))
                   for td in self.tasks[: row + 1]])

    # --- diagnostics and artifacts -----------------------------------

    def finalize(self) -> RunArtifacts:
        cfg = self.cfg
        out = cfg.out_dir
        last_row = max(j for (j, _, _) in self.eval_matrix.entries)

        fisher_rows, final_losses = [], []
        for t, td in enumerate(self.tasks):
            samples = (
                self._images(td.train),
                text_features(td.english, self.anchor, self.params),
                pooling(td.tokens["train"], self.table.row_count, self.params),
                self.table.matrix, self.params, cfg.loss)
            fisher_rows.append({"task": t, "fisher_trace": fisher_trace(*samples)})
            final_losses.append(mean_sample_loss(*samples))

        self.eval_matrix.save_csv(os.path.join(out, "eval_matrix.csv"))
        self.registry.save(os.path.join(out, "registry_manifest.json"))
        diag_dir = os.path.join(out, "diagnostics")
        _write_csv(os.path.join(diag_dir, "dist_stats.csv"),
                   ["task", "mu", "sigma", "ks_stat"], self.dist_rows)
        _write_csv(os.path.join(diag_dir, "fisher.csv"),
                   ["task", "fisher_trace"], fisher_rows)
        _write_csv(os.path.join(diag_dir, "loss_curve.csv"),
                   ["task", "epoch", "mean_loss", "val_score"], self.loss_rows)
        _write_csv(os.path.join(diag_dir, "final_loss.csv"),
                   ["task", "mean_loss"],
                   [{"task": t, "mean_loss": v}
                    for t, v in enumerate(final_losses)])

        final_ar = {d: average_recall(self.eval_matrix, last_row, d)
                    for d in ("img2txt", "txt2img")}
        final_f = {}
        if cfg.mode == "continual" and last_row >= 1:
            final_f = {d: forgetting(self.eval_matrix, last_row, d)
                       for d in ("img2txt", "txt2img")}
        diagnostics = {
            "fisher": {r["task"]: r["fisher_trace"] for r in fisher_rows},
            "mean_fisher": float(np.mean([r["fisher_trace"]
                                          for r in fisher_rows])),
            "final_loss": final_losses,
            "mean_final_loss": float(np.mean(final_losses)),
            "dist_stats": self.dist_rows,
        }
        return RunArtifacts(self.eval_matrix, self.checkpoint_paths,
                            final_ar, final_f, diagnostics)


def run_sequence(cfg: RunConfig) -> RunArtifacts:
    """Execute a full run per the configured mode and return artifacts."""
    runner = Runner(cfg)
    try:
        for row, train in steps(cfg.mode, len(runner.tasks)):
            runner.run_task(row, train)
        return runner.finalize()
    finally:
        runner.log.close()


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in rows:
            w.writerow([r[h] for h in header])
