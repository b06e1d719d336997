"""Orchestration of a full continual run: anchor pretraining on task 0,
then per task vocab merge -> expand -> train -> snapshot -> evaluate,
with checkpoint selection by validation recall and end-of-run
diagnostics. Also supports the oracle-vocab and joint-training modes."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, asdict

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
                      mean_sample_loss, paired_recall)
from .optim import OptimConfig, OptimState, reset_state, step as optim_step


@dataclass(frozen=True)
class RunConfig:
    data_dir: str
    out_dir: str
    loss: LossConfig = field(default_factory=LossConfig)
    optim_kind: str = "sgd"
    lr_peak: float = 1.0
    pretrain_kind: str = "adamw"
    pretrain_lr: float = 0.03
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
        for name, value in (("optim.lr", self.lr_peak),
                            ("loss.tau", self.loss.tau),
                            ("optim.weight_decay", self.weight_decay)):
            if not math.isfinite(value):
                raise InvalidInputError(f"{name}: must be finite")


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


class _TaskData:
    """Loaded splits for one language, and their token arrays.

    `tokens[split]` holds the split's foreign captions under the vocab
    the language is scored with, `english` its English train captions
    under vocab 0. Both are filled when that vocab is merged in."""

    def __init__(self, data_dir, language_id, manifest, provider):
        self.language_id = language_id
        self.train, self.val, self.test = (
            load_dataset(data_dir, language_id, split, manifest, provider)[0]
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
        self._oracle: bpe.TaskVocab | None = None
        self._shared_vocab = cfg.oracle_vocab or cfg.mode == "joint"
        os.makedirs(cfg.out_dir, exist_ok=True)
        os.makedirs(os.path.join(cfg.out_dir, "diagnostics"), exist_ok=True)
        self.log = open(os.path.join(cfg.out_dir, "run.log"), "w")
        with open(os.path.join(cfg.out_dir, "config.json"), "w") as f:
            json.dump(asdict(cfg), f, indent=1, sort_keys=True)

    # --- tokenization helpers ----------------------------------------

    def _train_task_vocab(self, t: int) -> bpe.TaskVocab:
        if self._shared_vocab:
            if self._oracle is None:
                # one vocab for all languages: give the single merge event
                # the same total merge budget the continual run gets
                corpus = [line for td in self.tasks for line in td.corpus]
                target = (256 + (self.cfg.vocab_size_per_task - 256)
                          * len(self.tasks))
                self._oracle = bpe.train_bpe(corpus, target, task_index=0)
            return self._oracle
        return bpe.train_bpe(self.tasks[t].corpus,
                             self.cfg.vocab_size_per_task, task_index=t)

    def _vocab_index(self, t: int) -> int:
        """Index of the vocab that language t is tokenised with."""
        return 0 if self._shared_vocab else t

    def _tokenize(self, v: int) -> None:
        """Tokenise every caption read under vocab v, once; called right
        after v is merged in. Global ids are append-only, so the arrays
        stay valid for the rest of the run."""
        memo: dict[str, list[int]] = {}
        for t, td in enumerate(self.tasks):
            if v == 0:
                td.english = self.state.tokenize(
                    [tr.english_text for tr in td.train], 0, memo)
            if self._vocab_index(t) == v:
                td.tokens = {split: self.state.tokenize(
                    [tr.foreign_text for tr in getattr(td, split)], v, memo)
                    for split in SPLITS}

    # --- evaluation ---------------------------------------------------

    def _retrieval(self, td: _TaskData, split: str, ks=(1,)):
        images = [tr.image_index for tr in getattr(td, split)]
        return paired_recall(td.tokens[split], self.table, self.params,
                             self.provider.features[images], ks)

    def _val_score(self, t: int) -> float:
        """Checkpoint-selection score: Recall@{1,5,10} summed over both
        retrieval directions."""
        res = self._retrieval(self.tasks[t], "val", ks=(1, 5, 10))
        return sum(res[d][k] for d in ("img2txt", "txt2img") for k in (1, 5, 10))

    def _fill_eval_row(self, row: int, seen_tasks) -> None:
        for i in seen_tasks:
            for d, recall in self._retrieval(self.tasks[i], "test").items():
                self.eval_matrix.set(row, i, d, recall[1])

    # --- training core --------------------------------------------------

    def _train_epochs(self, label, tasks, lam: np.ndarray,
                      loss_cfg: LossConfig, val_tasks, use_eng=True,
                      kind=None, lr=None) -> None:
        """Epoch loop over the train captions of `tasks`, each paired with
        its image and, if `use_eng`, its anchor English feature, with
        validation-based checkpoint selection."""
        cfg = self.cfg
        pooled = pooling(vocab_mod.TokenArrays.concat(
            [td.tokens["train"] for td in tasks]), self.table.row_count,
            self.params)
        img_idx = [tr.image_index for td in tasks for tr in td.train]
        # anchor features, recomputed per use: cheaper than holding them
        eng_feats = (np.concatenate([text_features(td.english, self.anchor,
                                                   self.params)
                                     for td in tasks]) if use_eng else None)
        n = len(img_idx)
        steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
        ocfg = OptimConfig(kind=kind or cfg.optim_kind,
                           lr_peak=lr if lr is not None else cfg.lr_peak,
                           weight_decay=cfg.weight_decay,
                           warmup_fraction=cfg.warmup_fraction,
                           total_steps=cfg.epochs * steps_per_epoch)
        ostate = reset_state(OptimState())

        img_feats = self.provider.features[img_idx].astype(np.float64)

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
                r_e = eng_feats[idx] if use_eng else np.zeros_like(r_f)
                loss, grad_rf = total_loss(
                    FeatureBatch(img_feats[idx], r_e, r_f), loss_cfg)
                epoch_loss += loss
                rows, grads = encode_text_grad(batch, r_f, self.params, grad_rf)
                optim_step(self.table, rows, lam, grads, ocfg, ostate)
            mean_loss = epoch_loss / steps_per_epoch
            score = sum(self._val_score(t) for t in val_tasks)
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

    # --- per-task flow ----------------------------------------------

    def _save_task_artifacts(self, t: int, task_vocab, policy_name, seed) -> None:
        out = self.cfg.out_dir
        bpe.save_vocab(task_vocab.tokens, os.path.join(out, f"vocab_task{t}.txt"))
        bpe.save_merges(task_vocab.rules, os.path.join(out, f"merges_task{t}.txt"))
        path = os.path.join(out, f"ckpt_task{t}.bin")
        save_checkpoint(self.table, {
            "vocab_hash": vocab_hash(self.state.tokens),
            "task_index": t, "policy": policy_name, "rng_seed": seed,
        }, path)
        self.checkpoint_paths.append(path)

    def run_pretrain(self) -> None:
        """Task 0 stands in for pretraining: no anchor exists yet, so the
        cross-lingual term is forced off; the selected table becomes the
        frozen anchor."""
        cfg = self.cfg
        tv = self._train_task_vocab(0)
        vocab_before = self.state.size
        self.state, part = vocab_mod.merge_vocab(self.state, tv)
        self._tokenize(0)
        init_seed = sub_seed(cfg.seed, "init", 0)
        self.table = init_table(self.state.size, cfg.dim, fixed_policy(),
                                init_seed)
        lam = np.ones(self.state.size)
        loss_cfg = LossConfig(cfg.loss.tau, cfg.loss.gamma_cm, 0.0)
        self._train_epochs(0, [self.tasks[0]], lam, loss_cfg, val_tasks=[0],
                           use_eng=False, kind=cfg.pretrain_kind,
                           lr=cfg.pretrain_lr)
        self.anchor = snapshot_anchor(self.table)
        self.counts = vocab_mod.update_counts(self.counts, tv, self.state)
        self.registry.add(0, vocab_before, self.state.size, part, self.counts)
        s0 = dist_stats(self.table)
        self.dist_rows.append({"task": 0, "mu": s0.mu, "sigma": s0.sigma,
                               "ks_stat": float("nan")})
        self._save_task_artifacts(0, tv, "fixed", init_seed)
        self._fill_eval_row(0, [0])

    def run_task(self, t: int) -> None:
        cfg = self.cfg
        tv = self._train_task_vocab(t)
        vocab_before = self.state.size
        pre_stats = dist_stats(self.table)
        self.state, part = vocab_mod.merge_vocab(self.state, tv)
        self._tokenize(t)
        n_new = self.state.size - vocab_before

        policy = matched_policy(pre_stats) if cfg.teir_init else fixed_policy()
        seed = sub_seed(cfg.seed, "expand", t)
        self.table = expand(self.table, n_new, policy, seed)

        ks = float("nan")
        if n_new > 0 and pre_stats.sigma > 0:
            ks = ks_statistic(self.table.matrix[vocab_before:],
                              pre_stats.mu, pre_stats.sigma)

        counts_ext = np.zeros(self.state.size, dtype=np.int64)
        counts_ext[: len(self.counts)] = self.counts
        lam = (vocab_mod.lambda_for(part, counts_ext) if cfg.teir_reg
               else np.ones(self.state.size))

        self._train_epochs(t, [self.tasks[t]], lam, cfg.loss, val_tasks=[t])
        self.counts = vocab_mod.update_counts(self.counts, tv, self.state)
        self.registry.add(t, vocab_before, self.state.size, part, self.counts)
        s = dist_stats(self.table)
        self.dist_rows.append({"task": t, "mu": s.mu, "sigma": s.sigma,
                               "ks_stat": ks})
        self._save_task_artifacts(t, tv, policy.kind, seed)

    def run_joint(self) -> None:
        """One mixed task pooling every language's training data; the
        shared oracle vocab means no new tokens appear here."""
        cfg = self.cfg
        tv = self._oracle
        vocab_before = self.state.size
        self.state, part = vocab_mod.merge_vocab(self.state, tv)
        counts_ext = np.zeros(self.state.size, dtype=np.int64)
        counts_ext[: len(self.counts)] = self.counts
        lam = (vocab_mod.lambda_for(part, counts_ext) if cfg.teir_reg
               else np.ones(self.state.size))

        last_row = len(self.tasks) - 1
        self._train_epochs("joint", self.tasks, lam, cfg.loss,
                           val_tasks=range(len(self.tasks)))
        self.counts = vocab_mod.update_counts(self.counts, tv, self.state)
        self.registry.add(last_row, vocab_before, self.state.size, part,
                          self.counts)
        s = dist_stats(self.table)
        self.dist_rows.append({"task": last_row, "mu": s.mu, "sigma": s.sigma,
                               "ks_stat": float("nan")})
        self._save_task_artifacts(last_row, tv, "joint", 0)
        self._fill_eval_row(last_row, range(len(self.tasks)))

    # --- diagnostics and artifacts -----------------------------------

    def finalize(self) -> RunArtifacts:
        cfg = self.cfg
        out = cfg.out_dir
        last_row = max(j for (j, _, _) in self.eval_matrix.entries)

        fisher_rows, final_losses = [], []
        for t, td in enumerate(self.tasks):
            samples = (
                self.provider.features[[tr.image_index for tr in td.train]],
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
        runner.run_pretrain()
        if cfg.mode == "joint":
            runner.run_joint()
        else:
            for t in range(1, len(runner.tasks)):
                runner.run_task(t)
                runner._fill_eval_row(t, range(t + 1))
        return runner.finalize()
    finally:
        runner.log.close()


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in rows:
            w.writerow([r[h] for h in header])
