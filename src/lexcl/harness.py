"""Orchestration of a full run as a sequence of steps, one per row of the
recall matrix: vocab merge -> expand -> train -> snapshot -> evaluate,
with checkpoint selection by validation recall and end-of-run
diagnostics. The first step pretrains the frozen anchor; `steps` lists
the steps of the continual (also oracle-vocab) and joint modes."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import bpe
from . import vocab as vocab_mod
from .bench import SPLITS, load_dataset, load_images, load_manifest
from .config import dump_config
from .embeddings import (FIXED_INIT, dist_stats, expand, ks_statistic,
                         save_checkpoint, snapshot_anchor, vocab_hash,
                         write_atomic, write_csv)
from .encoders import Pooling, encode_text, make_text_params, pooling
from .errors import (DatasetFormatError, DegenerateFeatureError,
                     InvalidInputError, NumericError, check_keys, key)
from .losses import LossConfig, batch_grad
from .metrics import (DIRECTIONS, EvalMatrix, average_recall, fisher_and_loss,
                      forgetting, paired_recall, score_row)
from .optim import PRETRAIN_OPTIM, OptimConfig, OptimState, step as optim_step

# The header of each diagnostics/ file that `finalize` writes and
# `lexcl report` copies.
DIAGNOSTICS = {
    "fisher.csv": ("task", "fisher_trace"),
    "dist_stats.csv": ("task", "mu", "sigma", "ks_stat"),
    "loss_curve.csv": ("task", "epoch", "mean_loss", "val_score"),
    "final_loss.csv": ("task", "mean_loss"),
    "tokens.csv": ("task", "split", "captions", "mean_tokens", "cut_at_l_max"),
}


@dataclass(frozen=True)
class RunConfig:
    data_dir: str
    out_dir: str
    loss: LossConfig = field(default_factory=LossConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    vocab_size_per_task: int = key(512, "vocab.size_per_task",
                                   ge=bpe.N_BYTES + 1)
    dim: int = key(64, "model.dim", ge=1)
    d_out: int = key(64, "model.d_out", ge=1)
    l_max: int = key(32, "model.l_max", ge=1)
    encoder_seed: int = key(7, "model.encoder_seed", ge=0)
    epochs: int = key(3, "train.epochs", ge=1)
    batch_size: int = key(32, "train.batch_size", ge=2)
    teir_init: bool = key(True, "run.teir_init")
    teir_reg: bool = key(True, "run.teir_reg")
    oracle_vocab: bool = key(False, "run.oracle_vocab")
    mode: str = key("continual", "run.mode", choices=("continual", "joint"))
    seed: int = key(0, "run.seed")

    def __post_init__(self):
        check_keys(self)
        if self.loss.gamma_cm == 0:  # step 0 would train nothing
            raise InvalidInputError("loss.gamma_cm: must be > 0, as "
                                    "pretraining trains on it alone")


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


def check_image_width(images: np.ndarray, d_out: int) -> None:
    """Text features are `d_out` wide, and so must be the image features
    they are scored against."""
    if images.shape[1] != d_out:
        raise InvalidInputError(f"model.d_out: {d_out} is not the width "
                                f"{images.shape[1]} of the image features")


class _TaskData:
    """Loaded splits for one language, and their poolings.

    `pooled[split]` pools the split's foreign captions under the vocab
    the language is scored with, once, when that vocab is merged in; the
    val pooling is freed after the last step that trains the language."""

    def __init__(self, data_dir, language_id, manifest, images):
        self.train, self.val, self.test = (
            load_dataset(data_dir, language_id, split, manifest, images)
            for split in SPLITS)
        self.pooled: dict[str, Pooling] = {}

    def drop(self, column: str) -> None:
        """Set caption column `column` of every split to None."""
        for split in SPLITS:
            setattr(self, split, replace(getattr(self, split), **{column: None}))


class Runner:
    """Mutable state of one run. Making one checks the config against
    the data and creates the output directory, which must not hold a run
    already; run() does the full flow."""

    def __init__(self, cfg: RunConfig):
        if os.path.exists(os.path.join(cfg.out_dir, "config.json")):
            raise InvalidInputError(f"{cfg.out_dir}: already holds a run "
                                    "(config.json); write to a new directory")
        self.cfg = cfg
        manifest = load_manifest(cfg.data_dir)
        self.languages: list[str] = manifest["languages"]
        self.images = load_images(cfg.data_dir)
        check_image_width(self.images, cfg.d_out)
        self.tasks = [_TaskData(cfg.data_dir, lid, manifest, self.images)
                      for lid in self.languages]
        for lid, td in zip(self.languages, self.tasks):
            if td.train.english != self.tasks[0].train.english:
                path = os.path.join(cfg.data_dir, lid, "train.tsv")
                raise DatasetFormatError(f"{path}: English captions differ "
                                         f"from {self.languages[0]}'s")
        self.english: Pooling | None = None  # pooled with vocab 0
        self.params = make_text_params(cfg.dim, cfg.d_out, cfg.l_max,
                                       cfg.encoder_seed)
        self.state = vocab_mod.new_state()
        self.table = np.zeros((0, cfg.dim), dtype=np.float32)
        self.anchor: np.ndarray | None = None
        self.eval_matrix = EvalMatrix()
        self.registry: list[dict] = []
        self.checkpoint_paths: list[str] = []
        self.dist_rows: list[dict] = []
        self.loss_rows: list[dict] = []
        self.token_rows: list[dict] = []
        self._vocab_of = [vocab_index(cfg.mode, cfg.oracle_vocab, t)
                          for t in range(len(self.tasks))]
        self._vocabs: dict[int, bpe.TaskVocab] = {}
        os.makedirs(os.path.join(cfg.out_dir, "diagnostics"), exist_ok=True)
        self.log = open(os.path.join(cfg.out_dir, "run.log"), "w", buffering=1)
        write_atomic(os.path.join(cfg.out_dir, "config.json"),
                     json.dumps(asdict(cfg), indent=1, sort_keys=True).encode())
        dump_config(cfg, os.path.join(cfg.out_dir, "effective_config.txt"))

    # --- tokenization helpers ----------------------------------------

    def _task_vocab(self, row: int) -> bpe.TaskVocab:
        """The vocab that row `row`'s language is tokenised with, trained
        once on the foreign train captions of every language that shares
        it, with the merge budget of one vocab per language."""
        v = self._vocab_of[row]
        if v not in self._vocabs:
            sharing = [td for td, w in zip(self.tasks, self._vocab_of) if w == v]
            target = (bpe.N_BYTES + (self.cfg.vocab_size_per_task - bpe.N_BYTES)
                      * len(sharing))
            self._vocabs[v] = bpe.train_bpe(
                [line for td in sharing for line in td.train.foreign], target,
                task_index=v)
        return self._vocabs[v]

    def _pool(self, texts, v: int, tasks: list[int], split: str) -> Pooling:
        """The pooling of `texts` under vocab `v`, with their token counts
        recorded for diagnostics/tokens.csv under each of `tasks`."""
        ids, lengths = self.state.tokenize(texts, v)
        self.token_rows += [{
            "task": t, "split": split, "captions": len(lengths),
            "mean_tokens": float(lengths.mean()),
            "cut_at_l_max": int(np.count_nonzero(lengths > self.cfg.l_max))}
            for t in tasks]
        return pooling(ids, lengths, self.state.size, self.params)

    def _tokenize(self) -> None:
        """Pool every caption read under the vocab just merged in (vocab 0
        also the one English list), once, and drop the captions pooled.
        Global ids are append-only, so the poolings stay valid."""
        v = len(self.state.task_vocabs) - 1
        if v == 0:
            self.english = self._pool(self.tasks[0].train.english, 0,
                                      range(len(self.tasks)), "english")
            for td in self.tasks:
                td.drop("english")
        for t, td in enumerate(self.tasks):
            if self._vocab_of[t] == v:
                td.pooled = {split: self._pool(getattr(td, split).foreign,
                                               v, [t], split)
                             for split in SPLITS}
                td.drop("foreign")

    # --- evaluation ---------------------------------------------------

    def _val_score(self, t: int) -> float:
        """Checkpoint-selection score: sum of Recall@{1,5,10}, both directions."""
        td = self.tasks[t]
        res = paired_recall(td.pooled["val"], self.table, self.params,
                            self.images[td.val.image], ks=(1, 5, 10))
        return sum(res[d][k] for d in DIRECTIONS for k in (1, 5, 10))

    # --- training -----------------------------------------------------

    def _train_epochs(self, label, train: list[int], lam: np.ndarray) -> None:
        """Epoch loop over the train captions of languages `train`, each
        paired with its image and its anchor English feature, with
        checkpoint selection by validation on those languages. Row g, of
        the splits in turn, pairs with English caption g mod n. Before the
        anchor exists (pretraining), the English features are one zero
        row, the cross-lingual term is off and PRETRAIN_OPTIM is used."""
        cfg = self.cfg
        pooled = Pooling.concat([self.tasks[t].pooled["train"] for t in train])
        # image rows become float64 per batch, so no float64 copy of the
        # step's whole split is held
        image = np.concatenate([self.tasks[t].train.image for t in train])
        n = len(image)
        steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
        ocfg = cfg.optim
        if self.anchor is None:
            eng_feats = np.zeros((1, cfg.d_out))
            loss_cfg = replace(cfg.loss, gamma_cl=0.0)
            ocfg = replace(ocfg, **PRETRAIN_OPTIM)
        else:
            eng_feats = encode_text(self.english, self.anchor, self.params)
            loss_cfg = cfg.loss
        ostate = OptimState(self.table.shape, cfg.epochs * steps_per_epoch,
                            ocfg.kind)

        best_score = -1.0
        best_matrix = None
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng(sub_seed(cfg.seed, "shuffle", label, epoch))
            order = rng.permutation(n)
            epoch_loss = 0.0
            try:
                for s in range(steps_per_epoch):
                    idx = order[s * cfg.batch_size : (s + 1) * cfg.batch_size]
                    loss, rows, grads = batch_grad(
                        pooled.take(idx), self.table, self.params,
                        self.images[image[idx]].astype(np.float64),
                        eng_feats[idx % len(eng_feats)], loss_cfg)
                    epoch_loss += loss
                    optim_step(self.table, rows, lam, grads, ocfg, ostate)
                score = sum(self._val_score(t) for t in train)
            except NumericError as e:  # optim.step's, which names the step
                raise NumericError(f"task {label}: {e}") from e
            except DegenerateFeatureError as e:  # a zero feature
                raise DegenerateFeatureError(
                    f"task {label}: after step {ostate.step_count}: {e}") from e
            mean_loss = epoch_loss / steps_per_epoch
            self.loss_rows.append({"task": label, "epoch": epoch,
                                   "mean_loss": mean_loss, "val_score": score})
            self.log.write(f"task {label} epoch {epoch} loss {mean_loss:.6f} "
                           f"val_score {score:.3f}\n")
            if score > best_score:
                best_score = score
                best_matrix = self.table.copy()
        if best_matrix is None:
            raise NumericError(f"task {label}: no epoch gave a finite "
                               "validation score")
        self.table[:] = best_matrix

    def run_task(self, row: int, train: list[int]) -> None:
        """One step: merge row `row`'s vocab and grow the table, train on
        the languages `train`, then record, save and score tasks 0..row
        into row `row` of the recall matrix.

        The first step grows the empty table from the fixed init, and its
        selected table becomes the frozen anchor; later steps draw the new
        rows from the trained table's own statistics under run.teir_init.
        λ needs no first-step case: every row is then new, or a byte token
        seen 0 times."""
        cfg = self.cfg
        tv = self._task_vocab(row)
        vocab_before = self.state.size
        pre_stats = dist_stats(self.table) if len(self.table) else None
        self.state, lam = vocab_mod.merge_vocab(self.state, tv)
        self._tokenize()
        n_new = self.state.size - vocab_before
        n_overlap = int(np.count_nonzero(lam[:vocab_before]))
        self.registry.append({
            "task_index": row, "vocab_before": vocab_before,
            "vocab_after": self.state.size,
            "n_old": vocab_before - n_overlap, "n_overlap": n_overlap,
            "n_new": n_new, "counts": self.state.counts.tolist()})

        matched = pre_stats is not None and cfg.teir_init
        seed = (sub_seed(cfg.seed, "init", 0) if pre_stats is None
                else sub_seed(cfg.seed, "expand", row))
        self.table = expand(self.table, self.state.size - len(self.table),
                            pre_stats if matched else FIXED_INIT, seed)
        ks = float("nan")
        if pre_stats is not None and n_new > 0 and pre_stats.sigma > 0:
            ks = ks_statistic(self.table[vocab_before:],
                              pre_stats.mu, pre_stats.sigma)

        # the joint step's shuffle seeds are named "joint": its pinned
        # checkpoints depend on that name
        self._train_epochs(row if train == [row] else "joint", train,
                           lam if cfg.teir_reg else np.ones(self.state.size))
        if self.anchor is None:
            self.anchor = snapshot_anchor(self.table)
        s = dist_stats(self.table)
        self.dist_rows.append({"task": row, "mu": s.mu, "sigma": s.sigma,
                               "ks_stat": ks})

        out = cfg.out_dir
        bpe.save_vocab(tv.tokens, os.path.join(out, f"vocab_task{row}.txt"))
        bpe.save_merges(tv.rules, os.path.join(out, f"merges_task{row}.txt"))
        path = os.path.join(out, f"ckpt_task{row}.bin")
        save_checkpoint(self.table, {
            "vocab_hash": vocab_hash(self.state.tokens),
            "task_index": row, "policy": "matched" if matched else "fixed",
            "rng_seed": seed,
        }, path)
        self.checkpoint_paths.append(path)
        score_row(self.eval_matrix, row, self.table, self.params,
                  [(td.pooled["test"], self.images[td.test.image])
                   for td in self.tasks[: row + 1]])

    def run(self) -> RunArtifacts:
        """Every step of the configured mode, then the diagnostics."""
        plan = steps(self.cfg.mode, len(self.tasks))
        try:
            for i, (row, train) in enumerate(plan):
                self.run_task(row, train)
                later = (ts for _, ts in plan[i + 1:])
                for t in set(train).difference(*later):
                    del self.tasks[t].pooled["val"]
            return self.finalize()
        finally:
            self.log.close()

    # --- diagnostics and artifacts -----------------------------------

    def finalize(self) -> RunArtifacts:
        cfg = self.cfg
        out = cfg.out_dir
        last_row = max(j for (j, _, _) in self.eval_matrix.entries)

        eng_feats = encode_text(self.english, self.anchor, self.params)
        fisher, losses = zip(*(fisher_and_loss(
            self.images[td.train.image], eng_feats, td.pooled["train"],
            self.table, self.params, cfg.loss, cfg.batch_size)
            for td in self.tasks))

        self.eval_matrix.save_csv(os.path.join(out, "eval_matrix.csv"))
        _write_json(os.path.join(out, "registry_manifest.json"), self.registry)
        rows = {"fisher.csv": [{"task": t, "fisher_trace": v}
                               for t, v in enumerate(fisher)],
                "dist_stats.csv": self.dist_rows,
                "loss_curve.csv": self.loss_rows,
                "final_loss.csv": [{"task": t, "mean_loss": v}
                                   for t, v in enumerate(losses)],
                "tokens.csv": sorted(self.token_rows, key=lambda r: r["task"])}
        for name, header in DIAGNOSTICS.items():
            _write_csv(os.path.join(out, "diagnostics", name), header, rows[name])

        final_ar = {d: average_recall(self.eval_matrix, last_row, d)
                    for d in DIRECTIONS}
        final_f = {}
        if cfg.mode == "continual" and last_row >= 1:
            final_f = {d: forgetting(self.eval_matrix, last_row, d)
                       for d in DIRECTIONS}
        diagnostics = {
            "fisher": dict(enumerate(fisher)),
            "mean_fisher": float(np.mean(fisher)),
            "final_loss": list(losses),
            "mean_final_loss": float(np.mean(losses)),
            "dist_stats": self.dist_rows,
        }
        return RunArtifacts(self.eval_matrix, self.checkpoint_paths,
                            final_ar, final_f, diagnostics)


def run_sequence(cfg: RunConfig) -> RunArtifacts:
    """Execute a full run per the configured mode and return artifacts."""
    return Runner(cfg).run()


def _write_json(path, obj) -> None:
    write_atomic(path, json.dumps(obj, indent=1).encode())


def _write_csv(path, header, rows) -> None:
    write_csv(path, [header, *([r[h] for h in header] for r in rows)])
