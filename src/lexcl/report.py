"""Post-run evaluation and reporting through `FinishedRun`, the one reader
of a run directory: recompute the recall matrix from the stored checkpoints,
and emit AR/F tables, diagnostics CSVs, histograms and SVG line plots."""

from __future__ import annotations

import os
from collections import namedtuple
from dataclasses import fields, is_dataclass
from functools import cached_property

from . import bpe, harness
from . import vocab as vocab_mod
from .embeddings import (VocabHash, load_checkpoint, read_json, read_lines,
                         write_atomic, write_csv)
from .encoders import make_text_params
from .errors import CheckpointError, InvalidInputError
from .bench import load_dataset, load_images, load_manifest
from .harness import (DIAGNOSTICS, RunConfig, check_image_width, pool,
                      registry_record, vocab_index)
from .metrics import (DIRECTIONS, EvalMatrix, average_recall, forgetting,
                      save_histogram_csv, score_row, ted_histogram)

# More tasks than any run has, as a run holds every task's data in
# memory: a registry naming a later task is refused before a plan that
# long is built.
_MAX_TASKS = 1 << 16


def _build(cls, stored):
    """Config dataclass `cls` from `stored`, the JSON object that `asdict`
    made of one, each section built in turn."""
    kwargs = {}
    for f in fields(cls):
        if not (isinstance(stored, dict) and f.name in stored):
            raise InvalidInputError(f"no field {f.name!r}")
        kwargs[f.name] = (_build(f.default_factory, stored[f.name])
                          if is_dataclass(f.default_factory) else stored[f.name])
    return cls(**kwargs)


def _loss_point(line: str) -> tuple[str, float, float]:
    """(task, epoch, mean loss) of a loss_curve.csv row."""
    task, epoch, mean_loss, _ = line.split(",")
    return task, float(epoch), float(mean_loss)


# A step of a run: its recall-matrix row, the vocab state and λ of its
# merge, and its checkpoint's sidecar and table.
Step = namedtuple("Step", "row state lam sidecar table")


class FinishedRun:
    """A run directory, read through the code that wrote it. `cfg` is
    config.json rebuilt whole; nothing here reads its data_dir or out_dir.
    The registry and vocab files are read when first needed, and each
    checkpoint when its step is reached."""

    def __init__(self, run_dir):
        self.dir = run_dir
        path = self.path("config.json")
        if not os.path.exists(path):
            raise InvalidInputError(
                f"{run_dir}: missing config.json; not a run directory")
        stored = read_json(path, InvalidInputError)
        try:
            self.cfg: RunConfig = _build(RunConfig, stored)
        except InvalidInputError as e:
            raise InvalidInputError(f"{path}: {e}") from None
        c = self.cfg
        self.params = make_text_params(c.dim, c.d_out, c.l_max, c.encoder_seed)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def read(self, name: str) -> bytes:
        with open(self.path(name), "rb") as f:
            return f.read()

    @cached_property
    def merges(self) -> list[tuple]:
        """(row, vocab state, λ) of each step. The rows are the task indexes
        in registry_manifest.json, which must be the rows of `harness.steps`
        for a run of rows[-1] + 1 tasks in the run's mode. Each state merges
        the row's vocab and merges files, parsed again only when their bytes
        are not the previous row's, and must give the row's record."""
        path, mode = self.path("registry_manifest.json"), self.cfg.mode
        registry = read_json(path, InvalidInputError)
        try:
            rows = [rec["task_index"] for rec in registry]
        except (KeyError, TypeError):
            rows = []
        n = rows[-1] + 1 if rows and all(type(t) is int for t in rows) else 0
        if not (0 < n <= _MAX_TASKS and rows == [
                row for row, _ in harness.steps(mode, n)]):
            raise InvalidInputError(f"{path}: the task_index values are not "
                                    f"the steps of a {mode} run")
        merges, state, seen = [], vocab_mod.new_state(), None
        for rec, row in zip(registry, rows):
            names = (f"vocab_task{row}.txt", f"merges_task{row}.txt")
            files = tuple(map(self.read, names))
            if files != seen:
                tv, seen = bpe.vocab_from_files(*map(self.path, names)), files
            before = state.size
            state, lam = vocab_mod.merge_vocab(state, tv)
            if registry_record(row, before, state, lam) != rec:
                raise InvalidInputError(f"{path}: the record of step {row} is "
                                        "not the one its vocab files give")
            merges.append((row, state, lam))
        return merges

    def steps(self):
        """Each `Step`, its table loaded when reached and checked against
        the step's vocab, `model.dim` and its sidecar, whose task_index
        must be the step's row."""
        digest = VocabHash()
        for row, state, lam in self.merges:
            path = self.path(f"ckpt_task{row}.bin")
            table, side = load_checkpoint(
                path, expected_rows=state.size, expected_dim=self.cfg.dim,
                expected_vocab_hash=digest.of(state.tokens))
            got = side.get("task_index")
            if type(got) is not int or got != row:
                raise CheckpointError(
                    f"{path}: sidecar task_index {got!r} is not {row}")
            yield Step(row, state, lam, side, table)

    def pooled(self, data_dir, split: str) -> list[tuple]:
        """(pooling, image features) of the `split` captions of each task,
        from dataset `data_dir`, pooled by `harness.pool` under the last
        state: ids are append-only, so they are the ones the run pooled."""
        manifest, images = load_manifest(data_dir), load_images(data_dir)
        check_image_width(images, self.cfg.d_out)
        final, last, _ = self.merges[-1]
        if len(manifest["languages"]) <= final:
            raise InvalidInputError(
                f"{data_dir}: {len(manifest['languages'])} languages, but the "
                f"run has a checkpoint for task {final}")
        out = []
        for i, lang in enumerate(manifest["languages"][: final + 1]):
            data = load_dataset(data_dir, lang, split, manifest, images)
            v = vocab_index(self.cfg.mode, self.cfg.oracle_vocab, i)
            out.append((pool(last, data.foreign, v, self.params)[0],
                        images[data.image]))
        return out

    def matrix(self) -> EvalMatrix:
        return EvalMatrix.load_csv(self.path("eval_matrix.csv"))

    def complete_matrix(self) -> EvalMatrix:
        """`matrix()`, which must hold every entry of the steps' rows and
        no other: else the error names eval_matrix.csv and the row."""
        matrix = self.matrix()
        want = {(j, i, d) for j, _, _ in self.merges for i in range(j + 1)
                for d in DIRECTIONS}
        off = sorted(want.symmetric_difference(matrix.entries))
        if off:
            j, i, d = off[0]
            raise InvalidInputError(f"{self.path('eval_matrix.csv')}: " + (
                f"row {j} lacks its {d} entry of task {i}" if off[0] in want
                else f"row {j} is not the row of a step"))
        return matrix

    def loss_curve(self) -> dict[str, list[tuple[float, float]]]:
        """"task t" -> (epoch, mean loss) of each of its rows in
        diagnostics/loss_curve.csv, which must hold one."""
        path = self.path(os.path.join("diagnostics", "loss_curve.csv"))
        series: dict[str, list[tuple[float, float]]] = {}
        for task, epoch, loss in read_lines(
                path, _loss_point, InvalidInputError,
                header=",".join(DIAGNOSTICS["loss_curve.csv"])):
            series.setdefault(f"task {task}", []).append((epoch, loss))
        if not series:
            raise InvalidInputError(f"{path}: no rows")
        return series


def recompute_eval_matrix(run: FinishedRun, data_dir) -> EvalMatrix:
    """Rebuild the test recall matrix from the stored per-task checkpoints."""
    test_set = run.pooled(data_dir, "test")
    matrix = EvalMatrix()
    for step in run.steps():
        score_row(matrix, step.row, step.table, run.params, test_set)
    return matrix


def write_svg_lines(path, series: dict[str, list[tuple[float, float]]],
                    title: str = "") -> None:
    """Tiny dependency-free SVG line plot; one polyline per series."""
    width, height, pad = 640, 400, 48
    pts = [p for s in series.values() for p in s]
    if not pts:
        raise InvalidInputError("write_svg_lines: no data")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0

    def sx(x):
        return pad + (x - x0) / xr * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / yr * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width // 2}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>']
    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                 f'y2="{height - pad}" stroke="black"/>')
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" '
                 f'y2="{height - pad}" stroke="black"/>')
    for n, (name, s) in enumerate(sorted(series.items())):
        color = colors[n % len(colors)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in s)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 16 * n}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    write_atomic(path, "\n".join(parts).encode())


def ar_f(matrix: EvalMatrix, mode: str) -> list[tuple]:
    """(j, direction, AR, F) of each complete row and direction, F None
    in row 0 and in a joint run, whose rows skip the tasks between."""
    return [(j, d, average_recall(matrix, j, d),
             forgetting(matrix, j, d) if j >= 1 and mode != "joint" else None)
            for j in sorted({j for (j, _, _) in matrix.entries})
            for d in DIRECTIONS if matrix.row_complete(j, d)]


def write_ar_f(rows: list[tuple], path) -> dict:
    """Write ar_f.csv, the rows of `ar_f`; returns the AR series."""
    write_csv(path, [["j", "direction", "ar", "f"],
                     *([j, d, repr(ar), "" if f is None else repr(f)]
                       for j, d, ar, f in rows)])
    return {d: [(j, ar) for j, row_d, ar, _ in rows if row_d == d]
            for d in DIRECTIONS}


def write_report(run_dir, out_dir) -> list[str]:
    """Emit AR/F tables, diagnostics copies, histograms and plots. Every
    file the run writes must be there, and the recall matrix must hold
    every entry of the steps' rows and no other. Every input is loaded and
    checked before `out_dir` is made, so a failed report writes nothing."""
    run = FinishedRun(run_dir)
    ar_f_rows = ar_f(run.complete_matrix(), run.cfg.mode)
    series = run.loss_curve()
    copies = {os.path.basename(name): run.read(name)
              for name in ["eval_matrix.csv"] + [
                  os.path.join("diagnostics", n) for n in DIAGNOSTICS]}
    histograms = {step.row: ted_histogram(step.table, bins=64)[:2]
                  for step in run.steps()}

    os.makedirs(out_dir, exist_ok=True)
    written = [os.path.join(out_dir, "ar_f.csv")]
    ar_series = write_ar_f(ar_f_rows, written[0])
    for name, data in copies.items():
        written.append(os.path.join(out_dir, name))
        write_atomic(written[-1], data)
    for t, (edges, counts) in histograms.items():
        written.append(os.path.join(out_dir, f"ted_task{t}.csv"))
        save_histogram_csv(edges, counts, written[-1])

    if any(ar_series.values()):
        p = os.path.join(out_dir, "ar_vs_task.svg")
        write_svg_lines(p, ar_series, "Average Recall@1 per task step")
        written.append(p)
    p = os.path.join(out_dir, "loss_curve.svg")
    write_svg_lines(p, series, "Training loss per epoch")
    written.append(p)
    return written
