"""Post-run evaluation and reporting: recompute the recall matrix from
stored checkpoints, and emit AR/F tables, diagnostics CSVs, embedding
histograms and simple SVG line plots."""

from __future__ import annotations

import csv
import json
import os
import re
import shutil

from . import bpe
from . import vocab as vocab_mod
from .embeddings import load_checkpoint, vocab_hash
from .encoders import make_text_params
from .errors import InvalidInputError
from .bench import load_dataset, load_images, load_manifest
from .harness import vocab_index
from .metrics import (EvalMatrix, average_recall, forgetting, save_histogram_csv,
                      score_row, ted_histogram)


def _load_run_config(run_dir) -> dict:
    path = os.path.join(run_dir, "config.json")
    if not os.path.exists(path):
        raise InvalidInputError(f"{run_dir}: missing config.json; not a run directory")
    with open(path) as f:
        return json.load(f)


def _task_rows(run_dir) -> list[int]:
    rows = []
    for name in os.listdir(run_dir):
        m = re.fullmatch(r"ckpt_task(\d+)\.bin", name)
        if m:
            rows.append(int(m.group(1)))
    if not rows:
        raise InvalidInputError(f"{run_dir}: no checkpoints found")
    return sorted(rows)


def _vocab_state_through(run_dir, rows) -> list[vocab_mod.VocabState]:
    """Vocabulary state after each stored task, rebuilt from the saved
    per-task vocab/merge files."""
    states = []
    state = vocab_mod.new_state()
    for t in rows:
        tv = bpe.vocab_from_files(os.path.join(run_dir, f"vocab_task{t}.txt"),
                                  os.path.join(run_dir, f"merges_task{t}.txt"),
                                  task_index=t)
        state, _ = vocab_mod.merge_vocab(state, tv)
        states.append(state)
    return states


def recompute_eval_matrix(run_dir, data_dir, split: str = "test") -> EvalMatrix:
    """Rebuild the recall matrix from the stored per-task checkpoints."""
    cfg = _load_run_config(run_dir)
    manifest = load_manifest(data_dir)
    provider = load_images(data_dir)
    params = make_text_params(cfg["dim"], cfg["d_out"], cfg["l_max"],
                              cfg["encoder_seed"])
    rows = _task_rows(run_dir)
    states = _vocab_state_through(run_dir, rows)

    # Global ids are append-only, so each task reads the same under the
    # last state as under the state of any row that scores it.
    test_set = []
    for i, lang in enumerate(manifest["languages"][: rows[-1] + 1]):
        data = load_dataset(data_dir, lang, split, manifest, provider)
        test_set.append((states[-1].tokenize(
            [tr.foreign_text for tr in data],
            vocab_index(cfg["mode"], cfg["oracle_vocab"], i)),
            provider.features[[tr.image_index for tr in data]]))
    matrix = EvalMatrix()
    for j, state in zip(rows, states):
        table = load_checkpoint(os.path.join(run_dir, f"ckpt_task{j}.bin"),
                                expected_rows=state.size,
                                expected_vocab_hash=vocab_hash(state.tokens))
        score_row(matrix, j, table, params, test_set)
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
    with open(path, "w") as f:
        f.write("\n".join(parts))


def write_report(run_dir, out_dir) -> list[str]:
    """Emit AR/F tables, diagnostics copies, histograms and plots."""
    cfg = _load_run_config(run_dir)
    matrix_path = os.path.join(run_dir, "eval_matrix.csv")
    if not os.path.exists(matrix_path):
        raise InvalidInputError(f"{run_dir}: missing eval_matrix.csv")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    matrix = EvalMatrix.load_csv(matrix_path)
    rows = sorted({j for (j, _, _) in matrix.entries})
    ar_f_path = os.path.join(out_dir, "ar_f.csv")
    ar_series = {"img2txt": [], "txt2img": []}
    with open(ar_f_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["j", "direction", "ar", "f"])
        for j in rows:
            for d in ("img2txt", "txt2img"):
                if not matrix.row_complete(j, d):
                    continue
                ar = average_recall(matrix, j, d)
                ar_series[d].append((j, ar))
                f_val = ""
                if j >= 1 and cfg["mode"] != "joint":
                    f_val = repr(forgetting(matrix, j, d))
                w.writerow([j, d, repr(ar), f_val])
    written.append(ar_f_path)

    shutil.copy(matrix_path, os.path.join(out_dir, "eval_matrix.csv"))
    written.append(os.path.join(out_dir, "eval_matrix.csv"))
    diag_dir = os.path.join(run_dir, "diagnostics")
    for name in ("fisher.csv", "dist_stats.csv", "loss_curve.csv",
                 "final_loss.csv"):
        src = os.path.join(diag_dir, name)
        if os.path.exists(src):
            dst = os.path.join(out_dir, name)
            shutil.copy(src, dst)
            written.append(dst)

    for t in _task_rows(run_dir):
        table = load_checkpoint(os.path.join(run_dir, f"ckpt_task{t}.bin"))
        edges, counts, _, _, _ = ted_histogram(table, bins=64)
        p = os.path.join(out_dir, f"ted_task{t}.csv")
        save_histogram_csv(edges, counts, p)
        written.append(p)

    if any(ar_series.values()):
        p = os.path.join(out_dir, "ar_vs_task.svg")
        write_svg_lines(p, ar_series, "Average Recall@1 per task step")
        written.append(p)
    loss_csv = os.path.join(diag_dir, "loss_curve.csv")
    if os.path.exists(loss_csv):
        series: dict[str, list[tuple[float, float]]] = {}
        with open(loss_csv, newline="") as f:
            for k, rec in enumerate(csv.DictReader(f)):
                series.setdefault(f'task {rec["task"]}', []).append(
                    (float(rec["epoch"]), float(rec["mean_loss"])))
        p = os.path.join(out_dir, "loss_curve.svg")
        write_svg_lines(p, series, "Training loss per epoch")
        written.append(p)
    return written
