"""Post-run evaluation and reporting: recompute the recall matrix from
stored checkpoints, and emit AR/F tables, diagnostics CSVs, embedding
histograms and simple SVG line plots."""

from __future__ import annotations

import os
from dataclasses import replace

from . import bpe, harness
from . import vocab as vocab_mod
from .embeddings import (load_checkpoint, read_json, read_lines, vocab_hash,
                         write_atomic, write_csv)
from .encoders import make_text_params, pooling
from .errors import InvalidInputError
from .bench import load_dataset, load_images, load_manifest
from .harness import DIAGNOSTICS, RunConfig, check_image_width, vocab_index
from .metrics import (DIRECTIONS, EvalMatrix, average_recall, forgetting,
                      save_histogram_csv, score_row, ted_histogram)

# More tasks than any run has, as a run holds every task's data in
# memory: a registry naming a later task is refused before a plan that
# long is built.
_MAX_TASKS = 1 << 16


def _load_run_config(run_dir, *names) -> list:
    """The values of fields `names` in the run's config.json, each checked
    against its declaration on RunConfig."""
    path = os.path.join(run_dir, "config.json")
    if not os.path.exists(path):
        raise InvalidInputError(f"{run_dir}: missing config.json; not a run directory")
    cfg = read_json(path, InvalidInputError)
    missing = [n for n in names if not isinstance(cfg, dict) or n not in cfg]
    if missing:
        raise InvalidInputError(f"{path}: no field {missing[0]!r}")
    try:
        run = replace(RunConfig("", ""), **{n: cfg[n] for n in names})
    except InvalidInputError as e:
        raise InvalidInputError(f"{path}: {e}") from None
    return [getattr(run, n) for n in names]


def _read_bytes(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _steps(run_dir, mode: str) -> list[tuple[int, vocab_mod.VocabState]]:
    """(row, vocab state after it) of each step of the run: the rows are
    the task indexes in registry_manifest.json, which must be the rows of
    `harness.steps` for a `mode` run of rows[-1] + 1 tasks, and each
    state is rebuilt from the row's vocab and merges files. A row whose
    files hold the previous row's bytes (joint and oracle-vocab runs)
    reuses its parsed vocab, as the run did."""
    path = os.path.join(run_dir, "registry_manifest.json")
    try:
        rows = [rec["task_index"] for rec in read_json(path, InvalidInputError)]
    except (KeyError, TypeError):
        rows = []
    n = rows[-1] + 1 if rows and all(type(t) is int for t in rows) else 0
    if not (0 < n <= _MAX_TASKS and rows == [
            row for row, _ in harness.steps(mode, n)]):
        raise InvalidInputError(f"{path}: the task_index values are not the "
                                f"steps of a {mode} run")
    steps = []
    state = vocab_mod.new_state()
    tv, seen = None, None
    for t in rows:
        paths = (os.path.join(run_dir, f"vocab_task{t}.txt"),
                 os.path.join(run_dir, f"merges_task{t}.txt"))
        files = tuple(map(_read_bytes, paths))
        if files != seen:
            tv, seen = bpe.vocab_from_files(*paths), files
        state, _ = vocab_mod.merge_vocab(state, tv)
        steps.append((t, state))
    return steps


def _tables(run_dir, steps, dim):
    """(row, table) of each of `steps`, the table loaded when reached and
    checked against the step's vocab state and `dim` columns."""
    for row, state in steps:
        yield row, load_checkpoint(
            os.path.join(run_dir, f"ckpt_task{row}.bin"),
            expected_rows=state.size,
            expected_vocab_hash=vocab_hash(state.tokens), expected_dim=dim)


def recompute_eval_matrix(run_dir, data_dir) -> EvalMatrix:
    """Rebuild the test recall matrix from the stored per-task checkpoints."""
    dim, d_out, l_max, encoder_seed, mode, oracle_vocab = _load_run_config(
        run_dir, "dim", "d_out", "l_max", "encoder_seed", "mode", "oracle_vocab")
    manifest = load_manifest(data_dir)
    images = load_images(data_dir)
    check_image_width(images, d_out)
    params = make_text_params(dim, d_out, l_max, encoder_seed)
    steps = _steps(run_dir, mode)
    final, last = steps[-1]
    if len(manifest["languages"]) <= final:
        raise InvalidInputError(
            f"{data_dir}: {len(manifest['languages'])} languages, but the run "
            f"has a checkpoint for task {final}")

    # Global ids are append-only, so each task reads the same under the
    # last state as under the state of any row that scores it.
    test_set = []
    for i, lang in enumerate(manifest["languages"][: final + 1]):
        data = load_dataset(data_dir, lang, "test", manifest, images)
        ids, lengths = last.tokenize(data.foreign,
                                     vocab_index(mode, oracle_vocab, i))
        test_set.append((pooling(ids, lengths, last.size, params),
                         images[data.image]))
    matrix = EvalMatrix()
    for j, table in _tables(run_dir, steps, dim):
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


def _loss_point(line: str) -> tuple[str, float, float]:
    """(task, epoch, mean loss) of a loss_curve.csv row."""
    task, epoch, mean_loss, _ = line.split(",")
    return task, float(epoch), float(mean_loss)


def write_report(run_dir, out_dir) -> list[str]:
    """Emit AR/F tables, diagnostics copies, histograms and plots. Every
    file the run writes must be there, and every input is loaded and
    checked before `out_dir` is made, so a failed report writes nothing."""
    mode, dim = _load_run_config(run_dir, "mode", "dim")
    matrix_path = os.path.join(run_dir, "eval_matrix.csv")
    matrix = EvalMatrix.load_csv(matrix_path)
    try:
        ar_f_rows = ar_f(matrix, mode)
    except InvalidInputError as e:  # a row that F reads is incomplete
        raise InvalidInputError(f"{matrix_path}: {e}") from None
    diag_dir = os.path.join(run_dir, "diagnostics")
    loss_path = os.path.join(diag_dir, "loss_curve.csv")
    series: dict[str, list[tuple[float, float]]] = {}
    for task, epoch, loss in read_lines(
            loss_path, _loss_point, InvalidInputError,
            header=",".join(DIAGNOSTICS["loss_curve.csv"])):
        series.setdefault(f"task {task}", []).append((epoch, loss))
    if not series:
        raise InvalidInputError(f"{loss_path}: no rows")
    copies = {os.path.basename(src): _read_bytes(src)
              for src in [matrix_path] + [os.path.join(diag_dir, name)
                                          for name in DIAGNOSTICS]}
    histograms = {t: ted_histogram(table, bins=64)[:2]
                  for t, table in _tables(run_dir, _steps(run_dir, mode), dim)}

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
