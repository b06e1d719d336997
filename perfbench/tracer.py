"""Per-layer timing of a lexcl run, installed from outside the package.

Each layer is one public function or method of a lexcl module, named
`<module>.<function>`. `Tracer.install()` replaces it with a timing
wrapper at every module attribute that binds it: harness, metrics,
report and vocab import functions by name, so patching only the
defining module would miss most calls. Spans (layer, start, end,
parent span) are kept in memory and written out by `dump()`. A layer
that a later version of lexcl no longer defines is reported as absent,
which is not an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = (
    "bench.gen_benchmark",
    "bench.load_dataset",
    "bpe.train_bpe",
    "bpe.encode",
    "bpe.merge_ranks",
    "vocab.global_ids",
    "encoders.encode_text",
    "encoders.encode_text_grad",
    "losses.total_loss",
    "optim.step",
    "metrics.recall_at_k",
    "metrics.fisher_trace",
    "metrics.mean_sample_loss",
    "harness.run_pretrain",
    "harness.run_task",
    "harness.run_joint",
    "harness.finalize",
    "embeddings.expand",
    "embeddings.save_checkpoint",
    "embeddings.load_checkpoint",
    "report.recompute_eval_matrix",
)

# Counters gathered by the wrappers, with the layer each is read from.
COUNTERS = {
    "bpe.merge_ranks_per_scope": "bpe.merge_ranks",
    "bpe.encode_per_distinct": "bpe.encode",
    "bpe.train_bpe_merges": "bpe.train_bpe",
    "optim.rows_updated": "optim.step",
    "optim.rows_lam0": "optim.step",
    "metrics.recall_queries": "metrics.recall_at_k",
}

# Layer groups whose self-time shares tell the workloads apart.
GROUPS = {
    "tokenizer": ("bpe.train_bpe", "bpe.encode", "bpe.merge_ranks",
                  "vocab.global_ids"),
    "encoder_loss_optim": ("encoders.encode_text", "encoders.encode_text_grad",
                           "losses.total_loss", "optim.step"),
    "retrieval": ("metrics.recall_at_k",),
    "diagnostics": ("metrics.fisher_trace", "metrics.mean_sample_loss"),
}


def _resolve(layer: str):
    """(owner class or None, function) for a layer, or (None, None)."""
    mod_name, attr = layer.split(".")
    try:
        mod = importlib.import_module("lexcl." + mod_name)
    except ImportError:
        return None, None
    fn = vars(mod).get(attr)
    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
        return None, fn
    for cls in vars(mod).values():
        if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                and inspect.isfunction(vars(cls).get(attr))):
            return cls, vars(cls)[attr]
    return None, None


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, float, float, int]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._counts = {"bpe.train_bpe_merges": 0, "optim.rows_updated": 0,
                        "optim.rows_lam0": 0, "metrics.recall_queries": 0}
        self._hooks = {"bpe.merge_ranks": self._on_merge_ranks,
                       "bpe.encode": self._on_encode,
                       "bpe.train_bpe": self._on_train_bpe,
                       "optim.step": self._on_step,
                       "metrics.recall_at_k": self._on_recall}
        # Scopes are held so that their ids stay unique for the whole run.
        self._rank_scopes: dict[int, object] = {}
        self._encode_scopes: dict[int, object] = {}
        self._encode_keys: set[tuple[bytes, int]] = set()

    # --- counters, called after the traced function returns -------------

    def _on_merge_ranks(self, args, kwargs, result):
        self._rank_scopes.setdefault(id(args[0]), args[0])

    def _on_encode(self, args, kwargs, result):
        text = _arg(args, kwargs, 0, "text")
        scope = _arg(args, kwargs, 1, "scope")
        if isinstance(text, str):
            text = text.encode("utf-8")
        self._encode_keys.add((text, id(scope)))
        self._encode_scopes.setdefault(id(scope), scope)

    def _on_train_bpe(self, args, kwargs, result):
        self._counts["bpe.train_bpe_merges"] += len(result.rules)

    def _on_step(self, args, kwargs, result):
        grads = _arg(args, kwargs, 1, "grads")
        lam = np.asarray(_arg(args, kwargs, 2, "lam"))
        rows = np.fromiter(grads, dtype=np.int64, count=len(grads))
        skipped = int(np.count_nonzero(lam[rows] == 0.0))
        self._counts["optim.rows_lam0"] += skipped
        self._counts["optim.rows_updated"] += len(rows) - skipped

    def _on_recall(self, args, kwargs, result):
        self._counts["metrics.recall_queries"] += len(
            _arg(args, kwargs, 0, "query_feats"))

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        for index, layer in enumerate(LAYERS):
            owner, fn = _resolve(layer)
            if fn is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(index, layer, fn)
            if owner is not None:
                setattr(owner, fn.__name__, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name != "lexcl" and not name.startswith("lexcl."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)

    def _wrap(self, index, layer, fn):
        spans, stack, hooks = self.spans, self._stack, self._hooks
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                spans[slot] = (index, start, clock(), parent)
                stack.pop()
            hook = hooks.get(layer)
            if hook is not None:
                try:
                    hook(args, kwargs, return_value)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError):
                    # The function's signature or result changed: its
                    # counters are reported as absent, the timing stays.
                    del hooks[layer]
                    self.absent.extend(c for c, src in COUNTERS.items()
                                       if src == layer)
            return return_value

        return wrapper

    # --- results ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Inclusive time, self time and call count per layer, plus counters."""
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        layer = arr[:, 0].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.int64)
        covered = np.zeros(len(arr))
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        self_time = dur - covered
        out: dict[str, float] = {}
        for index, name in enumerate(LAYERS):
            sel = layer == index
            out[f"{name}_s"] = float(dur[sel].sum())
            out[f"{name}_self_s"] = float(self_time[sel].sum())
            out[f"{name}_calls"] = int(sel.sum())
        out["bpe.merge_ranks_per_scope"] = (
            out["bpe.merge_ranks_calls"] / len(self._rank_scopes)
            if self._rank_scopes else 0.0)
        out["bpe.encode_per_distinct"] = (
            out["bpe.encode_calls"] / len(self._encode_keys)
            if self._encode_keys else 0.0)
        out.update(self._counts)
        for name in self.absent:
            if name in COUNTERS:
                out[name] = 0
        return out

    def dump(self, path) -> None:
        """Write every span as [layer, start_us, end_us, parent]."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[i, round((s - origin) * 1e6), round((e - origin) * 1e6), p]
                for i, s, e, p in self.spans]
        with open(path, "w") as f:
            json.dump({"layers": LAYERS, "absent": self.absent,
                       "spans": rows}, f, separators=(",", ":"))
