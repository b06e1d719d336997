"""lexcl benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload continual --seed 0 --seconds 10 --trace 0

A run does the workload's number of whole rounds, and more while fewer
than --seconds have passed. A round is LANES identical lanes run at
once, one per core, so that each round gives LANES samples of every
timing. A lane drives lexcl the way a user does, in fresh single-threaded
interpreters (child.py): `lexcl gen-data` (SETUPS times in the first
round, once in later ones), the last of them followed by `lexcl train`
and a fixed number of `lexcl eval` calls per workload. The outputs of
the first lane are checked by checks.py; every later lane must write the
same checkpoints and recall matrices, byte for byte.

--trace 0 reports the end-to-end metrics, each a median over every lane
of the run: setup_s (interpreter start to the end of gen-data), train_s,
eval_s and peak_rss_mb. --trace 1 runs a plain lane and a traced lane
(tracer.py), at once when there are two cores, and reports the
per-layer metrics of the traced one. The last line of standard output
is the result as one JSON object; the lines before it give the
environment, the raw timings, AR, forgetting and the final checkpoint's
sha256. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
DEADLINE_S = 170.0

# workload -> (gen-data config keys, train config keys, eval calls per
# lane, rounds per run). Short evals are repeated more, so that each
# eval_s median covers a few seconds. `continual` has the shortest evals
# and takes them in two rounds, about 25 s apart, as the machine's speed
# drifts on that scale; `joint` uses a quarter of the captions so that
# all runs of all workloads fit the benchmark's time budget.
WORKLOADS = {
    "continual": ({}, {}, 5, 2),
    "joint": ({"bench.n_train": 500}, {"run.mode": "joint"}, 4, 1),
    "large-gallery": ({"bench.n_val": 1000, "bench.n_test": 1000},
                      {"train.epochs": 2}, 1, 1),
}
SETUPS = 2
# Lanes per round: one per core, at most two. Two lanes give two samples
# of each timing in the wall time of one.
LANES = min(2, len(os.sched_getaffinity(0)))


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return env


def _child(argv: list[str], work: str, deadline: float) -> dict:
    result_path = os.path.join(work, "result.json")
    log_path = os.path.join(work, "child.log")
    with open(log_path, "w") as log:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), *argv,
             "--result", result_path],
            stdout=log, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("a round did not finish in time") from None
    if proc.returncode != 0:
        with open(log_path) as f:
            tail = f.read()[-2000:]
        raise BenchError(f"child exited with {proc.returncode}:\n{tail}")
    with open(result_path) as f:
        result = json.load(f)
    os.remove(result_path)
    result["spawned"] = spawned
    return result


def _write_config(path: str, keys: dict) -> str:
    with open(path, "w") as f:
        f.writelines(f"{k} = {v}\n" for k, v in keys.items())
    return path


def run_lane(workload: str, seed: int, work: str, deadline: float,
              setups: int, evals: int, spans: str | None = None) -> dict:
    """Run one lane in `work`; the trained run is left in work/run."""
    data_keys, run_keys = WORKLOADS[workload][:2]
    os.makedirs(work)
    cfg = ["--data-config", _write_config(os.path.join(work, "data.cfg"),
                                          {**data_keys, "bench.seed": seed}),
           "--run-config", _write_config(os.path.join(work, "run.cfg"),
                                         {**run_keys, "run.seed": seed}),
           "--run", os.path.join(work, "run")]
    setup_s, codes = [], []
    for k in range(setups - 1):
        data = os.path.join(work, f"setup{k}")
        res = _child([*cfg, "--data", data, "--setup-only"], work, deadline)
        setup_s.append(res["setup_end"] - res["spawned"])
        codes += res["codes"]
        shutil.rmtree(data)
    argv = [*cfg, "--data", os.path.join(work, "data"), "--evals", str(evals)]
    res = _child(argv + (["--spans", spans] if spans else []), work, deadline)
    setup_s.append(res["setup_end"] - res["spawned"])
    res["setup_s"] = setup_s
    res["codes"] = codes + res["codes"]
    if any(res["codes"]) or len(res["eval_s"]) != evals:
        with open(os.path.join(work, "child.log")) as f:
            tail = f.read()[-2000:]
        raise BenchError(f"a lexcl command failed, exit codes {res['codes']}:\n{tail}")
    return res


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "loadavg": os.getloadavg()}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    names = {}
    for layer in tracer.LAYERS:
        names.update({f"{layer}_s": "s", f"{layer}_self_s": "s",
                      f"{layer}_calls": "count"})
    names.update({"bpe.merge_ranks_per_scope": "ratio",
                  "bpe.encode_per_distinct": "ratio",
                  "bpe.train_bpe_merges": "count",
                  "optim.rows_updated": "count", "optim.rows_lam0": "count",
                  "metrics.recall_queries": "count",
                  "embeddings.checkpoint_bytes": "B",
                  "trace.train_s": "s", "trace.overhead_s": "s"})
    return names


def _checkpoint_bytes(run_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(run_dir, n))
               for n in os.listdir(run_dir) if n.startswith("ckpt_task"))


def _outputs_digest(run_dir: str) -> str:
    """sha256 over the checkpoints and recall matrices of a trained run."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(run_dir)):
        if name.startswith(("ckpt_task", "eval_matrix")):
            with open(os.path.join(run_dir, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "lexcl")):
        print(f"error: no lexcl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    env = _environment()
    work_root = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    lanes, failures, first = [], [], {}

    def checked_round(name, setups, evals, spans=(None,) * LANES):
        """Run one lane per entry of `spans` at once; a path traces that lane.
        checks.py checks the first lane of the run. Every later lane ran the
        same seed, so it must write the same outputs, byte for byte."""
        works = [os.path.join(work_root, f"{name}-lane{k}") for k in range(len(spans))]
        with ThreadPoolExecutor(len(spans)) as pool:
            futures = [pool.submit(run_lane, args.workload, args.seed, work,
                                   deadline, setups, evals, path)
                       for work, path in zip(works, spans)]
            results = [f.result() for f in futures]
        for r, work in zip(results, works):
            r["run"] = os.path.join(work, "run")
            if not first:
                fails, first["facts"] = checks.check_run(
                    os.path.join(work, "data"), r["run"], args.seed)
                failures.extend(fails)
                first["digest"] = _outputs_digest(r["run"])
            elif _outputs_digest(r["run"]) != first["digest"]:
                failures.append(f"{os.path.basename(work)}: checkpoints or recall "
                                "matrices differ from the first lane's")
            lanes.append(r)
        return results

    try:
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}.json")
            if LANES > 1:
                plain, traced = checked_round("trace", 1, 1, (None, spans))
            else:
                plain, = checked_round("plain", 1, 1)
                traced, = checked_round("traced", 1, 1, (spans,))
            traced["layers"]["embeddings.checkpoint_bytes"] = \
                _checkpoint_bytes(traced["run"])
        else:
            _, _, evals, min_rounds = WORKLOADS[args.workload]
            rounds = 0
            while True:
                checked_round(f"round{rounds}", SETUPS if rounds == 0 else 1, evals)
                rounds += 1
                elapsed = time.perf_counter() - start
                next_end = elapsed * (rounds + 1) / rounds
                if ((rounds >= min_rounds and elapsed >= args.seconds)
                        or next_end > DEADLINE_S):
                    break
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    attempted = sum(len(r["codes"]) for r in lanes)

    print("env " + json.dumps(env))
    for k, r in enumerate(lanes):
        print(f"lane {k}: setup_s {r['setup_s']} train_s {r['train_s']} "
              f"eval_s {r['eval_s']} peak_rss_mb {r['peak_rss_mb']}")
    print("results " + json.dumps(first["facts"]))
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(s for r in lanes for s in r["setup_s"]), "s"),
            "train_s": (statistics.median(r["train_s"] for r in lanes), "s"),
            "eval_s": (statistics.median(e for r in lanes for e in r["eval_s"]), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in lanes), "MB"),
        }
    else:
        layers = traced["layers"]
        layers["trace.train_s"] = traced["train_s"]
        layers["trace.overhead_s"] = traced["train_s"] - plain["train_s"]
        if traced["absent"]:
            print("absent: " + " ".join(traced["absent"]))
        wall = traced["train_s"] + sum(traced["eval_s"])
        print("self-time shares of train+eval " + json.dumps({
            group: round(sum(layers[f"{n}_self_s"] for n in members) / wall, 3)
            for group, members in tracer.GROUPS.items()}))
        metrics = {name: (layers[name], unit)
                   for name, unit in per_layer_names().items()}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": 0,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
