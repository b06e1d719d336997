"""Command-line entry point.

Exit codes: 0 success; 1 usage or config error (InvalidInputError);
2 runtime fault (NumericError, DegenerateFeatureError, any other
LexclError); 3 I/O error (CheckpointError, DatasetError, OSError).
Verbosity is controlled by the LEXCL_LOG environment variable
(quiet|info)."""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import bench, config as config_mod
from .errors import (CheckpointError, DatasetError, InvalidInputError,
                     LexclError, NumericError)
from .gradcheck import run_grad_check
from .harness import RunConfig, run_sequence
from .report import FinishedRun, ar_f, recompute_eval_matrix, write_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _info(msg: str) -> None:
    if os.environ.get("LEXCL_LOG", "info") != "quiet":
        print(msg)


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _load_cfg(path) -> dict:
    return {} if path is None else config_mod.load_config_file(path)


def cmd_gen_data(args) -> int:
    bc = config_mod.build(bench.BenchConfig, _load_cfg(args.config))
    bench.gen_benchmark(bc, args.out)
    config_mod.dump_config(bc, os.path.join(args.out, "effective_config.txt"))
    manifest = bench.load_manifest(args.out)
    _info(f"generated {args.out}: {manifest['languages']} languages, "
          f"splits {manifest['splits']}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_cfg(args.config)
    # a flag sets its run.* key, its value parsed as in a config file
    for name in ("teir_init", "teir_reg", "oracle_vocab", "mode", "seed"):
        value = getattr(args, name)
        if value is not None:
            cfg[f"run.{name}"] = config_mod.parse_value(str(value))
    t0 = time.perf_counter()
    rc = config_mod.build(RunConfig, cfg, data_dir=args.data, out_dir=args.out)
    run_sequence(rc)
    matrix = FinishedRun(args.out).matrix()
    last = max(j for j, _, _ in matrix.entries)
    final = [row for row in ar_f(matrix, rc.mode) if row[0] == last]
    ar = {d: a for _, d, a, _ in final}
    f = {d: v for _, d, _, v in final if v is not None}
    _info(f"run finished in {time.perf_counter() - t0:.1f}s: AR {ar}, F {f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    run = FinishedRun(args.run)
    stored = run.complete_matrix()
    matrix = recompute_eval_matrix(run, args.data)
    out_path = os.path.join(args.run, "eval_matrix_recomputed_test.csv")
    matrix.save_csv(out_path)
    _info(f"wrote {out_path}")
    if stored.entries != matrix.entries:
        return _fail(EXIT_RUNTIME, f"{out_path} differs from the stored "
                                   "eval_matrix.csv")
    _info("recomputed matrix matches the stored one exactly")
    return EXIT_OK


def cmd_report(args) -> int:
    written = write_report(args.run, args.out)
    for p in written:
        _info(f"wrote {p}")
    return EXIT_OK


def cmd_grad_check(args) -> int:
    res = run_grad_check(seed=args.seed)
    if res.passed():
        _info(f"grad-check passed: max relative error {res.max_rel_err:.3e}")
        return EXIT_OK
    print(f"error: grad-check failed at row {res.worst_row} "
          f"col {res.worst_col}: analytic {res.analytic:.6e} vs "
          f"numeric {res.numeric:.6e} (rel {res.max_rel_err:.3e})",
          file=sys.stderr)
    return EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lexcl",
        description="Continual vocabulary learning engine: data generation, "
                    "training, evaluation and reporting.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic benchmark")
    g.add_argument("--config", default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="run a full training sequence")
    t.add_argument("--config", default=None)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--teir-init", choices=["on", "off"], default=None)
    t.add_argument("--teir-reg", choices=["on", "off"], default=None)
    t.add_argument("--oracle-vocab", action="store_true", default=None)
    t.add_argument("--mode", choices=["continual", "joint"], default=None)
    t.add_argument("--seed", type=int, default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="recompute a run's test recall matrix")
    e.add_argument("--run", required=True)
    e.add_argument("--data", required=True)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("report", help="emit AR/F tables and diagnostics")
    r.add_argument("--run", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)

    c = sub.add_parser("grad-check", help="verify analytic gradients "
                                          "against finite differences")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_grad_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InvalidInputError as e:
        return _fail(EXIT_USAGE, str(e))
    except NumericError as e:
        return _fail(EXIT_RUNTIME, str(e))
    except (CheckpointError, DatasetError, OSError) as e:
        return _fail(EXIT_IO, str(e))
    except LexclError as e:
        return _fail(EXIT_RUNTIME, str(e))


if __name__ == "__main__":
    sys.exit(main())
