"""One round of a workload, run by `run.py` in a fresh interpreter.

Drives lexcl as a user does, through `lexcl.cli.main`: `gen-data`, then
(unless --setup-only) `train` and `eval` repeated --evals times. Writes
a JSON result to --result: the clock reading at the end of `gen-data`
(run.py subtracts the time it started this process), the wall time of
each later command, every exit code and the peak resident memory. With
--spans, the calls into lexcl's modules are traced (see tracer.py), the
spans are written to that file and their summary joins the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--data-config", required=True)
    p.add_argument("--run-config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--evals", type=int, default=1)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    from lexcl.cli import main as lexcl

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    codes = [lexcl(["gen-data", "--config", args.data_config, "--out", args.data])]
    result = {"setup_end": time.perf_counter(), "eval_s": []}
    if not args.setup_only and codes[0] == 0:
        start = time.perf_counter()
        codes.append(lexcl(["train", "--config", args.run_config,
                            "--data", args.data, "--out", args.run]))
        result["train_s"] = time.perf_counter() - start
        for _ in range(args.evals if codes[-1] == 0 else 0):
            start = time.perf_counter()
            codes.append(lexcl(["eval", "--run", args.run, "--data", args.data]))
            result["eval_s"].append(time.perf_counter() - start)
    result["codes"] = codes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["absent"] = tracer.absent
        tracer.dump(args.spans)
    with open(args.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
