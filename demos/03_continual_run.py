"""Run the continual pipeline end to end on a small benchmark and compare
the baseline (fixed init, no update scaling) against the full method.

Runs in a few seconds. Prints the per-direction average recall and
forgetting for both runs, read back from each run's directory; expect
the full method to forget visibly less.
"""

import os
import tempfile

from lexcl.bench import BenchConfig, gen_benchmark
from lexcl.harness import RunConfig, run_sequence
from lexcl.metrics import EvalMatrix
from lexcl.report import ar_f

root = tempfile.mkdtemp(prefix="lexcl_demo_")
data = os.path.join(root, "data")
print(f"generating benchmark under {root} ...")
gen_benchmark(BenchConfig(n_concepts=120, n_languages=4, n_train=600,
                          n_val=80, n_test=80, d_out=32, seed=0), data)


def run(name, **kw):
    cfg = RunConfig(data_dir=data, out_dir=os.path.join(root, name),
                    dim=32, d_out=32, vocab_size_per_task=400, seed=0, **kw)
    run_sequence(cfg)
    matrix = EvalMatrix.load_csv(os.path.join(cfg.out_dir, "eval_matrix.csv"))
    final = {d: (ar, f) for _, d, ar, f in ar_f(matrix, cfg.mode)}
    print(f"{name:10s} AR img2txt {final['img2txt'][0]:6.2f} "
          f"txt2img {final['txt2img'][0]:6.2f}   "
          f"F img2txt {final['img2txt'][1]:6.2f} "
          f"txt2img {final['txt2img'][1]:6.2f}")
    return matrix


print("\ntraining (baseline, then full method)...")
base = run("baseline", teir_init=False, teir_reg=False)
full = run("full", teir_init=True, teir_reg=True)

print("\nper-task Recall@1 after the final task (img2txt):")
last = max(j for (j, _, _) in base.entries)
for i in range(last + 1):
    b = base.get(last, i, "img2txt")
    f = full.get(last, i, "img2txt")
    print(f"  task {i}: baseline {b:6.2f}   full {f:6.2f}")

print(f"\nrun artifacts left in {root} — point `lexcl report` at a run dir "
      "for CSV tables and SVG plots.")
