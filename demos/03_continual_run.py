"""Run the continual pipeline end to end on a small benchmark and compare
the baseline (fixed init, no update scaling) against the full method.

Runs in a few seconds. Prints the per-direction average recall and
forgetting for both runs; expect the full method to forget visibly less.
"""

import os
import tempfile

from lexcl.bench import BenchConfig, gen_benchmark
from lexcl.harness import RunConfig, run_sequence

root = tempfile.mkdtemp(prefix="lexcl_demo_")
data = os.path.join(root, "data")
print(f"generating benchmark under {root} ...")
gen_benchmark(BenchConfig(n_concepts=120, n_languages=4, n_train=600,
                          n_val=80, n_test=80, d_out=32, seed=0), data)


def run(name, **kw):
    cfg = RunConfig(data_dir=data, out_dir=os.path.join(root, name),
                    dim=32, d_out=32, vocab_size_per_task=400, seed=0, **kw)
    art = run_sequence(cfg)
    print(f"{name:10s} AR img2txt {art.final_ar['img2txt']:6.2f} "
          f"txt2img {art.final_ar['txt2img']:6.2f}   "
          f"F img2txt {art.final_f['img2txt']:6.2f} "
          f"txt2img {art.final_f['txt2img']:6.2f}")
    return art


print("\ntraining (baseline, then full method)...")
base = run("baseline", teir_init=False, teir_reg=False)
full = run("full", teir_init=True, teir_reg=True)

print("\nper-task Recall@1 after the final task (img2txt):")
last = max(j for (j, _, _) in base.eval_matrix.entries)
for i in range(last + 1):
    b = base.eval_matrix.get(last, i, "img2txt")
    f = full.eval_matrix.get(last, i, "img2txt")
    print(f"  task {i}: baseline {b:6.2f}   full {f:6.2f}")

print(f"\nrun artifacts left in {root} — point `lexcl report` at a run dir "
      "for CSV tables and SVG plots.")
