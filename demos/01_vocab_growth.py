"""Walk through the tokenizer and vocabulary machinery.

Trains a tiny BPE vocab per "language", union-merges them into one
evolving vocabulary, and shows the per-token update coefficients (λ)
that each merge returns, plus the old/overlap/new partition they imply:
old ids get λ = 0, overlap ids 1/(c+1) and new ids 1.
"""

import numpy as np

from lexcl import bpe, vocab

corpora = {
    "task 0 (anchor)": ["the cat sat on the mat", "the dog sat on the rug"] * 4,
    "task 1 (shares 'the'/'sat')": ["le cat sat avec the chien",
                                    "le chien sat avec the cat"] * 4,
    "task 2 (disjoint)": ["xyzzy qwrk xyzzy qwrk", "qwrk zzyx qwrk zzyx"] * 4,
}

state = vocab.new_state()

for t, (name, corpus) in enumerate(corpora.items()):
    tv = bpe.train_bpe(corpus, target_size=280, task_index=t)
    merges = [bpe.token_to_text(tv.tokens[r.result]) for r in tv.rules]
    print(f"\n=== {name} ===")
    print(f"task vocab: 256 bytes + {len(tv.rules)} merges")
    print(f"first merges: {merges[:8]}")

    before = state.size
    state, lam = vocab.merge_vocab(state, tv)
    n_overlap = np.count_nonzero(lam[:before])
    print(f"union vocab size: {state.size}")
    print(f"partition: old={before - n_overlap} overlap={n_overlap} "
          f"new={state.size - before}")

    values, freq = np.unique(lam, return_counts=True)
    print("lambda values:", {float(v): int(c) for v, c in zip(values, freq)})

sample = b"the cat sat"
ids = state.tokenize([sample], 0)[0].tolist()
print(f"\nencode {sample!r} with task-0 rules -> {ids}")
print("decoded tokens:", [state.tokens[i] for i in ids])
