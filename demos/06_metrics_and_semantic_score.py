#!/usr/bin/env python3
"""The evaluation toolbox: n-gram metrics and the CCA semantic score.

Scores a few hand-built candidates against references, then fits a CCA
retrieval model on paired embeddings and shows that matched image-caption
pairs outrank shuffled ones.
"""

import numpy as np

from seqgan import data as dat
from seqgan import metrics as met
from seqgan.captioner import init_params, CaptionerConfig

ds = dat.generate_dataset(seed=9, n_objects=5, n_contexts=4, n_images=40,
                          num_crops=4, feature_dim=12)
corpus = [refs for _, refs in ds.train]
idf = met.fit_idf(corpus)
print(f"idf fitted on {idf.corpus_size} reference sets, "
      f"{len(idf.doc_freq)} distinct n-grams")

scene, refs = ds.train[0]
candidates = {
    "exact reference": list(refs[0].tokens),
    "other paraphrase": list(refs[1].tokens),
    "truncated": list(refs[0].tokens)[:3] + [ds.vocab.eos_id],
    "unrelated": list(ds.train[7][1][0].tokens),
}
print(f"\nreferences: {[ds.vocab.decode(r.tokens) for r in refs[:2]]}")
# one array pass scores every candidate against its own reference set
scores = met.caption_scores(list(candidates.values()), [refs] * len(candidates), idf)
for label, cider, bleu, rouge in zip(candidates, *scores):
    print(f"  {label:17s} cider={cider:6.2f} bleu4={bleu:.3f} rouge={rouge:.3f}")

decoded = [refs[0] for _, refs in ds.test]
print("\nvocabulary coverage of the reference corpus itself:",
      f"{met.vocabulary_coverage(decoded, ds.vocab.size):.1f}%")

# ---- semantic score ---------------------------------------------------------
# caption side: mean embedding of the caption's tokens under a fixed table;
# image side: mean crop feature.  CCA aligns the two views.
table = init_params(CaptionerConfig(vocab_size=ds.vocab.size, hidden_dim=16,
                                    num_crops=4, feature_dim=12, max_len=12),
                    0).arrays["embed"]

def caption_vec(seq):
    return table[list(seq.tokens)].mean(axis=0)

X = np.array([caption_vec(r) for _, refs in ds.train for r in refs])
Y = np.array([scene.features.mean(axis=0) for scene, refs in ds.train
              for _ in refs])
model = met.fit_cca(X, Y, r=4)
print("canonical correlations:", np.round(model.sigma, 3))

rng = np.random.default_rng(3)
paired, shuffled = [], []
for i, (scene, refs) in enumerate(ds.test):
    paired.append(met.semantic_score(model, caption_vec(refs[0]),
                                     scene.features.mean(axis=0)))
    j = (i + 1 + int(rng.integers(len(ds.test) - 1))) % len(ds.test)
    shuffled.append(met.semantic_score(model, caption_vec(ds.test[j][1][0]),
                                       scene.features.mean(axis=0)))
print(f"mean semantic score: paired={np.mean(paired):.3f} "
      f"shuffled={np.mean(shuffled):.3f}")
