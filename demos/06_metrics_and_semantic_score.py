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
# caption side: mean embedding of the caption's tokens under a frozen table;
# image side: mean crop feature.  CCA aligns the two views.
table = init_params(CaptionerConfig(vocab_size=ds.vocab.size, hidden_dim=16,
                                    num_crops=4, feature_dim=12, max_len=12),
                    0).arrays["embed"]
scorer = met.SemanticScorer.fit(
    table, [r for _, refs in ds.train for r in refs],
    np.array([scene.features for scene, refs in ds.train for _ in refs]), 4)
print("canonical correlations:", np.round(scorer.model.sigma, 3))

# each test image against its own first reference, then against another
# image's, every row scored in one pass
rng = np.random.default_rng(3)
n = len(ds.test)
others = [(i + 1 + int(rng.integers(n - 1))) % n for i in range(n)]
feats = np.array([scene.features for scene, _ in ds.test])
paired = scorer.score([refs[0] for _, refs in ds.test], feats)
shuffled = scorer.score([ds.test[j][1][0] for j in others], feats)
print(f"mean semantic score: paired={np.mean(paired):.3f} "
      f"shuffled={np.mean(shuffled):.3f}")
