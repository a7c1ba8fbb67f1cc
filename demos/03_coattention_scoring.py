#!/usr/bin/env python3
"""How the two discriminators judge image-caption pairs.

Scores aligned, shuffled and corrupted captions with the co-attention and
joint-embedding variants, and shows that crop order never matters.
"""

import numpy as np

from seqgan import autodiff as ad
from seqgan import data as dat
from seqgan import discriminator as disc
from seqgan.captioner import CaptionBatch

ds = dat.generate_dataset(seed=4, n_objects=5, n_contexts=3, n_images=20,
                          num_crops=4, feature_dim=12)
dcfg = disc.DiscriminatorConfig(vocab_size=ds.vocab.size, hidden_dim=24,
                                num_crops=4, feature_dim=12)
coatt = disc.init_discriminator(dcfg, 0, "coatt")
joint = disc.init_discriminator(dcfg, 0, "jointemb")

scene, refs = ds.train[0]
other_scene, other_refs = ds.train[5]
aligned = refs[0]
mismatched = other_refs[0]

print("aligned caption:   ", ds.vocab.decode(aligned.tokens))
print("mismatched caption:", ds.vocab.decode(mismatched.tokens))

# both captions against the scene, scored as one batch of two
pair_feats = np.stack([scene.features, scene.features])
for name, params in (("co-attention", coatt), ("joint-embedding", joint)):
    s_aligned, s_mism = disc.score(params, pair_feats, CaptionBatch([aligned, mismatched]))
    print(f"\n{name} (untrained): aligned={s_aligned:.3f} mismatched={s_mism:.3f}")

# the internals: bind the co-attention model on a no-grad tape and score one
# caption as a batch of one; alpha (crops) and beta (words) come back as
# 1 x 1 x n rows
tape = ad.Tape(grad=False)
bound = disc.BoundDiscriminator(tape, coatt)
out = bound.score_sequence(scene.features[None], CaptionBatch([aligned]))
score = out["score"].item()
alpha, beta = out["alpha"].data.reshape(-1), out["beta"].data.reshape(-1)
print("\nco-attention internals:")
print("  crop attention alpha:", np.round(alpha, 3), "sum", alpha.sum())
print("  word attention beta: ", np.round(beta, 3), "sum", beta.sum())
print("  pooled embeddings:   ", out["e_img"].shape, out["e_cap"].shape, "(B x 1 x m)")

perm = np.random.default_rng(0).permutation(4)
out_p = bound.score_sequence(scene.features[perm][None], CaptionBatch([aligned]))
alpha_p = out_p["alpha"].data.reshape(-1)
print(f"\ncrop permutation: score delta = {abs(score - out_p['score'].item()):.2e} "
      f"(alpha permutes identically: {np.allclose(alpha_p, alpha[perm])})")

# relaxed captions: one-hot rows reproduce hard scoring exactly
onehot = np.zeros((len(aligned.tokens), ds.vocab.size))
onehot[np.arange(len(aligned.tokens)), aligned.tokens] = 1.0
soft = bound.score_soft_rows(scene.features, [tape.tensor(onehot)])["score"].item()
print("one-hot relaxed scoring matches hard scoring:", abs(soft - score) <= 1e-12)
