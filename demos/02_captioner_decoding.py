#!/usr/bin/env python3
"""Decode captions before and after cross-entropy training.

Shows greedy decoding, sampling, the attention weights with their sentinel
slot, and the effect of teacher-forced pretraining on a tiny scene set.
"""

import numpy as np

from seqgan import autodiff as ad
from seqgan import data as dat
from seqgan import training as tr
from seqgan.captioner import (BoundCaptioner, CaptionerConfig, greedy_decode,
                              init_params, sample_sentence)

ds = dat.generate_dataset(seed=1, n_objects=5, n_contexts=3, n_images=24,
                          num_crops=4, feature_dim=12)
print(f"dataset: vocab={ds.vocab.size}, {len(ds.train)} training scenes")

config = CaptionerConfig(vocab_size=ds.vocab.size, hidden_dim=20, num_crops=4,
                         feature_dim=12, max_len=12)
params = init_params(config, 0)

scene, refs = ds.train[0]
print("\nreference captions for one scene:")
for ref in refs:
    print("  ", ds.vocab.decode(ref.tokens))

print("\nuntrained greedy decode:",
      ds.vocab.decode(greedy_decode(params, scene.features).tokens))

_, curve = tr.ce_pretrain(params, ds.train, epochs=15,
                          rng=np.random.default_rng(0), lr=8e-3)
print(f"cross entropy: {curve[0]:.3f} -> {curve[-1]:.3f} nats/token")

print("trained greedy decode:  ",
      ds.vocab.decode(greedy_decode(params, scene.features).tokens))
rng = np.random.default_rng(7)
for _ in range(3):
    seq, logp = sample_sentence(params, scene.features, rng)
    print(f"sample (logp {logp:7.3f}):    ", ds.vocab.decode(seq.tokens))

# one decoding step under the microscope: bind the captioner on a no-grad
# tape and step it once from the zero state, fed BOS
bound = BoundCaptioner(ad.Tape(grad=False), params)
h, c, ctx = bound.zero_state()
row, h, c, ctx, attn = bound.step(h, c, ctx, bound.embed_token(config.bos_id),
                                  bound.project_feats(scene.features))
attn = attn.data.reshape(-1)
print("\nfirst-step attention over 4 crops + sentinel:", np.round(attn, 3))
print("sentinel gate (weight on non-visual evidence):", round(float(attn[-1]), 3))
print("attention sums to", attn.sum())
