#!/usr/bin/env python3
"""Gradient-quality diagnostics for the three estimators.

First the exact story on an enumerable model: the SCST estimator's
expectation equals the true gradient (unbiasedness) and the greedy baseline
shrinks its variance.  Then the empirical story: minibatch logit-gradient
norms of SCST vs Gumbel straight-through on identical batch streams.
"""

import numpy as np

from seqgan import autodiff as ad
from seqgan import data as dat
from seqgan import discriminator as disc
from seqgan import metrics as met
from seqgan import training as tr
from seqgan.captioner import (BoundCaptioner, CaptionBatch, CaptionerConfig,
                              TokenSequence, greedy_decode, init_params)

# ---- exact enumeration on a 4-token model ----------------------------------
gcfg = CaptionerConfig(vocab_size=4, hidden_dim=3, num_crops=2, feature_dim=3,
                       max_len=3)
g = init_params(gcfg, 7)
d = disc.init_discriminator(disc.DiscriminatorConfig(vocab_size=4, hidden_dim=3,
                                                     num_crops=2, feature_dim=3),
                            107, "coatt")
feats = np.random.default_rng(2).uniform(-1, 1, (2, 3))

seqs = []
def walk(prefix):
    for tok in range(4):
        if tok == gcfg.bos_id:
            continue
        cur = prefix + [tok]
        if tok == gcfg.eos_id or len(cur) == gcfg.max_len:
            seqs.append(TokenSequence(cur, True))
        else:
            walk(cur)
walk([])
# every sequence against the one image, as one batch
all_feats, batch = np.repeat(feats[None], len(seqs), axis=0), CaptionBatch(seqs)
plain = BoundCaptioner(ad.Tape(grad=False), g)
probs = np.exp(plain.sequence_log_prob(all_feats, batch).data)
rewards = np.log(disc.score(d, all_feats, batch))
baseline = np.log(disc.score(d, feats[None], CaptionBatch([greedy_decode(g, feats)]))[0])
print(f"enumerated {len(seqs)} sequences, total probability {probs.sum():.12f}")

grads = []
for s in seqs:
    tape = ad.Tape()
    bound = BoundCaptioner(tape, g)
    ad.backward(tape, bound.sequence_log_prob(feats[None], CaptionBatch([s])))
    grads.append(np.concatenate([bound.p[n].grad.reshape(-1)
                                 for n in sorted(g.arrays)]))
grads = np.vstack(grads)

est_mean = (probs * (rewards - baseline)) @ grads
tape = ad.Tape()
bound = BoundCaptioner(tape, g)
total = ad.reduce_sum(ad.mul(ad.exp(bound.sequence_log_prob(all_feats, batch)),
                             rewards - baseline))
ad.backward(tape, total)
truth = np.concatenate([bound.p[n].grad.reshape(-1) for n in sorted(g.arrays)])
print(f"unbiasedness: max |E[estimate] - true gradient| = "
      f"{np.max(np.abs(est_mean - truth)):.2e}")

for b, label in ((baseline, "greedy baseline"), (0.0, "no baseline")):
    gmat = (rewards - b)[:, None] * grads
    var = probs @ (gmat * gmat) - (probs @ gmat) ** 2
    print(f"mean per-component variance, {label}: {var.mean():.3e}")

# ---- minibatch norms on a trained desk model -------------------------------
print("\ntraining the desk-scale comparison models (a few seconds)...")
ds = dat.generate_dataset(seed=5, n_objects=6, n_contexts=4, n_images=40,
                          num_crops=4, feature_dim=14, noise=0.15)
gcfg = CaptionerConfig(vocab_size=ds.vocab.size, hidden_dim=20, num_crops=4,
                       feature_dim=14, max_len=12)
dcfg = disc.DiscriminatorConfig(vocab_size=ds.vocab.size, hidden_dim=20,
                                num_crops=4, feature_dim=14)
g0 = init_params(gcfg, 5)
tr.ce_pretrain(g0, ds.train, 15, np.random.default_rng(0), lr=8e-3)
idf = met.fit_idf([refs for _, refs in ds.train])

for est in ("scst", "gumbel_st"):
    g = g0.copy()
    d = disc.init_discriminator(dcfg, 99, "coatt")
    cfg = tr.GanConfig(estimator=est, reward="logD", temperature=0.1, epochs=6,
                       d_pretrain_epochs=15, batch_size=8, d_lr=1e-2,
                       g_lr=1e-3, seed=3)
    tr.train_gan(g, d, ds.train, cfg)
    probe_cfg = tr.GanConfig(estimator="scst", reward="logD", temperature=0.1,
                             batch_size=12, seed=3)
    norms, _ = tr.grad_norm_probe(g, d, ds.train, est, 60,
                                  np.random.default_rng(42), probe_cfg, idf=idf)
    arr = np.array(norms)
    print(f"{est:10s} on its own training run: "
          f"mean norm={arr.mean():.4f} variance={arr.var():.2e}")
