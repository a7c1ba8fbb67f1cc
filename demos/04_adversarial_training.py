#!/usr/bin/env python3
"""A complete small adversarial run, step by step.

Cross-entropy pretraining, discriminator pretraining, then alternating
updates with the SCST estimator.  Watch the discriminator learn to put
real > generated > random while the generator chases it.
"""

import numpy as np

from seqgan import data as dat
from seqgan import discriminator as disc
from seqgan import metrics as met
from seqgan import training as tr
from seqgan.captioner import CaptionerConfig, greedy_decode, init_params

ds = dat.generate_dataset(seed=5, n_objects=6, n_contexts=4, n_images=48,
                          num_crops=4, feature_dim=14, noise=0.15)
gcfg = CaptionerConfig(vocab_size=ds.vocab.size, hidden_dim=20, num_crops=4,
                       feature_dim=14, max_len=12)
dcfg = disc.DiscriminatorConfig(vocab_size=ds.vocab.size, hidden_dim=20,
                                num_crops=4, feature_dim=14)

g = init_params(gcfg, 0)
_, curve = tr.ce_pretrain(g, ds.train, epochs=15, rng=np.random.default_rng(0),
                          lr=8e-3)
print(f"cross entropy pretraining: {curve[0]:.3f} -> {curve[-1]:.3f} nats/token")

idf = met.fit_idf([refs for _, refs in ds.train])
d = disc.init_discriminator(dcfg, 1, "coatt")
cfg = tr.GanConfig(estimator="scst", reward="logD", epochs=4,
                   d_pretrain_epochs=20, batch_size=8, d_lr=1e-2, g_lr=5e-4,
                   seed=2)

def epoch_hook(epoch, g_params, d_params):
    decoded = [greedy_decode(g_params, s.features) for s, _ in ds.val]
    return {
        "val_cider": float(met.caption_scores(decoded, [refs for _, refs in ds.val],
                                              idf).cider.mean()),
        "coverage": met.vocabulary_coverage(decoded, ds.vocab.size),
    }

checkpoints, records = tr.train_gan(g, d, ds.train, cfg, idf=idf,
                                    epoch_hook=epoch_hook)
print("\nper-epoch records:")
for rec in records:
    print(f"  epoch {rec['epoch']}: D(real)={rec['d_real']:.3f} "
          f"D(generated)={rec['d_fake']:.3f} D(random)={rec['d_random']:.3f} "
          f"val CIDEr={rec['val_cider']:.2f} coverage={rec['coverage']:.1f}%")

scene, refs = ds.test[0]
print("\nfinal greedy decode:", ds.vocab.decode(greedy_decode(g, scene.features).tokens))
print("a reference:        ", ds.vocab.decode(refs[0].tokens))
print(f"\n{len(checkpoints)} checkpoints captured (initial + one per epoch); "
      "each stores both players, optimizer moments and the rng state.")
