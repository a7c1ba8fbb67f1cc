#!/usr/bin/env python3
"""Tour of the reverse-mode tape: record, differentiate, verify.

Builds a small expression with every op family, runs backward once, and
checks a few gradients against central finite differences.
"""

import numpy as np

from seqgan import autodiff as ad

rng = np.random.default_rng(0)

# ---- record a computation -------------------------------------------------
tape = ad.Tape()
x = tape.tensor(rng.uniform(-1, 1, (3, 4)))
w = tape.tensor(rng.uniform(-1, 1, (4, 2)))

hidden = ad.tanh(ad.matmul(x, w))              # 3 x 2
attn = ad.softmax(ad.scale(hidden, 2.0))       # rows on the simplex, at temperature 0.5
pooled = ad.reduce_max(attn, axis=0)           # winner per column
loss = ad.reduce_sum(ad.log(ad.add(ad.sigmoid(pooled), tape.tensor(1.0))))

print("loss value:", loss.item())
print("tape length:", len(tape.nodes), "nodes")

# ---- differentiate --------------------------------------------------------
ad.backward(tape, loss)
print("dloss/dx row 0:", np.round(x.grad[0], 6))

# ---- verify against finite differences ------------------------------------
def loss_at(x_arr):
    t = ad.Tape()
    xx, ww = t.tensor(x_arr), t.tensor(w.data)
    h = ad.tanh(ad.matmul(xx, ww))
    p = ad.reduce_max(ad.softmax(ad.scale(h, 2.0)), axis=0)
    return ad.reduce_sum(ad.log(ad.add(ad.sigmoid(p), t.tensor(1.0)))).item()

h = 1e-6
fd = np.zeros_like(x.data)
flat_x = x.data.copy()
for i in range(flat_x.size):
    up, down = flat_x.copy(), flat_x.copy()
    up.reshape(-1)[i] += h
    down.reshape(-1)[i] -= h
    fd.reshape(-1)[i] = (loss_at(up) - loss_at(down)) / (2 * h)

err = np.max(np.abs(fd - x.grad)) / max(np.max(np.abs(fd)), 1e-8)
print(f"max relative gradient error vs finite differences: {err:.2e}")

# ---- guard rails -----------------------------------------------------------
print("\nsoftmax([1000, 0]) stays finite:",
      ad.softmax(ad.Tape().tensor([1000.0, 0.0])).data)
try:
    ad.backward(tape, loss)
except ad.TapeError as e:
    print("second backward correctly rejected:", e)
