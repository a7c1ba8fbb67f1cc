"""The teacher-forced log-likelihood and the Gumbel relaxed unroll as
one-node passes on the row layout, against the step-by-step oracles.

``BoundCaptioner.sequence_log_prob_and_logits`` records B captions as one
node and returns the B x T x K array that backward fills with the
gradient of the pre-mask logits.  The oracles teacher-force one caption per
tape through ``helpers.stepwise_log_prob``: through ``PerGateCaptioner``'s
per-gate tape ops, and through ``BoundCaptioner.step`` (one node per step).
The node sums its products in another order, so values agree to 1e-12, not
bit for bit.
"""

import numpy as np
import pytest

from seqgan import autodiff as ad
from seqgan import captioner as cap
from seqgan import training as tr
from conftest import central_difference, rel_err
from helpers import (PerGateCaptioner, RecordingRng, ReplayRng, gumbel_unroll, replay_steps,
                     stepwise_log_prob)

TOL = 1e-12
ATTENTION = ("context_aware", "att2all")
K = 9


def max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def setup(attention, B, seed=0):
    """A captioner and B captions of mixed lengths 1..6 (EOS last) with
    their images."""
    config = cap.CaptionerConfig(vocab_size=K, hidden_dim=5, num_crops=3, feature_dim=4,
                                 max_len=6, attention=attention)
    g = cap.init_params(config, 40 + seed)
    rng = np.random.default_rng(seed)
    seqs = [cap.TokenSequence([int(t) for t in rng.integers(2, K, size=b % 6)] + [1], True)
            for b in range(B)]
    return g, rng.uniform(-1, 1, (B, 3, 4)), seqs


def node(g, feats, seqs, weights):
    """The node's log p, parameter gradients and logit-gradient array for
    the loss sum_b weights[b] log p_b."""
    tape = ad.Tape()
    bound = cap.BoundCaptioner(tape, g)
    logp, logit_grads = bound.sequence_log_prob_and_logits(feats, cap.CaptionBatch(seqs))
    assert isinstance(logit_grads, np.ndarray) and not logit_grads.any()
    ad.backward(tape, ad.reduce_sum(ad.mul(logp, weights)))
    return logp.data, {n: bound.p[n].grad for n in g.arrays}, logit_grads


def oracle(cls, g, feats, seqs, weights):
    """The same through ``stepwise_log_prob`` on ``cls``, one tape per
    caption: log p per caption, summed gradients, and the step logits'
    gradients padded to B x T x K."""
    logps, grads = [], {n: np.zeros_like(a) for n, a in g.arrays.items()}
    logit_grads = np.zeros((len(seqs), max(len(s.tokens) for s in seqs), K))
    for b, seq in enumerate(seqs):
        tape = ad.Tape()
        bound = cls(tape, g)
        logp, step_logits = stepwise_log_prob(bound, feats[b : b + 1], cap.CaptionBatch([seq]))
        ad.backward(tape, ad.scale(logp, weights[b]))
        logps.append(logp.item())
        for name in grads:
            grads[name] += bound.p[name].grad
        logit_grads[b, : len(seq.tokens)] = np.vstack([t.grad for t in step_logits])
    return np.array(logps), grads, logit_grads


@pytest.mark.parametrize("oracle_cls", (PerGateCaptioner, cap.BoundCaptioner),
                         ids=("per-gate", "step-node"))
@pytest.mark.parametrize("B", (1, 3, 8))
@pytest.mark.parametrize("attention", ATTENTION)
def test_node_matches_stepwise_oracle(attention, B, oracle_cls):
    g, feats, seqs = setup(attention, B)
    weights = np.linspace(-1.0, 2.0, B)
    logp, grads, logit_grads = node(g, feats, seqs, weights)
    ref_logp, ref_grads, ref_logit_grads = oracle(oracle_cls, g, feats, seqs, weights)
    assert max_diff(logp, ref_logp) <= TOL
    for name in g.arrays:
        assert max_diff(grads[name], ref_grads[name]) <= TOL, name
    assert logit_grads.shape == ref_logit_grads.shape
    assert max_diff(logit_grads, ref_logit_grads) <= TOL


@pytest.mark.parametrize("attention", ATTENTION)
def test_logit_gradient_array_vs_central_differences(attention):
    """Each entry of the logit-gradient array against central differences of
    the loss in that logit, the logits taken from a ``step`` replay of each
    caption; padded steps get exactly zero."""
    g, feats, seqs = setup(attention, 3, seed=2)
    weights = np.array([0.5, -1.0, 2.0])
    _, _, logit_grads = node(g, feats, seqs, weights)
    config = g.config
    logits = np.zeros(logit_grads.shape)
    picks, _ = cap.CaptionBatch(seqs).one_hot(K)
    for b, seq in enumerate(seqs):
        prevs = [config.bos_id] + seq.tokens[:-1]
        for t, step in enumerate(replay_steps(g, feats[b], prevs)):
            logits[b, t] = step[-1]

    def loss(z):
        masked = z.copy()
        masked[..., config.bos_id] = -1e30  # as the node masks BOS
        log_probs = masked - masked.max(-1, keepdims=True)
        log_probs -= np.log(np.exp(log_probs).sum(-1, keepdims=True))
        return float((weights[:, None] * (log_probs * picks).sum(-1)).sum())

    assert rel_err(logit_grads, central_difference(loss, logits)) < 1e-7
    for b, seq in enumerate(seqs):
        assert not logit_grads[b, len(seq.tokens):].any()


@pytest.mark.parametrize("estimator", ("gumbel_soft", "gumbel_st"))
@pytest.mark.parametrize("attention", ATTENTION)
def test_relaxed_unroll_rows_match_per_image_unroll(attention, estimator):
    """The relaxed unroll of three images on the row layout: each image's
    rows and hard tokens are those of ``helpers.gumbel_unroll`` (one
    ``step`` per decoder step) replaying that image's row of every B x K
    noise block, within 1e-12."""
    g, feats, _ = setup(attention, 3, seed=4)
    cfg = tr.GanConfig(estimator=estimator, temperature=0.7)
    rng = RecordingRng(3)
    bound = cap.BoundCaptioner(ad.Tape(), g)
    rows, tokens, _ = bound.relaxed_unroll(feats, lambda: tr.gumbel_noise(rng, (3, K)),
                                           cfg.temperature, estimator == "gumbel_st")
    assert all(block.shape == (3, K) for block in rng.blocks)
    assert rows.shape == (3, len(rng.blocks), K)
    for b in range(3):
        tape = ad.Tape()
        ref_rows, _, ref_tokens = gumbel_unroll(
            tape, cap.BoundCaptioner(tape, g), feats[b],
            ReplayRng([block[b : b + 1] for block in rng.blocks]), cfg)
        assert tokens[b] == ref_tokens
        want = np.vstack([row.data for row in ref_rows])
        assert max_diff(rows.data[b, : len(want)], want) <= TOL
