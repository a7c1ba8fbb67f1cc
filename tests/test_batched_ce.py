"""Batched cross-entropy pretraining against the per-caption loop.

``BoundCaptioner.sequence_log_prob`` teacher-forces a ``CaptionBatch`` as
one padded batch, and ``training.ce_pretrain`` takes one tape, one bind and
one pass per minibatch.  Values and gradients must match the per-caption
loop in ``helpers`` (and its per-gate oracle) to 1e-12: the batch sums its
products in another order, so bit equality is not expected.
"""

import numpy as np
import pytest

from seqgan import autodiff as ad
from seqgan import captioner as cap
from seqgan import training as tr
from conftest import central_difference, rel_err
from helpers import PerGateCaptioner, loop_ce_pretrain, per_caption_ce_grads

TOL = 1e-12
MAX_LEN = 6
ATTENTION = ("context_aware", "att2all")


def max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def setup(attention, seed=0, n_images=5, refs_per_image=2):
    """Captioner plus images whose references cover every length 1..MAX_LEN."""
    config = cap.CaptionerConfig(vocab_size=8, hidden_dim=5, num_crops=3, feature_dim=4,
                                 max_len=MAX_LEN, attention=attention)
    g = cap.init_params(config, 30 + seed)
    rng = np.random.default_rng(seed)
    lengths = iter(np.arange(n_images * refs_per_image) % MAX_LEN + 1)
    dataset = [(rng.uniform(-1, 1, (3, 4)),
                [cap.TokenSequence([int(t) for t in rng.integers(2, 8, size=next(lengths) - 1)]
                                   + [1], True) for _ in range(refs_per_image)])
               for _ in range(n_images)]
    return g, dataset


def batched_ce(g, examples):
    """The loss ``ce_pretrain`` takes on one minibatch, on one tape."""
    tape = ad.Tape()
    bound = cap.BoundCaptioner(tape, g)
    feats = np.array([f for f, _ in examples])
    refs = [ref for _, ref in examples]
    logp, logit_grads = bound.sequence_log_prob_and_logits(feats, cap.CaptionBatch(refs))
    lengths = np.array([len(ref.tokens) for ref in refs])
    ad.backward(tape, ad.reduce_sum(ad.mul(logp, -1.0 / (len(refs) * lengths))))
    return logp.data, {n: bound.p[n].grad for n in g.arrays}, logit_grads


def examples_of(dataset, picks):
    return [(dataset[i][0], dataset[i][1][r]) for i, r in picks]


CASES = {
    "mixed lengths 1..max_len": [(i // 2, i % 2) for i in range(MAX_LEN)],
    "B = 1, max_len": [(2, 1)],
    "B = 1, one token": [(0, 0)],
    # as the last minibatch of 10 captions at batch size 7: 3 captions,
    # the longest last
    "final partial minibatch": [(3, 1), (4, 0), (4, 1)],
}


@pytest.mark.parametrize("attention", ATTENTION)
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_gradients_match_per_caption_loop(attention, case):
    g, dataset = setup(attention)
    examples = examples_of(dataset, CASES[case])
    logp, grads, logit_grads = batched_ce(g, examples)
    for oracle in (cap.BoundCaptioner, PerGateCaptioner):
        ref_grads, ref_nats = per_caption_ce_grads(g, examples, oracle)
        assert abs(-logp.sum() - ref_nats) <= TOL
        for name in g.arrays:
            assert max_diff(grads[name], ref_grads[name]) <= TOL, (oracle.__name__, name)
    for b, (feats, ref) in enumerate(examples):
        tape = ad.Tape()
        bound = cap.BoundCaptioner(tape, g)
        one, one_grads = bound.sequence_log_prob_and_logits(feats[None],
                                                            cap.CaptionBatch([ref]))
        ad.backward(tape, ad.scale(one, -1.0 / (len(examples) * len(ref.tokens))))
        n = len(ref.tokens)
        assert abs(logp[b] - one.item()) <= TOL
        assert max_diff(logit_grads[b, :n], one_grads[0]) <= TOL
        assert not logit_grads[b, n:].any()  # padded steps get no gradient


@pytest.mark.parametrize("attention", ATTENTION)
@pytest.mark.parametrize("size", range(1, 9))
def test_every_batch_size_matches_per_gate(attention, size):
    """B = 1..8 captions of mixed lengths against the per-gate oracle, one
    caption per tape: log-probabilities, parameter gradients and logit
    gradients within 1e-12."""
    g, dataset = setup(attention, n_images=4)
    # lengths 1, 4, 5, 2, 2, 3, 6, 1
    examples = examples_of(dataset, [(k % 4, (k // 4 + k) % 2) for k in range(size)])
    logp, grads, logit_grads = batched_ce(g, examples)
    ref_grads = {k: np.zeros_like(a) for k, a in g.arrays.items()}
    for b, (feats, ref) in enumerate(examples):
        tape = ad.Tape()
        bound = PerGateCaptioner(tape, g)
        one, step_logits = bound.sequence_log_prob_and_logits(feats[None],
                                                              cap.CaptionBatch([ref]))
        ad.backward(tape, ad.scale(one, -1.0 / (size * len(ref.tokens))))
        assert abs(logp[b] - one.item()) <= TOL
        n = len(ref.tokens)
        assert max_diff(logit_grads[b, :n], np.vstack([t.grad for t in step_logits])) <= TOL
        for name in g.arrays:
            ref_grads[name] += bound.p[name].grad
    for name in g.arrays:
        assert max_diff(grads[name], ref_grads[name]) <= TOL, name


@pytest.mark.parametrize("attention", ATTENTION)
def test_padded_batch_gradients_vs_finite_differences(attention):
    """The teacher-forced unroll is one node with a hand-written backward
    through time; central differences of the minibatch loss check every
    parameter gradient of a padded batch (lengths 1, 4 and max_len), with
    no per-gate model involved."""
    g, _ = setup(attention)
    rng = np.random.default_rng(11)
    feats = rng.uniform(-1, 1, (3, 3, 4))
    refs = [cap.TokenSequence([int(t) for t in rng.integers(2, 8, size=n - 1)] + [1], True)
            for n in (1, 4, MAX_LEN)]
    scale = -1.0 / (len(refs) * np.array([len(ref.tokens) for ref in refs]))

    def loss(params, tape):
        bound = cap.BoundCaptioner(tape, params)
        logp = bound.sequence_log_prob(feats, cap.CaptionBatch(refs))
        return bound, ad.reduce_sum(ad.mul(logp, scale))

    tape = ad.Tape()
    bound, root = loss(g, tape)
    ad.backward(tape, root)
    for name in g.arrays:
        def f(arr, name=name):
            trial = g.copy()
            trial.arrays[name] = arr
            return loss(trial, ad.Tape(grad=False))[1].item()

        fd = central_difference(f, g.arrays[name].copy())
        assert rel_err(bound.p[name].grad, fd) < 1e-5, name


def test_single_caption_is_the_batch_of_one():
    """One caption is teacher-forced as ``CaptionBatch([seq])`` against 1 x C x d
    features (``tests/test_caption_batch.py`` checks that the bare forms are
    rejected)."""
    g, dataset = setup("context_aware")
    (feats, ref), = examples_of(dataset, [(1, 1)])
    tape = ad.Tape(grad=False)
    bound = cap.BoundCaptioner(tape, g)
    batch, batch_logits = bound.sequence_log_prob_and_logits(feats[None],
                                                             cap.CaptionBatch([ref]))
    assert batch.shape == (1,) and batch_logits.shape == (1, len(ref.tokens), 8)


def test_caption_batch_lists_each_captions_tokens():
    seqs = [cap.TokenSequence([3, 1], True), cap.TokenSequence([2, 4, 1], True)]
    batch = cap.CaptionBatch(seqs)
    assert batch.tokens == [[3, 1], [2, 4, 1]]


@pytest.mark.parametrize("attention", ATTENTION)
def test_one_epoch_matches_per_caption_loop(attention):
    g, dataset = setup(attention)
    g_loop = g.copy()
    rng, rng_loop = np.random.default_rng(5), np.random.default_rng(5)
    # 10 captions at batch size 4: the last minibatch holds 2
    _, curve = tr.ce_pretrain(g, dataset, 1, rng, lr=0.01, batch_size=4)
    _, curve_loop = loop_ce_pretrain(g_loop, dataset, 1, rng_loop, lr=0.01, batch_size=4)
    assert abs(curve[0] - curve_loop[0]) <= TOL
    for name in g.arrays:
        assert max_diff(g.arrays[name], g_loop.arrays[name]) <= TOL, name
    # only the epoch permutation is drawn
    assert rng.bit_generator.state == rng_loop.bit_generator.state


def test_one_tape_and_bind_per_minibatch(monkeypatch):
    g, dataset = setup("context_aware")
    binds, roots = [], []
    init, backward = cap.BoundCaptioner.__init__, ad.backward
    monkeypatch.setattr(cap.BoundCaptioner, "__init__",
                        lambda self, tape, params: binds.append(tape) or init(self, tape, params))
    monkeypatch.setattr(ad, "backward",
                        lambda tape, root: roots.append(tape) or backward(tape, root))
    tr.ce_pretrain(g, dataset, 2, np.random.default_rng(0), batch_size=4)
    assert len(binds) == len(roots) == 2 * 3  # two epochs of ceil(10 / 4) minibatches
    assert binds == roots


class TestInputErrors:
    def call(self, feats, seqs):
        g, _ = setup("context_aware")
        bound = cap.BoundCaptioner(ad.Tape(), g)
        return bound.sequence_log_prob(feats, cap.CaptionBatch(seqs))

    def test_empty_caption(self):
        with pytest.raises(cap.InputError, match="empty"):
            self.call(np.zeros((2, 3, 4)), [cap.TokenSequence([2, 1]), cap.TokenSequence([])])

    def test_empty_batch(self):
        with pytest.raises(cap.InputError, match="empty"):
            self.call(np.zeros((0, 3, 4)), [])

    @pytest.mark.parametrize("token", (-1, 0, 8))  # 0 is BOS
    def test_bad_token_id(self, token):
        with pytest.raises(cap.InputError, match="token id"):
            self.call(np.zeros((2, 3, 4)), [cap.TokenSequence([2, 1]),
                                            cap.TokenSequence([token, 1])])

    @pytest.mark.parametrize("shape", ((2, 3, 5), (2, 4, 4), (3, 4), (2, 1, 3, 4)))
    def test_wrong_feature_shape(self, shape):
        with pytest.raises(cap.InputError, match="features"):
            self.call(np.zeros(shape), [cap.TokenSequence([2, 1])] * 2)

    @pytest.mark.parametrize("images", (1, 3))
    def test_feature_count_differs_from_caption_count(self, images):
        with pytest.raises(cap.InputError, match="features"):
            self.call(np.zeros((images, 3, 4)), [cap.TokenSequence([2, 1])] * 2)

    def test_not_a_caption(self):
        g, _ = setup("context_aware")
        with pytest.raises(cap.InputError):
            cap.BoundCaptioner(ad.Tape(), g).sequence_log_prob(np.zeros((3, 4)), [2, 1])


class TestCePretrainArguments:
    @pytest.mark.parametrize("batch_size", (0, -8))
    def test_batch_size_below_one(self, batch_size):
        g, dataset = setup("context_aware")
        with pytest.raises(cap.InputError, match="batch_size"):
            tr.ce_pretrain(g, dataset, 1, np.random.default_rng(0), batch_size=batch_size)

    def test_negative_epochs(self):
        g, dataset = setup("context_aware")
        with pytest.raises(cap.InputError, match="epochs"):
            tr.ce_pretrain(g, dataset, -1, np.random.default_rng(0))
