"""The fused LSTM cells against the per-gate oracles in ``helpers``.

The captioner fuses its four gates and the sentinel gate into one fused
numpy cell (the sentinel is the cell's second output gate), and attends over
the sentinel as one more value row; the discriminator fuses its word LSTM
the same way and runs it as one node (``tests/test_word_lstm.py`` checks
that node on padded batches).  Values, every parameter gradient and the
logit gradients must match the per-gate formulation to 1e-12.  Both models store
the fused weight and bias, and their initial values must equal the per-gate
draws concatenated.
"""

import numpy as np
import pytest

from seqgan import autodiff as ad
from seqgan import captioner as cap
from seqgan import data as dat
from seqgan import discriminator as disc
from seqgan import training as tr
from helpers import (PerGateCaptioner, PerGateDiscriminator, RecordingRng, ReplayRng,
                     bound_decode, gumbel_grad, multinomial_pick, per_gate_init,
                     replay_steps)

TOL = 1e-12
ATTENTION = ("context_aware", "att2all")


def max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def make_models(seed, attention, variant="coatt"):
    gcfg = cap.CaptionerConfig(vocab_size=9, hidden_dim=6, num_crops=3, feature_dim=5,
                               max_len=6, attention=attention)
    dcfg = disc.DiscriminatorConfig(vocab_size=9, hidden_dim=5, num_crops=3, feature_dim=5)
    g = cap.init_params(gcfg, 10 + seed)
    d = disc.init_discriminator(dcfg, 20 + seed, variant)
    feats = np.random.default_rng(seed).uniform(-1, 1, (3, 5))
    return g, d, feats


def teacher_forced(cls, params, feats, seq):
    tape = ad.Tape()
    bound = cls(tape, params)
    logp, logits = bound.sequence_log_prob_and_logits(feats[None], cap.CaptionBatch([seq]))
    ad.backward(tape, logp)
    # the fused path returns the 1 x T x K logit gradients as an array, the
    # oracle one 1 x K logit tensor per step
    logit_grads = logits[0] if isinstance(logits, np.ndarray) \
        else np.vstack([t.grad for t in logits])
    return logp.item(), {n: bound.p[n].grad for n in params.arrays}, logit_grads


@pytest.mark.parametrize("hidden", (1, 4))
@pytest.mark.parametrize("model", ATTENTION + disc.VARIANTS)
def test_init_equals_per_gate_draws(model, hidden):
    if model in ATTENTION:
        config = cap.CaptionerConfig(vocab_size=9, hidden_dim=hidden, num_crops=3,
                                     feature_dim=5, attention=model)
        arrays, variant = cap.init_params(config, 17).arrays, None
    else:
        config = disc.DiscriminatorConfig(vocab_size=9, hidden_dim=hidden, num_crops=3,
                                          feature_dim=5)
        arrays, variant = disc.init_discriminator(config, 17, model).arrays, model
    ref = per_gate_init(config, 17, variant)
    assert sorted(arrays) == sorted(ref)
    for name in ref:
        assert np.array_equal(arrays[name], ref[name]), name


@pytest.mark.parametrize("attention", ATTENTION)
@pytest.mark.parametrize("seed", range(3))
def test_teacher_forcing_matches_per_gate(seed, attention):
    g, _, feats = make_models(seed, attention)
    for tokens in ([2, 1], [3, 4, 5, 6, 7, 1], [8, 8, 2, 3, 4, 5]):
        seq = cap.TokenSequence(tokens, tokens[-1] == 1)
        value, grads, logit_grads = teacher_forced(cap.BoundCaptioner, g, feats, seq)
        ref_value, ref_grads, ref_logit_grads = teacher_forced(PerGateCaptioner, g, feats, seq)
        assert abs(value - ref_value) <= TOL
        for name in g.arrays:
            assert max_diff(grads[name], ref_grads[name]) <= TOL, name
        assert logit_grads.shape == ref_logit_grads.shape == (len(tokens), 9)
        assert max_diff(logit_grads, ref_logit_grads) <= TOL


@pytest.mark.parametrize("attention", ATTENTION)
def test_decode_step_matches_per_gate(attention):
    g, _, feats = make_models(0, attention)
    prevs = [g.config.bos_id, 2, 5, 7]
    steps = replay_steps(g, feats, prevs)
    ref_steps = replay_steps(g, feats, prevs, bound_cls=PerGateCaptioner)
    assert len(steps) == len(ref_steps) == len(prevs)
    for step, ref_step in zip(steps, ref_steps):  # row, h, c, ctx, attn, logits
        for a, b in zip(step, ref_step):
            assert a.shape == b.shape and max_diff(a, b) <= TOL
        if attention == "att2all":  # attn's last slot, the sentinel gate
            assert step[4][0, -1] == ref_step[4][0, -1] == 0.0


@pytest.mark.parametrize("attention", ATTENTION)
def test_decoders_match_per_gate(attention):
    """The decoders call the plain step with no bind, so the oracle decodes
    through ``PerGateCaptioner`` explicitly: the same picks, and every
    step's word distribution within 1e-12."""
    g, _, feats = make_models(1, attention)
    dists = []

    def greedy_pick(probs):
        dists.append(probs.copy())
        return cap._argmax(probs)

    greedy, = cap._decode(g, feats, greedy_pick)
    ref_tokens, ref_dists = bound_decode(g, feats, cap._argmax, bound_cls=PerGateCaptioner)
    assert greedy.tokens == ref_tokens == cap.greedy_decode(g, feats).tokens
    assert len(dists) == len(ref_dists)
    for got, want in zip(dists, ref_dists):
        assert max_diff(got, want) <= TOL
    sample, logp = cap.sample_sentence(g, feats, np.random.default_rng(3))
    pick, ref_logp = multinomial_pick(np.random.default_rng(3))
    ref_sample, _ = bound_decode(g, feats, pick, bound_cls=PerGateCaptioner)
    assert sample.tokens == ref_sample and abs(ref_logp[0] - logp) <= TOL


@pytest.mark.parametrize("variant", disc.VARIANTS)
@pytest.mark.parametrize("estimator", ("gumbel_soft", "gumbel_st"))
@pytest.mark.parametrize("attention", ATTENTION)
def test_gumbel_unroll_through_discriminator_matches_per_gate(attention, estimator, variant):
    """The relaxed unroll node on a batch of three images against the
    per-image tape loop of ``PerGateCaptioner`` steps scored by
    ``PerGateDiscriminator``, row b replaying row b of every noise block."""
    g, d, feats = make_models(2, attention, variant)
    feats = np.stack([feats, -feats, feats[::-1]])
    cfg = tr.GanConfig(estimator=estimator, temperature=0.7, fm_image_weight=0.3,
                       fm_caption_weight=0.2)
    gts = [cap.TokenSequence(t, True) for t in ([2, 3, 4, 1], [5, 1], [6, 7, 8, 2, 1])]
    rng = RecordingRng(5)
    out = tr.gumbel_grad(g, d, feats, rng, cfg, gt_seqs=gts)
    refs = [gumbel_grad(g, d, feats[b], ReplayRng([blk[b : b + 1] for blk in rng.blocks]), cfg,
                        gt_seq=gts[b], want_logit_grads=True, bound_cls=PerGateCaptioner,
                        disc_cls=PerGateDiscriminator) for b in range(3)]
    assert out["tokens"] == [ref["tokens"] for ref in refs]
    assert len(rng.blocks) == max(len(t) for t in out["tokens"]) > 1
    assert abs(out["loss"] - np.mean([ref["loss"] for ref in refs])) <= TOL
    assert max_diff(out["score"], [ref["score"] for ref in refs]) <= TOL
    for name in g.arrays:
        want = np.mean([ref["grads"][name] for ref in refs], axis=0)
        assert max_diff(out["grads"][name], want) <= TOL, name
    for got, ref in zip(out["logit_grads"], refs, strict=True):
        want, n = ref["logit_grads"] / 3, len(ref["tokens"])
        assert want.shape == (n, 9) and max_diff(got[:n], want) <= TOL
        assert not got[n:].any()


@pytest.mark.parametrize("variant", disc.VARIANTS)
def test_discriminator_objective_matches_per_gate(variant):
    _, d, feats = make_models(3, "context_aware", variant)
    real = cap.TokenSequence([2, 3, 4, 1], True)
    fake = cap.TokenSequence([5, 5, 6, 7, 8, 1], True)
    mismatched = cap.TokenSequence([8, 1], True)

    def objective(cls):
        tape = ad.Tape()
        bound = cls(tape, d)
        value = tr.discriminator_objective(bound, feats[None], [real], [fake], [mismatched])
        ad.backward(tape, value)
        rows, _ = cap.CaptionBatch([fake]).one_hot(d.config.vocab_size)
        hidden = bound.hidden_states(bound.embed_rows(rows)).data
        return value.item(), {n: bound.p[n].grad for n in d.arrays}, hidden

    value, grads, hidden = objective(disc.BoundDiscriminator)
    ref_value, ref_grads, ref_hidden = objective(PerGateDiscriminator)
    assert abs(value - ref_value) <= TOL
    assert max_diff(hidden, ref_hidden) <= TOL
    for name in d.arrays:
        assert max_diff(grads[name], ref_grads[name]) <= TOL, name


def test_teacher_forced_nodes_per_token():
    """Tape size is deterministic: the teacher-forced log-likelihood is one
    node, so a caption records the same 11 nodes whatever its length: the
    ten parameter leaves of the bind and that node (the tape-composed step
    recorded up to 25 per token, the per-gate formulation about 66)."""
    ds = dat.generate_dataset(seed=0, n_objects=4, n_contexts=3, n_images=12,
                              num_crops=3, feature_dim=10)
    config = cap.CaptionerConfig(vocab_size=ds.vocab.size, hidden_dim=8, num_crops=3,
                                 feature_dim=10, max_len=12)
    params = cap.init_params(config, 0)
    counts = {}
    for scene, refs in ds.train[:3]:
        for ref in refs:
            tape = ad.Tape()
            cap.BoundCaptioner(tape, params).sequence_log_prob(scene.features[None],
                                                               cap.CaptionBatch([ref]))
            counts[len(ref.tokens)] = len(tape.nodes)
    assert len(counts) > 1 and set(counts.values()) == {11}
