"""One caption-batch API.

Every model and estimator entry point takes B captions against B x C x d
features; one caption is ``CaptionBatch([seq])`` against ``feats[None]``.
A bare ``TokenSequence`` or one C x d image is rejected with an
``InputError`` naming the expected type or shape.  ``CaptionBatch.one_hot``
builds the padded one-hot rows both models read, and
``discriminator.score`` returns the B plain scores of one no-grad bind.
"""

import numpy as np
import pytest

from seqgan import autodiff as ad
from seqgan import captioner as cap
from seqgan import discriminator as disc
from seqgan import training as tr
from helpers import replay_steps, score_one

K, C, D = 7, 3, 4
SEQ = cap.TokenSequence([2, 3, 1], True)
ONE_IMAGE = r"image features must be B x C x d = 1 x 3 x 4, got \(3, 4\)"
BARE_CAPTION = "expected a CaptionBatch, got TokenSequence"


def models(variant="coatt"):
    g = cap.init_params(cap.CaptionerConfig(vocab_size=K, hidden_dim=5, num_crops=C,
                                            feature_dim=D, max_len=6), 3)
    d = disc.init_discriminator(disc.DiscriminatorConfig(K, 5, C, D), 4, variant)
    feats = np.random.default_rng(5).uniform(-1, 1, (1, C, D))
    return g, d, feats


class TestRetiredFormsRejected:
    def test_sequence_log_prob(self):
        g, _, feats = models()
        bound = cap.BoundCaptioner(ad.Tape(), g)
        for method in (bound.sequence_log_prob, bound.sequence_log_prob_and_logits):
            with pytest.raises(cap.InputError, match=BARE_CAPTION):
                method(feats, SEQ)
            with pytest.raises(cap.InputError, match=ONE_IMAGE):
                method(feats[0], cap.CaptionBatch([SEQ]))

    @pytest.mark.parametrize("variant", disc.VARIANTS)
    def test_score_sequence(self, variant):
        _, d, feats = models(variant)
        bound = disc.BoundDiscriminator(ad.Tape(), d)
        with pytest.raises(cap.InputError, match=BARE_CAPTION):
            bound.score_sequence(feats, SEQ)
        with pytest.raises(cap.InputError, match=ONE_IMAGE):
            bound.score_sequence(feats[0], cap.CaptionBatch([SEQ]))
        with pytest.raises(cap.InputError, match=BARE_CAPTION):
            disc.score(d, feats, SEQ)

    def test_forward(self):
        _, d, feats = models()
        bound = disc.BoundDiscriminator(ad.Tape(), d)
        rows, lengths = cap.CaptionBatch([SEQ]).one_hot(K)
        with pytest.raises(cap.InputError, match=f"token rows must be B x T x {K}"):
            bound.forward(feats, SEQ, lengths)
        with pytest.raises(cap.InputError, match=ONE_IMAGE):
            bound.forward(feats[0], rows, lengths)

    def test_discriminator_objective(self):
        _, d, feats = models()
        bound = disc.BoundDiscriminator(ad.Tape(), d)
        with pytest.raises(cap.InputError, match="must be lists of captions"):
            tr.discriminator_objective(bound, feats, SEQ, SEQ, SEQ)
        with pytest.raises(cap.InputError, match=ONE_IMAGE):
            tr.discriminator_objective(bound, feats[0], [SEQ], [SEQ], [SEQ])

    def test_gumbel_grad_before_any_draw(self):
        g, d, feats = models()
        cfg = tr.GanConfig(estimator="gumbel_st", fm_caption_weight=0.5)
        rng = np.random.default_rng(0)
        with pytest.raises(cap.InputError,
                           match="a CaptionBatch holds a list of captions, got TokenSequence"):
            tr.gumbel_grad(g, d, feats, rng, cfg, gt_seqs=SEQ)
        # C = 3 images read off the leading axis of one 3 x 4 image
        with pytest.raises(cap.InputError, match=r"B x C x d = 3 x 3 x 4, got \(3, 4\)"):
            tr.gumbel_grad(g, d, feats[0], rng, cfg, gt_seqs=[SEQ])
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("n_gts", (2, 4))
    def test_gumbel_grad_ground_truth_count_before_any_draw(self, n_gts):
        """With feature matching, one ground truth per image, checked before
        the relaxed unroll draws any noise."""
        g, d, _ = models()
        feats = np.random.default_rng(8).uniform(-1, 1, (3, C, D))
        cfg = tr.GanConfig(estimator="gumbel_soft", fm_image_weight=0.5)
        rng = np.random.default_rng(0)
        with pytest.raises(cap.InputError, match=f"gt_seqs must hold one caption per image: "
                                                 f"{n_gts} captions for 3 images"):
            tr.gumbel_grad(g, d, feats, rng, cfg, gt_seqs=[SEQ] * n_gts)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestOneHot:
    def test_mixed_lengths_are_padded_identity_rows(self):
        tokens = [[3, 1], [2, 4, 5, 6, 1], [1], [6, 6, 1]]
        rows, lengths = cap.CaptionBatch([cap.TokenSequence(t, True) for t in tokens]).one_hot(K)
        want = np.stack([np.vstack([np.eye(K)[t], np.zeros((5 - len(t), K))])
                         for t in tokens])
        assert lengths == [2, 5, 1, 3]
        assert rows.shape == (4, 5, K) and np.array_equal(rows, want)

    @pytest.mark.parametrize("seqs,message", [
        ([], "caption batch is empty"),
        ([SEQ, cap.TokenSequence([], False)], "caption is empty"),
        ([SEQ, cap.TokenSequence([2, -1], True)], "invalid token id -1"),
        ([cap.TokenSequence([K, 1], True)], f"invalid token id {K}"),
    ], ids=["empty-batch", "empty-caption", "negative-id", "id-past-vocabulary"])
    def test_bad_batches_rejected(self, seqs, message):
        with pytest.raises(cap.InputError, match=message):
            cap.CaptionBatch(seqs).one_hot(K)

    def test_not_a_list_rejected(self):
        with pytest.raises(cap.InputError, match="holds a list of captions, got tuple"):
            cap.CaptionBatch((SEQ,))

    def test_both_models_read_the_same_rows(self):
        """The discriminator scores exactly ``forward`` on the rows, and the
        captioner picks each valid step's word from them: its log-likelihood
        is that of the rows under the word distributions of a step-by-step
        replay of each caption."""
        g, d, _ = models()
        batch = cap.CaptionBatch([SEQ, cap.TokenSequence([4, 1], True)])
        feats = np.random.default_rng(7).uniform(-1, 1, (2, C, D))
        bound_d = disc.BoundDiscriminator(ad.Tape(grad=False), d)
        assert np.array_equal(bound_d.score_sequence(feats, batch)["score"].data,
                              bound_d.forward(feats, *batch.one_hot(K))["score"].data)
        bound_g = cap.BoundCaptioner(ad.Tape(grad=False), g)
        logp = bound_g.sequence_log_prob(feats, batch)
        rows, _ = batch.one_hot(K)
        probs = np.zeros(rows.shape)
        for b, seq in enumerate(batch.seqs):
            prevs = [g.config.bos_id] + seq.tokens[:-1]
            for t, (*_, logits) in enumerate(replay_steps(g, feats[b], prevs)):
                probs[b, t] = bound_g.word_dist(bound_g.tape.tensor(logits[None])).data[0]
        assert np.max(np.abs(logp.data - np.log((probs * rows).sum(-1)
                                                + 1 - rows.sum(-1)).sum(-1))) <= 1e-12


class TestScore:
    @pytest.mark.parametrize("variant", disc.VARIANTS)
    def test_batch_equals_single_row_scores(self, variant):
        _, d, _ = models(variant)
        rng = np.random.default_rng(6)
        seqs = [cap.TokenSequence([int(t) for t in rng.integers(0, K, size=n)], True)
                for n in (3, 1, 5, 2)]
        feats = rng.uniform(-1, 1, (len(seqs), C, D))
        scores = disc.score(d, feats, cap.CaptionBatch(seqs))
        assert isinstance(scores, np.ndarray) and scores.shape == (len(seqs),)
        for b, seq in enumerate(seqs):
            assert abs(scores[b] - score_one(d, feats[b], seq)) <= 1e-12

    def test_one_no_grad_bind(self, monkeypatch):
        _, d, feats = models()
        binds = []
        init = disc.BoundDiscriminator.__init__
        monkeypatch.setattr(disc.BoundDiscriminator, "__init__",
                            lambda self, tape, params: binds.append(tape.grad)
                            or init(self, tape, params))
        disc.score(d, np.repeat(feats, 3, axis=0), cap.CaptionBatch([SEQ] * 3))
        assert binds == [False]
