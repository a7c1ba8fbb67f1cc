"""The array scorer ``metrics.caption_scores`` against the per-caption
oracles of ``helpers``: every CIDEr-D, BLEU4 and ROUGE-L value bit for bit,
alone and inside any batch, and the rewards built on it."""

import numpy as np
import pytest
from helpers import (per_caption_bleu4, per_caption_cider_d, per_caption_rouge_l,
                     per_image_rewards)
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgan import discriminator as disc
from seqgan import metrics as met
from seqgan import training as tr
from seqgan.captioner import InputError, TokenSequence

CORPUS = [
    [[2, 3, 4, 5, 1], [2, 3, 6, 1]],
    [[7, 8, 9, 1], [7, 9, 8, 1]],
    [[2, 5, 4, 3, 1]],
    [[6, 8, 2, 1], [6, 8, 3, 1]],
]


def oracle(cands, refs, idf):
    return ([per_caption_cider_d(c, r, idf) for c, r in zip(cands, refs)],
            [per_caption_bleu4(c, r) for c, r in zip(cands, refs)],
            [per_caption_rouge_l(c, r) for c, r in zip(cands, refs)])


def assert_scores_equal(cands, refs, idf):
    got = met.caption_scores(cands, refs, idf)
    want = oracle(cands, refs, idf)
    for name, column, expected in zip(("cider", "bleu4", "rouge_l"), got, want):
        assert column.dtype == np.float64 and column.shape == (len(cands),)
        assert column.tolist() == expected, name


tokens = st.lists(st.integers(1, 9), max_size=10)


class TestEqualsOracle:
    @pytest.mark.parametrize("cand,refs", [
        ([], [[2, 3, 4]]),
        ([2, 3], [[2, 3, 4, 5, 1]]),
        ([2, 3, 4, 1], [[], [2, 3, 4, 1]]),
        ([2, 3, 4, 1], [[2, 3, 4, 5, 1], [2, 3, 4, 5, 1], [2, 3, 6, 1]]),
        ([20, 21, 3, 22, 1], [[20, 21, 22, 1], [3, 22, 21, 20, 1]]),
        ([2, 3, 4, 5, 1], [[2, 3, 4, 1], [2, 3, 4, 5, 6, 1]]),
        ([2, 3, 4, 5, 1], [[2, 3, 4, 5, 6, 1], [2, 3, 4, 1]]),
        ([2, 2, 2, 2, 2], [[2, 2, 2], [2, 2, 2, 2, 2, 2]]),
        ([2, 3, 4, 5, 6, 7, 8, 9, 2, 3, 4, 1], [[2, 3, 1], [4, 5, 6, 1], [9, 2, 1]]),
    ], ids=["empty-candidate", "shorter-than-four", "empty-reference",
            "duplicate-references", "grams-missing-from-idf", "brevity-tie",
            "brevity-tie-reordered", "repeated-token", "longer-than-every-reference"])
    def test_one_caption(self, cand, refs):
        assert_scores_equal([cand], [refs], met.fit_idf(CORPUS))

    def test_token_sequences_and_tuples(self):
        idf = met.fit_idf(CORPUS)
        cands = [TokenSequence([2, 3, 6, 1], True), (7, 8, 1)]
        refs = [[TokenSequence([2, 3, 4, 5, 1], True)], ((7, 9, 8, 1), [7, 8, 1])]
        assert_scores_equal(cands, refs, idf)

    @settings(max_examples=200, deadline=None)
    @given(corpus=st.lists(st.lists(st.lists(st.integers(1, 8), max_size=8),
                                    min_size=1, max_size=3), min_size=1, max_size=5),
           batch=st.lists(st.tuples(tokens, st.lists(tokens, min_size=1, max_size=5)),
                          min_size=1, max_size=6))
    def test_random_batches(self, corpus, batch):
        cands = [cand for cand, _ in batch]
        # a caption's references repeat now and then, as for a duplicated image
        refs = [refs + refs[:1] if len(cand) % 3 == 0 else refs for cand, refs in batch]
        assert_scores_equal(cands, refs, met.fit_idf(corpus))


class TestBatchInvariance:
    @settings(max_examples=100, deadline=None)
    @given(batch=st.lists(st.tuples(tokens, st.lists(tokens, min_size=1, max_size=4)),
                          min_size=1, max_size=8),
           data=st.data())
    def test_scores_equal_alone_and_in_batch(self, batch, data):
        idf = met.fit_idf(CORPUS)
        order = data.draw(st.permutations(range(len(batch))))
        cands = [batch[i][0] for i in order]
        refs = [batch[i][1] for i in order]
        together = met.caption_scores(cands, refs, idf)
        for b, (cand, ref_set) in enumerate(zip(cands, refs)):
            alone = met.caption_scores([cand], [ref_set], idf)
            for column, single in zip(together, alone):
                assert column[b] == single[0]


class TestInputs:
    def test_reference_lists_of_another_length(self):
        idf = met.fit_idf(CORPUS)
        with pytest.raises(InputError, match="2 candidates but 1 reference lists"):
            met.caption_scores([[2, 3], [4, 5]], [[[2, 3]]], idf)

    def test_empty_reference_set_names_the_caption(self):
        idf = met.fit_idf(CORPUS)
        with pytest.raises(InputError, match="caption 1 is empty"):
            met.caption_scores([[2, 3], [4, 5]], [[[2, 3]], []], idf)
        with pytest.raises(InputError, match="caption 0 is empty"):
            met.caption_scores([[2]], [[]], idf)

    @pytest.mark.parametrize("cands,refs", [([[2, -1]], [[[2, 3]]]),
                                            ([[2, 3]], [[[2, 3], [-4]]])])
    def test_negative_token_id(self, cands, refs):
        with pytest.raises(InputError, match="non-negative"):
            met.caption_scores(cands, refs, met.fit_idf(CORPUS))

    def test_no_candidates(self):
        scores = met.caption_scores([], [], met.fit_idf(CORPUS))
        assert [column.shape for column in scores] == [(0,)] * 3

    def test_large_token_ids_and_batch(self):
        # 2,000 captions over ids near 2**31: the gram keys are dense ranks,
        # so nothing overflows
        rng = np.random.default_rng(0)
        base = 2**31 - 40
        vocab = base + rng.choice(80, size=30, replace=False)

        def caption(shortest):
            return [int(t) for t in rng.choice(vocab, size=rng.integers(shortest, 12))]

        refs = [[caption(1) for _ in range(rng.integers(1, 5))] for _ in range(2000)]
        # every fourth candidate copies its first reference
        cands = [caption(0) if b % 4 else list(refs[b][0]) for b in range(2000)]
        idf = met.fit_idf(refs[:300])
        got = met.caption_scores(cands, refs, idf)
        want = oracle(cands, refs, idf)
        for column, expected in zip(got, want):
            assert column.tolist() == expected
        assert np.all(got.cider[::4] > 0)


def reward_setup(seed=0, vocab=9, crops=2, dim=3):
    dcfg = disc.DiscriminatorConfig(vocab_size=vocab, hidden_dim=4, num_crops=crops,
                                    feature_dim=dim)
    d = disc.init_discriminator(dcfg, seed, "coatt")
    rng = np.random.default_rng(seed + 1)
    images = []
    for _ in range(3):
        feats = rng.uniform(-1, 1, (crops, dim))
        refs = [TokenSequence([int(t) for t in rng.integers(2, vocab, size=rng.integers(2, 6))]
                              + [1], True) for _ in range(3)]
        seqs = [TokenSequence([int(t) for t in rng.integers(2, vocab, size=rng.integers(1, 6))]
                              + [1], True) for _ in range(4)]
        images.append((feats, refs, seqs))
    idf = met.fit_idf([refs for _, refs, _ in images])
    return d, images, idf


class TestSequenceRewards:
    @pytest.mark.parametrize("reward", ["cider", "logD_plus_cider"])
    def test_one_image_matches_per_image_rewards(self, reward):
        d, images, idf = reward_setup()
        cfg = tr.GanConfig(reward=reward)
        for feats, refs, seqs in images:
            got = tr._sequence_rewards(cfg, d, np.repeat(feats[None], len(seqs), axis=0),
                                       seqs, [refs] * len(seqs), idf)
            assert got.tolist() == per_image_rewards(cfg, d, feats, seqs, refs, idf)

    @pytest.mark.parametrize("reward", ["cider", "logD_plus_cider"])
    def test_minibatch_matches_per_image_rewards(self, reward):
        d, images, idf = reward_setup(seed=3)
        cfg = tr.GanConfig(reward=reward)
        feats = np.concatenate([np.repeat(f[None], len(s), axis=0) for f, _, s in images])
        seqs = [seq for _, _, s in images for seq in s]
        refs = [r for _, r, s in images for _ in s]
        got = tr._sequence_rewards(cfg, d, feats, seqs, refs, idf)
        want = [v for f, r, s in images for v in per_image_rewards(cfg, d, f, s, r, idf)]
        if reward == "cider":
            assert got.tolist() == want
        else:
            # the D scores of a larger batch may differ in the last bits
            assert np.max(np.abs(np.array(got) - want)) <= 1e-12
