import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (caption_vec, loop_semantic_fit, per_pair_semantic_score,
                     per_reference_cider_d)
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgan import metrics as met
from seqgan.captioner import InputError, TokenSequence


def cider_oracle(cand, refs, idf):
    """Direct-formula CIDEr-D over dense vectors on the n-gram union.

    Independent of the implementation's Counter-based path.
    """
    cand = tuple(cand)
    if not cand:
        return 0.0
    unique_refs = list(dict.fromkeys(tuple(r) for r in refs))

    def grams(toks, n):
        out = {}
        for i in range(len(toks) - n + 1):
            g = toks[i : i + n]
            out[g] = out.get(g, 0) + 1
        return out

    total = 0.0
    for n in range(1, 5):
        acc = 0.0
        c_cnt = grams(cand, n)
        for ref in unique_refs:
            r_cnt = grams(ref, n)
            union = sorted(set(c_cnt) | set(r_cnt))
            weight = idf.weights(union)
            cv = np.array([c_cnt.get(g, 0) for g in union]) * weight
            rv = np.array([r_cnt.get(g, 0) for g in union]) * weight
            den = np.linalg.norm(cv) * np.linalg.norm(rv)
            if den > 0:
                cos = float(np.minimum(cv, rv) @ rv) / den
                acc += cos * np.exp(-((len(cand) - len(ref)) ** 2) / 72.0)
        total += acc / len(unique_refs)
    return 10.0 * total / 4.0


class TestFitIdf:
    def test_single_image_all_zero(self):
        idf = met.fit_idf([[[2, 3, 4]]])
        for g in [(2,), (2, 3), (2, 3, 4)]:
            assert idf.weights([g])[0] == 0.0

    def test_gram_in_every_image_zero(self):
        idf = met.fit_idf([[[2, 3]], [[2, 4]], [[5, 2]]])
        assert idf.weights([(2,)])[0] == 0.0

    def test_four_image_hand_count(self):
        corpus = [[[2, 3]], [[2, 4]], [[3, 4]], [[2, 3]]]
        idf = met.fit_idf(corpus)
        assert idf.corpus_size == 4
        assert idf.doc_freq[(2,)] == 3
        assert idf.doc_freq[(3,)] == 3
        assert idf.doc_freq[(4,)] == 2
        assert idf.doc_freq[(2, 3)] == 2
        assert idf.doc_freq[(2, 4)] == 1
        assert abs(idf.weights([(2,)])[0] - np.log(4 / 3)) < 1e-15
        assert abs(idf.weights([(2, 4)])[0] - np.log(4)) < 1e-15
        # unseen n-grams fall back to df = 1
        assert abs(idf.weights([(9, 9)])[0] - np.log(4)) < 1e-15

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            met.fit_idf([])


@pytest.fixture
def toy_idf():
    corpus = [
        [[2, 3, 4, 5, 1], [2, 3, 6, 1]],
        [[7, 8, 9, 1], [7, 9, 8, 1]],
        [[2, 5, 4, 3, 1]],
        [[6, 8, 2, 1], [6, 8, 3, 1]],
    ]
    return met.fit_idf(corpus)


class TestCiderD:
    def test_identity_scores_ten(self, toy_idf):
        ref = [2, 3, 4, 5, 1]
        assert abs(met.caption_scores([ref], [[ref]], toy_idf).cider[0] - 10.0) < 1e-9

    def test_disjoint_scores_zero(self, toy_idf):
        assert met.caption_scores([[30, 31, 32]], [[[2, 3, 4, 5, 1]]], toy_idf).cider[0] == 0.0

    def test_empty_candidate_zero(self, toy_idf):
        assert met.caption_scores([[]], [[[2, 3, 4]]], toy_idf).cider[0] == 0.0

    def test_empty_refs_rejected(self, toy_idf):
        with pytest.raises(InputError):
            met.caption_scores([[2, 3]], [[]], toy_idf)

    def test_two_reference_toy_vs_direct_formula(self, toy_idf):
        cand = [2, 3, 6, 1]
        refs = [[2, 3, 4, 5, 1], [2, 3, 6, 1]]
        got = met.caption_scores([cand], [refs], toy_idf).cider[0]
        want = cider_oracle(cand, refs, toy_idf)
        assert abs(got - want) < 1e-12
        # frozen from the direct-formula oracle
        assert abs(got - 5.59507400351338) < 1e-9

    def test_random_cases_vs_direct_formula(self, toy_idf):
        rng = np.random.default_rng(0)
        for _ in range(25):
            cand = [int(t) for t in rng.integers(1, 10, size=rng.integers(1, 7))]
            refs = [[int(t) for t in rng.integers(1, 10, size=rng.integers(2, 7))]
                    for _ in range(rng.integers(1, 4))]
            assert abs(met.caption_scores([cand], [refs], toy_idf).cider[0]
                       - cider_oracle(cand, refs, toy_idf)) < 1e-12

    def test_reference_reorder_and_duplicate_invariance(self, toy_idf):
        cand = [2, 3, 4, 1]
        refs = [[2, 3, 4, 5, 1], [2, 3, 6, 1]]
        base = met.caption_scores([cand], [refs], toy_idf).cider[0]
        assert met.caption_scores([cand], [refs[::-1]], toy_idf).cider[0] == base
        assert met.caption_scores([cand], [refs + [refs[0]]], toy_idf).cider[0] == base

    def test_identity_maximal_among_same_length(self, toy_idf):
        # enumerate every length-3 candidate over a 3-token alphabet
        ref = (2, 3, 4)
        best = met.caption_scores([ref], [[ref]], toy_idf).cider[0]
        for cand in itertools.product((2, 3, 4), repeat=3):
            s = met.caption_scores([cand], [[ref]], toy_idf).cider[0]
            assert 0.0 <= s <= best + 1e-12


class TestCiderDCandidateOnce:
    """The candidate side is built once per n; values equal the loop that
    rebuilt it for every reference."""

    @pytest.mark.parametrize("cand,refs", [
        ([], [[2, 3, 4]]),
        ([2, 3, 4, 1], [[2, 3, 4, 5, 1], [2, 3, 4, 5, 1], [2, 3, 6, 1]]),
        ([20, 21, 3, 22, 1], [[20, 21, 22, 1], [3, 22, 21, 20, 1]]),
        ([2, 3, 4, 5, 6, 7, 8, 9, 2, 3, 4, 1], [[2, 3, 1], [4, 5, 6, 1], [9, 2, 1]]),
    ], ids=["empty-candidate", "duplicate-references", "grams-missing-from-idf",
            "candidate-longer-than-every-reference"])
    def test_equals_per_reference_loop(self, toy_idf, cand, refs):
        got = met.caption_scores([cand], [refs], toy_idf).cider[0]
        assert got == per_reference_cider_d(cand, refs, toy_idf)

    @settings(max_examples=200, deadline=None)
    @given(corpus=st.lists(st.lists(st.lists(st.integers(1, 8), max_size=8),
                                    min_size=1, max_size=3), min_size=1, max_size=5),
           cand=st.lists(st.integers(1, 9), max_size=12),
           refs=st.lists(st.lists(st.integers(1, 9), max_size=10), min_size=1, max_size=5))
    def test_random_sets_equal_per_reference_loop(self, corpus, cand, refs):
        idf = met.fit_idf(corpus)
        want = per_reference_cider_d(cand, refs, idf)
        assert met.caption_scores([cand], [refs], idf).cider[0] == want
        # a second call gives the same bits: no call keeps state for the next
        assert met.caption_scores([cand], [refs], idf).cider[0] == want

    def test_weight_is_the_log_ratio_and_equality_ignores_the_memo(self, toy_idf):
        fresh = met.NGramIdf(dict(toy_idf.doc_freq), toy_idf.corpus_size)
        for gram in [(2,), (2, 3), (7, 9, 8), (40,)]:
            want = float(np.log(toy_idf.corpus_size / max(1, toy_idf.doc_freq.get(gram, 0))))
            assert toy_idf.weights([gram])[0] == want
            assert toy_idf.weights([gram])[0] == want  # recomputed, the same bits
        assert fresh == toy_idf


class TestIdfAux:
    def test_round_trip(self, toy_idf):
        aux = toy_idf.to_aux()
        assert sorted(aux) == sorted(met.IDF_AUX)
        assert all(a.dtype == np.float64 for a in aux.values())
        assert met.NGramIdf.from_aux(aux) == toy_idf
        rows = [tuple(int(t) for t in row if t >= 0) for row in aux["idf_grams"]]
        assert rows == sorted(toy_idf.doc_freq)
        assert aux["idf_docs"].tolist() == [toy_idf.corpus_size]

    def test_grams_sorted_whatever_the_fit_order(self, toy_idf):
        shuffled = met.NGramIdf(dict(reversed(list(toy_idf.doc_freq.items()))),
                                toy_idf.corpus_size)
        for name, arr in shuffled.to_aux().items():
            assert arr.tobytes() == toy_idf.to_aux()[name].tobytes(), name

    def test_absent_table_is_none(self):
        assert met.NGramIdf.from_aux({}) is None
        assert met.NGramIdf.from_aux({"sem_U": np.zeros((2, 2))}) is None

    def test_empty_table_round_trips(self):
        empty = met.fit_idf([[[]]])
        assert met.NGramIdf.from_aux(empty.to_aux()) == empty


# BLEU4 and ROUGE-L take no idf; every gram weighs log(1 / 1) = 0
EMPTY_IDF = met.NGramIdf({}, 1)


class TestBleuRouge:
    def test_identity(self):
        seq = [2, 3, 4, 5, 6]
        assert abs(met.caption_scores([seq], [[seq]], EMPTY_IDF).bleu4[0] - 1.0) < 1e-12
        assert abs(met.caption_scores([seq], [[seq]], EMPTY_IDF).rouge_l[0] - 1.0) < 1e-12

    def test_disjoint(self):
        assert met.caption_scores([[2, 3, 4, 5]], [[[6, 7, 8, 9]]], EMPTY_IDF).bleu4[0] == 0.0
        assert met.caption_scores([[2, 3]], [[[6, 7]]], EMPTY_IDF).rouge_l[0] == 0.0

    def test_empty_candidate(self):
        assert met.caption_scores([[]], [[[2, 3]]], EMPTY_IDF).bleu4[0] == 0.0
        assert met.caption_scores([[]], [[[2, 3]]], EMPTY_IDF).rouge_l[0] == 0.0

    def test_bleu_hand_computed(self):
        # precisions 4/5, 3/4, 2/3, 1/2 and no brevity penalty
        cand = [10, 11, 12, 13, 14]
        ref = [10, 11, 12, 13, 15]
        expected = (0.8 * 0.75 * (2.0 / 3.0) * 0.5) ** 0.25
        assert abs(met.caption_scores([cand], [[ref]], EMPTY_IDF).bleu4[0] - expected) < 1e-9

    def test_bleu_brevity_penalty(self):
        # candidate shorter than reference: bp = exp(1 - 6/5)
        cand = [10, 11, 12, 13, 14]
        ref = [10, 11, 12, 13, 14, 15]
        p1, p2, p3, p4 = 1.0, 1.0, 1.0, 1.0
        expected = np.exp(1 - 6 / 5) * (p1 * p2 * p3 * p4) ** 0.25
        assert abs(met.caption_scores([cand], [[ref]], EMPTY_IDF).bleu4[0] - expected) < 1e-9

    def test_rouge_hand_computed(self):
        # LCS = 3, P = 3/4, R = 3/5, beta = 1.2
        cand = [1, 2, 3, 4]
        ref = [1, 3, 4, 5, 6]
        p, r, b2 = 0.75, 0.6, 1.44
        expected = (1 + b2) * p * r / (r + b2 * p)
        got = met.caption_scores([cand], [[ref]], EMPTY_IDF).rouge_l[0]
        assert abs(got - expected) < 1e-9
        assert abs(got - 0.6535714285714286) < 1e-9

    def test_rouge_takes_best_reference(self):
        cand = [1, 2, 3]
        got = met.caption_scores([cand], [[[9, 9, 9], [1, 2, 3]]], EMPTY_IDF).rouge_l[0]
        assert abs(got - 1.0) < 1e-12


class TestVocabularyCoverage:
    def test_empty(self):
        assert met.vocabulary_coverage([], 50) == 0.0

    def test_full(self):
        assert met.vocabulary_coverage([list(range(10))], 10) == 100.0

    def test_partial_with_token_sequences(self):
        corpus = [TokenSequence([1, 2], True), TokenSequence([2, 3], True)]
        assert met.vocabulary_coverage(corpus, 12) == 100.0 * 3 / 12


class TestFitCca:
    def test_self_correlation(self):
        rng = np.random.default_rng(1)
        X = rng.normal(scale=30.0, size=(300, 3))
        model = met.fit_cca(X, X.copy(), r=3)
        np.testing.assert_allclose(model.sigma, 1.0, atol=1e-8)

    def test_independent_null(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(2000, 4))
        Y = rng.normal(size=(2000, 4))
        model = met.fit_cca(X, Y, r=4)
        assert np.max(model.sigma) < 0.2

    def test_exact_linear_relation(self):
        rng = np.random.default_rng(3)
        X = rng.normal(scale=25.0, size=(200, 2))
        M = np.array([[2.0, -1.0], [0.5, 3.0]])
        model = met.fit_cca(X, X @ M, r=2)
        assert abs(model.sigma[0] - 1.0) < 1e-6

    def test_whitening_constraint(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(500, 3))
        Y = rng.normal(size=(500, 5)) + 0.3 * np.tile(X, (1, 2))[:, :5]
        model = met.fit_cca(X, Y, r=3)
        n = X.shape[0]
        Cxx = np.cov(X.T, bias=False) + met.CCA_RIDGE * np.eye(3)
        Cyy = np.cov(Y.T, bias=False) + met.CCA_RIDGE * np.eye(5)
        np.testing.assert_allclose(model.U.T @ Cxx @ model.U, np.eye(3), atol=1e-6)
        np.testing.assert_allclose(model.V.T @ Cyy @ model.V, np.eye(3), atol=1e-6)

    def test_sigma_within_unit_interval(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(400, 2))
        X = np.hstack([z, rng.normal(size=(400, 2))])
        Y = np.hstack([z @ rng.normal(size=(2, 3)), rng.normal(size=(400, 1))])
        model = met.fit_cca(X, Y, r=3)
        assert np.all(model.sigma >= 0) and np.all(model.sigma <= 1)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            met.fit_cca(np.zeros((3, 2)), np.zeros((4, 2)), 1)
        with pytest.raises(InputError):
            met.fit_cca(np.zeros((3, 2)), np.zeros((3, 2)), 0)


class TestSemanticScore:
    def _identity_model(self, d):
        return met.CcaModel(U=np.eye(d), V=np.eye(d), sigma=np.ones(d),
                            mean_x=np.zeros(d), mean_y=np.zeros(d))

    @staticmethod
    def _random_model(rng, m, d, r):
        X = rng.normal(size=(40, m))
        Y = X[:, :1] * rng.normal(size=(1, d)) + rng.normal(size=(40, d))
        return met.fit_cca(X, Y, r)

    def test_equal_projections(self):
        model = self._identity_model(3)
        v = np.array([[1.0, -2.0, 0.5]])
        assert abs(met.semantic_score(model, v, v)[0] - 1.0) < 1e-12

    def test_opposite_projections(self):
        model = self._identity_model(3)
        v = np.array([[1.0, -2.0, 0.5]])
        assert abs(met.semantic_score(model, v, -v)[0] + 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_match_per_pair_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(1, 21):
            m, d = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            model = self._random_model(rng, m, d, int(rng.integers(1, min(m, d) + 1)))
            X = rng.normal(scale=3.0, size=(n, m)) + model.mean_x
            Y = rng.normal(scale=0.2, size=(n, d))
            scores = met.semantic_score(model, X, Y)
            assert scores.shape == (n,) and scores.dtype == np.float64
            want = [per_pair_semantic_score(model, x, y) for x, y in zip(X, Y)]
            np.testing.assert_allclose(scores, want, rtol=0, atol=1e-12)

    def test_zero_norm_flagged(self, caplog):
        model = self._identity_model(2)
        X = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [3.0, -1.0]])
        Y = np.array([[1.0, 1.0], [1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        with caplog.at_level("WARNING"):
            scores = met.semantic_score(model, X, Y)
        assert scores[0] == scores[2] == scores[3] == 0.0
        assert abs(scores[1] - 1.0) < 1e-12
        warned = [r.getMessage() for r in caplog.records if "zero-norm" in r.getMessage()]
        assert warned == [f"semantic_score: zero-norm projection in row {i}, returning 0"
                          for i in (0, 2, 3)]

    @pytest.mark.parametrize("x_shape, y_shape", (
        ((3, 4), (3, 2)), ((3, 2), (3, 4)), ((3, 2), (4, 3)), ((2,), (3,)),
        ((1, 2, 1), (1, 3)), ((3, 2), (3,))))
    def test_mismatched_widths_raise(self, x_shape, y_shape):
        model = met.CcaModel(U=np.eye(2)[:, :1], V=np.eye(3)[:, :1], sigma=np.ones(1),
                             mean_x=np.zeros(2), mean_y=np.zeros(3))
        with pytest.raises(InputError, match="embedding dimensions"):
            met.semantic_score(model, np.ones(x_shape), np.ones(y_shape))

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 3))
        Y = X @ rng.normal(size=(3, 4)) + 0.1 * rng.normal(size=(200, 4))
        model = met.fit_cca(X, Y, r=2)
        x, y = rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
        base = met.semantic_score(model, x, y)
        # cosine is invariant to positive rescaling around the centering point
        np.testing.assert_allclose(met.semantic_score(
            model, model.mean_x + 7.0 * (x - model.mean_x),
            model.mean_y + 0.2 * (y - model.mean_y)), base, rtol=0, atol=1e-9)

    def test_paired_beats_shuffled_auc(self):
        rng = np.random.default_rng(7)
        n, k = 1200, 3
        z = rng.normal(size=(n, k))
        A = rng.normal(size=(k, 5))
        B = rng.normal(size=(k, 4))
        X = z @ A + 0.2 * rng.normal(size=(n, 5))
        Y = z @ B + 0.2 * rng.normal(size=(n, 4))
        model = met.fit_cca(X[:1000], Y[:1000], r=k)

        paired = met.semantic_score(model, X[1000:], Y[1000:])
        perm = rng.permutation(np.arange(1000, n))
        shuffled = met.semantic_score(model, X[1000:], Y[perm])
        auc = float(np.mean(paired[:, None] > shuffled[None, :])
                    + 0.5 * np.mean(paired[:, None] == shuffled[None, :]))
        assert auc > 0.9
        assert paired.mean() > shuffled.mean()


class TestSemanticScorer:
    @staticmethod
    def _examples(rng, n_images, C=3, d=5, K=9):
        return [(SimpleNamespace(features=rng.normal(size=(C, d))),
                 [TokenSequence(rng.integers(0, K, size=int(rng.integers(1, 13))).tolist(),
                                True) for _ in range(int(rng.integers(1, 4)))])
                for _ in range(n_images)]

    # m = 1 sums a caption's tokens pairwise in numpy, so zero padding would
    # move their bits
    @pytest.mark.parametrize("seed, m, rank", ((0, 4, 2), (1, 6, 9), (2, 3, 3), (3, 8, 5),
                                               (4, 1, 1)))
    def test_fit_equals_per_caption_loop_bit_for_bit(self, seed, m, rank):
        rng = np.random.default_rng(seed)
        examples = self._examples(rng, 30)
        embed = rng.normal(size=(9, m))
        captions = [ref for _, refs in examples for ref in refs]
        feats = np.array([scene.features for scene, refs in examples for _ in refs])
        X0, Y0, model0 = loop_semantic_fit(embed, examples, rank)
        X, Y = met._mean_vectors(embed, captions, feats)
        assert X.tobytes() == X0.tobytes() and Y.tobytes() == Y0.tobytes()
        scorer = met.SemanticScorer.fit(embed, captions, feats, rank)
        for name in ("U", "V", "sigma", "mean_x", "mean_y"):
            assert getattr(scorer.model, name).tobytes() == \
                getattr(model0, name).tobytes(), name
        # the table is a frozen copy
        assert scorer.embed is not embed and scorer.embed.tobytes() == embed.tobytes()
        embed[:] = 0.0
        assert np.any(scorer.embed != 0.0)

    def test_score_matches_per_caption_oracle(self):
        rng = np.random.default_rng(5)
        examples = self._examples(rng, 30)
        embed = rng.normal(size=(9, 4))
        scorer = met.SemanticScorer.fit(
            embed, [ref for _, refs in examples for ref in refs],
            np.array([scene.features for scene, refs in examples for _ in refs]), 3)
        captions = [refs[0] for _, refs in examples[:12]] + [TokenSequence([], False), [2, 2]]
        feats = rng.normal(size=(len(captions), 3, 5))
        want = [per_pair_semantic_score(scorer.model, caption_vec(embed, c), f.mean(axis=0))
                for c, f in zip(captions, feats)]
        np.testing.assert_allclose(scorer.score(captions, feats), want, rtol=0, atol=1e-12)
        assert scorer.score([], np.zeros((0, 3, 5))).shape == (0,)
        with pytest.raises(InputError):
            scorer.score(captions, feats[:-1])

    @pytest.mark.parametrize("bad", [-1, 9, 10**6])
    def test_token_ids_outside_the_table_raise(self, bad):
        """An id outside [0, K) raises ``InputError`` naming the first one,
        in ``fit`` and in ``score``: -1 no longer scores as the last row."""
        rng = np.random.default_rng(6)
        examples = self._examples(rng, 10)
        embed = rng.normal(size=(9, 4))
        refs = [ref for _, refs in examples for ref in refs]
        ref_feats = np.array([scene.features for scene, refs in examples for _ in refs])
        scorer = met.SemanticScorer.fit(embed, refs, ref_feats, 3)
        captions = [TokenSequence([2, 3, 1], True), [4, bad, 1], [12, -5]]
        feats = rng.normal(size=(3, 3, 5))
        message = rf"^token id {bad} is outside \[0, 9\)$"
        with pytest.raises(InputError, match=message):
            scorer.score(captions, feats)
        with pytest.raises(InputError, match=message):
            met.SemanticScorer.fit(embed, refs[:3] + captions, np.concatenate(
                [ref_feats[:3], feats]), 3)
        assert scorer.score(captions[:1], feats[:1]).shape == (1,)
