import itertools

import numpy as np
import pytest
from helpers import per_reference_cider_d
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
            cv = np.array([c_cnt.get(g, 0) * idf.idf(g) for g in union])
            rv = np.array([r_cnt.get(g, 0) * idf.idf(g) for g in union])
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
            assert idf.idf(g) == 0.0

    def test_gram_in_every_image_zero(self):
        idf = met.fit_idf([[[2, 3]], [[2, 4]], [[5, 2]]])
        assert idf.idf((2,)) == 0.0

    def test_four_image_hand_count(self):
        corpus = [[[2, 3]], [[2, 4]], [[3, 4]], [[2, 3]]]
        idf = met.fit_idf(corpus)
        assert idf.corpus_size == 4
        assert idf.doc_freq[(2,)] == 3
        assert idf.doc_freq[(3,)] == 3
        assert idf.doc_freq[(4,)] == 2
        assert idf.doc_freq[(2, 3)] == 2
        assert idf.doc_freq[(2, 4)] == 1
        assert abs(idf.idf((2,)) - np.log(4 / 3)) < 1e-15
        assert abs(idf.idf((2, 4)) - np.log(4)) < 1e-15
        # unseen n-grams fall back to df = 1
        assert abs(idf.idf((9, 9)) - np.log(4)) < 1e-15

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
        assert abs(met.cider_d(ref, [ref], toy_idf) - 10.0) < 1e-9

    def test_disjoint_scores_zero(self, toy_idf):
        assert met.cider_d([30, 31, 32], [[2, 3, 4, 5, 1]], toy_idf) == 0.0

    def test_empty_candidate_zero(self, toy_idf):
        assert met.cider_d([], [[2, 3, 4]], toy_idf) == 0.0

    def test_empty_refs_rejected(self, toy_idf):
        with pytest.raises(InputError):
            met.cider_d([2, 3], [], toy_idf)

    def test_two_reference_toy_vs_direct_formula(self, toy_idf):
        cand = [2, 3, 6, 1]
        refs = [[2, 3, 4, 5, 1], [2, 3, 6, 1]]
        got = met.cider_d(cand, refs, toy_idf)
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
            assert abs(met.cider_d(cand, refs, toy_idf)
                       - cider_oracle(cand, refs, toy_idf)) < 1e-12

    def test_reference_reorder_and_duplicate_invariance(self, toy_idf):
        cand = [2, 3, 4, 1]
        refs = [[2, 3, 4, 5, 1], [2, 3, 6, 1]]
        base = met.cider_d(cand, refs, toy_idf)
        assert met.cider_d(cand, refs[::-1], toy_idf) == base
        assert met.cider_d(cand, refs + [refs[0]], toy_idf) == base

    def test_identity_maximal_among_same_length(self, toy_idf):
        # enumerate every length-3 candidate over a 3-token alphabet
        ref = (2, 3, 4)
        best = met.cider_d(ref, [ref], toy_idf)
        for cand in itertools.product((2, 3, 4), repeat=3):
            s = met.cider_d(cand, [ref], toy_idf)
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
        assert met.cider_d(cand, refs, toy_idf) == per_reference_cider_d(cand, refs, toy_idf)

    @settings(max_examples=200, deadline=None)
    @given(corpus=st.lists(st.lists(st.lists(st.integers(1, 8), max_size=8),
                                    min_size=1, max_size=3), min_size=1, max_size=5),
           cand=st.lists(st.integers(1, 9), max_size=12),
           refs=st.lists(st.lists(st.integers(1, 9), max_size=10), min_size=1, max_size=5))
    def test_random_sets_equal_per_reference_loop(self, corpus, cand, refs):
        idf = met.fit_idf(corpus)
        assert met.cider_d(cand, refs, idf) == per_reference_cider_d(cand, refs, idf)
        # a second call reads the weights memoized by the first
        assert met.cider_d(cand, refs, idf) == per_reference_cider_d(cand, refs, idf)

    def test_weight_is_the_log_ratio_and_equality_ignores_the_memo(self, toy_idf):
        fresh = met.NGramIdf(dict(toy_idf.doc_freq), toy_idf.corpus_size)
        for gram in [(2,), (2, 3), (7, 9, 8), (40,)]:
            want = float(np.log(toy_idf.corpus_size / max(1, toy_idf.doc_freq.get(gram, 0))))
            assert toy_idf.idf(gram) == want
            assert toy_idf.idf(gram) == want  # memoized
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


class TestBleuRouge:
    def test_identity(self):
        seq = [2, 3, 4, 5, 6]
        assert abs(met.bleu4(seq, [seq]) - 1.0) < 1e-12
        assert abs(met.rouge_l(seq, [seq]) - 1.0) < 1e-12

    def test_disjoint(self):
        assert met.bleu4([2, 3, 4, 5], [[6, 7, 8, 9]]) == 0.0
        assert met.rouge_l([2, 3], [[6, 7]]) == 0.0

    def test_empty_candidate(self):
        assert met.bleu4([], [[2, 3]]) == 0.0
        assert met.rouge_l([], [[2, 3]]) == 0.0

    def test_bleu_hand_computed(self):
        # precisions 4/5, 3/4, 2/3, 1/2 and no brevity penalty
        cand = [10, 11, 12, 13, 14]
        ref = [10, 11, 12, 13, 15]
        expected = (0.8 * 0.75 * (2.0 / 3.0) * 0.5) ** 0.25
        assert abs(met.bleu4(cand, [ref]) - expected) < 1e-9

    def test_bleu_brevity_penalty(self):
        # candidate shorter than reference: bp = exp(1 - 6/5)
        cand = [10, 11, 12, 13, 14]
        ref = [10, 11, 12, 13, 14, 15]
        p1, p2, p3, p4 = 1.0, 1.0, 1.0, 1.0
        expected = np.exp(1 - 6 / 5) * (p1 * p2 * p3 * p4) ** 0.25
        assert abs(met.bleu4(cand, [ref]) - expected) < 1e-9

    def test_rouge_hand_computed(self):
        # LCS = 3, P = 3/4, R = 3/5, beta = 1.2
        cand = [1, 2, 3, 4]
        ref = [1, 3, 4, 5, 6]
        p, r, b2 = 0.75, 0.6, 1.44
        expected = (1 + b2) * p * r / (r + b2 * p)
        got = met.rouge_l(cand, [ref])
        assert abs(got - expected) < 1e-9
        assert abs(got - 0.6535714285714286) < 1e-9

    def test_rouge_takes_best_reference(self):
        cand = [1, 2, 3]
        assert abs(met.rouge_l(cand, [[9, 9, 9], [1, 2, 3]]) - 1.0) < 1e-12


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

    def test_equal_projections(self):
        model = self._identity_model(3)
        v = np.array([1.0, -2.0, 0.5])
        assert abs(met.semantic_score(model, v, v) - 1.0) < 1e-12

    def test_opposite_projections(self):
        model = self._identity_model(3)
        v = np.array([1.0, -2.0, 0.5])
        assert abs(met.semantic_score(model, v, -v) + 1.0) < 1e-12

    def test_zero_norm_flagged(self, caplog):
        model = self._identity_model(2)
        with caplog.at_level("WARNING"):
            assert met.semantic_score(model, np.zeros(2), np.ones(2)) == 0.0
        assert any("zero-norm" in r.message for r in caplog.records)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 3))
        Y = X @ rng.normal(size=(3, 4)) + 0.1 * rng.normal(size=(200, 4))
        model = met.fit_cca(X, Y, r=2)
        x, y = rng.normal(size=3), rng.normal(size=4)
        base = met.semantic_score(model, x, y)
        # cosine is invariant to positive rescaling around the centering point
        assert abs(met.semantic_score(
            model, model.mean_x + 7.0 * (x - model.mean_x),
            model.mean_y + 0.2 * (y - model.mean_y)) - base) < 1e-9

    def test_paired_beats_shuffled_auc(self):
        rng = np.random.default_rng(7)
        n, k = 1200, 3
        z = rng.normal(size=(n, k))
        A = rng.normal(size=(k, 5))
        B = rng.normal(size=(k, 4))
        X = z @ A + 0.2 * rng.normal(size=(n, 5))
        Y = z @ B + 0.2 * rng.normal(size=(n, 4))
        model = met.fit_cca(X[:1000], Y[:1000], r=k)

        paired = np.array([met.semantic_score(model, X[i], Y[i])
                           for i in range(1000, n)])
        perm = rng.permutation(np.arange(1000, n))
        shuffled = np.array([met.semantic_score(model, X[i], Y[j])
                             for i, j in zip(range(1000, n), perm)])
        auc = float(np.mean(paired[:, None] > shuffled[None, :])
                    + 0.5 * np.mean(paired[:, None] == shuffled[None, :]))
        assert auc > 0.9
        assert paired.mean() > shuffled.mean()
