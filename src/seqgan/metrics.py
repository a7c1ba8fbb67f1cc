"""Caption evaluation metrics.

N-gram metrics operate directly on token-id sequences (the synthetic
vocabulary is already canonical, so there is no text normalization step):

- CIDEr-D over n = 1..4 with reference-clipped tf-idf cosine, a Gaussian
  length penalty (sigma = 6) and a x10 scale; duplicate references are
  ignored so the score is a function of the reference *set*.
- BLEU4 with the standard brevity penalty, no smoothing.
- ROUGE-L as the LCS F-measure with beta = 1.2, max over references.

The semantic score is a cosine in CCA space: captions and images are
embedded separately, projected through the fitted canonical directions, and
the caption side is weighted by the canonical correlations.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .captioner import InputError, TokenSequence

logger = logging.getLogger(__name__)

CIDER_N = 4
CIDER_SIGMA = 6.0
ROUGE_BETA = 1.2
CCA_RIDGE = 1e-6


class NumericError(ValueError):
    """Numerical failure that a ridge term could not repair."""


def _tokens(seq) -> tuple:
    if isinstance(seq, TokenSequence):
        return tuple(seq.tokens)
    return tuple(seq)


def _ngram_counts(tokens: tuple, n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


# ---------------------------------------------------------------------------
# n-gram metrics
# ---------------------------------------------------------------------------


# checkpoint aux arrays of a fitted idf: the grams as rows padded with -1,
# their document frequencies and the corpus size
IDF_AUX = ("idf_grams", "idf_df", "idf_docs")


@dataclass
class NGramIdf:
    """Document frequencies per n-gram; one document = one image's reference set.

    ``idf`` computes a gram's weight once and then looks it up.
    """

    doc_freq: dict[tuple, int]
    corpus_size: int
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def idf(self, gram: tuple) -> float:
        w = self._weights.get(gram)
        if w is None:
            w = float(np.log(self.corpus_size / max(1, self.doc_freq.get(gram, 0))))
            self._weights[gram] = w
        return w

    def to_aux(self) -> dict:
        """Float64 arrays for checkpoint aux (names in ``IDF_AUX``).

        ``idf_grams`` holds one gram per row in ascending order, its tokens
        followed by -1 up to ``CIDER_N`` columns; ``idf_df`` the document
        frequency of each row; ``idf_docs`` the corpus size, as one element.
        """
        grams = sorted(self.doc_freq)
        table = np.full((len(grams), CIDER_N), -1.0)
        for i, gram in enumerate(grams):
            table[i, : len(gram)] = gram
        return {"idf_grams": table,
                "idf_df": np.array([self.doc_freq[g] for g in grams], dtype=np.float64),
                "idf_docs": np.array([float(self.corpus_size)])}

    @staticmethod
    def from_aux(aux: dict) -> "NGramIdf | None":
        """The idf stored by ``to_aux``; None when ``aux`` holds none of its
        arrays.  A malformed table raises ``InputError``."""
        present = [name for name in IDF_AUX if name in aux]
        if not present:
            return None
        if len(present) != len(IDF_AUX):
            raise InputError(f"idf table needs all of {', '.join(IDF_AUX)}")
        grams, df, docs = (np.asarray(aux[name]) for name in IDF_AUX)
        if docs.shape != (1,) or not _whole(docs) or docs[0] < 1:
            raise InputError("idf_docs must be one integer >= 1")
        if grams.ndim != 2 or grams.shape[1] != CIDER_N:
            raise InputError(f"idf_grams must have {CIDER_N} columns, "
                             f"got shape {grams.shape}")
        if df.shape != (grams.shape[0],):
            raise InputError(f"idf_df has shape {df.shape}, expected one count per "
                             f"gram ({grams.shape[0]},)")
        if not _whole(df) or np.any(df < 1) or np.any(df > docs):
            raise InputError("idf_df must hold integers from 1 to idf_docs")
        is_token = grams >= 0
        lengths = is_token.sum(axis=1)
        if not _whole(grams) or np.any(~is_token & (grams != -1)) or np.any(lengths < 1) \
                or np.any(is_token != (np.arange(CIDER_N) < lengths[:, None])):
            raise InputError("idf_grams rows must be non-negative integer tokens "
                             "followed by -1 padding")
        rows = grams.astype(np.int64).tolist()
        doc_freq = {tuple(row[:n]): int(f)
                    for row, n, f in zip(rows, lengths.tolist(), df.tolist())}
        if len(doc_freq) != len(rows):
            raise InputError("idf_grams holds a gram twice")
        return NGramIdf(doc_freq, int(docs[0]))


def _whole(arr: np.ndarray) -> bool:
    """Every value finite and integral."""
    return bool(np.all(np.isfinite(arr)) and np.all(arr == np.floor(arr)))


def fit_idf(corpus) -> NGramIdf:
    """Fit document frequencies on a corpus of per-image reference sets."""
    if not corpus:
        raise InputError("corpus is empty")
    doc_freq: dict[tuple, int] = {}
    for refs in corpus:
        grams = set()
        for ref in refs:
            toks = _tokens(ref)
            for n in range(1, CIDER_N + 1):
                grams.update(_ngram_counts(toks, n))
        for g in grams:
            doc_freq[g] = doc_freq.get(g, 0) + 1
    return NGramIdf(doc_freq, len(corpus))


def cider_d(candidate, refs, idf: NGramIdf) -> float:
    """Consensus tf-idf similarity with length penalty, scaled by 10.

    The candidate's n-gram counts, weights and norm are built once per n and
    shared by every reference.
    """
    if not refs:
        raise InputError("reference set is empty")
    cand = _tokens(candidate)
    if not cand:
        return 0.0
    unique_refs = list(dict.fromkeys(_tokens(r) for r in refs))
    penalties = [float(np.exp(-((len(cand) - len(rtok)) ** 2) / (2 * CIDER_SIGMA**2)))
                 for rtok in unique_refs]

    per_n = np.zeros(CIDER_N)
    for n in range(1, CIDER_N + 1):
        c_grams = [(g, cnt, idf.idf(g)) for g, cnt in _ngram_counts(cand, n).items()]
        norm_c = np.sqrt(sum((cnt * w) ** 2 for _, cnt, w in c_grams))
        for rtok, penalty in zip(unique_refs, penalties):
            r_cnt = _ngram_counts(rtok, n)
            norm_r = np.sqrt(sum((cnt * idf.idf(g)) ** 2 for g, cnt in r_cnt.items()))
            num = sum(min(cnt, r_cnt.get(g, 0)) * w * r_cnt.get(g, 0) * w
                      for g, cnt, w in c_grams)
            if norm_c > 0 and norm_r > 0:
                per_n[n - 1] += penalty * num / (norm_c * norm_r)
    return float(10.0 * per_n.mean() / len(unique_refs))


def bleu4(candidate, refs) -> float:
    """BLEU up to 4-grams with brevity penalty; zero if any order is unmatched."""
    if not refs:
        raise InputError("reference set is empty")
    cand = _tokens(candidate)
    if not cand:
        return 0.0
    ref_toks = [_tokens(r) for r in refs]

    log_precisions = []
    for n in range(1, 5):
        c_cnt = _ngram_counts(cand, n)
        total = sum(c_cnt.values())
        if total == 0:
            return 0.0
        max_ref = Counter()
        for rtok in ref_toks:
            for g, cnt in _ngram_counts(rtok, n).items():
                max_ref[g] = max(max_ref[g], cnt)
        clipped = sum(min(cnt, max_ref.get(g, 0)) for g, cnt in c_cnt.items())
        if clipped == 0:
            return 0.0
        log_precisions.append(np.log(clipped / total))

    c = len(cand)
    r = min((abs(len(rt) - c), len(rt)) for rt in ref_toks)[1]
    bp = 1.0 if c > r else float(np.exp(1.0 - r / c))
    return float(bp * np.exp(np.mean(log_precisions)))


def _lcs_len(a: tuple, b: tuple) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate, refs) -> float:
    """Longest-common-subsequence F-measure, best reference taken."""
    if not refs:
        raise InputError("reference set is empty")
    cand = _tokens(candidate)
    if not cand:
        return 0.0
    best = 0.0
    b2 = ROUGE_BETA**2
    for ref in refs:
        rtok = _tokens(ref)
        lcs = _lcs_len(cand, rtok)
        if lcs == 0:
            continue
        prec, rec = lcs / len(cand), lcs / len(rtok)
        best = max(best, (1 + b2) * prec * rec / (rec + b2 * prec))
    return float(best)


def vocabulary_coverage(generated_corpus, vocab_size: int) -> float:
    """Percentage of token ids emitted at least once across the corpus."""
    used = set()
    for seq in generated_corpus:
        used.update(_tokens(seq))
    return 100.0 * len(used) / vocab_size


# ---------------------------------------------------------------------------
# CCA semantic score
# ---------------------------------------------------------------------------


@dataclass
class CcaModel:
    U: np.ndarray        # d_x x r
    V: np.ndarray        # d_y x r
    sigma: np.ndarray    # r canonical correlations in [0, 1]
    mean_x: np.ndarray
    mean_y: np.ndarray


def _inv_sqrt(cov: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(cov)
    if np.min(evals) <= 0:
        raise NumericError("covariance not positive definite after ridge")
    return (evecs / np.sqrt(evals)) @ evecs.T


def fit_cca(X, Y, r: int) -> CcaModel:
    """Canonical correlation analysis via whitening + SVD.

    Covariances get a ridge of ``CCA_RIDGE`` before the eigendecomposition.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise InputError("X and Y must be 2-D with matching sample counts")
    n = X.shape[0]
    if r < 1 or n < r:
        raise InputError("need r >= 1 and at least r paired samples")

    mean_x, mean_y = X.mean(axis=0), Y.mean(axis=0)
    Xc, Yc = X - mean_x, Y - mean_y
    denom = max(n - 1, 1)
    Cxx = Xc.T @ Xc / denom + CCA_RIDGE * np.eye(X.shape[1])
    Cyy = Yc.T @ Yc / denom + CCA_RIDGE * np.eye(Y.shape[1])
    Cxy = Xc.T @ Yc / denom

    isx, isy = _inv_sqrt(Cxx), _inv_sqrt(Cyy)
    A, S, Bt = np.linalg.svd(isx @ Cxy @ isy, full_matrices=False)
    r = min(r, S.size)
    if np.any(S[:r] > 1.0 + 1e-6):
        raise NumericError(f"canonical correlation above 1: {S[:r].max()}")
    return CcaModel(U=isx @ A[:, :r], V=isy @ Bt[:r].T,
                    sigma=np.clip(S[:r], 0.0, 1.0),
                    mean_x=mean_x, mean_y=mean_y)


def semantic_score(model: CcaModel, x, y) -> float:
    """Correlation-weighted cosine between projected caption and image vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != model.mean_x.shape or y.shape != model.mean_y.shape:
        raise InputError("embedding dimensions do not match the fitted model")
    a = model.sigma * (model.U.T @ (x - model.mean_x))
    b = model.V.T @ (y - model.mean_y)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        logger.warning("semantic_score: zero-norm projection, returning 0")
        return 0.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


@dataclass
class ScoreReport:
    cider: float
    bleu4: float
    rouge_l: float
    semantic_score: float
    vocab_coverage: float

    def as_dict(self) -> dict:
        return {"cider": self.cider, "bleu4": self.bleu4, "rouge_l": self.rouge_l,
                "semantic_score": self.semantic_score,
                "vocab_coverage": self.vocab_coverage}
