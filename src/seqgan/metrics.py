"""Caption evaluation metrics.

N-gram metrics operate directly on token-id sequences (the synthetic
vocabulary is already canonical, so there is no text normalization step):

- CIDEr-D over n = 1..4 with reference-clipped tf-idf cosine, a Gaussian
  length penalty (sigma = 6) and a x10 scale; duplicate references are
  ignored so the score is a function of the reference *set*.
- BLEU4 with the standard brevity penalty, no smoothing.
- ROUGE-L as the LCS F-measure with beta = 1.2, max over references.

``caption_scores`` computes all three for a batch of captions, each against
its own reference set, in one array pass over one n-gram count table per
order.  The per-caption ``Counter`` loops it replaced are kept in the tests
as the oracle, and every score equals theirs bit for bit.

The semantic score is a cosine in CCA space between mean caption-token
embeddings and mean crop features projected through the fitted canonical
directions, the caption side weighted by the canonical correlations; it
scores n pairs of rows in one projection per side.  ``SemanticScorer.fit``
and ``score`` are its one recipe.  It and ``NGramIdf`` round-trip through
checkpoint aux arrays, and their ``from_aux`` reject malformed tables.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

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
    """Document frequencies per n-gram; one document = one image's reference set."""

    doc_freq: dict[tuple, int]
    corpus_size: int

    def weights(self, grams) -> np.ndarray:
        """The idf weight log(corpus_size / max(1, df)) of each gram tuple."""
        df = np.fromiter((self.doc_freq.get(g, 0) for g in grams), np.int64, len(grams))
        return np.log(self.corpus_size / np.maximum(df, 1))

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


class CaptionScores(NamedTuple):
    """Per-caption scores of one ``caption_scores`` call, each a float64
    array in candidate order."""

    cider: np.ndarray
    bleu4: np.ndarray
    rouge_l: np.ndarray


def caption_scores(candidates, refs, idf: NGramIdf) -> CaptionScores:
    """CIDEr-D, BLEU4 and ROUGE-L of B candidates in one array pass:
    candidate b against the reference list ``refs[b]``.

    Every candidate and every distinct reference of a candidate is one row;
    pair p is candidate ``pair_cand[p]`` against reference row B + p.
    Duplicate references are dropped: CIDEr-D is a function of the
    reference set, and BLEU4 and ROUGE-L take maxima over references.  For
    each order n, an n-gram's dense rank comes from its (n-1)-gram's rank
    and its last token's, so no key exceeds the square of the token count
    whatever the token ids.  One stable sort of the occurrences then groups
    them by gram and, within a gram, by row: each group is one (gram, row)
    count.  Sums run over each row's grams in first-occurrence order, the
    order of the one-caption ``Counter`` sums, so every score keeps the bits
    of the one-caption formula.

    A reference list of another length than ``candidates``, an empty
    reference set or a negative token id raises ``InputError``.
    """
    cands = [_tokens(c) for c in candidates]
    if len(refs) != len(cands):
        raise InputError(f"{len(cands)} candidates but {len(refs)} reference lists")
    ref_rows = []
    for b, ref_set in enumerate(refs):
        unique = list(dict.fromkeys(_tokens(r) for r in ref_set))
        if not unique:
            raise InputError(f"reference set of caption {b} is empty")
        ref_rows.append(unique)
    B = len(cands)
    if not B:
        return CaptionScores(np.zeros(0), np.zeros(0), np.zeros(0))
    rows = cands + [r for unique in ref_rows for r in unique]
    R = len(rows)
    lens = np.fromiter(map(len, rows), np.int64, R)
    flat = np.fromiter(itertools.chain.from_iterable(rows), np.int64, int(lens.sum()))
    if flat.size and flat.min() < 0:  # ROUGE-L pads rows with negative ids
        raise InputError("token ids must be non-negative")

    n_refs = np.fromiter(map(len, ref_rows), np.int64, B)
    pair_cand = np.repeat(np.arange(B), n_refs)
    pair_start = np.cumsum(n_refs) - n_refs
    cand_len, ref_len = lens[:B], lens[B:]
    row_of = np.repeat(np.arange(R), lens)
    pos = np.arange(flat.size) - np.repeat(np.cumsum(lens) - lens, lens)
    room = np.repeat(lens, lens) - pos  # tokens from each position to its row's end
    penalty = np.exp(-((cand_len[pair_cand] - ref_len) ** 2) / (2 * CIDER_SIGMA**2))

    # BLEU4 takes the same orders 1..4 as CIDEr-D
    cider_n = np.zeros((B, CIDER_N))
    log_prec = np.zeros((B, CIDER_N))
    unmatched = cand_len < CIDER_N
    for n in range(1, CIDER_N + 1):
        at = np.flatnonzero(room >= n)  # where an n-gram starts
        key = flat if n == 1 else gram[at] * n_tokens + token_rank[at + n - 1]
        by_key = np.argsort(key, kind="stable")
        key, row = key[by_key], row_of[at][by_key]
        new_gram = _changes(key)
        rank_n = np.cumsum(new_gram) - 1
        gram = np.zeros(flat.size, np.int64)
        gram[at[by_key]] = rank_n
        if n == 1:
            token_rank, n_tokens = gram, int(new_gram.sum())
        first = at[by_key[new_gram]]
        weight = idf.weights(list(map(tuple, flat[first[:, None] + np.arange(n)].tolist())))

        # one entry per (gram, row), sorted by gram then row, and the
        # entries again in first-occurrence order
        new_entry = new_gram | _changes(row)
        start = np.flatnonzero(new_entry)
        e_gram, e_row = rank_n[start], row[start]
        e_count = np.diff(start, append=key.size)
        # a scatter, not an argsort of the first positions: numpy's quicksort,
        # paged in by that argsort, raised eval peak RSS by 0.3 MB
        entry_of = np.empty(key.size, np.int64)
        entry_of[by_key] = np.cumsum(new_entry) - 1
        is_first = np.zeros(key.size, bool)
        is_first[by_key[start]] = True
        order = entry_of[is_first]
        o_row, o_gram, o_count = e_row[order], e_gram[order], e_count[order]
        o_weight = weight[o_gram]

        # CIDEr-D: each candidate entry joined with every reference of its pair.
        # The one-caption norms square with Python's ``**`` (C pow), as
        # float_power does; np.square rounds some products differently.
        norm = np.sqrt(np.bincount(o_row, np.float_power(o_count * o_weight, 2), minlength=R))
        c_start = np.searchsorted(o_row, np.arange(B + 1))
        per_pair = c_start[pair_cand + 1] - c_start[pair_cand]
        pair_of = np.repeat(np.arange(len(pair_cand)), per_pair)
        entry = np.repeat(c_start[pair_cand], per_pair) + (
            np.arange(pair_of.size) - np.repeat(np.cumsum(per_pair) - per_pair, per_pair))
        ref_count = _lookup(e_gram * R + e_row, e_count, o_gram[entry] * R + B + pair_of)
        hit = ref_count > 0
        c, r, w = o_count[entry][hit], ref_count[hit], o_weight[entry][hit]
        num = np.bincount(pair_of[hit], np.minimum(c, r) * w * r * w, minlength=len(pair_cand))
        norm_c, norm_r = norm[pair_cand], norm[B:]
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = np.where((norm_c > 0) & (norm_r > 0),
                               penalty * num / (norm_c * norm_r), 0.0)
        cider_n[:, n - 1] = np.bincount(pair_cand, contrib, minlength=B)

        # BLEU4: clip each candidate gram by its max count over the candidate's
        # references; (gram, owning candidate) keys of the reference entries
        # are already sorted, since a candidate's reference rows follow each other
        is_ref = e_row >= B
        owner_key = e_gram[is_ref] * B + pair_cand[e_row[is_ref] - B]
        new_owner = _changes(owner_key)
        max_ref = np.maximum.reduceat(e_count[is_ref], np.flatnonzero(new_owner))
        is_cand = ~is_ref
        clip = np.minimum(e_count[is_cand], _lookup(owner_key[new_owner], max_ref,
                                                    e_gram[is_cand] * B + e_row[is_cand]))
        clipped = np.bincount(e_row[is_cand], clip, minlength=B)
        unmatched |= clipped == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            log_prec[:, n - 1] = np.where(unmatched, 0.0, np.log(clipped / (cand_len - n + 1)))

    cider = 10.0 * cider_n.mean(axis=1) / n_refs
    # brevity against the closest reference length, the shorter one on ties
    span = lens.max() + 1
    closest = np.minimum.reduceat(np.abs(ref_len - cand_len[pair_cand]) * span + ref_len,
                                  pair_start) % span
    with np.errstate(divide="ignore", invalid="ignore"):
        brevity = np.where(cand_len > closest, 1.0, np.exp(1.0 - closest / cand_len))
    bleu = np.where(unmatched, 0.0, brevity * np.exp(log_prec.mean(axis=1)))

    # ROUGE-L: the LCS tables of all pairs filled one candidate position at a
    # time.  With a match the diagonal step dominates its neighbours, so a
    # table row is the running maximum of prev[j-1] + 1 where the tokens match
    # and prev[j] elsewhere.  Candidates pad with -1 and references with -2.
    table = np.full((R, int(lens.max())), -2, np.int64)
    table[:B] = -1
    table[row_of, pos] = flat
    cand, ref = table[:B][pair_cand], table[B:]
    lcs = np.zeros((len(pair_cand), table.shape[1] + 1), np.int64)
    for i in range(int(cand_len.max())):
        step = np.where(cand[:, i : i + 1] == ref, lcs[:, :-1] + 1, lcs[:, 1:])
        lcs[:, 1:] = np.maximum.accumulate(step, axis=1)
    lcs = lcs[:, -1]
    b2 = ROUGE_BETA**2
    with np.errstate(divide="ignore", invalid="ignore"):
        prec, rec = lcs / cand_len[pair_cand], lcs / ref_len
        f = np.where(lcs > 0, (1 + b2) * prec * rec / (rec + b2 * prec), 0.0)
    return CaptionScores(cider, bleu, np.maximum.reduceat(f, pair_start))


def _changes(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a run of equal keys starts."""
    new = np.ones(sorted_keys.size, bool)
    new[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return new


def _lookup(keys: np.ndarray, values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``values`` at each query's position in sorted ``keys``, 0 where absent."""
    if not len(keys):
        return np.zeros(len(queries), np.int64)
    at = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return np.where(keys[at] == queries, values[at], 0)


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


def semantic_score(model: CcaModel, X, Y) -> np.ndarray:
    """Correlation-weighted cosines of n caption-vector rows ``X`` against n
    image-vector rows ``Y``, with one projection per side; one pair is n = 1.
    A row with a zero-norm projection scores 0.0 and logs one warning."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1:] != model.mean_x.shape or Y.shape != (len(X), *model.mean_y.shape):
        raise InputError("embedding dimensions do not match the fitted model")
    A = model.sigma * ((X - model.mean_x) @ model.U)
    B = (Y - model.mean_y) @ model.V
    norms = np.linalg.norm(A, axis=1) * np.linalg.norm(B, axis=1)
    for row in np.flatnonzero(norms == 0.0).tolist():
        logger.warning("semantic_score: zero-norm projection in row %d, returning 0", row)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.clip((A * B).sum(axis=1) / norms, -1.0, 1.0)
    return np.where(norms == 0.0, 0.0, cos)


def _mean_vectors(embed, captions, image_feats) -> tuple[np.ndarray, np.ndarray]:
    """Mean token embedding of each caption (zeros when empty), by length to
    keep a one-caption mean's bits, and mean crop feature of each image; the
    first token id outside the K rows of ``embed`` raises ``InputError``."""
    toks = [_tokens(c) for c in captions]
    flat = np.fromiter(itertools.chain.from_iterable(toks), np.int64)
    outside = (flat < 0) | (flat >= len(embed))
    if outside.any():
        raise InputError(f"token id {flat[outside.argmax()]} is outside [0, {len(embed)})")
    X = np.zeros((len(toks), embed.shape[1]))
    for n in set(map(len, toks)) - {0}:
        rows = [i for i, t in enumerate(toks) if len(t) == n]
        X[rows] = embed[[toks[i] for i in rows]].mean(axis=1)
    return X, np.asarray(image_feats, dtype=np.float64).mean(axis=1)


# checkpoint aux arrays of a fitted semantic scorer: its frozen embedding
# table, then the arrays of its CCA model
SEM_AUX = ("sem_embed", "sem_U", "sem_V", "sem_sigma", "sem_mean_x", "sem_mean_y")


@dataclass
class SemanticScorer:
    """CCA over (mean caption-token embedding, mean crop feature) pairs.

    The embedding table is frozen at fit time so scores stay comparable
    across training epochs; everything round-trips through checkpoint aux
    arrays (names in ``SEM_AUX``).
    """

    embed: np.ndarray
    model: CcaModel

    @staticmethod
    def fit(embed, captions, image_feats, rank: int) -> "SemanticScorer":
        """Fit on N captions against their N x C x d crops, over a frozen copy
        of the K x m ``embed``; the rank is clamped to min(m, d)."""
        embed = np.array(embed, dtype=np.float64)
        X, Y = _mean_vectors(embed, captions, image_feats)
        return SemanticScorer(embed, fit_cca(X, Y, min(rank, X.shape[1], Y.shape[1])))

    def score(self, captions, image_feats) -> np.ndarray:
        """Scores of B captions against their B x C x d crops, in one pass."""
        return semantic_score(self.model, *_mean_vectors(self.embed, captions, image_feats))

    def to_aux(self) -> dict:
        m = self.model
        return dict(zip(SEM_AUX, (self.embed, m.U, m.V, m.sigma, m.mean_x, m.mean_y)))

    @staticmethod
    def from_aux(aux: dict, vocab_size: int | None = None,
                 feature_dim: int | None = None) -> "SemanticScorer | None":
        """The scorer stored by ``to_aux``; None when ``aux`` holds none of
        its arrays.  A malformed table raises ``InputError``: every array
        must be present and finite, ``sem_embed`` K x m (K = ``vocab_size``
        when given), ``sem_U`` m x r, ``sem_V`` d x r (d = ``feature_dim``
        when given), ``sem_sigma`` r values in [0, 1], ``sem_mean_x`` m values
        and ``sem_mean_y`` d values."""
        present = [name for name in SEM_AUX if name in aux]
        if not present:
            return None
        if len(present) != len(SEM_AUX):
            raise InputError(f"semantic scorer needs all of {', '.join(SEM_AUX)}")
        arrays = {name: np.asarray(aux[name]) for name in SEM_AUX}
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                raise InputError(f"{name} holds a non-finite value")
        embed, sigma, mean_y = arrays["sem_embed"], arrays["sem_sigma"], arrays["sem_mean_y"]
        if embed.ndim != 2 or sigma.ndim != 1 or mean_y.ndim != 1:
            raise InputError("sem_embed must be 2-D, sem_sigma and sem_mean_y 1-D")
        (K, m), (r,), (d,) = embed.shape, sigma.shape, mean_y.shape
        if vocab_size is not None and K != vocab_size:
            raise InputError(f"sem_embed has {K} rows for a vocabulary of {vocab_size}")
        if feature_dim is not None and d != feature_dim:
            raise InputError(f"sem_mean_y has {d} values for image features of width "
                             f"{feature_dim}")
        for name, shape in (("sem_U", (m, r)), ("sem_V", (d, r)), ("sem_mean_x", (m,))):
            if arrays[name].shape != shape:
                raise InputError(f"{name} has shape {arrays[name].shape}, expected {shape}")
        if np.any((sigma < 0.0) | (sigma > 1.0)):
            raise InputError("sem_sigma must lie in [0, 1]")
        return SemanticScorer(embed, CcaModel(*(arrays[name] for name in SEM_AUX[1:])))
