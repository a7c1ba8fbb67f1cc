"""The discriminator's word LSTM, one ``Tape.record`` node, against the
per-step tape loop of per-gate cells in ``helpers.PerGateDiscriminator``.

The node steps the numpy cell over all B rows of a padded batch; its VJP
returns the gradients of ``lstm_W``, ``lstm_b`` and the word vectors, so
relaxed rows still get theirs.  Scores, the pooled caption embedding, every
parameter gradient and the relaxed rows' gradient must match the oracle to
1e-12 for batches of 1 to 8 captions of mixed lengths, T = 1 and the
captioner's ``max_len`` among them.  Central differences check the relaxed
rows' gradient without any oracle, and a perturbed oracle must fail the
comparison.  Hard rows are a constant: their product with the embedding is
one node whose only parent is the embedding, so no rows-sized gradient is
formed.
"""

import numpy as np
import pytest

from seqgan import autodiff as ad
from seqgan import captioner as cap
from seqgan import discriminator as disc
from conftest import central_difference, rel_err
from helpers import PerGateDiscriminator

TOL = 1e-12
K, MAX_LEN = 9, 6


def max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def make_params(variant, seed=0):
    config = disc.DiscriminatorConfig(vocab_size=K, hidden_dim=5, num_crops=3, feature_dim=4)
    return disc.init_discriminator(config, 30 + seed, variant)


def make_batch(B, seed):
    """B captions with lengths in 1..MAX_LEN, 1 and MAX_LEN both present
    once B > 1 (B = 1 is one word, so T = 1).  Returns the lengths, relaxed
    rows (simplex rows, zero past each caption's end), the one-hot rows of
    random captions of those lengths, and B x C x d features."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, MAX_LEN + 1, size=B)
    lengths[0] = 1
    if B > 1:
        lengths[-1] = MAX_LEN
    T = int(lengths.max())
    valid = np.arange(T) < lengths[:, None]
    soft = rng.dirichlet(np.ones(K), size=(B, T)) * valid[:, :, None]
    seqs = [cap.TokenSequence(rng.integers(2, K, size=n - 1).tolist() + [1], True)
            for n in lengths]
    hard, hard_lengths = cap.CaptionBatch(seqs).one_hot(K)
    assert list(hard_lengths) == lengths.tolist()
    return lengths, soft, hard, rng.uniform(-1, 1, (B, 3, 4))


def loss_of(out):
    """The scores' sum plus a fixed weighting of the pooled caption
    embeddings, so the gradient reaches the LSTM through both heads."""
    w = np.random.default_rng(7).uniform(-1, 1, out["e_cap"].shape)
    return ad.reduce_sum(out["score"]) + ad.reduce_sum(ad.mul(out["e_cap"], w))


def run(cls, params, feats, rows, lengths, relaxed):
    """Forward and backward of ``loss_of``.  Returns the scores and pooled
    caption embeddings as one vector, every parameter gradient, the hidden
    states and the relaxed rows' gradient (None for plain rows)."""
    tape = ad.Tape()
    bound = cls(tape, params)
    rows_in = tape.tensor(rows) if relaxed else rows
    out = bound.forward(feats, rows_in, lengths)
    ad.backward(tape, loss_of(out))
    hidden = cls(ad.Tape(grad=False), params)
    states = hidden.hidden_states(hidden.embed_rows(rows)).data
    values = np.concatenate([out["score"].data, out["e_cap"].data.reshape(-1)])
    return (values, {n: bound.p[n].grad for n in params.arrays}, states,
            rows_in.grad if relaxed else None)


def compare(got, want):
    """The largest deviation over values, states and every gradient."""
    values, grads, states, rows_grad = got
    ref_values, ref_grads, ref_states, ref_rows_grad = want
    diffs = [max_diff(values, ref_values), max_diff(states, ref_states)]
    diffs += [max_diff(grads[n], ref_grads[n]) for n in grads]
    if rows_grad is not None:
        assert rows_grad.shape == ref_rows_grad.shape
        diffs.append(max_diff(rows_grad, ref_rows_grad))
    return max(diffs)


@pytest.mark.parametrize("relaxed", (True, False), ids=("relaxed", "hard"))
@pytest.mark.parametrize("variant", disc.VARIANTS)
@pytest.mark.parametrize("B", range(1, 9))
def test_matches_per_gate_tape_loop(B, variant, relaxed):
    params = make_params(variant, B)
    lengths, soft, hard, feats = make_batch(B, B)
    rows = soft if relaxed else hard
    got = run(disc.BoundDiscriminator, params, feats, rows, lengths, relaxed)
    want = run(PerGateDiscriminator, params, feats, rows, lengths, relaxed)
    assert got[2].shape == (B, int(lengths.max()), 5)
    assert compare(got, want) <= TOL


@pytest.mark.parametrize("variant", disc.VARIANTS)
def test_all_one_word_captions(variant):
    """B > 1 with T = 1: the node takes one step for every row."""
    params = make_params(variant, 9)
    _, soft, _, feats = make_batch(4, 9)
    soft, lengths = soft[:, :1], np.ones(4, dtype=int)
    got = run(disc.BoundDiscriminator, params, feats, soft, lengths, True)
    want = run(PerGateDiscriminator, params, feats, soft, lengths, True)
    assert compare(got, want) <= TOL


@pytest.mark.parametrize("variant", disc.VARIANTS)
def test_relaxed_rows_gradient_vs_fd(variant):
    params = make_params(variant, 11)
    lengths, soft, _, feats = make_batch(3, 11)
    rows = soft + 0.05  # no zero entry, so every difference step stays nonnegative
    *_, rows_grad = run(disc.BoundDiscriminator, params, feats, rows, lengths, True)

    def f(arr):
        bound = disc.BoundDiscriminator(ad.Tape(grad=False), params)
        return loss_of(bound.forward(feats, arr, lengths)).item()

    assert rel_err(rows_grad, central_difference(f, rows.copy())) < 1e-6


class ForgetShiftedOracle(PerGateDiscriminator):
    """The oracle with 1e-3 added to the forget gate's bias."""

    def __init__(self, tape, params):
        super().__init__(tape, params)
        W_x, W_h, b = self.gates["f"]
        self.gates["f"] = (W_x, W_h, ad.add(b, 1e-3))


@pytest.mark.parametrize("variant", disc.VARIANTS)
def test_perturbed_oracle_fails(variant):
    """The comparison can fail: a 1e-3 shift of the oracle's forget gate
    moves values or gradients far past the tolerance."""
    params = make_params(variant, 5)
    lengths, soft, _, feats = make_batch(5, 5)
    got = run(disc.BoundDiscriminator, params, feats, soft, lengths, True)
    assert compare(got, run(PerGateDiscriminator, params, feats, soft, lengths, True)) <= TOL
    assert compare(got, run(ForgetShiftedOracle, params, feats, soft, lengths, True)) > 1e-6


class TestHardRows:
    def test_one_node_whose_only_parent_is_the_embedding(self):
        params = make_params("coatt")
        _, _, hard, _ = make_batch(4, 3)
        tape = ad.Tape()
        bound = disc.BoundDiscriminator(tape, params)
        before = len(tape.nodes)
        X = bound.embed_rows(hard)
        assert len(tape.nodes) == before + 1
        assert tape.nodes[X.index].parents == (bound.p["embed"].index,)
        assert np.array_equal(X.data, hard @ params.arrays["embed"])

    @pytest.mark.parametrize("variant", disc.VARIANTS)
    def test_d_step_forms_no_rows_sized_gradient(self, variant):
        """Backward through hard rows forms no B x T x K array: the rows are
        a constant, not a leaf whose gradient nobody reads."""
        params = make_params(variant)
        lengths, _, hard, feats = make_batch(6, 4)
        tape = ad.Tape()
        out = disc.BoundDiscriminator(tape, params).forward(feats, hard, lengths)
        ad.backward(tape, loss_of(out))
        shapes = {g.shape for g in tape.gradients if g is not None}
        assert hard.shape not in shapes and (K, 5) in shapes
