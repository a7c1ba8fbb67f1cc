import numpy as np
import pytest

from seqgan import autodiff as ad
from seqgan import discriminator as disc
from seqgan.captioner import CaptionBatch, InputError, TokenSequence
from conftest import central_difference, rel_err
from helpers import score_one


def tiny_config(**kw):
    defaults = dict(vocab_size=6, hidden_dim=4, num_crops=3, feature_dim=3)
    defaults.update(kw)
    return disc.DiscriminatorConfig(**defaults)


def rand_feats(config, rng):
    return rng.uniform(-1, 1, (config.num_crops, config.feature_dim))


def embed_caption(params, seq):
    """LSTM hidden state after each token of one caption, T x m."""
    bound = disc.BoundDiscriminator(ad.Tape(grad=False), params)
    rows, _ = CaptionBatch([seq]).one_hot(params.config.vocab_size)
    return bound.hidden_states(bound.embed_rows(rows)).data[0]


class TestEmbedCaption:
    def test_single_token_single_row(self):
        params = disc.init_discriminator(tiny_config(), 0, "coatt")
        H = embed_caption(params, TokenSequence([2], True))
        assert H.shape == (1, params.config.hidden_dim)

    def test_deterministic(self):
        params = disc.init_discriminator(tiny_config(), 1, "coatt")
        seq = TokenSequence([2, 3, 1], True)
        np.testing.assert_array_equal(embed_caption(params, seq),
                                      embed_caption(params, seq))

    def test_prefix_property(self):
        params = disc.init_discriminator(tiny_config(), 2, "jointemb")
        seq = TokenSequence([2, 4, 3, 1], True)
        full = embed_caption(params, seq)
        for t in range(1, len(seq.tokens) + 1):
            part = embed_caption(params, TokenSequence(seq.tokens[:t], False))
            np.testing.assert_allclose(full[:t], part, atol=1e-15)

    def test_empty_rejected(self):
        params = disc.init_discriminator(tiny_config(), 0, "coatt")
        with pytest.raises(InputError):
            embed_caption(params, TokenSequence([], False))


class TestCoattScore:
    def test_attention_simplexes(self):
        config = tiny_config()
        params = disc.init_discriminator(config, 3, "coatt")
        rng = np.random.default_rng(0)
        seq = TokenSequence([2, 3, 4, 1], True)
        bound = disc.BoundDiscriminator(ad.Tape(grad=False), params)
        out = bound.score_sequence(rand_feats(config, rng)[None], CaptionBatch([seq]))
        score = out["score"].item()
        alpha, beta, e_img, e_cap = (out[k].data.reshape(-1)
                                     for k in ("alpha", "beta", "e_img", "e_cap"))
        assert 0.0 < score < 1.0
        assert alpha.shape == (config.num_crops,) and beta.shape == (len(seq.tokens),)
        assert abs(alpha.sum() - 1.0) < 1e-12 and abs(beta.sum() - 1.0) < 1e-12
        assert np.all(alpha >= 0) and np.all(beta >= 0)
        assert e_img.shape == (config.hidden_dim,) and e_cap.shape == (config.hidden_dim,)

    def test_zero_params_half_score(self):
        config = tiny_config()
        params = disc.init_discriminator(config, 0, "coatt")
        for arr in params.arrays.values():
            arr[:] = 0.0
        bound = disc.BoundDiscriminator(ad.Tape(grad=False), params)
        out = bound.score_sequence(np.zeros((1, config.num_crops, config.feature_dim)),
                                   CaptionBatch([TokenSequence([2, 1], True)]))
        assert out["score"].item() == 0.5

    def test_crop_permutation_invariance(self):
        config = tiny_config(num_crops=4)
        params = disc.init_discriminator(config, 5, "coatt")
        rng = np.random.default_rng(1)
        feats = rand_feats(config, rng)
        seq = TokenSequence([3, 2, 1], True)
        bound = disc.BoundDiscriminator(ad.Tape(grad=False), params)
        base = bound.score_sequence(feats[None], CaptionBatch([seq]))
        for _ in range(4):
            perm = rng.permutation(config.num_crops)
            out = bound.score_sequence(feats[perm][None], CaptionBatch([seq]))
            assert abs(out["score"].item() - base["score"].item()) <= 1e-12
            np.testing.assert_allclose(out["alpha"].data[0, 0],
                                       base["alpha"].data[0, 0, perm], atol=1e-12)
            np.testing.assert_allclose(out["beta"].data, base["beta"].data, atol=1e-12)

    def test_shape_mismatch(self):
        params = disc.init_discriminator(tiny_config(), 0, "coatt")
        bound = disc.BoundDiscriminator(ad.Tape(grad=False), params)
        with pytest.raises(InputError):
            bound.score_sequence(np.zeros((1, 2, 2)), CaptionBatch([TokenSequence([2], True)]))

    def test_param_gradients_vs_fd(self):
        config = tiny_config()
        params = disc.init_discriminator(config, 7, "coatt")
        feats = rand_feats(config, np.random.default_rng(2))
        seq = TokenSequence([2, 4, 1], True)

        tape = ad.Tape()
        bound = disc.BoundDiscriminator(tape, params)
        root = ad.log(bound.score_sequence(feats[None], CaptionBatch([seq]))["score"])
        ad.backward(tape, root)

        for name in params.arrays:
            def f(arr, name=name):
                trial = params.copy()
                trial.arrays[name] = arr
                plain = disc.BoundDiscriminator(ad.Tape(grad=False), trial)
                return float(np.log(plain.score_sequence(feats[None], CaptionBatch([seq]))
                                    ["score"].item()))

            fd = central_difference(f, params.arrays[name].copy())
            assert rel_err(bound.p[name].grad, fd) < 1e-4, name


class TestJointEmbScore:
    def test_crop_permutation_exact(self):
        config = tiny_config(num_crops=5)
        params = disc.init_discriminator(config, 4, "jointemb")
        rng = np.random.default_rng(3)
        feats = rand_feats(config, rng)
        seq = TokenSequence([2, 3, 1], True)
        base = score_one(params, feats, seq)
        for _ in range(3):
            assert abs(score_one(params, feats[rng.permutation(5)], seq)
                       - base) <= 1e-12

    def test_zero_params_half_score(self):
        config = tiny_config()
        params = disc.init_discriminator(config, 0, "jointemb")
        for arr in params.arrays.values():
            arr[:] = 0.0
        assert score_one(params, np.zeros((config.num_crops, config.feature_dim)),
                         TokenSequence([2], True)) == 0.5

    def test_param_gradients_vs_fd(self):
        config = tiny_config()
        params = disc.init_discriminator(config, 9, "jointemb")
        feats = rand_feats(config, np.random.default_rng(4))
        seq = TokenSequence([4, 2, 1], True)

        tape = ad.Tape()
        bound = disc.BoundDiscriminator(tape, params)
        root = ad.log(bound.score_sequence(feats[None], CaptionBatch([seq]))["score"])
        ad.backward(tape, root)

        for name in params.arrays:
            def f(arr, name=name):
                trial = params.copy()
                trial.arrays[name] = arr
                return float(np.log(score_one(trial, feats, seq)))

            fd = central_difference(f, params.arrays[name].copy())
            assert rel_err(bound.p[name].grad, fd) < 1e-4, name


class TestScoreSoft:
    def test_onehot_matches_hard(self):
        config = tiny_config()
        rng = np.random.default_rng(5)
        feats = rand_feats(config, rng)
        seq = TokenSequence([2, 5, 3, 1], True)
        onehot = np.zeros((len(seq.tokens), config.vocab_size))
        onehot[np.arange(len(seq.tokens)), seq.tokens] = 1.0
        for params in (disc.init_discriminator(config, 6, "coatt"), disc.init_discriminator(config, 6, "jointemb")):
            hard = score_one(params, feats, seq)
            tape = ad.Tape(grad=False)
            bound = disc.BoundDiscriminator(tape, params)
            soft = bound.score_soft_rows(feats, [tape.tensor(onehot)])["score"].item()
            assert abs(hard - soft) <= 1e-12

    def test_single_vocab_uniform_row(self):
        # K = 1 forces the uniform row to equal the lone one-hot row
        config = tiny_config(vocab_size=1)
        params = disc.init_discriminator(config, 1, "coatt")
        feats = rand_feats(config, np.random.default_rng(6))
        hard = score_one(params, feats, TokenSequence([0], True))
        tape = ad.Tape(grad=False)
        bound = disc.BoundDiscriminator(tape, params)
        soft = bound.score_soft_rows(feats, [tape.tensor(np.ones((1, 1)))])["score"].item()
        assert abs(hard - soft) <= 1e-12

    def test_negative_entries_rejected(self):
        params = disc.init_discriminator(tiny_config(), 0, "coatt")
        bad = np.full((2, 6), 1.0 / 6.0)
        bad[0, 0] = -0.1
        tape = ad.Tape(grad=False)
        bound = disc.BoundDiscriminator(tape, params)
        with pytest.raises(InputError):
            bound.score_soft_rows(np.zeros((3, 3)), [tape.tensor(bad)])

    def test_gradient_wrt_soft_tokens_vs_fd(self):
        config = tiny_config()
        params = disc.init_discriminator(config, 8, "coatt")
        feats = rand_feats(config, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        soft0 = rng.dirichlet(np.ones(config.vocab_size), size=3)

        tape = ad.Tape()
        bound = disc.BoundDiscriminator(tape, params)
        rows = [tape.tensor(soft0[t : t + 1]) for t in range(3)]
        root = ad.log(bound.score_soft_rows(feats, rows)["score"])
        ad.backward(tape, root)
        analytic = np.vstack([r.grad for r in rows])

        plain = disc.BoundDiscriminator(ad.Tape(grad=False), params)
        fd = central_difference(
            lambda s: float(np.log(plain.score_soft_rows(
                feats, [plain.tape.tensor(s)])["score"].item())), soft0.copy())
        assert rel_err(analytic, fd) < 1e-4


class TestScoresStrictlyInUnitInterval:
    def test_random_sweep(self):
        config = tiny_config()
        rng = np.random.default_rng(9)
        for seed in range(5):
            for params in (disc.init_discriminator(config, seed, "coatt"), disc.init_discriminator(config, seed, "jointemb")):
                feats = rand_feats(config, rng)
                toks = [int(t) for t in rng.integers(0, config.vocab_size,
                                                     size=rng.integers(1, 6))]
                s = score_one(params, feats, TokenSequence(toks, True))
                assert 0.0 < s < 1.0


class TestNoGradEquivalence:
    """Plain values come from no-grad tapes; the same pass recorded on a
    grad tape must give bit-identical values."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("variant", ["coatt", "jointemb"])
    def test_front_ends(self, on_grad_tapes, seed, variant):
        config = tiny_config()
        params = disc.init_discriminator(config, seed, variant)
        rng = np.random.default_rng(seed)
        feats = rand_feats(config, rng)
        seq = TokenSequence([2, 4, 3, 1], True)
        soft = rng.dirichlet(np.ones(config.vocab_size), size=3)
        assert score_one(params, feats, seq) == on_grad_tapes(score_one, params, feats, seq)
        assert np.array_equal(embed_caption(params, seq),
                              on_grad_tapes(embed_caption, params, seq))
        plain, taped = (disc.BoundDiscriminator(tape, params)
                        for tape in (ad.Tape(grad=False), ad.Tape()))
        hard = [bound.score_sequence(feats[None], CaptionBatch([seq]))
                for bound in (plain, taped)]
        for key in ("score", "alpha", "beta", "e_img", "e_cap"):
            if variant == "jointemb" and key in ("alpha", "beta"):
                assert hard[0][key] is hard[1][key] is None
            else:
                assert np.array_equal(hard[0][key].data, hard[1][key].data), key
        relaxed = [bound.score_soft_rows(feats, [bound.tape.tensor(soft)])["score"].data
                   for bound in (plain, taped)]
        assert np.array_equal(*relaxed)


class TestPaddedBatch:
    """``forward`` scores captions of mixed lengths as one padded batch;
    every row equals the caption scored alone (B = 1) to 1e-12, and padded
    words get exactly zero attention."""

    LENGTHS = (3, 1, 6, 2, 5, 4)

    def setup_batch(self, variant, seed):
        config = tiny_config()
        params = disc.init_discriminator(config, seed, variant)
        rng = np.random.default_rng(seed)
        seqs = [TokenSequence([int(t) for t in rng.integers(0, config.vocab_size, size=n)],
                              True) for n in self.LENGTHS]
        feats = rng.uniform(-1, 1, (len(seqs), config.num_crops, config.feature_dim))
        return config, params, rng, seqs, feats

    def assert_row_equals(self, batch, b, one, n, variant):
        assert abs(batch["score"].data[b] - one["score"].item()) <= 1e-12
        for key in ("e_img", "e_cap"):
            assert np.max(np.abs(batch[key].data[b] - one[key].data[0])) <= 1e-12
        if variant == "coatt":
            assert np.max(np.abs(batch["alpha"].data[b] - one["alpha"].data[0])) <= 1e-12
            assert np.max(np.abs(batch["beta"].data[b, :, :n]
                                 - one["beta"].data[0])) <= 1e-12
            assert np.all(batch["beta"].data[b, :, n:] == 0.0)

    @pytest.mark.parametrize("variant", disc.VARIANTS)
    def test_hard_rows_equal_score_sequence(self, variant):
        _, params, _, seqs, feats = self.setup_batch(variant, 11)
        bound = disc.BoundDiscriminator(ad.Tape(grad=False), params)
        batch = bound.score_sequence(feats, CaptionBatch(seqs))
        assert batch["score"].shape == (len(seqs),)
        for b, seq in enumerate(seqs):
            one = bound.score_sequence(feats[b : b + 1], CaptionBatch([seq]))
            self.assert_row_equals(batch, b, one, len(seq.tokens), variant)

    @pytest.mark.parametrize("variant", disc.VARIANTS)
    def test_relaxed_rows_equal_score_soft_rows_with_gradients(self, variant):
        config, params, rng, _, feats = self.setup_batch(variant, 12)
        T, K = max(self.LENGTHS), config.vocab_size
        valid = np.arange(T) < np.array(self.LENGTHS)[:, None]
        soft = rng.dirichlet(np.ones(K), size=(len(self.LENGTHS), T)) * valid[..., None]

        tape = ad.Tape()
        bound = disc.BoundDiscriminator(tape, params)
        rows = tape.tensor(soft)
        batch = bound.forward(feats, rows, self.LENGTHS)
        ad.backward(tape, ad.reduce_sum(ad.log(batch["score"])))
        for b, n in enumerate(self.LENGTHS):
            t1 = ad.Tape()
            b1 = disc.BoundDiscriminator(t1, params)
            row_tensors = [t1.tensor(soft[b, t : t + 1]) for t in range(n)]
            one = b1.score_soft_rows(feats[b], row_tensors)
            ad.backward(t1, ad.log(one["score"]))
            self.assert_row_equals(batch, b, one, n, variant)
            single = np.vstack([r.grad for r in row_tensors])
            assert np.max(np.abs(rows.grad[b, :n] - single)) <= 1e-12
            assert np.all(rows.grad[b, n:] == 0.0)

    def test_bad_batches_rejected(self):
        config, params, _, seqs, feats = self.setup_batch("coatt", 14)
        bound = disc.BoundDiscriminator(ad.Tape(grad=False), params)
        K = config.vocab_size
        for bad_seqs in ([], seqs[:2] + [TokenSequence([], False)],
                         seqs[:2] + [TokenSequence([2, K], True)]):
            with pytest.raises(InputError):
                bound.score_sequence(feats[: len(bad_seqs)], CaptionBatch(bad_seqs))
        with pytest.raises(InputError):  # one feature row per caption
            bound.score_sequence(feats[:2], CaptionBatch(seqs[:3]))
        rows = np.zeros((2, 3, K))
        rows[:, :, 2] = 1.0
        for bad_rows, lengths in ((rows[:, :, :-1], [3, 3]), (rows[:, :0], [1, 1]),
                                  (-rows, [3, 3]), (rows, [3, 4]), (rows, [0, 3]),
                                  (rows, [3])):
            with pytest.raises(InputError):
                bound.forward(feats[:2], bad_rows, lengths)
