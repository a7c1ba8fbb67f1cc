import numpy as np
import pytest

from seqgan import autodiff as ad
from seqgan import captioner as cap
from conftest import central_difference, rel_err
from helpers import bound_decode, multinomial_pick, per_member_decode, replay_steps


def tiny_config(**kw):
    defaults = dict(vocab_size=5, hidden_dim=4, num_crops=2, feature_dim=3,
                    max_len=4, bos_id=0, eos_id=1)
    defaults.update(kw)
    return cap.CaptionerConfig(**defaults)


def rand_feats(config, rng):
    return rng.uniform(-1, 1, (config.num_crops, config.feature_dim))


def masked_dist(config, logits):
    """Oracle word distribution: plain softmax with BOS removed."""
    z = logits.copy()
    z[config.bos_id] = -np.inf
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def replay_step_dists(params, feats, tokens):
    """Per-step oracle distributions along a token path, one bound captioner
    stepped from BOS through it."""
    prevs = [params.config.bos_id] + list(tokens)
    return [masked_dist(params.config, step[-1])
            for step in replay_steps(params, feats, prevs)]


class TestInitParams:
    def test_same_seed_identical(self):
        config = tiny_config()
        p1, p2 = cap.init_params(config, 7), cap.init_params(config, 7)
        for name in p1.arrays:
            np.testing.assert_array_equal(p1.arrays[name], p2.arrays[name])

    def test_different_seeds_differ(self):
        config = tiny_config()
        p1, p2 = cap.init_params(config, 7), cap.init_params(config, 8)
        assert any(not np.array_equal(p1.arrays[n], p2.arrays[n]) for n in p1.arrays)

    def test_range(self):
        config = tiny_config(hidden_dim=9)
        p = cap.init_params(config, 0)
        bound = 1.0 / 3.0
        for arr in p.arrays.values():
            assert np.all(np.abs(arr) <= bound)


class TestDecodeStep:
    def test_attention_on_simplex(self):
        rng = np.random.default_rng(1)
        config = tiny_config()
        params = cap.init_params(config, 3)
        bound = cap.BoundCaptioner(ad.Tape(grad=False), params)
        h, c, ctx = bound.zero_state()
        for tok in range(config.vocab_size):
            feats_proj = bound.project_feats(rand_feats(config, rng))
            row, h, c, ctx, attn = bound.step(h, c, ctx, bound.embed_token(tok), feats_proj)
            weights = attn.data.reshape(-1)
            assert weights.shape == (config.num_crops + 1,)
            assert abs(weights.sum() - 1.0) < 1e-12
            assert np.all(weights >= 0)
            assert 0.0 <= weights[-1] <= 1.0  # the sentinel gate
            assert bound.logits(row).data.reshape(-1).shape == (config.vocab_size,)

    def test_zero_features_zero_sentinel_gives_zero_context(self):
        config = tiny_config()
        params = cap.init_params(config, 0)
        for arr in params.arrays.values():
            arr[:] = 0.0  # zero weights force a zero sentinel vector
        feats = np.zeros((config.num_crops, config.feature_dim))
        (_, _, _, ctx, attn, _), = replay_steps(params, feats, [2])
        assert abs(attn.sum() - 1.0) < 1e-12
        np.testing.assert_array_equal(ctx, np.zeros_like(ctx))

    def test_token_out_of_range(self):
        config = tiny_config()
        bound = cap.BoundCaptioner(ad.Tape(grad=False), cap.init_params(config, 0))
        with pytest.raises(cap.InputError):
            bound.embed_token(config.vocab_size)

    @pytest.mark.parametrize("token", (np.array([0, 5]), np.array([-1]), np.array([[1]]),
                                       1.0, np.array([1, 2])))
    def test_token_must_be_one_int(self, token):
        """A vector of ids, or any value but one int, raises ``InputError``."""
        bound = cap.BoundCaptioner(ad.Tape(grad=False), cap.init_params(tiny_config(), 0))
        with pytest.raises(cap.InputError):
            bound.embed_token(token)

    def test_att2all_mode_sentinel_slot_zero(self):
        config = tiny_config(attention="att2all")
        params = cap.init_params(config, 5)
        rng = np.random.default_rng(2)
        (*_, attn, _), = replay_steps(params, rand_feats(config, rng), [2])
        assert attn[0, -1] == 0.0  # the sentinel gate
        assert abs(attn.sum() - 1.0) < 1e-12


class TestGreedyDecode:
    def test_deterministic(self):
        rng = np.random.default_rng(4)
        config = tiny_config()
        params = cap.init_params(config, 11)
        feats = rand_feats(config, rng)
        s1, s2 = cap.greedy_decode(params, feats), cap.greedy_decode(params, feats)
        assert s1.tokens == s2.tokens and s1.terminated == s2.terminated

    def test_max_len_one(self):
        config = tiny_config(max_len=1)
        params = cap.init_params(config, 11)
        seq = cap.greedy_decode(params, rand_feats(config, np.random.default_rng(4)))
        assert len(seq.tokens) == 1 and seq.terminated

    def test_matches_per_step_argmax_oracle(self):
        # 3 usable tokens, several random weight draws
        config = tiny_config(vocab_size=5, max_len=5)
        rng = np.random.default_rng(6)
        for seed in range(5):
            params = cap.init_params(config, seed)
            feats = rand_feats(config, rng)
            seq = cap.greedy_decode(params, feats)
            dists = replay_step_dists(params, feats, seq.tokens[:-1])
            for t, tok in enumerate(seq.tokens):
                assert tok == int(np.argmax(dists[t]))

    def test_local_argmax_property(self):
        # every step's chosen token has maximal conditional probability
        config = tiny_config(vocab_size=5, max_len=4)
        params = cap.init_params(config, 21)
        feats = rand_feats(config, np.random.default_rng(9))
        seq = cap.greedy_decode(params, feats)
        dists = replay_step_dists(params, feats, seq.tokens[:-1])
        for t, tok in enumerate(seq.tokens):
            for other in range(config.vocab_size):
                assert dists[t][tok] >= dists[t][other]

    def test_crop_permutation_invariance(self):
        config = tiny_config(num_crops=4)
        params = cap.init_params(config, 13)
        rng = np.random.default_rng(14)
        feats = rand_feats(config, rng)
        base = cap.greedy_decode(params, feats)
        for _ in range(3):
            perm = rng.permutation(config.num_crops)
            assert cap.greedy_decode(params, feats[perm]).tokens == base.tokens


    @pytest.mark.parametrize("n_models", [1, 3])
    @pytest.mark.parametrize("attention", cap.ATTENTION_MODES)
    def test_batch_rows_equal_per_image_decodes(self, attention, n_models):
        """One pass over B images gives each image's own greedy decode, for
        B = 1..8, one model and three stacked members; rows stop at
        different steps."""
        config = tiny_config(vocab_size=7, hidden_dim=5, num_crops=3, max_len=6,
                             attention=attention)
        models = [cap.init_params(config, 40 + k) for k in range(n_models)]
        for model in models:  # sharper image dependence, so decode lengths vary
            model.arrays["attn_Wv"] *= 3.0
            model.arrays["out_W"] *= 3.0
        params = cap.stack_members(models)
        rng = np.random.default_rng(n_models)
        lengths = set()
        for B in range(1, 9):
            feats = np.array([rand_feats(config, rng) for _ in range(B)])
            rows = cap.greedy_decode_batch(params, feats)
            assert rows == [cap.greedy_decode(params, f) for f in feats]
            lengths |= {len(seq.tokens) for seq in rows}
        assert len(lengths) > 1


class TestSampleSentence:
    def test_log_prob_nonpositive_and_reproducible(self):
        config = tiny_config()
        params = cap.init_params(config, 2)
        feats = rand_feats(config, np.random.default_rng(1))
        s1, lp1 = cap.sample_sentence(params, feats, np.random.default_rng(42))
        s2, lp2 = cap.sample_sentence(params, feats, np.random.default_rng(42))
        assert lp1 <= 0.0
        assert s1.tokens == s2.tokens and lp1 == lp2

    def test_never_emits_bos(self):
        config = tiny_config()
        params = cap.init_params(config, 2)
        feats = rand_feats(config, np.random.default_rng(1))
        rng = np.random.default_rng(0)
        for _ in range(200):
            seq, _ = cap.sample_sentence(params, feats, rng)
            assert config.bos_id not in seq.tokens

    def test_first_step_frequencies_match_softmax(self):
        # Monte Carlo vs the exact masked softmax, 3-sigma binomial bounds
        config = tiny_config(vocab_size=5, max_len=1)
        params = cap.init_params(config, 3)
        feats = rand_feats(config, np.random.default_rng(2))
        (*_, logits), = replay_steps(params, feats, [config.bos_id])
        expected = masked_dist(config, logits)

        n = 100_000
        rng = np.random.default_rng(123)
        counts = np.zeros(config.vocab_size)
        for _ in range(n):
            seq, _ = cap.sample_sentence(params, feats, rng)
            counts[seq.tokens[0]] += 1
        sd = np.sqrt(n * expected * (1 - expected))
        assert np.all(np.abs(counts - n * expected) <= 3 * sd + 1e-9)


class TestLogProb:
    def test_matches_sample_value(self):
        config = tiny_config()
        params = cap.init_params(config, 5)
        feats = rand_feats(config, np.random.default_rng(3))
        seq, lp = cap.sample_sentence(params, feats, np.random.default_rng(7))
        bound = cap.BoundCaptioner(ad.Tape(grad=False), params)
        logp = bound.sequence_log_prob(feats[None], cap.CaptionBatch([seq])).item()
        assert abs(logp - lp) < 1e-12

    def test_uniform_two_choice_case(self):
        # zero weights, two emittable tokens -> every step is log(1/2)
        config = tiny_config(vocab_size=3, max_len=3)
        params = cap.init_params(config, 0)
        for arr in params.arrays.values():
            arr[:] = 0.0
        feats = np.zeros((config.num_crops, config.feature_dim))
        seq = cap.TokenSequence([2, 2, 2], terminated=True)
        bound = cap.BoundCaptioner(ad.Tape(grad=False), params)
        logp = bound.sequence_log_prob(feats[None], cap.CaptionBatch([seq])).item()
        assert abs(logp - 3 * np.log(0.5)) < 1e-12

    def test_invalid_ids_rejected(self):
        config = tiny_config()
        params = cap.init_params(config, 0)
        feats = np.zeros((config.num_crops, config.feature_dim))
        bound = cap.BoundCaptioner(ad.Tape(grad=False), params)
        for tokens in ([], [config.vocab_size], [config.bos_id]):
            with pytest.raises(cap.InputError):
                seq = cap.TokenSequence(tokens, bool(tokens))
                bound.sequence_log_prob(feats[None], cap.CaptionBatch([seq]))

    def test_gradient_vs_finite_differences(self):
        config = tiny_config()
        rng = np.random.default_rng(8)
        params = cap.init_params(config, 9)
        feats = rand_feats(config, rng)
        seq = cap.TokenSequence([2, 3, 1], terminated=True)

        tape = ad.Tape()
        bound = cap.BoundCaptioner(tape, params)
        root = bound.sequence_log_prob(feats[None], cap.CaptionBatch([seq]))
        ad.backward(tape, root)

        for name in params.arrays:
            def f(arr, name=name):
                trial = params.copy()
                trial.arrays[name] = arr
                plain = cap.BoundCaptioner(ad.Tape(grad=False), trial)
                return plain.sequence_log_prob(feats[None], cap.CaptionBatch([seq])).item()

            fd = central_difference(f, params.arrays[name].copy())
            assert rel_err(bound.p[name].grad, fd) < 1e-4, name


class TestEnsembleDecode:
    def test_identical_models_equal_single(self):
        config = tiny_config()
        params = cap.init_params(config, 17)
        feats = rand_feats(config, np.random.default_rng(5))
        single = cap.greedy_decode(params, feats)
        ens = cap.ensemble_decode([params, params.copy(), params.copy()], feats)
        assert ens.tokens == single.tokens

    def test_single_member_equals_greedy(self):
        config = tiny_config()
        params = cap.init_params(config, 18)
        feats = rand_feats(config, np.random.default_rng(6))
        assert cap.ensemble_decode([params], feats).tokens == \
            cap.greedy_decode(params, feats).tokens

    def test_mismatched_configs_rejected(self):
        p1 = cap.init_params(tiny_config(), 0)
        p2 = cap.init_params(tiny_config(hidden_dim=6), 0)
        with pytest.raises(cap.InputError):
            cap.ensemble_decode([p1, p2], np.zeros((2, 3)))

    @pytest.mark.parametrize("n_models", [1, 2, 3])
    @pytest.mark.parametrize("attention", cap.ATTENTION_MODES)
    def test_stacked_bind_matches_per_member_loop(self, attention, n_models):
        config = tiny_config(vocab_size=7, hidden_dim=5, num_crops=3, max_len=6,
                             attention=attention)
        for seed in range(4):
            models = [cap.init_params(config, 60 + 7 * seed + k) for k in range(n_models)]
            feats = rand_feats(config, np.random.default_rng(seed))
            steps = []

            def pick(probs):  # 1 x K: one image
                steps.append(probs[0].copy())
                return np.argmax(probs, axis=-1)

            seq, = cap._decode(cap.stack_members(models), feats, pick)
            oracle_seq, oracle_steps = per_member_decode(models, feats)
            assert cap.ensemble_decode(models, feats) == seq == oracle_seq
            assert len(steps) == len(oracle_steps)
            for got, want in zip(steps, oracle_steps):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_stacked_bind_rejects_mismatched_arrays(self):
        config = tiny_config()
        p1, p2 = cap.init_params(config, 0), cap.init_params(config, 1)
        feats = rand_feats(config, np.random.default_rng(0))
        wide = p2.copy()
        wide.arrays["out_b"] = np.zeros((1, config.vocab_size + 1))
        short = p2.copy()
        del short.arrays["attn_b"]
        renamed = p2.copy()
        renamed.arrays["extra"] = renamed.arrays.pop("attn_b")
        for bad in (wide, short, renamed):
            with pytest.raises(cap.InputError, match="names and shapes"):
                cap.ensemble_decode([p1, bad], feats)

    def test_two_model_average_matches_hand_average(self):
        config = tiny_config(vocab_size=5, max_len=4)
        pa, pb = cap.init_params(config, 31), cap.init_params(config, 32)
        feats = rand_feats(config, np.random.default_rng(7))
        ens = cap.ensemble_decode([pa, pb], feats)

        # oracle: replay both models step by step, average, argmax
        prevs = [config.bos_id] + ens.tokens[:-1]
        for tok, step_a, step_b in zip(ens.tokens, replay_steps(pa, feats, prevs),
                                       replay_steps(pb, feats, prevs)):
            avg = 0.5 * (masked_dist(config, step_a[-1]) + masked_dist(config, step_b[-1]))
            assert tok == int(np.argmax(avg))


class TestNoGradEquivalence:
    """Inference runs in plain numpy (the decoders bind no captioner) or on
    no-grad tapes; the same pass recorded on grad tapes is the oracle, and
    values must match bit for bit."""

    CASES = [(seed, attention) for seed in range(4)
             for attention in ("context_aware", "att2all")]

    def _setup(self, seed, attention, n_models=1):
        config = tiny_config(vocab_size=7, max_len=6, attention=attention)
        models = [cap.init_params(config, 40 + seed + 10 * k) for k in range(n_models)]
        feats = rand_feats(config, np.random.default_rng(seed))
        return config, models, feats

    @staticmethod
    def plain_dists(params, feats):
        """Greedy tokens and step distributions of the plain decode loop."""
        dists = []

        def pick(probs):
            dists.append(probs.copy())
            return cap._argmax(probs)

        seq, = cap._decode(params, feats, pick)
        return seq.tokens, dists

    def check_greedy(self, params, feats):
        tokens, dists = self.plain_dists(params, feats)
        ref_tokens, ref_dists = bound_decode(params, feats, cap._argmax)
        assert tokens == ref_tokens and len(dists) == len(ref_dists)
        for got, want in zip(dists, ref_dists):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed,attention", CASES)
    def test_greedy_decode(self, seed, attention):
        _, (params,), feats = self._setup(seed, attention)
        self.check_greedy(params, feats)
        assert cap.greedy_decode(params, feats).tokens == self.plain_dists(params, feats)[0]

    @pytest.mark.parametrize("seed,attention", CASES)
    def test_sample_sentence(self, seed, attention):
        _, (params,), feats = self._setup(seed, attention)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            seq_a, logp_a = cap.sample_sentence(params, feats, rng_a)
            pick, logp_b = multinomial_pick(rng_b)
            tokens_b, _ = bound_decode(params, feats, pick)
            assert seq_a.tokens == tokens_b and logp_a == logp_b[0]
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("n_models", [1, 3])
    @pytest.mark.parametrize("seed,attention", CASES)
    def test_ensemble_decode(self, seed, attention, n_models):
        _, models, feats = self._setup(seed, attention, n_models)
        stacked = cap.stack_members(models)
        self.check_greedy(stacked, feats)
        assert cap.ensemble_decode(models, feats).tokens == self.plain_dists(stacked, feats)[0]

    @pytest.mark.parametrize("seed,attention", CASES)
    def test_log_prob(self, seed, attention):
        _, (params,), feats = self._setup(seed, attention)
        seq, _ = cap.sample_sentence(params, feats, np.random.default_rng(seed))
        plain, taped = (cap.BoundCaptioner(tape, params).sequence_log_prob(
            feats[None], cap.CaptionBatch([seq])).item()
            for tape in (ad.Tape(grad=False), ad.Tape()))
        assert plain == taped

    @pytest.mark.parametrize("seed,attention", CASES)
    def test_decode_step(self, seed, attention):
        config, (params,), feats = self._setup(seed, attention)
        prevs = [config.bos_id, 2, 3]
        plain_tape, taped_tape = ad.Tape(grad=False), ad.Tape()
        plain = replay_steps(params, feats, prevs, plain_tape)
        taped = replay_steps(params, feats, prevs, taped_tape)
        assert plain_tape.nodes == [] and plain_tape.gradients == [] and taped_tape.nodes
        assert len(plain) == len(taped) == len(prevs)
        for a, b in zip(plain, taped):  # row, h, c, ctx, attn, logits
            for x, y in zip(a, b):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("seed,attention", CASES)
    def test_ensemble_of_one_is_greedy(self, seed, attention):
        _, (params,), feats = self._setup(seed, attention)
        assert cap.ensemble_decode([params], feats) == cap.greedy_decode(params, feats)

    def test_inference_leaves_params_untouched(self):
        config, models, feats = self._setup(0, "context_aware", 3)
        keep = [m.copy() for m in models]
        bound = cap.BoundCaptioner(ad.Tape(grad=False), models[0])
        assert all(bound.p[n].data is models[0].arrays[n] for n in models[0].arrays)
        seq = cap.greedy_decode(models[0], feats)
        cap.sample_sentence(models[0], feats, np.random.default_rng(0))
        cap.ensemble_decode(models, feats)
        bound.sequence_log_prob(feats[None], cap.CaptionBatch([seq]))
        replay_steps(models[0], feats, [config.bos_id] + seq.tokens[:-1])
        for m, k in zip(models, keep):
            for name in m.arrays:
                assert np.array_equal(m.arrays[name], k.arrays[name])
