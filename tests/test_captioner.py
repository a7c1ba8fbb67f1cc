import numpy as np
import pytest

from seqgan import autodiff as ad
from seqgan import captioner as cap
from conftest import central_difference, rel_err
from helpers import per_member_decode


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
    """Per-step oracle distributions along a token path, via decode_step."""
    config = params.config
    state = cap.initial_state(config)
    prev = config.bos_id
    dists = []
    for tok in list(tokens) + [None]:
        logits, state, _, _ = cap.decode_step(params, state, prev, feats)
        dists.append(masked_dist(config, logits))
        if tok is None:
            break
        prev = tok
    return dists


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
        state = cap.initial_state(config)
        for tok in range(config.vocab_size):
            logits, state, attn, gate = cap.decode_step(params, state, tok,
                                                        rand_feats(config, rng))
            assert attn.shape == (config.num_crops + 1,)
            assert abs(attn.sum() - 1.0) < 1e-12
            assert np.all(attn >= 0)
            assert 0.0 <= gate <= 1.0
            assert logits.shape == (config.vocab_size,)

    def test_zero_features_zero_sentinel_gives_zero_context(self):
        config = tiny_config()
        params = cap.init_params(config, 0)
        for arr in params.arrays.values():
            arr[:] = 0.0  # zero weights force a zero sentinel vector
        feats = np.zeros((config.num_crops, config.feature_dim))
        _, state, attn, _ = cap.decode_step(params, cap.initial_state(config), 2, feats)
        assert abs(attn.sum() - 1.0) < 1e-12
        np.testing.assert_array_equal(state.context, np.zeros_like(state.context))

    def test_token_out_of_range(self):
        config = tiny_config()
        params = cap.init_params(config, 0)
        with pytest.raises(cap.InputError):
            cap.decode_step(params, cap.initial_state(config), config.vocab_size,
                            np.zeros((config.num_crops, config.feature_dim)))

    def test_att2all_mode_sentinel_slot_zero(self):
        config = tiny_config(attention="att2all")
        params = cap.init_params(config, 5)
        rng = np.random.default_rng(2)
        _, _, attn, gate = cap.decode_step(params, cap.initial_state(config), 2,
                                           rand_feats(config, rng))
        assert attn[-1] == 0.0
        assert gate == 0.0
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
        logits, _, _, _ = cap.decode_step(params, cap.initial_state(config),
                                          config.bos_id, feats)
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
        assert abs(cap.log_prob(params, feats, seq) - lp) < 1e-12

    def test_uniform_two_choice_case(self):
        # zero weights, two emittable tokens -> every step is log(1/2)
        config = tiny_config(vocab_size=3, max_len=3)
        params = cap.init_params(config, 0)
        for arr in params.arrays.values():
            arr[:] = 0.0
        feats = np.zeros((config.num_crops, config.feature_dim))
        seq = cap.TokenSequence([2, 2, 2], terminated=True)
        assert abs(cap.log_prob(params, feats, seq) - 3 * np.log(0.5)) < 1e-12

    def test_invalid_ids_rejected(self):
        config = tiny_config()
        params = cap.init_params(config, 0)
        feats = np.zeros((config.num_crops, config.feature_dim))
        with pytest.raises(cap.InputError):
            cap.log_prob(params, feats, cap.TokenSequence([], False))
        with pytest.raises(cap.InputError):
            cap.log_prob(params, feats, cap.TokenSequence([config.vocab_size], True))
        with pytest.raises(cap.InputError):
            cap.log_prob(params, feats, cap.TokenSequence([config.bos_id], True))

    def test_gradient_vs_finite_differences(self):
        config = tiny_config()
        rng = np.random.default_rng(8)
        params = cap.init_params(config, 9)
        feats = rand_feats(config, rng)
        seq = cap.TokenSequence([2, 3, 1], terminated=True)

        tape = ad.Tape()
        bound = cap.BoundCaptioner(tape, params)
        root = bound.sequence_log_prob(feats, seq)
        ad.backward(tape, root)

        for name in params.arrays:
            def f(arr, name=name):
                trial = params.copy()
                trial.arrays[name] = arr
                return cap.log_prob(trial, feats, seq)

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
        state_a, state_b = cap.initial_state(config), cap.initial_state(config)
        prev = config.bos_id
        for tok in ens.tokens:
            la, state_a, _, _ = cap.decode_step(pa, state_a, prev, feats)
            lb, state_b, _, _ = cap.decode_step(pb, state_b, prev, feats)
            avg = 0.5 * (masked_dist(config, la) + masked_dist(config, lb))
            assert tok == int(np.argmax(avg))
            prev = tok


class TestNoGradEquivalence:
    """Inference runs on no-grad tapes; the same pass recorded on grad tapes
    is the oracle, and values must match bit for bit."""

    CASES = [(seed, attention) for seed in range(4)
             for attention in ("context_aware", "att2all")]

    def _setup(self, seed, attention, n_models=1):
        config = tiny_config(vocab_size=7, max_len=6, attention=attention)
        models = [cap.init_params(config, 40 + seed + 10 * k) for k in range(n_models)]
        feats = rand_feats(config, np.random.default_rng(seed))
        return config, models, feats

    @pytest.mark.parametrize("seed,attention", CASES)
    def test_greedy_decode(self, on_grad_tapes, seed, attention):
        _, (params,), feats = self._setup(seed, attention)
        assert cap.greedy_decode(params, feats) == \
            on_grad_tapes(cap.greedy_decode, params, feats)

    @pytest.mark.parametrize("seed,attention", CASES)
    def test_sample_sentence(self, on_grad_tapes, seed, attention):
        _, (params,), feats = self._setup(seed, attention)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            seq_a, logp_a = cap.sample_sentence(params, feats, rng_a)
            seq_b, logp_b = on_grad_tapes(cap.sample_sentence, params, feats, rng_b)
            assert seq_a == seq_b and logp_a == logp_b
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("n_models", [1, 3])
    @pytest.mark.parametrize("seed,attention", CASES)
    def test_ensemble_decode(self, on_grad_tapes, seed, attention, n_models):
        _, models, feats = self._setup(seed, attention, n_models)
        assert cap.ensemble_decode(models, feats) == \
            on_grad_tapes(cap.ensemble_decode, models, feats)

    @pytest.mark.parametrize("seed,attention", CASES)
    def test_log_prob(self, on_grad_tapes, seed, attention):
        _, (params,), feats = self._setup(seed, attention)
        seq, _ = cap.sample_sentence(params, feats, np.random.default_rng(seed))
        assert cap.log_prob(params, feats, seq) == \
            on_grad_tapes(cap.log_prob, params, feats, seq)

    @pytest.mark.parametrize("seed,attention", CASES)
    def test_decode_step(self, on_grad_tapes, seed, attention):
        config, (params,), feats = self._setup(seed, attention)
        state = cap.initial_state(config)
        prev = config.bos_id
        for tok in (2, 3, 4):
            a = cap.decode_step(params, state, prev, feats)
            b = on_grad_tapes(cap.decode_step, params, state, prev, feats)
            for x, y in [(a[0], b[0]), (a[1].h, b[1].h), (a[1].c, b[1].c),
                         (a[1].context, b[1].context), (a[2], b[2])]:
                assert np.array_equal(x, y)
            assert a[3] == b[3]
            state, prev = a[1], tok

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
        cap.log_prob(models[0], feats, seq)
        cap.decode_step(models[0], cap.initial_state(config), config.bos_id, feats)
        for m, k in zip(models, keep):
            for name in m.arrays:
                assert np.array_equal(m.arrays[name], k.arrays[name])
