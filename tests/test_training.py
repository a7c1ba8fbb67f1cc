from types import SimpleNamespace

import numpy as np
import pytest

from seqgan import autodiff as ad
from seqgan import discriminator as disc
from seqgan import metrics as met
from seqgan import training as tr
from seqgan.captioner import (ATTENTION_MODES, BoundCaptioner, CaptionBatch, CaptionerConfig,
                              InputError, TokenSequence, greedy_decode, init_params,
                              sample_sentence)
from conftest import central_difference, rel_err
from helpers import (RecordingRng, ReplayRng, autodiff_expected_reward_grad,
                     enumerate_sequences, expected_policy_gradient, flat_grads, gumbel_grad,
                     gumbel_sample, loop_adam_step, loop_d_batch_step, loop_g_batch_step,
                     per_sequence_score_grads, policy_gradient_variance, scst_grad, score_one,
                     sequence_probabilities)


def tiny_setup(seed=0, vocab=5, crops=2, dim=3, m=4, max_len=4):
    gcfg = CaptionerConfig(vocab_size=vocab, hidden_dim=m, num_crops=crops,
                           feature_dim=dim, max_len=max_len)
    dcfg = disc.DiscriminatorConfig(vocab_size=vocab, hidden_dim=m,
                                    num_crops=crops, feature_dim=dim)
    g = init_params(gcfg, seed)
    d = disc.init_discriminator(dcfg, seed + 100, "coatt")
    feats = np.random.default_rng(seed + 200).uniform(-1, 1, (crops, dim))
    return g, d, feats


def tiny_dataset(n_images=6, seed=0, vocab=7, crops=2, dim=3):
    rng = np.random.default_rng(seed)
    dataset = []
    for i in range(n_images):
        feats = rng.uniform(-1, 1, (crops, dim))
        refs = [TokenSequence([int(t) for t in rng.integers(2, vocab, size=3)] + [1],
                              True) for _ in range(3)]
        dataset.append((feats, refs))
    return dataset


class TestAdam:
    def test_zero_gradient_no_change(self):
        arrays = {"w": np.array([1.0, -2.0])}
        state = tr.init_adam(arrays)
        tr.adam_step(arrays, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(arrays["w"], [1.0, -2.0])

    def test_constant_gradient_limit(self):
        arrays = {"w": np.array([0.0])}
        state = tr.init_adam(arrays)
        g = {"w": np.array([0.37])}
        prev = arrays["w"].copy()
        for _ in range(1000):
            prev = arrays["w"].copy()
            tr.adam_step(arrays, g, state, lr=0.01)
        # step size approaches lr * sign(g)
        assert abs(abs(arrays["w"][0] - prev[0]) - 0.01) < 1e-4

    def test_two_hand_computed_steps(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w = 1.0
        g1, g2 = 0.5, -0.25
        # step 1, written out
        m = (1 - b1) * g1
        v = (1 - b2) * g1 * g1
        w = w - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        # step 2
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2 * g2
        w = w - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)

        arrays = {"w": np.array([1.0])}
        state = tr.init_adam(arrays)
        tr.adam_step(arrays, {"w": np.array([g1])}, state, lr)
        tr.adam_step(arrays, {"w": np.array([g2])}, state, lr)
        assert abs(arrays["w"][0] - w) < 1e-12

    def test_shape_mismatch(self):
        arrays = {"w": np.zeros(2)}
        state = tr.init_adam(arrays)
        with pytest.raises(InputError):
            tr.adam_step(arrays, {"w": np.zeros(3)}, state, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_changes_nothing(self, bad):
        arrays = {"a": np.array([1.0, -2.0]), "w": np.array([0.5])}
        state = tr.init_adam(arrays)
        tr.adam_step(arrays, {"a": np.array([0.1, 0.2]), "w": np.array([0.3])}, state, 0.1)
        keep_arrays = {k: v.copy() for k, v in arrays.items()}
        keep_state = state.copy()
        # the finite gradient comes first, so a check made per parameter
        # while updating would already have moved "a"
        with pytest.raises(tr.NumericError, match="'w'.*step 2"):
            tr.adam_step(arrays, {"a": np.array([0.1, 0.2]), "w": np.array([bad])},
                         state, 0.1)
        for k in arrays:
            np.testing.assert_array_equal(arrays[k], keep_arrays[k])
            np.testing.assert_array_equal(state.m[k], keep_state.m[k])
            np.testing.assert_array_equal(state.v[k], keep_state.v[k])
        assert state.step == keep_state.step == 1

    @pytest.mark.parametrize("names", [("a",), ("a", "w", "x"), ("a", "x")])
    def test_gradient_names_must_match_state(self, names):
        arrays = {"a": np.array([1.0, -2.0]), "w": np.array([0.5])}
        state = tr.init_adam(arrays)
        with pytest.raises(InputError, match="Adam state"):
            tr.adam_step(arrays, {n: np.ones(2 if n == "a" else 1) for n in names}, state, 0.1)
        assert arrays["a"].tolist() == [1.0, -2.0] and arrays["w"].tolist() == [0.5]
        assert state.step == 0 and not state.flat_m.any() and not state.flat_v.any()

    def test_state_packs_separate_arrays_once(self):
        m = {"w": np.array([[1.0, 2.0], [3.0, 4.0]]), "b": np.array([5.0])}
        v = {"b": np.array([7.0]), "w": np.array([[6.0, 6.5], [6.25, 6.75]])}
        state = tr.AdamState(m, v, step=3)
        assert state.flat_m.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert state.flat_v.tolist() == [6.0, 6.5, 6.25, 6.75, 7.0]  # in m's order
        assert state.slices == {"w": (0, 4), "b": (4, 5)} and state.step == 3
        for name in m:
            assert np.array_equal(state.m[name], m[name]) and state.m[name] is not m[name]
            assert np.array_equal(state.v[name], v[name])
        state.m["w"] += 1.0  # the views write through to the flat array
        assert state.flat_m.tolist() == [2.0, 3.0, 4.0, 5.0, 5.0] and m["w"][0, 0] == 1.0
        copy = state.copy()
        copy.flat_v[:] = 0.0
        assert state.flat_v.tolist() == [6.0, 6.5, 6.25, 6.75, 7.0]
        with pytest.raises(InputError):
            tr.AdamState(m, {"w": v["w"]})

    def test_flat_state_matches_per_name_loop(self):
        """50 steps on the default config's captioner and co-attention
        discriminator leave the parameters and both moments equal, bit for
        bit, to those of a per-parameter loop over separate arrays."""
        from seqgan import cli
        cfg = cli.parse_config({})
        dataset = cli.build_dataset(cfg)
        d = cli.discriminator_setup(cfg, dataset)
        assert d.variant == "coatt"
        rng = np.random.default_rng(0)
        for params in (init_params(cli.captioner_config(cfg, dataset), 0), d):
            arrays, ref_arrays = params.copy().arrays, params.copy().arrays
            state = tr.init_adam(arrays)
            ref = SimpleNamespace(m={k: np.zeros_like(a) for k, a in arrays.items()},
                                  v={k: np.zeros_like(a) for k, a in arrays.items()}, step=0)
            for _ in range(50):
                grads = {k: rng.normal(0.0, 10.0 ** rng.uniform(-4, 1), a.shape)
                         for k, a in arrays.items()}
                tr.adam_step(arrays, grads, state, 5e-3)
                loop_adam_step(ref_arrays, grads, ref, 5e-3)
            assert state.step == ref.step == 50
            for name in arrays:
                assert np.array_equal(arrays[name], ref_arrays[name]), name
                assert np.array_equal(state.m[name], ref.m[name]), name
                assert np.array_equal(state.v[name], ref.v[name]), name
                assert np.shares_memory(state.m[name], state.flat_m)


class TestDiscriminatorLoss:
    def test_constant_half_discriminator(self):
        g, d, feats = tiny_setup()
        for arr in d.arrays.values():
            arr[:] = 0.0  # every score is sigmoid(0) = 0.5
        bound = disc.BoundDiscriminator(ad.Tape(grad=False), d)
        loss = tr.discriminator_objective(bound, feats[None], [TokenSequence([2, 1], True)],
                                          [TokenSequence([3, 1], True)],
                                          [TokenSequence([4, 1], True)]).item()
        assert abs(loss - 2 * np.log(0.5)) < 1e-12

    def test_perfect_discriminator_limit(self):
        # formula value at the clamped optimum: 2*log(1 - eps) ~ 0
        eps = tr.SCORE_EPS
        val = np.log(1 - eps) + 0.5 * np.log(1 - eps) + 0.5 * np.log(1 - eps)
        assert abs(val) < 1e-5

    def test_objective_maximized_at_corner(self):
        # freely parameterized scalar scores on a grid
        grid = np.linspace(0.01, 0.99, 25)

        def objective(dr, df, dm):
            return np.log(dr) + 0.5 * np.log(1 - df) + 0.5 * np.log(1 - dm)

        best = max(((objective(a, b, c), a, b, c)
                    for a in grid for b in grid for c in grid))
        assert best[1] == grid.max()
        assert best[2] == grid.min() and best[3] == grid.min()

    def test_gradient_vs_fd(self):
        g, d, feats = tiny_setup(seed=3)
        real = TokenSequence([2, 3, 1], True)
        fake = TokenSequence([4, 1], True)
        mism = TokenSequence([3, 2, 1], True)

        tape = ad.Tape()
        bound = disc.BoundDiscriminator(tape, d)
        root = tr.discriminator_objective(bound, feats[None], [real], [fake], [mism])
        ad.backward(tape, root)

        for name in d.arrays:
            def f(arr, name=name):
                trial = d.copy()
                trial.arrays[name] = arr
                plain = disc.BoundDiscriminator(ad.Tape(grad=False), trial)
                return tr.discriminator_objective(plain, feats[None], [real], [fake],
                                                  [mism]).item()

            fd = central_difference(f, d.arrays[name].copy())
            assert rel_err(bound.p[name].grad, fd) < 1e-4, name


MAX_LEN = 6


def mixed_length_setup(variant, seed=0):
    """Models plus 8 images with two references each, both of length
    i % MAX_LEN + 1 for image i, so a minibatch of all of them pads real
    captions of every length from 1 to MAX_LEN."""
    vocab, crops, dim, m = 7, 2, 3, 4
    g = init_params(CaptionerConfig(vocab_size=vocab, hidden_dim=m, num_crops=crops,
                                    feature_dim=dim, max_len=MAX_LEN), seed)
    d = disc.init_discriminator(disc.DiscriminatorConfig(vocab, m, crops, dim),
                                seed + 100, variant)
    rng = np.random.default_rng(seed + 200)
    dataset = [(rng.uniform(-1, 1, (crops, dim)),
                [TokenSequence([int(t) for t in rng.integers(2, vocab, size=i % MAX_LEN)]
                               + [1], True) for _ in range(2)])
               for i in range(8)]
    return g, d, dataset


def count_binds(monkeypatch):
    calls = []
    init = disc.BoundDiscriminator.__init__

    def counted(self, tape, params):
        calls.append(tape.grad)
        init(self, tape, params)

    monkeypatch.setattr(disc.BoundDiscriminator, "__init__", counted)
    return calls


class TestBatchedDiscriminatorStep:
    """``_d_batch_step`` scores a minibatch's 3B captions on one tape with
    one bind; the per-image loop in ``helpers`` is its oracle."""

    def run_step(self, monkeypatch, variant, step, seed=0):
        g, d, dataset = mixed_length_setup(variant, seed)
        grads = []
        adam = tr.adam_step
        monkeypatch.setattr(tr, "adam_step", lambda arrays, gr, state, lr:
                            grads.append({n: -x for n, x in gr.items()})
                            or adam(arrays, gr, state, lr))
        rng = np.random.default_rng(7)
        objective = step(g, d, tr.init_adam(d.arrays), dataset, np.arange(8), rng,
                         tr.GanConfig())
        monkeypatch.undo()
        return objective, grads[-1], rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("variant", disc.VARIANTS)
    def test_matches_per_image_loop(self, monkeypatch, variant, seed):
        value, grads, state = self.run_step(monkeypatch, variant, tr._d_batch_step, seed)
        (ref_value, ref_grads), _, ref_state = self.run_step(
            monkeypatch, variant, loop_d_batch_step, seed)
        assert abs(value - ref_value) <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.max(np.abs(grads[name] - ref_grads[name])) <= 1e-12, name
        assert state == ref_state

    @pytest.mark.parametrize("variant", disc.VARIANTS)
    def test_clamp_warnings_match_loop(self, monkeypatch, caplog, variant):
        counts = []
        for step in (tr._d_batch_step, loop_d_batch_step):
            g, d, dataset = mixed_length_setup(variant)
            d.arrays["out_UI" if variant == "coatt" else "head_M"] *= 1e4
            caplog.clear()
            with caplog.at_level("WARNING", logger="seqgan.training"):
                step(g, d, tr.init_adam(d.arrays), dataset, np.arange(8),
                     np.random.default_rng(7), tr.GanConfig())
            counts.append([r.getMessage() for r in caplog.records])
        assert counts[0] and counts[0] == counts[1]

    @pytest.mark.parametrize("variant", disc.VARIANTS)
    def test_one_bind_and_batch_size_free_tape(self, monkeypatch, variant):
        g, d, dataset = mixed_length_setup(variant)
        binds = count_binds(monkeypatch)
        sizes = []
        backward = ad.backward
        monkeypatch.setattr(ad, "backward", lambda tape, root:
                            sizes.append(len(tape.nodes)) or backward(tape, root))
        # image 5's caption has MAX_LEN tokens, so both batches pad to MAX_LEN
        for batch in ([5], np.arange(8)):
            tr._d_batch_step(g, d, tr.init_adam(d.arrays), dataset, batch,
                             np.random.default_rng(3), tr.GanConfig())
        assert binds == [True, True]
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("variant", disc.VARIANTS)
    def test_mean_d_scores_one_pass(self, monkeypatch, variant):
        g, d, dataset = mixed_length_setup(variant)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        binds = count_binds(monkeypatch)
        got = tr.mean_d_scores(g, d, dataset, rng)
        assert binds == [False]
        monkeypatch.undo()
        ref = {"d_real": [], "d_fake": [], "d_random": []}
        for i, (feats, refs) in enumerate(dataset):
            sample, _ = sample_sentence(g, feats, ref_rng)
            for key, seq in zip(ref, (refs[0], sample,
                                      tr._pick_other_ref(dataset, i, ref_rng))):
                ref[key].append(score_one(d, feats, seq))
        for key, values in ref.items():
            assert abs(got[key] - np.mean(values)) <= 1e-12
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_scst_rewards_one_pass(self, monkeypatch):
        g, d, feats = tiny_setup(seed=4)
        binds = count_binds(monkeypatch)
        cfg = tr.GanConfig(estimator="scst")
        _, rewards = scst_grad(g, d, feats, np.random.default_rng(2), cfg)
        assert binds.count(False) == 1
        monkeypatch.undo()
        sample, _ = sample_sentence(g, feats, np.random.default_rng(2))
        baseline = greedy_decode(g, feats)
        for reward, seq in zip(rewards, (sample, baseline), strict=True):
            want = np.log(np.clip(score_one(d, feats, seq), tr.SCORE_EPS,
                                  1.0 - tr.SCORE_EPS))
            assert abs(reward - want) <= 1e-12


class TestScstGrad:
    def test_advantage_arithmetic(self, monkeypatch):
        """Column 0 is the sample's reward, column 1 the baseline's, and
        their difference weights the replay."""
        g, d, feats = tiny_setup(seed=5)
        sample = TokenSequence([2, 3, 1], True)
        monkeypatch.setattr(tr, "_sequence_rewards",
                            lambda *args: np.log([0.8, 0.4]))
        grads, rewards, _ = tr.scst_batch_grad(g, d, feats[None], [sample], tr.GanConfig())
        assert np.array_equal(rewards, [np.log([0.8, 0.4])])
        assert abs(rewards[0, 0] - rewards[0, 1] - np.log(2.0)) < 1e-12
        tape = ad.Tape()
        bound = BoundCaptioner(tape, g)
        ad.backward(tape, bound.sequence_log_prob(feats[None], CaptionBatch([sample])))
        for name in grads:
            assert np.max(np.abs(grads[name] - np.log(2.0) * bound.p[name].grad)) < 1e-12

    def test_sample_equals_greedy_gives_zero_gradient(self):
        g, d, feats = tiny_setup(seed=1)
        g.arrays["out_b"][0, 1] = 60.0  # EOS dominates: sample == greedy == [eos]
        cfg = tr.GanConfig(estimator="scst", reward="logD")
        grads, rewards = scst_grad(g, d, feats, np.random.default_rng(0), cfg)
        assert rewards[0] - rewards[1] == 0.0
        assert all(np.all(v == 0) for v in grads.values())

    def test_matches_manual_replay(self):
        g, d, feats = tiny_setup(seed=5)
        cfg = tr.GanConfig(estimator="scst", reward="logD")
        grads, rewards = scst_grad(g, d, feats, np.random.default_rng(11), cfg)

        # replay the same computation from its pieces
        sample, _ = sample_sentence(g, feats, np.random.default_rng(11))
        baseline = greedy_decode(g, feats)
        r_s = np.log(np.clip(score_one(d, feats, sample), tr.SCORE_EPS,
                             1 - tr.SCORE_EPS))
        r_b = np.log(np.clip(score_one(d, feats, baseline), tr.SCORE_EPS,
                             1 - tr.SCORE_EPS))
        assert rewards[0] == pytest.approx(r_s, abs=0)
        assert rewards[1] == pytest.approx(r_b, abs=0)

        from seqgan.captioner import BoundCaptioner
        tape = ad.Tape()
        bound = BoundCaptioner(tape, g)
        ad.backward(tape, bound.sequence_log_prob(feats[None], CaptionBatch([sample])))
        for name in grads:
            np.testing.assert_array_equal(grads[name],
                                          (r_s - r_b) * bound.p[name].grad)

    def test_unbiasedness_against_enumeration(self):
        # exact expectation of the estimator == gradient of the expected reward
        g, d, feats = tiny_setup(seed=7, vocab=4, max_len=3)
        seqs = enumerate_sequences(g.config)
        assert len(seqs) <= 85
        probs = sequence_probabilities(g, feats, seqs)
        assert abs(probs.sum() - 1.0) < 1e-12
        rewards = [np.log(np.clip(score_one(d, feats, s), tr.SCORE_EPS,
                                  1 - tr.SCORE_EPS)) for s in seqs]
        baseline = np.log(np.clip(score_one(d, feats, greedy_decode(g, feats)),
                                  tr.SCORE_EPS, 1 - tr.SCORE_EPS))

        probs2, score_grads = per_sequence_score_grads(g, feats, seqs)
        np.testing.assert_allclose(probs, probs2, atol=1e-15)
        estimator_mean = expected_policy_gradient(probs, score_grads, rewards, baseline)
        truth = flat_grads(autodiff_expected_reward_grad(g, feats, seqs, rewards,
                                                         baseline))
        assert np.max(np.abs(estimator_mean - truth)) < 1e-10

    def test_baseline_reduces_variance(self):
        g, d, feats = tiny_setup(seed=9, vocab=4, max_len=3)
        seqs = enumerate_sequences(g.config)
        probs, score_grads = per_sequence_score_grads(g, feats, seqs)
        rewards = [np.log(np.clip(score_one(d, feats, s), tr.SCORE_EPS,
                                  1 - tr.SCORE_EPS)) for s in seqs]
        baseline = np.log(np.clip(score_one(d, feats, greedy_decode(g, feats)),
                                  tr.SCORE_EPS, 1 - tr.SCORE_EPS))
        var_scst = policy_gradient_variance(probs, score_grads, rewards, baseline)
        var_reinforce = policy_gradient_variance(probs, score_grads, rewards, 0.0)
        assert var_scst.mean() <= var_reinforce.mean()

    def test_cider_reward_requires_refs(self):
        g, d, feats = tiny_setup()
        cfg = tr.GanConfig(estimator="scst", reward="cider")
        with pytest.raises(InputError):
            scst_grad(g, d, feats, np.random.default_rng(0), cfg)


def scst_setup(attention="context_aware", seed=0, n_images=9):
    """Models, a dataset of ``n_images`` images with three references each
    and its idf; max_len 5 over 7 words, so samples differ in length."""
    vocab, crops, dim, m = 7, 2, 3, 4
    g = init_params(CaptionerConfig(vocab_size=vocab, hidden_dim=m, num_crops=crops,
                                    feature_dim=dim, max_len=5, attention=attention), seed)
    d = disc.init_discriminator(disc.DiscriminatorConfig(vocab, m, crops, dim), seed + 100,
                                "coatt")
    dataset = tiny_dataset(n_images=n_images, seed=seed + 200, vocab=vocab)
    return g, d, dataset, met.fit_idf([refs for _, refs in dataset])


class TestBatchedScstStep:
    """``_g_batch_step`` takes one batched SCST step per minibatch
    (``scst_batch_grad``); the per-image loop in ``helpers`` is its oracle."""

    def run_batched(self, monkeypatch, g, d, dataset, batch, cfg, idf):
        """Returns (Adam's ascent gradients, the step's result, rng state)."""
        grads, results = [], []
        adam, step = tr.adam_step, tr.scst_batch_grad
        monkeypatch.setattr(tr, "adam_step", lambda arrays, gr, state, lr:
                            grads.append({n: -x for n, x in gr.items()})
                            or adam(arrays, gr, state, lr))
        monkeypatch.setattr(tr, "scst_batch_grad", lambda *args:
                            results.append((args[3], step(*args))) or results[-1][1])
        rng = np.random.default_rng(7)
        tr._g_batch_step(g, d, tr.init_adam(g.arrays), dataset, batch, rng, cfg, idf)
        monkeypatch.undo()
        assert len(results) == 1
        return grads[-1], results[0], rng.bit_generator.state

    def check_against_loop(self, monkeypatch, g, d, dataset, batch, cfg, idf):
        """Runs both steps from equal parameters and compares them; returns
        the samples and the batched step's rewards."""
        g_ref = g.copy()
        grads, (samples, (step_grads, rewards, logit_grads)), state = self.run_batched(
            monkeypatch, g, d, dataset, batch, cfg, idf)
        rng = np.random.default_rng(7)
        ref_grads, ref_rewards, ref_logit_grads = loop_g_batch_step(
            g_ref, d, tr.init_adam(g_ref.arrays), dataset, batch, rng, cfg, idf)
        assert state == rng.bit_generator.state
        assert grads.keys() == step_grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], step_grads[name])
            assert np.max(np.abs(grads[name] - ref_grads[name])) <= 1e-12, name
            assert np.max(np.abs(g.arrays[name] - g_ref.arrays[name])) <= 1e-12, name
        assert rewards.shape == (len(batch), 2) and np.array_equal(rewards, ref_rewards)
        lengths = [len(seq.tokens) for seq in samples]
        assert logit_grads.shape == ref_logit_grads.shape == \
            (len(batch), max(lengths), g.config.vocab_size)
        assert np.max(np.abs(logit_grads - ref_logit_grads)) <= 1e-12
        for row, n, pair in zip(logit_grads, lengths, rewards):
            assert not row[n:].any()  # past the sample's end
            assert row.any() == (pair[0] != pair[1])  # zero exactly when the advantage is
        return samples, rewards

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("attention", ATTENTION_MODES)
    @pytest.mark.parametrize("reward", tr.REWARDS)
    def test_matches_per_image_loop(self, monkeypatch, reward, attention, seed):
        g, d, dataset, idf = scst_setup(attention, seed)
        cfg = tr.GanConfig(reward=reward)
        samples, rewards = self.check_against_loop(monkeypatch, g, d, dataset,
                                                   np.arange(8), cfg, idf)
        assert len({len(seq.tokens) for seq in samples}) > 1
        assert np.any(rewards[:, 0] != rewards[:, 1])

    @pytest.mark.parametrize("batch", [[4], [8], [6, 1, 3], [2, 7, 0, 5, 8]])
    def test_small_and_partial_minibatches(self, monkeypatch, batch):
        g, d, dataset, idf = scst_setup(seed=3)
        self.check_against_loop(monkeypatch, g, d, dataset, np.array(batch),
                                tr.GanConfig(reward="logD_plus_cider"), idf)

    @pytest.mark.parametrize("reward", tr.REWARDS)
    def test_some_advantages_zero(self, monkeypatch, reward):
        g, d, dataset, idf = scst_setup(seed=1)
        g.arrays["out_b"][0, 1] = 3.0  # EOS is likely: some samples equal their baseline
        baselines = [greedy_decode(g, feats) for feats, _ in dataset[:8]]
        samples, rewards = self.check_against_loop(monkeypatch, g, d, dataset,
                                                   np.arange(8), tr.GanConfig(reward=reward),
                                                   idf)
        same = [s.tokens == b.tokens for s, b in zip(samples, baselines)]
        assert any(same) and not all(same)
        adv = rewards[:, 0] - rewards[:, 1]
        assert np.all(adv[same] == 0.0)
        assert np.any(adv != 0.0)

    def test_all_advantages_zero_records_no_tape(self, monkeypatch):
        g, d, dataset, idf = scst_setup(seed=2)
        g.arrays["out_b"][0, 1] = 60.0  # EOS dominates: sample == greedy == [eos]
        tapes = []
        monkeypatch.setattr(ad, "backward", lambda tape, root: tapes.append(tape))
        feats = np.array([f for f, _ in dataset[:4]])
        samples = [TokenSequence([1], True)] * 4
        grads, rewards, logit_grads = tr.scst_batch_grad(g, d, feats, samples,
                                                         tr.GanConfig(), idf=idf)
        monkeypatch.undo()
        assert not tapes
        assert rewards.shape == (4, 2) and np.all(rewards[:, 0] - rewards[:, 1] == 0.0)
        assert all(np.all(v == 0) for v in grads.values())
        assert logit_grads.shape == (4, 1, 7) and np.all(logit_grads == 0)
        self.check_against_loop(monkeypatch, g, d, dataset, np.arange(4), tr.GanConfig(),
                                idf)

    def test_one_sample_per_image_required(self):
        g, d, dataset, idf = scst_setup()
        feats = np.array([f for f, _ in dataset[:3]])
        with pytest.raises(InputError):
            tr.scst_batch_grad(g, d, feats, [TokenSequence([2, 1], True)] * 2, tr.GanConfig())

    @pytest.mark.parametrize("reward", tr.REWARDS)
    def test_binds_per_step(self, monkeypatch, reward):
        g, d, dataset, idf = scst_setup(seed=4)
        feats = np.array([f for f, _ in dataset[:8]])
        rng = np.random.default_rng(0)
        samples = [sample_sentence(g, f, rng)[0] for f in feats]
        d_binds = count_binds(monkeypatch)
        g_binds = []
        init = BoundCaptioner.__init__
        monkeypatch.setattr(BoundCaptioner, "__init__", lambda self, tape, params:
                            g_binds.append(tape.grad) or init(self, tape, params))
        _, rewards, _ = tr.scst_batch_grad(g, d, feats, samples, tr.GanConfig(reward=reward),
                                           [refs for _, refs in dataset[:8]], idf)
        assert np.any(rewards[:, 0] != rewards[:, 1])
        assert g_binds == [True]  # the replay; the greedy baselines bind no captioner
        assert d_binds == ([] if reward == "cider" else [False])

    def test_clamp_warnings_match_loop(self, monkeypatch, caplog):
        messages = []
        for batched in (True, False):
            g, d, dataset, idf = scst_setup(seed=5)
            d.arrays["out_UI"] *= 1e4
            caplog.clear()
            with caplog.at_level("WARNING", logger="seqgan.training"):
                if batched:
                    self.run_batched(monkeypatch, g, d, dataset, np.arange(8),
                                     tr.GanConfig(), idf)
                else:
                    loop_g_batch_step(g, d, tr.init_adam(g.arrays), dataset, np.arange(8),
                                      np.random.default_rng(7), tr.GanConfig(), idf)
            messages.append([r.getMessage() for r in caplog.records])
        assert messages[0] and messages[0] == messages[1]

    def test_train_gan_matches_loop(self, monkeypatch):
        """Whole runs, with a partial last minibatch (7 images, batches of 3)."""
        runs = []
        for step in (None, loop_g_batch_step):
            g, d, dataset, idf = scst_setup(seed=6, n_images=7)
            if step is not None:
                monkeypatch.setattr(tr, "_g_batch_step", lambda *args: step(*args) and None)
            cfg = tr.GanConfig(reward="logD_plus_cider", batch_size=3, epochs=2,
                               d_pretrain_epochs=1, seed=3)
            runs.append(tr.train_gan(g, d, dataset, cfg, idf=idf))
            monkeypatch.undo()
        (ckpts, records), (ref_ckpts, ref_records) = runs
        assert len(records) == len(ref_records) == 2
        for got, want in zip(records, ref_records):
            assert got.keys() == want.keys()
            for key in got:
                assert abs(got[key] - want[key]) <= 1e-12, key
        for ckpt, ref in zip(ckpts, ref_ckpts):
            assert ckpt.rng_state == ref.rng_state
            for name, arr in ckpt.captioner.arrays.items():
                assert np.max(np.abs(arr - ref.captioner.arrays[name])) <= 1e-12, name


class TestGumbelSample:
    def test_low_temperature_near_onehot(self):
        logits = np.array([0.3, -1.0, 1.2, 0.0])
        noise_rng = np.random.default_rng(5)
        expected_noise = tr.gumbel_noise(np.random.default_rng(5), 4)
        row, hard = gumbel_sample(logits, 0.01, noise_rng, "soft")
        target = int(np.argmax(logits + expected_noise))
        assert hard == target
        onehot = np.zeros(4)
        onehot[target] = 1.0
        np.testing.assert_allclose(row, onehot, atol=1e-9)

    def test_st_row_is_exact_onehot(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            row, hard = gumbel_sample(rng.normal(size=6), 0.7, rng, "st")
            assert row.sum() == 1.0
            assert np.count_nonzero(row) == 1
            assert row[hard] == 1.0

    def test_soft_row_on_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            row, _ = gumbel_sample(rng.normal(size=5), 0.5, rng, "soft")
            assert abs(row.sum() - 1.0) < 1e-12
            assert np.all(row >= 0)

    def test_gumbel_max_property(self):
        # argmax frequencies over 100k draws match softmax(logits)
        logits = np.array([0.5, -0.3, 1.1, 0.0])
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        rng = np.random.default_rng(8)
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            _, hard = gumbel_sample(logits, 0.7, rng, "st")
            counts[hard] += 1
        sd = np.sqrt(n * expected * (1 - expected))
        assert np.all(np.abs(counts - n * expected) <= 3 * sd)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            gumbel_sample(np.zeros(3), 0.5, np.random.default_rng(0), "hard")
        with pytest.raises(InputError):
            gumbel_sample(np.zeros(3), 0.0, np.random.default_rng(0), "soft")


class TestGumbelGrad:
    def test_loss_is_log_score_without_fm(self):
        g, d, feats = tiny_setup(seed=11)
        cfg = tr.GanConfig(estimator="gumbel_soft", temperature=0.7)
        out = tr.gumbel_grad(g, d, feats[None], np.random.default_rng(3), cfg)
        assert abs(out["loss"] - np.log(out["score"][0])) < 1e-12

    def test_st_onehot_of_ground_truth_zeroes_fm_penalty(self):
        g, d, feats = tiny_setup(seed=12)
        g.arrays["out_b"][0, 1] = 200.0  # EOS argmax beats any gumbel noise
        gt = TokenSequence([1], True)
        cfg = tr.GanConfig(estimator="gumbel_st", temperature=0.5,
                           fm_image_weight=1.0, fm_caption_weight=1.0)
        out = tr.gumbel_grad(g, d, feats[None], np.random.default_rng(4), cfg, gt_seqs=[gt])
        assert out["tokens"] == [[1]]
        assert abs(out["loss"] - np.log(out["score"][0])) < 1e-12  # penalty exactly 0

    def test_fm_requires_ground_truth(self):
        g, d, feats = tiny_setup()
        cfg = tr.GanConfig(estimator="gumbel_st", fm_image_weight=1.0)
        with pytest.raises(InputError):
            tr.gumbel_grad(g, d, feats[None], np.random.default_rng(0), cfg)

    def test_zero_images_raise_before_any_draw(self):
        g, d, feats = tiny_setup()
        rng = np.random.default_rng(0)
        for estimator in ("gumbel_soft", "gumbel_st"):
            with pytest.raises(InputError, match="at least one image"):
                tr.gumbel_grad(g, d, feats[None][:0], rng, tr.GanConfig(estimator=estimator))
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_soft_unroll_gradient_vs_fd(self):
        g, d, feats = tiny_setup(seed=13)
        gt = TokenSequence([2, 1], True)
        cfg = tr.GanConfig(estimator="gumbel_soft", temperature=0.8,
                           fm_image_weight=0.5, fm_caption_weight=0.5)

        out = tr.gumbel_grad(g, d, feats[None], np.random.default_rng(21), cfg, gt_seqs=[gt])

        for name in list(g.arrays):
            def f(arr, name=name):
                trial = g.copy()
                trial.arrays[name] = arr
                return tr.gumbel_grad(trial, d, feats[None], np.random.default_rng(21),
                                      cfg, gt_seqs=[gt])["loss"]

            fd = central_difference(f, g.arrays[name].copy())
            assert rel_err(out["grads"][name], fd) < 1e-4, name


def gumbel_batch_setup(variant, attention, seed):
    """Models with 9 words, max_len 4, and 5 images with one ground truth
    each; EOS is made likelier, so rows end at every length."""
    vocab, crops, dim, m = 9, 2, 3, 4
    g = init_params(CaptionerConfig(vocab_size=vocab, hidden_dim=m, num_crops=crops,
                                    feature_dim=dim, max_len=4, attention=attention), seed)
    g.arrays["out_b"][0, 1] += 1.0
    d = disc.init_discriminator(disc.DiscriminatorConfig(vocab, m, crops, dim), seed + 100,
                                variant)
    rng = np.random.default_rng(seed + 200)
    feats = rng.uniform(-1, 1, (5, crops, dim))
    gts = [TokenSequence([int(t) for t in rng.integers(2, vocab, size=n)] + [1], True)
           for n in (0, 3, 1, 2, 3)]
    return g, d, feats, gts


class TestBatchedGumbel:
    """``gumbel_grad`` unrolls a minibatch as one batch; the per-image
    ``helpers.gumbel_grad`` replaying row b's noise is its oracle."""

    @pytest.mark.parametrize("attention", ATTENTION_MODES)
    @pytest.mark.parametrize("variant", disc.VARIANTS)
    @pytest.mark.parametrize("estimator", ("gumbel_soft", "gumbel_st"))
    @pytest.mark.parametrize("n_images", (5, 1))
    def test_matches_per_image_oracle(self, estimator, variant, attention, n_images):
        g, d, feats, gts = gumbel_batch_setup(variant, attention, seed=3)
        feats, gts = feats[:n_images], gts[:n_images]
        cfg = tr.GanConfig(estimator=estimator, temperature=0.7, fm_image_weight=0.4,
                           fm_caption_weight=0.3)
        rng = RecordingRng(11)
        out = tr.gumbel_grad(g, d, feats, rng, cfg, gt_seqs=gts)
        lengths = [len(t) for t in out["tokens"]]
        assert len(rng.blocks) == max(lengths)
        assert all(block.shape == (n_images, 9) for block in rng.blocks)
        if n_images > 1:  # mixed lengths, one row ending at max_len
            assert len(set(lengths)) > 2 and max(lengths) == 4

        refs = [gumbel_grad(g, d, feats[b], ReplayRng([blk[b : b + 1] for blk in rng.blocks]),
                            cfg, gt_seq=gts[b], want_logit_grads=True)
                for b in range(n_images)]
        assert out["tokens"] == [ref["tokens"] for ref in refs]
        assert np.max(np.abs(out["score"] - [ref["score"] for ref in refs])) <= 1e-12
        assert abs(out["loss"] - np.mean([ref["loss"] for ref in refs])) <= 1e-12
        for name in g.arrays:
            want = np.mean([ref["grads"][name] for ref in refs], axis=0)
            assert np.max(np.abs(out["grads"][name] - want)) <= 1e-12, name
        assert out["logit_grads"].shape == (n_images, max(lengths), 9)
        for got, n, ref in zip(out["logit_grads"], lengths, refs, strict=True):
            want = ref["logit_grads"] / n_images
            assert want.shape == (n, 9)
            assert np.max(np.abs(got[:n] - want)) <= 1e-12
            assert np.all(got[n:] == 0.0)  # exactly zero past the row's tokens

    @pytest.mark.parametrize("estimator", ("gumbel_soft", "gumbel_st"))
    def test_tape_size_free_of_unroll_length(self, monkeypatch, estimator):
        """The relaxed unroll is one node: a Gumbel tape records as many
        nodes when every row ends at T = 1 as when every row runs to max_len."""
        sizes, lengths = [], []
        backward = ad.backward
        monkeypatch.setattr(ad, "backward", lambda tape, root:
                            sizes.append(len(tape.nodes)) or backward(tape, root))
        for eos_bias in (200.0, -200.0):
            g, d, feats, gts = gumbel_batch_setup("coatt", "context_aware", seed=3)
            g.arrays["out_b"][0, 1] = eos_bias
            cfg = tr.GanConfig(estimator=estimator, fm_image_weight=0.4)
            out = tr.gumbel_grad(g, d, feats, np.random.default_rng(6), cfg, gt_seqs=gts)
            lengths.append({len(tokens) for tokens in out["tokens"]})
        assert lengths == [{1}, {4}]
        assert sizes[0] == sizes[1]

    def test_one_image_draws_as_the_per_image_unroll(self):
        """B = 1 takes the per-image sequence: the same tokens from the same
        seeded generator, which is left in the same state."""
        g, d, feats, gts = gumbel_batch_setup("coatt", "context_aware", seed=4)
        cfg = tr.GanConfig(estimator="gumbel_st", fm_image_weight=0.5)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        for b in range(len(feats)):
            out = tr.gumbel_grad(g, d, feats[b : b + 1], rng, cfg, gt_seqs=[gts[b]])
            ref = gumbel_grad(g, d, feats[b], ref_rng, cfg, gt_seq=gts[b])
            assert out["tokens"] == [ref["tokens"]]
            assert abs(out["loss"] - ref["loss"]) <= 1e-12
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_g_step_draws_picks_then_noise(self):
        """One generator step: every image's ground-truth pick, then one
        (B, K) block per step; one Adam step on the batch-mean gradient."""
        g, d, dataset, _ = scst_setup(seed=2)
        cfg = tr.GanConfig(estimator="gumbel_soft", fm_caption_weight=0.5, batch_size=4)
        batch = np.array([3, 0, 7, 5])
        ref_g, rng, ref_rng = g.copy(), np.random.default_rng(8), np.random.default_rng(8)
        tr._g_batch_step(g, d, tr.init_adam(g.arrays), dataset, batch, rng, cfg, None)

        gts = [dataset[i][1][int(ref_rng.integers(3))] for i in batch]
        feats = np.array([dataset[i][0] for i in batch])
        grads = tr.gumbel_grad(ref_g, d, feats, ref_rng, cfg, gt_seqs=gts)["grads"]
        tr.adam_step(ref_g.arrays, {n: -v for n, v in grads.items()},
                     tr.init_adam(ref_g.arrays), cfg.g_lr)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for name in g.arrays:
            assert np.array_equal(g.arrays[name], ref_g.arrays[name]), name

    def test_probe_sums_the_per_row_shares(self):
        """The Gumbel probe's norm is that of the minibatch's per-row logit
        gradients summed on the (max_len, K) grid."""
        g, d, dataset, _ = scst_setup(seed=5)
        cfg = tr.GanConfig(batch_size=4, fm_image_weight=0.2)
        norms, _ = tr.grad_norm_probe(g, d, dataset, "gumbel_st", 2,
                                      np.random.default_rng(1), cfg)
        seeds = np.random.default_rng(1).integers(0, 2**63 - 1, size=2)
        batch_rng, est_rng = (np.random.default_rng(int(s)) for s in seeds)
        probe_cfg = tr.GanConfig(**{**vars(cfg), "estimator": "gumbel_st"})
        for norm in norms:
            batch = batch_rng.choice(len(dataset), size=4, replace=False)
            out = tr.gumbel_grad(g, d, np.array([dataset[i][0] for i in batch]), est_rng,
                                 probe_cfg, gt_seqs=[dataset[i][1][0] for i in batch])
            grid = np.zeros((5, 7))
            for rows, tokens in zip(out["logit_grads"], out["tokens"]):
                grid[: len(tokens)] += rows[: len(tokens)]
            assert norm == float(np.linalg.norm(grid))


class TestCePretrain:
    def test_memorizes_single_example(self):
        g, _, feats = tiny_setup(seed=15, vocab=6, max_len=5)
        dataset = [(feats, [TokenSequence([2, 4, 3, 1], True)])]
        _, curve = tr.ce_pretrain(g, dataset, epochs=500,
                                  rng=np.random.default_rng(0), lr=0.02)
        assert curve[-1] < 0.1
        assert curve[-1] < curve[0]

    def test_zero_epochs_unchanged(self):
        g, _, feats = tiny_setup(seed=16)
        before = {k: v.copy() for k, v in g.arrays.items()}
        _, curve = tr.ce_pretrain(g, [(feats, [TokenSequence([2, 1], True)])],
                                  epochs=0, rng=np.random.default_rng(0))
        assert curve == []
        for k in before:
            np.testing.assert_array_equal(g.arrays[k], before[k])

    def test_same_seed_identical_curve(self):
        dataset = tiny_dataset()
        cfg = CaptionerConfig(vocab_size=7, hidden_dim=4, num_crops=2,
                              feature_dim=3, max_len=5)
        g1, g2 = init_params(cfg, 3), init_params(cfg, 3)
        _, c1 = tr.ce_pretrain(g1, dataset, 3, np.random.default_rng(9), lr=0.01)
        _, c2 = tr.ce_pretrain(g2, dataset, 3, np.random.default_rng(9), lr=0.01)
        assert c1 == c2


class TestTrainGan:
    def _setup(self, estimator="scst", epochs=2, seed=0):
        dataset = tiny_dataset(n_images=6, vocab=7)
        gcfg = CaptionerConfig(vocab_size=7, hidden_dim=4, num_crops=2,
                               feature_dim=3, max_len=5)
        dcfg = disc.DiscriminatorConfig(vocab_size=7, hidden_dim=4, num_crops=2,
                                        feature_dim=3)
        g = init_params(gcfg, 1)
        d = disc.init_discriminator(dcfg, 2, "coatt")
        cfg = tr.GanConfig(estimator=estimator, epochs=epochs, batch_size=3,
                           d_pretrain_epochs=1, seed=seed)
        return g, d, dataset, cfg

    def test_zero_epochs_returns_initial_checkpoint_only(self):
        g, d, dataset, cfg = self._setup(epochs=0)
        checkpoints, records = tr.train_gan(g, d, dataset, cfg)
        assert len(checkpoints) == 1 and checkpoints[0].epoch == 0
        assert records == []

    def test_seed_determinism(self):
        runs = []
        for _ in range(2):
            g, d, dataset, cfg = self._setup(epochs=2, seed=7)
            checkpoints, records = tr.train_gan(g, d, dataset, cfg)
            runs.append((checkpoints, records))
        (c1, r1), (c2, r2) = runs
        assert r1 == r2
        for a, b in zip(c1, c2):
            for k in a.captioner.arrays:
                np.testing.assert_array_equal(a.captioner.arrays[k],
                                              b.captioner.arrays[k])
            for k in a.discriminator.arrays:
                np.testing.assert_array_equal(a.discriminator.arrays[k],
                                              b.discriminator.arrays[k])
            assert a.rng_state == b.rng_state

    def test_resume_matches_uninterrupted(self):
        g, d, dataset, cfg = self._setup(epochs=3, seed=5)
        full_ckpts, full_recs = tr.train_gan(g, d, dataset, cfg)

        g2, d2, dataset2, cfg2 = self._setup(epochs=2, seed=5)
        part_ckpts, _ = tr.train_gan(g2, d2, dataset2, cfg2)
        cfg3 = tr.GanConfig(**{**vars(cfg2), "epochs": 3})
        resumed_ckpts, resumed_recs = tr.train_gan(g2, d2, dataset2, cfg3,
                                                   resume=part_ckpts[-1])

        final_full = full_ckpts[-1]
        final_resumed = resumed_ckpts[-1]
        assert final_full.epoch == final_resumed.epoch == 3
        for k in final_full.captioner.arrays:
            np.testing.assert_array_equal(final_full.captioner.arrays[k],
                                          final_resumed.captioner.arrays[k])
        for k in final_full.discriminator.arrays:
            np.testing.assert_array_equal(final_full.discriminator.arrays[k],
                                          final_resumed.discriminator.arrays[k])
        assert final_full.rng_state == final_resumed.rng_state
        assert full_recs[-1] == resumed_recs[-1]

    def test_gumbel_estimator_runs(self):
        g, d, dataset, cfg = self._setup(estimator="gumbel_st", epochs=1)
        checkpoints, records = tr.train_gan(g, d, dataset, cfg)
        assert len(checkpoints) == 2 and len(records) == 1
        for key in ("d_real", "d_fake", "d_random"):
            assert 0.0 < records[0][key] < 1.0


class TestGradNormProbe:
    def test_zero_advantage_zero_norms(self):
        dataset = tiny_dataset(n_images=4, vocab=7)
        gcfg = CaptionerConfig(vocab_size=7, hidden_dim=4, num_crops=2,
                               feature_dim=3, max_len=5)
        g = init_params(gcfg, 1)
        g.arrays["out_b"][0, 1] = 60.0  # degenerate model: sample == greedy
        d = disc.init_discriminator(disc.DiscriminatorConfig(vocab_size=7, hidden_dim=4,
                                                             num_crops=2, feature_dim=3),
                                    2, "coatt")
        cfg = tr.GanConfig(estimator="scst", batch_size=2)
        norms, _ = tr.grad_norm_probe(g, d, dataset, "scst", 5,
                                      np.random.default_rng(0), cfg)
        assert norms == [0.0] * 5

    def test_identical_batches_across_estimators(self):
        dataset = tiny_dataset(n_images=6, vocab=7)
        gcfg = CaptionerConfig(vocab_size=7, hidden_dim=4, num_crops=2,
                               feature_dim=3, max_len=5)
        g = init_params(gcfg, 1)
        d = disc.init_discriminator(disc.DiscriminatorConfig(vocab_size=7, hidden_dim=4,
                                                             num_crops=2, feature_dim=3),
                                    2, "coatt")
        cfg = tr.GanConfig(batch_size=3)
        res = {}
        for est in ("scst", "gumbel_st"):
            norms, hashes = tr.grad_norm_probe(g, d, dataset, est, 4,
                                               np.random.default_rng(42), cfg)
            assert len(norms) == 4
            assert all(n >= 0 for n in norms)
            res[est] = hashes
        assert res["scst"] == res["gumbel_st"]

    @pytest.mark.parametrize("estimator", tr.ESTIMATORS)
    def test_grid_equals_per_row_sum(self, monkeypatch, estimator):
        """The probe sums each minibatch's B x T x K logit gradients over rows
        in one operation; its grid equals, value for value, the per-row loop
        that adds each row's steps up to its length onto a (max_len, K)
        grid, and so does the norm."""
        g, d, dataset, idf = scst_setup(seed=5)
        cfg = tr.GanConfig(batch_size=4, reward="logD_plus_cider", fm_image_weight=0.2)
        grids, outputs = [], []
        norm, scst, gumbel = np.linalg.norm, tr.scst_batch_grad, tr.gumbel_grad
        monkeypatch.setattr(np.linalg, "norm", lambda x: grids.append(x.copy()) or norm(x))

        def spy_scst(g_params, d_params, feats, samples, *args):
            out = scst(g_params, d_params, feats, samples, *args)
            outputs.append(([len(seq.tokens) for seq in samples], out[2]))
            return out

        def spy_gumbel(*args):
            out = gumbel(*args)
            outputs.append(([len(tokens) for tokens in out["tokens"]], out["logit_grads"]))
            return out

        monkeypatch.setattr(tr, "scst_batch_grad", spy_scst)
        monkeypatch.setattr(tr, "gumbel_grad", spy_gumbel)
        norms, _ = tr.grad_norm_probe(g, d, dataset, estimator, 4, np.random.default_rng(3),
                                      cfg, idf)
        monkeypatch.undo()
        assert len({n for lengths, _ in outputs for n in lengths}) > 1
        assert any(grid.any() for grid in grids)
        for grid, (lengths, logit_grads), value in zip(grids, outputs, norms, strict=True):
            want = np.zeros((5, 7))
            for row, n in zip(logit_grads, lengths, strict=True):
                assert not row[n:].any()
                want[:n] += row[:n]
            assert np.array_equal(grid, want)
            assert value == float(np.linalg.norm(want))


class TestNoGradEquivalence:
    """Plain-value D objective and clamped score run on no-grad tapes; the
    same pass recorded on grad tapes must give bit-identical values."""

    DCFG = disc.DiscriminatorConfig(vocab_size=5, hidden_dim=4, num_crops=3, feature_dim=5)

    @pytest.mark.parametrize("variant", ["coatt", "jointemb"])
    def test_plain_values(self, on_grad_tapes, variant):
        d = disc.init_discriminator(self.DCFG, 3, variant)
        feats = np.random.default_rng(4).uniform(-1, 1, (3, 5))
        real, fake, mis = (TokenSequence(t, True) for t in ([3, 4, 1], [2, 1], [4, 4, 3, 1]))
        plain, taped = (tr.discriminator_objective(disc.BoundDiscriminator(tape, d),
                                                   feats[None], [real], [fake], [mis]).item()
                        for tape in (ad.Tape(grad=False), ad.Tape()))
        assert plain == taped
        for seq in (real, fake, mis):
            assert np.array_equal(tr._clamped_scores(d, feats[None], [seq]),
                                  on_grad_tapes(tr._clamped_scores, d, feats[None], [seq]))

    def test_clamped_score_value_matches_np_clip(self, caplog):
        d = disc.init_discriminator(self.DCFG, 5, "coatt")
        d.arrays["out_UI"] *= 1e4  # saturate the sigmoid
        feats = np.random.default_rng(6).uniform(-1, 1, (3, 5))
        seq = TokenSequence([2, 3, 1], True)
        raw = score_one(d, feats, seq)
        assert raw <= tr.SCORE_EPS or raw >= 1.0 - tr.SCORE_EPS
        with caplog.at_level("WARNING", logger="seqgan.training"):
            value, = tr._clamped_scores(d, feats[None], [seq])
        assert value == float(np.clip(raw, tr.SCORE_EPS, 1.0 - tr.SCORE_EPS))
        assert [r.getMessage() for r in caplog.records] == \
            [f"discriminator score {raw:.3g} clamped before log"]


@pytest.mark.parametrize("field, value", [("g_lr", 0.0), ("g_lr", -1.0), ("d_lr", 0.0),
                                          ("d_lr", float("nan"))])
def test_learning_rates_must_be_positive(field, value):
    with pytest.raises(InputError, match=f"^{field} must be positive$"):
        tr.GanConfig(**{field: value})
