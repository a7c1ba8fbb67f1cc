"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Every experiment here is fully seeded; the fixtures build
one shared desk-scale workbench (dataset + pretrained captioner) plus the
trained models the directional criteria compare.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from seqgan import autodiff as ad
from seqgan import cli
from seqgan import data as dat
from seqgan import discriminator as disc
from seqgan import metrics as met
from seqgan import training as tr
from seqgan.captioner import (BoundCaptioner, CaptionBatch, CaptionerConfig,
                              TokenSequence, ensemble_decode, greedy_decode,
                              init_params, sample_sentence)
from conftest import central_difference, rel_err
from helpers import (autodiff_expected_reward_grad, enumerate_sequences,
                     expected_policy_gradient, flat_grads,
                     per_sequence_score_grads, policy_gradient_variance,
                     replay_steps, score_one, sequence_probabilities)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num:02d} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {num:02d} ({name}): PASS")


# ---------------------------------------------------------------------------
# shared workbench
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench():
    ds = dat.generate_dataset(seed=5, n_objects=8, n_contexts=5, n_images=64,
                              num_crops=4, feature_dim=16, noise=0.15)
    gcfg = CaptionerConfig(vocab_size=ds.vocab.size, hidden_dim=24, num_crops=4,
                           feature_dim=16, max_len=12)
    g_ce = init_params(gcfg, 5)
    tr.ce_pretrain(g_ce, ds.train, 18, np.random.default_rng(0), lr=8e-3)
    idf = met.fit_idf([refs for _, refs in ds.train])
    dcfg = disc.DiscriminatorConfig(vocab_size=ds.vocab.size, hidden_dim=24,
                                    num_crops=4, feature_dim=16)
    return {"ds": ds, "gcfg": gcfg, "dcfg": dcfg, "g_ce": g_ce, "idf": idf}


@pytest.fixture(scope="module")
def gan_fixture(bench):
    """Adversarially trained pair for the score-ordering and coverage checks."""
    g = bench["g_ce"].copy()
    d = disc.init_discriminator(bench["dcfg"], 99, "coatt")
    cfg = tr.GanConfig(estimator="scst", reward="logD", epochs=3,
                       d_pretrain_epochs=40, batch_size=8, d_lr=1e-2,
                       g_lr=5e-4, seed=3)
    tr.train_gan(g, d, bench["ds"].train, cfg)
    return g, d


@pytest.fixture(scope="module")
def estimator_fixture(bench):
    """One identically-configured training run per estimator; each estimator
    is probed on its own trajectory, mirroring the training-time comparison."""
    models = {}
    for est in ("scst", "gumbel_st"):
        g = bench["g_ce"].copy()
        d = disc.init_discriminator(bench["dcfg"], 99, "coatt")
        cfg = tr.GanConfig(estimator=est, reward="logD", temperature=0.1,
                           epochs=10, d_pretrain_epochs=24, batch_size=8,
                           d_lr=1e-2, g_lr=1e-3, seed=3)
        tr.train_gan(g, d, bench["ds"].train, cfg)
        models[est] = (g, d)
    return models


@pytest.fixture(scope="module")
def rl_fixture(bench):
    """Pure-CIDEr SCST fine-tuning (no adversary)."""
    g = bench["g_ce"].copy()
    cfg = tr.GanConfig(estimator="scst", reward="cider", epochs=6,
                       batch_size=8, g_lr=2e-3, seed=3)
    tr.train_gan(g, disc.init_discriminator(bench["dcfg"], 7, "coatt"), bench["ds"].train,
                 cfg, idf=bench["idf"])
    return g


def _coverage(bench, params):
    decoded = [greedy_decode(params, s.features) for s, _ in bench["ds"].test]
    return met.vocabulary_coverage(decoded, bench["ds"].vocab.size)


def _mean_cider(bench, params, split):
    examples = bench["ds"].split(split)
    decoded = [greedy_decode(params, s.features) for s, _ in examples]
    return float(np.mean(met.caption_scores(decoded, [refs for _, refs in examples],
                                            bench["idf"]).cider))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def _tiny_models(rng):
    K = int(rng.integers(4, 7))
    m = int(rng.integers(2, 5))
    C = int(rng.integers(2, 4))
    dI = int(rng.integers(2, 5))
    gcfg = CaptionerConfig(vocab_size=K, hidden_dim=m, num_crops=C,
                           feature_dim=dI, max_len=3)
    dcfg = disc.DiscriminatorConfig(vocab_size=K, hidden_dim=m, num_crops=C,
                                    feature_dim=dI)
    g = init_params(gcfg, int(rng.integers(10_000)))
    seed = int(rng.integers(10_000))
    d = disc.init_discriminator(dcfg, seed,
                                "coatt" if rng.random() < 0.5 else "jointemb")
    feats = rng.uniform(-1, 1, (C, dI))
    toks = [int(t) for t in rng.integers(2, K, size=int(rng.integers(1, 3)))] + [1]
    return g, d, feats, TokenSequence(toks, True)


def _check_param_subset(value_fn, grad_map, params, rng, n_tensors=2):
    names = sorted(params.arrays)
    picks = [names[int(i)] for i in rng.choice(len(names), size=n_tensors,
                                               replace=False)]
    for name in picks:
        def f(arr, name=name):
            trial = params.copy()
            trial.arrays[name] = arr
            return value_fn(trial)

        fd = central_difference(f, params.arrays[name].copy())
        assert rel_err(grad_map[name], fd) < 1e-4, name


def test_criterion_01_gradient_correctness():
    with criterion(1, "gradient correctness, all ops and losses"):
        start = time.time()
        rng = np.random.default_rng(2025)
        for instance in range(20):
            g, d, feats, seq = _tiny_models(rng)

            # every core op inside one composite expression
            x0 = rng.uniform(-2, 2, (3, 4))
            w0 = rng.uniform(-2, 2, (4, 3))

            def composite(x_arr):
                tape = ad.Tape()
                x, w = tape.tensor(x_arr), tape.tensor(w0)
                h = ad.tanh(ad.matmul(x, w))
                s = ad.softmax(ad.scale(h, 1.3 / 0.7))
                e = ad.exp(ad.reduce_mean(ad.mul(s, h), axis=1))
                q = ad.log(ad.add(ad.sigmoid(ad.reduce_max(h, axis=0)),
                                  tape.tensor(1.0)))
                r = ad.concat([ad.reshape(e, (1, -1)),
                               ad.reshape(q, (1, -1))], axis=1)
                z = ad.narrow(ad.transpose(r), 0, 0, 2)
                out = ad.reduce_sum(ad.sub(z, ad.narrow(x, -2, 0, 1))) \
                    + ad.reduce_sum(ad.clip(h, -0.5, 0.5))
                return tape, x, out

            tape, x, out = composite(x0)
            ad.backward(tape, out)
            fd = central_difference(lambda a: composite(a)[2].item(), x0.copy())
            assert rel_err(x.grad, fd) < 1e-4

            # teacher-forced cross entropy
            def ce_loss(params):
                t = ad.Tape()
                lp = BoundCaptioner(t, params).sequence_log_prob(feats[None],
                                                                 CaptionBatch([seq]))
                return -lp.item() / len(seq.tokens)

            t = ad.Tape()
            bound = BoundCaptioner(t, g)
            root = ad.scale(bound.sequence_log_prob(feats[None], CaptionBatch([seq])),
                            -1.0 / len(seq.tokens))
            ad.backward(t, root)
            _check_param_subset(ce_loss, {n: bound.p[n].grad for n in g.arrays},
                                g, rng)

            # real/fake/mismatched discriminator objective
            fake = TokenSequence([2, 1], True)
            mism = TokenSequence([3, 1], True)

            def d_loss(params):
                plain = disc.BoundDiscriminator(ad.Tape(grad=False), params)
                return tr.discriminator_objective(plain, feats[None], [seq], [fake],
                                                  [mism]).item()

            t = ad.Tape()
            bound_d = disc.BoundDiscriminator(t, d)
            root = tr.discriminator_objective(bound_d, feats[None], [seq], [fake], [mism])
            ad.backward(t, root)
            _check_param_subset(d_loss, {n: bound_d.p[n].grad for n in d.arrays},
                                d, rng)

            # relaxed-sample unroll with feature matching
            if d.variant == "coatt":
                noise_seed = int(rng.integers(10_000))
                cfg = tr.GanConfig(estimator="gumbel_soft", temperature=0.8,
                                   fm_image_weight=0.5, fm_caption_weight=0.5)

                def soft_loss(params):
                    return tr.gumbel_grad(params, d, feats[None],
                                          np.random.default_rng(noise_seed),
                                          cfg, gt_seqs=[seq])["loss"]

                out = tr.gumbel_grad(g, d, feats[None], np.random.default_rng(noise_seed),
                                     cfg, gt_seqs=[seq])
                _check_param_subset(soft_loss, out["grads"], g, rng)

        elapsed = time.time() - start
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def enumerable_model():
    gcfg = CaptionerConfig(vocab_size=4, hidden_dim=3, num_crops=2,
                           feature_dim=3, max_len=3)
    dcfg = disc.DiscriminatorConfig(vocab_size=4, hidden_dim=3, num_crops=2,
                                    feature_dim=3)
    g = init_params(gcfg, 7)
    d = disc.init_discriminator(dcfg, 107, "coatt")
    feats = np.random.default_rng(200).uniform(-1, 1, (2, 3))
    seqs = enumerate_sequences(gcfg)
    rewards = [float(np.log(np.clip(score_one(d, feats, s), tr.SCORE_EPS,
                                    1 - tr.SCORE_EPS))) for s in seqs]
    baseline = float(np.log(np.clip(score_one(d, feats, greedy_decode(g, feats)),
                                    tr.SCORE_EPS, 1 - tr.SCORE_EPS)))
    return g, feats, seqs, rewards, baseline


def test_criterion_02_scst_unbiasedness(enumerable_model):
    with criterion(2, "SCST unbiasedness vs exhaustive enumeration"):
        start = time.time()
        g, feats, seqs, rewards, baseline = enumerable_model
        assert len(seqs) <= 85
        probs = sequence_probabilities(g, feats, seqs)
        assert abs(probs.sum() - 1.0) < 1e-12

        probs2, score_grads = per_sequence_score_grads(g, feats, seqs)
        estimator_mean = expected_policy_gradient(probs2, score_grads,
                                                  rewards, baseline)
        truth = flat_grads(autodiff_expected_reward_grad(g, feats, seqs,
                                                         rewards, baseline))
        assert np.max(np.abs(estimator_mean - truth)) < 1e-10
        assert time.time() - start < 30.0


def test_criterion_03_baseline_variance_reduction(enumerable_model):
    with criterion(3, "greedy baseline reduces estimator variance"):
        g, feats, seqs, rewards, baseline = enumerable_model
        probs, score_grads = per_sequence_score_grads(g, feats, seqs)
        var_scst = policy_gradient_variance(probs, score_grads, rewards, baseline)
        var_reinforce = policy_gradient_variance(probs, score_grads, rewards, 0.0)
        assert var_scst.mean() <= var_reinforce.mean()


def test_criterion_04_gradient_norm_comparison(bench, estimator_fixture):
    with criterion(4, "SCST logit-gradient norms below Gumbel ST"):
        probe_cfg = tr.GanConfig(estimator="scst", reward="logD",
                                 temperature=0.1, batch_size=16, seed=3)
        stats = {}
        hash_streams = {}
        for est, (g, d) in estimator_fixture.items():
            norms, hashes = tr.grad_norm_probe(
                g, d, bench["ds"].train, est, 200,
                np.random.default_rng(42), probe_cfg, idf=bench["idf"])
            stats[est] = np.array(norms)
            hash_streams[est] = hashes
        assert hash_streams["scst"] == hash_streams["gumbel_st"]
        s, q = stats["scst"], stats["gumbel_st"]
        print(f"\n  scst: mean={s.mean():.5f} var={s.var():.3e} | "
              f"gumbel_st: mean={q.mean():.5f} var={q.var():.3e}")
        assert s.mean() < q.mean()
        assert s.var() < q.var()


def test_criterion_05_discriminator_score_levels(bench, gan_fixture):
    with criterion(5, "score ordering real > generated > random"):
        g, d = gan_fixture
        train = bench["ds"].train
        rng = np.random.default_rng(11)
        real, gen, rand = [], [], []
        for i, (scene, refs) in enumerate(train):
            obj, ctx = scene.labels[0]
            for ref in refs:
                real.append(score_one(d, scene.features, ref))
            for _ in range(3):
                sample, _ = sample_sentence(g, scene.features, rng)
                gen.append(score_one(d, scene.features, sample))
            drawn = 0
            while drawn < 3:  # unrelated caption: different object and context
                j = int(rng.integers(len(train)))
                o2, c2 = train[j][0].labels[0]
                if o2 != obj and c2 != ctx:
                    rand.append(score_one(d, scene.features,
                                          train[j][1][int(rng.integers(5))]))
                    drawn += 1
        r, f, x = np.mean(real), np.mean(gen), np.mean(rand)
        print(f"\n  mean scores: real={r:.3f} generated={f:.3f} random={x:.3f}")
        assert r > f > x
        assert r - x >= 0.3


def test_criterion_06_vocabulary_coverage_trend(bench, gan_fixture, rl_fixture):
    with criterion(6, "coverage: RL < CE and GAN >= RL"):
        cov_ce = _coverage(bench, bench["g_ce"])
        cov_rl = _coverage(bench, rl_fixture)
        cov_gan = _coverage(bench, gan_fixture[0])
        print(f"\n  coverage: CE={cov_ce:.1f} RL={cov_rl:.1f} GAN={cov_gan:.1f}")
        assert cov_rl < cov_ce
        assert cov_gan >= cov_rl


def test_criterion_07_out_of_context_gap(bench):
    with criterion(7, "CIDEr drops on the out-of-context split"):
        test_cider = _mean_cider(bench, bench["g_ce"], "test")
        ooc_cider = _mean_cider(bench, bench["g_ce"], "ooc")
        print(f"\n  CIDEr: test={test_cider:.2f} ooc={ooc_cider:.2f}")
        assert ooc_cider < test_cider


def test_criterion_08_metric_oracles():
    with criterion(8, "metric oracles (CIDEr, BLEU, ROUGE, CCA)"):
        corpus = [
            [[2, 3, 4, 5, 1], [2, 3, 6, 1]],
            [[7, 8, 9, 1], [7, 9, 8, 1]],
            [[2, 5, 4, 3, 1]],
            [[6, 8, 2, 1], [6, 8, 3, 1]],
        ]
        idf = met.fit_idf(corpus)
        ref = [2, 3, 4, 5, 1]
        assert abs(met.caption_scores([ref], [[ref]], idf).cider[0] - 10.0) < 1e-9

        seq = [2, 3, 4, 5, 6]
        assert abs(met.caption_scores([seq], [[seq]], idf).bleu4[0] - 1.0) < 1e-9
        assert abs(met.caption_scores([seq], [[seq]], idf).rouge_l[0] - 1.0) < 1e-9
        expected_bleu = (0.8 * 0.75 * (2.0 / 3.0) * 0.5) ** 0.25
        bleu = met.caption_scores([[10, 11, 12, 13, 14]], [[[10, 11, 12, 13, 15]]], idf).bleu4
        assert abs(bleu[0] - expected_bleu) < 1e-9
        p, r, b2 = 0.75, 0.6, 1.44
        expected_rouge = (1 + b2) * p * r / (r + b2 * p)
        rouge = met.caption_scores([[1, 2, 3, 4]], [[[1, 3, 4, 5, 6]]], idf).rouge_l
        assert abs(rouge[0] - expected_rouge) < 1e-9

        rng = np.random.default_rng(1)
        X = rng.normal(scale=30.0, size=(300, 3))
        model = met.fit_cca(X, X.copy(), r=3)
        assert np.max(np.abs(model.sigma - 1.0)) < 1e-8

        n, k = 1200, 3
        z = rng.normal(size=(n, k))
        X = z @ rng.normal(size=(k, 5)) + 0.2 * rng.normal(size=(n, 5))
        Y = z @ rng.normal(size=(k, 4)) + 0.2 * rng.normal(size=(n, 4))
        model = met.fit_cca(X[:1000], Y[:1000], r=k)
        paired = met.semantic_score(model, X[1000:], Y[1000:])
        perm = rng.permutation(np.arange(1000, n))
        shuffled = met.semantic_score(model, X[1000:], Y[perm])
        auc = float(np.mean(paired[:, None] > shuffled[None, :])
                    + 0.5 * np.mean(paired[:, None] == shuffled[None, :]))
        print(f"\n  paired-vs-shuffled AUC = {auc:.3f}")
        assert auc > 0.9


def test_criterion_09_structural_invariants(bench):
    with criterion(9, "structural invariants"):
        ds = bench["ds"]
        rng = np.random.default_rng(31)
        d_co = disc.init_discriminator(bench["dcfg"], 301, "coatt")
        d_je = disc.init_discriminator(bench["dcfg"], 302, "jointemb")
        g = bench["g_ce"]
        tape = ad.Tape(grad=False)
        plain_co, plain_je = (disc.BoundDiscriminator(tape, d) for d in (d_co, d_je))

        for scene, refs in ds.val:
            feats = scene.features
            seq = refs[0]
            out = plain_co.score_sequence(feats[None], CaptionBatch([seq]))
            alpha, beta = out["alpha"].data.reshape(-1), out["beta"].data.reshape(-1)
            assert abs(alpha.sum() - 1.0) < 1e-12 and np.all(alpha >= 0)
            assert abs(beta.sum() - 1.0) < 1e-12 and np.all(beta >= 0)

            perm = rng.permutation(feats.shape[0])
            out_p = plain_co.score_sequence(feats[perm][None], CaptionBatch([seq]))
            assert abs(out["score"].item() - out_p["score"].item()) <= 1e-12
            np.testing.assert_allclose(out_p["alpha"].data.reshape(-1), alpha[perm],
                                       atol=1e-12)

            onehot = np.zeros((len(seq.tokens), ds.vocab.size))
            onehot[np.arange(len(seq.tokens)), seq.tokens] = 1.0
            for d_params, bound in ((d_co, plain_co), (d_je, plain_je)):
                hard = score_one(d_params, feats, seq)
                soft = bound.score_soft_rows(feats, [tape.tensor(onehot)])["score"].item()
                assert abs(hard - soft) <= 1e-12

            single = greedy_decode(g, feats)
            ens = ensemble_decode([g, g.copy(), g.copy()], feats)
            assert ens.tokens == single.tokens

            (*_, attn, _), = replay_steps(g, feats, [ds.vocab.bos_id])
            assert abs(attn.sum() - 1.0) < 1e-12 and np.all(attn >= 0)
            assert 0.0 <= attn[0, -1] <= 1.0  # the sentinel gate


def test_criterion_10_determinism_and_persistence(tmp_path):
    with criterion(10, "determinism and bit-exact persistence"):
        config_data = {
            "seed": 3,
            "dataset": {"n_objects": 4, "n_contexts": 3, "n_images": 16,
                        "feature_dim": 10, "num_crops": 3},
            "captioner": {"hidden_dim": 10, "max_len": 10},
            "discriminator": {"hidden_dim": 10},
            "gan": {"epochs": 1, "d_pretrain_epochs": 1, "batch_size": 4},
            "ce_pretrain": {"epochs": 2},
        }
        outs = []
        for run in ("a", "b"):
            cfg_path = tmp_path / f"config_{run}.json"
            cfg_path.write_text(json.dumps(
                {**config_data, "out_dir": str(tmp_path / run)}))
            assert cli.main(["train", "--config", str(cfg_path)]) == 0
            outs.append(tmp_path / run)
        assert (outs[0] / "metrics.jsonl").read_bytes() == \
            (outs[1] / "metrics.jsonl").read_bytes()
        for ckpt in sorted(outs[0].glob("ckpt-*.sgck")):
            assert ckpt.read_bytes() == (outs[1] / ckpt.name).read_bytes()

        # save -> load -> save byte identity
        first = sorted(outs[0].glob("ckpt-*.sgck"))[-1]
        loaded = dat.load_checkpoint(first)
        resaved = tmp_path / "resaved.sgck"
        dat.save_checkpoint(resaved, loaded)
        assert first.read_bytes() == resaved.read_bytes()

        # resume matches the uninterrupted run bit-exactly
        ds = dat.generate_dataset(seed=2, n_objects=4, n_contexts=3, n_images=12,
                                  num_crops=3, feature_dim=10)
        gcfg = CaptionerConfig(vocab_size=ds.vocab.size, hidden_dim=8,
                               num_crops=3, feature_dim=10, max_len=10)
        dcfg = disc.DiscriminatorConfig(vocab_size=ds.vocab.size, hidden_dim=8,
                                        num_crops=3, feature_dim=10)

        def fresh():
            return init_params(gcfg, 1), disc.init_discriminator(dcfg, 2, "coatt")

        cfg3 = tr.GanConfig(estimator="scst", epochs=3, d_pretrain_epochs=1,
                            batch_size=4, seed=9)
        g1, d1 = fresh()
        full, _ = tr.train_gan(g1, d1, ds.train, cfg3)

        g2, d2 = fresh()
        cfg2 = tr.GanConfig(**{**vars(cfg3), "epochs": 2})
        partial, _ = tr.train_gan(g2, d2, ds.train, cfg2)
        resumed, _ = tr.train_gan(g2, d2, ds.train, cfg3, resume=partial[-1])

        a, b = full[-1], resumed[-1]
        assert a.epoch == b.epoch == 3
        for k in a.captioner.arrays:
            np.testing.assert_array_equal(a.captioner.arrays[k],
                                          b.captioner.arrays[k])
        for k in a.discriminator.arrays:
            np.testing.assert_array_equal(a.discriminator.arrays[k],
                                          b.discriminator.arrays[k])
        assert a.rng_state == b.rng_state
