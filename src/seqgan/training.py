"""Adversarial optimization of the captioner against a discriminator.

The discriminator ascends a real/fake/mismatched objective; the generator
ascends the expected log discriminator score with one of three estimators:

- ``scst``: REINFORCE with the greedy decode's reward as baseline, one
  sample per image, optionally regularized by a CIDEr reward difference.
- ``gumbel_soft``: relaxed samples fed forward into both the decoder and
  the discriminator; the loss backpropagates through the relaxation.
- ``gumbel_st``: one-hot forward, identity backward through the one-hot.

Every objective and estimator takes a minibatch: B x C x d features and B
captions per role, scored and replayed as padded batches.  All updates go
through Adam; everything is driven by explicit generators, so a run is
bit-reproducible from its seed.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data as datamod
from . import metrics as met
# greedy_decode is not called here; the benchmark's tracer rebinds it as
# training.greedy_decode too (tests/test_bench_hooks.py keeps the import)
from .captioner import (BoundCaptioner, CaptionBatch, CaptionerParams,  # noqa: F401
                        InputError, TokenSequence, _check_feats, greedy_decode,
                        greedy_decode_batch, sample_sentence)
from .data import AdamState
from .discriminator import BoundDiscriminator
from .metrics import NumericError

logger = logging.getLogger(__name__)

ESTIMATORS = ("scst", "gumbel_soft", "gumbel_st")
REWARDS = ("logD", "logD_plus_cider", "cider")

SCORE_EPS = 1e-7  # discriminator outputs are clamped to [eps, 1-eps] before log


@dataclass
class GanConfig:
    estimator: str = "scst"
    reward: str = "logD"
    cider_weight: float = 5.0
    temperature: float = 0.5
    fm_image_weight: float = 0.0
    fm_caption_weight: float = 0.0
    g_lr: float = 1e-3
    d_lr: float = 1e-3
    batch_size: int = 8
    epochs: int = 5
    d_pretrain_epochs: int = 0
    seed: int = 0

    def __post_init__(self):
        """Each error message starts with the name of the field at fault."""
        if self.estimator not in ESTIMATORS:
            raise InputError(f"estimator must be one of {ESTIMATORS}")
        if self.reward not in REWARDS:
            raise InputError(f"reward must be one of {REWARDS}")
        for name in ("temperature", "g_lr", "d_lr"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive")
        for name in ("cider_weight", "fm_image_weight", "fm_caption_weight"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be nonnegative")
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")
        for name in ("epochs", "d_pretrain_epochs"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be >= 0")


@dataclass
class RewardRecord:
    sample_reward: float
    baseline_reward: float

    @property
    def advantage(self) -> float:
        return self.sample_reward - self.baseline_reward


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def init_adam(arrays: dict[str, np.ndarray]) -> AdamState:
    return AdamState({k: np.zeros_like(a) for k, a in arrays.items()},
                     {k: np.zeros_like(a) for k, a in arrays.items()})


def adam_step(arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float):
    """One Adam minimization step, in place; pass negated gradients to ascend.

    Every gradient is checked before anything changes: a wrong shape raises
    ``InputError`` and a NaN or Inf raises ``NumericError`` naming the
    parameter and the step, leaving ``arrays`` and ``state`` untouched.
    """
    step = state.step + 1
    for name, g in grads.items():
        if g.shape != arrays[name].shape:
            raise InputError(f"gradient shape mismatch for {name!r}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name!r} at Adam step {step}")
    state.step = step
    b1t = 1.0 - ADAM_BETA1**step
    b2t = 1.0 - ADAM_BETA2**step
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        arrays[name] -= lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
    return arrays, state


# ---------------------------------------------------------------------------
# discriminator objective
# ---------------------------------------------------------------------------


def _clamp_score(scores: ad.Tensor) -> ad.Tensor:
    """``scores`` clipped to [eps, 1 - eps]; logs a warning for every score
    the clip bites, in batch order."""
    raw = scores.data.reshape(-1)
    for value in raw[(raw <= SCORE_EPS) | (raw >= 1.0 - SCORE_EPS)]:
        logger.warning("discriminator score %.3g clamped before log", value)
    return ad.clip(scores, SCORE_EPS, 1.0 - SCORE_EPS)


# per image: log D(real) + 1/2 log(1 - D(fake)) + 1/2 log(1 - D(mismatched)),
# taken as log(sign * D + offset) weighted per column
_OBJ_SIGN = np.array([1.0, -1.0, -1.0])
_OBJ_OFFSET = np.array([0.0, 1.0, 1.0])
_OBJ_WEIGHT = np.array([1.0, 0.5, 0.5])


def discriminator_objective(bound: BoundDiscriminator, image_feats,
                            real, fake, mismatched) -> ad.Tensor:
    """Batch mean over B images of log D(I, real) + 1/2 log(1 - D(I, fake))
    + 1/2 log(1 - D(I, mismatched)).

    ``image_feats`` is B x C x d and ``real``, ``fake`` and ``mismatched``
    are lists of B captions; all 3B are scored in one padded batch (per
    image: real, fake, mismatched).  The trainer ascends this; scores are
    clamped away from {0, 1}.
    """
    if not all(isinstance(seqs, list) for seqs in (real, fake, mismatched)):
        raise InputError("real, fake and mismatched must be lists of captions")
    B = len(real)
    if not (B == len(fake) == len(mismatched)):
        raise InputError("real, fake and mismatched need one caption per image")
    feats = np.repeat(_check_feats(image_feats, bound.config, B), 3, axis=0)
    captions = CaptionBatch([seq for trio in zip(real, fake, mismatched) for seq in trio])
    scores = _clamp_score(bound.score_sequence(feats, captions)["score"])
    logs = ad.log(ad.add(ad.mul(ad.reshape(scores, (B, 3)), _OBJ_SIGN), _OBJ_OFFSET))
    return ad.reduce_sum(ad.mul(logs, _OBJ_WEIGHT / B))


def _clamped_scores(d_params, image_feats, seqs) -> np.ndarray:
    """Clamped scores of a list of B captions against B x C x d features,
    in one no-grad pass."""
    bound = BoundDiscriminator(ad.Tape(grad=False), d_params)
    return _clamp_score(bound.score_sequence(image_feats, CaptionBatch(seqs))["score"]).data


# ---------------------------------------------------------------------------
# SCST estimator
# ---------------------------------------------------------------------------


def _sequence_rewards(cfg: GanConfig, d_params, image_feats, seqs, refs=None,
                      idf=None) -> list[float]:
    """Rewards of finished captions under the configured reward mode, in
    ``seqs`` order: caption j against image j of ``image_feats`` and
    reference list ``refs[j]``.  The D scores of all captions come from one
    pass, and the CIDEr-D scores from one ``caption_scores`` call; the
    ``cider`` reward takes no D score."""
    if cfg.reward in ("logD_plus_cider", "cider") and (refs is None or idf is None):
        raise InputError(f"reward {cfg.reward!r} needs reference captions and idf")
    if cfg.reward == "cider":
        return met.caption_scores(seqs, refs, idf).cider.tolist()
    rewards = [float(np.log(v)) for v in _clamped_scores(d_params, image_feats, seqs)]
    if cfg.reward == "logD_plus_cider":
        ciders = met.caption_scores(seqs, refs, idf).cider.tolist()
        rewards = [reward + cfg.cider_weight * cider for reward, cider in zip(rewards, ciders)]
    return rewards


def scst_batch_grad(g_params: CaptionerParams, d_params, image_feats, samples,
                    cfg: GanConfig, refs=None, idf=None):
    """SCST gradient of a minibatch's generator objective (to ascend), from
    one drawn sample per image and the greedy decode's reward as baseline.

    ``image_feats`` is B x C x d, ``samples`` holds image b's sample at b
    and ``refs`` its reference captions (the CIDEr rewards need them).  Draws
    nothing.  The B baselines come from one greedy pass, and the 2B captions
    are rewarded in one pass, per image the sample, then the baseline.  Only
    the rows with a non-zero advantage are replayed, as one teacher-forced
    batch on one tape, whose backward gives the gradient of
    sum_b (adv_b / B) log p(sample_b); with no such row no tape is recorded.

    Returns (gradients, one ``RewardRecord`` per image, per image the
    len(sample) x K gradient of the same objective with respect to the
    sample's step logits: zero for a zero advantage).
    """
    feats = np.asarray(image_feats, dtype=np.float64)
    B = len(samples)
    if len(feats) != B:
        raise InputError(f"need one sample per image: {B} samples for {len(feats)} images")
    baselines = greedy_decode_batch(g_params, feats)
    captions = [seq for pair in zip(samples, baselines) for seq in pair]
    caption_refs = None if refs is None else [r for r in refs for _ in range(2)]
    rewards = _sequence_rewards(cfg, d_params, np.repeat(feats, 2, axis=0), captions,
                                caption_refs, idf)
    records = [RewardRecord(*rewards[2 * b : 2 * b + 2]) for b in range(B)]
    adv = np.array([record.advantage for record in records])
    K = g_params.config.vocab_size
    logit_grads = [np.zeros((len(seq.tokens), K)) for seq in samples]
    rows = np.flatnonzero(adv)
    if not rows.size:
        zeros = {k: np.zeros_like(a) for k, a in g_params.arrays.items()}
        return zeros, records, logit_grads

    tape = ad.Tape()
    bound = BoundCaptioner(tape, g_params)
    logp, replay_grads = bound.sequence_log_prob_and_logits(
        feats[rows], CaptionBatch([samples[b] for b in rows]))
    ad.backward(tape, ad.reduce_sum(ad.mul(logp, adv[rows] / B)))
    for j, b in enumerate(rows):
        logit_grads[b] = replay_grads[j, : len(samples[b].tokens)]
    return {name: bound.p[name].grad for name in g_params.arrays}, records, logit_grads


# ---------------------------------------------------------------------------
# Gumbel estimators
# ---------------------------------------------------------------------------


def gumbel_noise(rng: np.random.Generator, size) -> np.ndarray:
    u = rng.random(size)
    return -np.log(-np.log(u + 1e-20) + 1e-20)


def _sum_sq(t: ad.Tensor) -> ad.Tensor:
    return ad.reduce_sum(ad.mul(t, t))


def gumbel_grad(g_params: CaptionerParams, d_params, image_feats,
                rng: np.random.Generator, cfg: GanConfig, gt_seqs=None) -> dict:
    """Gradient of the batch mean of log D on relaxed samples of B x C x d
    ``image_feats``, backpropagated into the captioner from one tape.  With
    feature matching, row b's loss subtracts the weighted squared distances
    between the discriminator embeddings of ``gt_seqs[b]`` (a list of B
    captions, then required) and of its relaxed sample.

    Returns "grads" and "loss" of the batch mean and per row its "tokens",
    "score" and "logit_grads" (len(tokens) x K, the row's 1/B share)."""
    if cfg.estimator not in ("gumbel_soft", "gumbel_st"):
        raise InputError("gumbel_grad needs a gumbel estimator config")
    fm_on = cfg.fm_image_weight > 0 or cfg.fm_caption_weight > 0
    if fm_on and gt_seqs is None:
        raise InputError("feature matching requires the ground-truth captions")
    gt = CaptionBatch(gt_seqs) if fm_on else None
    feats = _check_feats(image_feats, d_params.config, len(image_feats))
    if not len(feats):
        raise InputError("gumbel_grad needs at least one image")
    B, K = len(feats), g_params.config.vocab_size
    if fm_on and len(gt.seqs) != B:
        raise InputError(f"gt_seqs must hold one caption per image: {len(gt.seqs)} captions "
                         f"for {B} images")

    tape = ad.Tape()
    bound_g = BoundCaptioner(tape, g_params)
    bound_d = BoundDiscriminator(tape, d_params)
    rows, tokens, logit_grads = bound_g.relaxed_unroll(
        feats, lambda: gumbel_noise(rng, (B, K)), cfg.temperature,
        cfg.estimator == "gumbel_st")
    out = bound_d.forward(feats, rows, [len(seq) for seq in tokens])
    total = ad.reduce_sum(ad.log(_clamp_score(out["score"])))
    if fm_on:
        ref = bound_d.score_sequence(feats, gt)
        total -= ad.scale(_sum_sq(ref["e_img"] - out["e_img"]), cfg.fm_image_weight)
        total -= ad.scale(_sum_sq(ref["e_cap"] - out["e_cap"]), cfg.fm_caption_weight)
    loss = ad.scale(total, 1.0 / B)
    ad.backward(tape, loss)
    return {"grads": {name: bound_g.p[name].grad for name in g_params.arrays},
            "loss": loss.item(), "tokens": tokens, "score": out["score"].data,
            "logit_grads": [logit_grads[b, : len(seq)] for b, seq in enumerate(tokens)]}


# ---------------------------------------------------------------------------
# cross-entropy pretraining
# ---------------------------------------------------------------------------


def _example_feats(item):
    scene = item[0]
    return scene.features if hasattr(scene, "features") else np.asarray(scene)


def ce_pretrain(g_params: CaptionerParams, dataset, epochs: int,
                rng: np.random.Generator, lr: float = 1e-3, batch_size: int = 8):
    """Teacher-forced next-token cross entropy over all reference captions.

    Each minibatch is one padded batch: one tape, one bind and one
    teacher-forced pass for all its captions, then one backward and one Adam
    step on the batch mean of each caption's loss in nats per token.  Only
    the epoch permutations are drawn from ``rng``.

    Mutates ``g_params`` in place; returns (params, per-epoch mean loss in
    nats per token).
    """
    if not dataset:
        raise InputError("dataset is empty")
    if batch_size < 1:
        raise InputError(f"batch_size must be >= 1, got {batch_size}")
    if epochs < 0:
        raise InputError(f"epochs must be >= 0, got {epochs}")
    pairs = [(idx, r) for idx, (_, refs) in enumerate(dataset) for r in range(len(refs))]
    opt = init_adam(g_params.arrays)
    curve = []
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        epoch_loss, epoch_tokens = 0.0, 0
        for start in range(0, len(order), batch_size):
            batch = [pairs[j] for j in order[start : start + batch_size]]
            feats = np.array([_example_feats(dataset[idx]) for idx, _ in batch])
            refs = [dataset[idx][1][r] for idx, r in batch]
            lengths = np.array([len(ref.tokens) for ref in refs])
            tape = ad.Tape()
            bound = BoundCaptioner(tape, g_params)
            logp = bound.sequence_log_prob(feats, CaptionBatch(refs))
            loss = ad.reduce_sum(ad.mul(logp, -1.0 / (len(batch) * lengths)))
            ad.backward(tape, loss)
            adam_step(g_params.arrays, {n: bound.p[n].grad for n in g_params.arrays}, opt,
                      lr)
            epoch_loss -= float(logp.data.sum())
            epoch_tokens += int(lengths.sum())
        curve.append(epoch_loss / max(epoch_tokens, 1))
    return g_params, curve


# ---------------------------------------------------------------------------
# GAN training loop
# ---------------------------------------------------------------------------


def _snapshot(g_params, d_params, g_opt, d_opt, cfg_dict, rng,
              epoch) -> datamod.Checkpoint:
    return datamod.Checkpoint(
        captioner=g_params.copy(), discriminator=d_params.copy(),
        gen_opt=g_opt.copy(), disc_opt=d_opt.copy(), config=cfg_dict,
        rng_state=rng.bit_generator.state, epoch=epoch)


def _pick_other_ref(dataset, i, rng) -> TokenSequence:
    """A real caption from a uniformly chosen different image."""
    j = int(rng.integers(len(dataset) - 1))
    if j >= i:
        j += 1
    refs = dataset[j][1]
    return refs[int(rng.integers(len(refs)))]


def _d_batch_step(g_params, d_params, d_opt, dataset, batch, rng, cfg):
    """One discriminator ascent step on one tape: per image, draw the real
    caption, a sample and a mismatched caption (in that order), then score
    all 3B captions as one batch.  Returns the objective before the step."""
    feats, real, fake, mismatched = [], [], [], []
    for i in batch:
        refs = dataset[i][1]
        feats.append(_example_feats(dataset[i]))
        real.append(refs[int(rng.integers(len(refs)))])
        fake.append(sample_sentence(g_params, feats[-1], rng)[0])
        mismatched.append(_pick_other_ref(dataset, i, rng))
    tape = ad.Tape()
    bound = BoundDiscriminator(tape, d_params)
    objective = discriminator_objective(bound, np.array(feats), real, fake, mismatched)
    ad.backward(tape, objective)
    # ascend the objective
    adam_step(d_params.arrays, {n: -bound.p[n].grad for n in d_params.arrays}, d_opt,
              cfg.d_lr)
    return objective.item()


def _g_batch_step(g_params, d_params, g_opt, dataset, batch, rng, cfg, idf):
    """One generator ascent step.  Per image, draw a ground-truth caption
    (only feature matching uses it) and, for SCST, a sample; then take one
    batched step (the Gumbel unroll draws its noise after all the picks)."""
    feats = np.array([_example_feats(dataset[i]) for i in batch])
    refs = [dataset[i][1] for i in batch]
    gts, samples = [], []
    for f, r in zip(feats, refs):
        gts.append(r[int(rng.integers(len(r)))])
        if cfg.estimator == "scst":
            samples.append(sample_sentence(g_params, f, rng)[0])
    if cfg.estimator == "scst":
        grads = scst_batch_grad(g_params, d_params, feats, samples, cfg, refs, idf)[0]
    else:
        grads = gumbel_grad(g_params, d_params, feats, rng, cfg, gts)["grads"]
    adam_step(g_params.arrays, {n: -g for n, g in grads.items()}, g_opt, cfg.g_lr)


def mean_d_scores(g_params, d_params, dataset, rng, limit=16) -> dict:
    """Mean discriminator score on real, generated and mismatched captions,
    all scored in one pass."""
    take = dataset[: min(limit, len(dataset))]
    feats, captions = [], []
    for i, (scene, refs) in enumerate(take):
        f = _example_feats((scene, refs))
        sample, _ = sample_sentence(g_params, f, rng)
        feats += [f] * 3
        captions += [refs[0], sample, _pick_other_ref(dataset, i, rng)]
    scores = _clamped_scores(d_params, np.array(feats), captions).reshape(-1, 3)
    return {"d_real": float(np.mean(scores[:, 0])), "d_fake": float(np.mean(scores[:, 1])),
            "d_random": float(np.mean(scores[:, 2]))}


def train_gan(g_params: CaptionerParams, d_params, dataset, cfg: GanConfig,
              idf=None, epoch_hook=None, resume: datamod.Checkpoint | None = None):
    """Alternating one discriminator ascent and one generator step per batch.

    Mutates the passed parameter containers.  Returns (checkpoints, records):
    one checkpoint per completed epoch plus the initial state (which already
    includes discriminator pretraining), and one metrics record per epoch.
    With ``resume`` the loop continues exactly where that checkpoint stopped.
    """
    if not dataset:
        raise InputError("dataset is empty")
    if len(dataset) < 2:
        raise InputError("need at least 2 images for mismatched captions")
    if cfg.reward in ("logD_plus_cider", "cider") and idf is None:
        raise InputError(f"reward {cfg.reward!r} needs a fitted idf")
    cfg_dict = vars(cfg).copy()

    adversarial = cfg.reward != "cider"  # pure NLP reward has no adversary

    if resume is not None:
        g_params.arrays = {k: v.copy() for k, v in resume.captioner.arrays.items()}
        d_params.arrays = {k: v.copy() for k, v in resume.discriminator.arrays.items()}
        g_opt, d_opt = resume.gen_opt.copy(), resume.disc_opt.copy()
        rng = datamod.rng_from_state(resume.rng_state)
        start_epoch = resume.epoch
    else:
        g_opt, d_opt = init_adam(g_params.arrays), init_adam(d_params.arrays)
        rng = np.random.default_rng(cfg.seed)
        start_epoch = 0
        if adversarial:
            for _ in range(cfg.d_pretrain_epochs):
                order = rng.permutation(len(dataset))
                for s in range(0, len(order), cfg.batch_size):
                    _d_batch_step(g_params, d_params, d_opt, dataset,
                                  order[s : s + cfg.batch_size], rng, cfg)

    checkpoints = [_snapshot(g_params, d_params, g_opt, d_opt, cfg_dict, rng, start_epoch)]
    records = []
    for epoch in range(start_epoch + 1, cfg.epochs + 1):
        order = rng.permutation(len(dataset))
        for s in range(0, len(order), cfg.batch_size):
            batch = order[s : s + cfg.batch_size]
            if adversarial:
                _d_batch_step(g_params, d_params, d_opt, dataset, batch, rng, cfg)
            _g_batch_step(g_params, d_params, g_opt, dataset, batch, rng, cfg, idf)
        record = {"epoch": epoch}
        record.update(mean_d_scores(g_params, d_params, dataset, rng))
        if epoch_hook is not None:
            record.update(epoch_hook(epoch, g_params, d_params))
        records.append(record)
        checkpoints.append(_snapshot(g_params, d_params, g_opt, d_opt, cfg_dict, rng, epoch))
    return checkpoints, records


# ---------------------------------------------------------------------------
# gradient diagnostics
# ---------------------------------------------------------------------------


def grad_norm_probe(g_params, d_params, dataset, estimator: str, n_batches: int,
                    rng: np.random.Generator, cfg: GanConfig, idf=None):
    """L2 norm of the minibatch-mean logit gradient, one value per minibatch:
    each row's step gradients, its share of the minibatch mean, are summed on
    a zero-padded (max_len, vocab) grid, so opposite-signed example gradients
    cancel the way they do in an actual update.

    Batch selection and estimator sampling use two separate streams derived
    from ``rng``, so different estimators probed with equal-seeded generators
    see identical minibatch sequences.  Returns (norms, batch hashes).
    """
    if n_batches < 1:
        raise InputError("n_batches must be >= 1")
    if estimator not in ESTIMATORS:
        raise InputError(f"unknown estimator {estimator!r}")
    seeds = rng.integers(0, 2**63 - 1, size=2)
    batch_rng = np.random.default_rng(int(seeds[0]))
    est_rng = np.random.default_rng(int(seeds[1]))
    probe_cfg = GanConfig(**{**vars(cfg), "estimator": estimator})
    T, K = g_params.config.max_len, g_params.config.vocab_size

    norms, hashes = [], []
    for _ in range(n_batches):
        batch = batch_rng.choice(len(dataset), size=min(cfg.batch_size, len(dataset)),
                                 replace=False)
        hashes.append(hashlib.sha256(batch.astype("<i8").tobytes()).hexdigest()[:16])
        feats = np.array([_example_feats(dataset[i]) for i in batch])
        refs = [dataset[i][1] for i in batch]
        if estimator == "scst":
            samples = [sample_sentence(g_params, f, est_rng)[0] for f in feats]
            grads = scst_batch_grad(g_params, d_params, feats, samples, probe_cfg, refs,
                                    idf)[2]
        else:
            grads = gumbel_grad(g_params, d_params, feats, est_rng, probe_cfg,
                                [r[0] for r in refs])["logit_grads"]
        mean_grad = np.zeros((T, K))
        for g in grads:  # already the minibatch mean's share
            mean_grad[: len(g)] += g
        norms.append(float(np.linalg.norm(mean_grad)))
    return norms, hashes
