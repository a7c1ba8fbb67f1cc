"""Oracles for the captioner and its estimator tests.

The enumeration helpers walk the complete sampling tree of a tiny
captioner, so expectations and variances over the sequence distribution are
exact.  ``PerGateCaptioner`` and ``PerGateDiscriminator`` keep the per-gate
LSTM cells (each gate's weights sliced from the stored fused arrays), the
separate sentinel branch and the per-token log-likelihood that the fused
models replaced, as the oracle for the fused path (``PerGateDiscriminator``
steps its word LSTM as tape ops, the oracle for the one-node word LSTM), and
``per_gate_init`` the per-gate draws as the oracle for the fused initial
values; ``composed_lstm_cell`` is the oracle for the numpy cell
``ad._lstm_cell_values`` and its reverse, and
``per_member_decode`` keeps the per-member ensemble loop as the oracle for
the stacked ensemble bind, and ``per_reference_cider_d`` the CIDEr-D loop
that rebuilt the candidate side for every reference.  ``loop_d_batch_step``
keeps the discriminator step as a per-image loop (one tape, one bind and
three single-caption scores per image) as the oracle for the padded batch,
and ``gumbel_sample`` is a numpy relaxed sampler, the oracle for the
Gumbel-max law.  ``loop_ce_pretrain`` keeps cross-entropy pretraining as the
per-caption loop (one tape, one bind and one teacher-forced pass per
caption) as the oracle for the padded minibatch.  ``scst_grad`` keeps the
per-image SCST step (one sample, one greedy decode, one reward pass and one
replay tape), and ``loop_g_batch_step`` the generator step as a loop over
it, as the oracle for the batched SCST step.  ``gumbel_unroll`` and
``gumbel_grad`` keep the per-image Gumbel estimators (one tape, one bind of
each model, one ``step`` and one 1 x K noise draw per decoder step, and
``st_onehot``, the straight-through one-hot as a tape op) as the
oracle for the relaxed unroll node; ``gumbel_grad`` takes ``bound_cls`` and
``disc_cls``, so the oracle runs on the per-gate models too, and
``RecordingRng``/``ReplayRng`` hand image b row b of a batch's noise
blocks.  ``replay_steps`` steps one
bound captioner through a token path, the step-by-step oracle for the
decoders and the way to inspect one step's attention and sentinel gate, and
``bound_decode`` decodes through a bound captioner's steps (the decoders
call the plain step with no bind), with ``multinomial_pick`` as its
sampler.  ``stepwise_log_prob`` teacher-forces one caption through a bound
captioner's steps, the oracle for the one-node teacher-forced pass.
``per_caption_cider_d``, ``per_caption_bleu4`` and ``per_caption_rouge_l``
keep the one-caption ``Counter`` loops (and
``lcs_len`` the textbook LCS table) as the oracle for the array scorer
``metrics.caption_scores``, bit for bit, and ``per_image_rewards`` takes
its CIDEr-D rewards from them.  ``per_pair_semantic_score`` keeps the
one-pair semantic score as the oracle for the row form
``metrics.semantic_score``, and ``loop_semantic_fit`` the per-caption fit
loop (one caption vector and one image vector per reference) as the oracle
for ``SemanticScorer.fit``, bit for bit.
"""

from collections import Counter

import numpy as np

from seqgan import autodiff as ad
from seqgan import discriminator as disc
from seqgan import metrics as met
from seqgan import training as tr
from seqgan.captioner import (BoundCaptioner, CaptionBatch, InputError, TokenSequence,
                              greedy_decode, sample_sentence)
from seqgan.discriminator import BoundDiscriminator

GATES = ("i", "f", "o", "g")
# the gate of each column block of the fused lstm_W / lstm_b, in order
CAPTIONER_BLOCKS = ("i", "f", "o", "sent", "g")
DISCRIMINATOR_BLOCKS = GATES


def gate_weights(p, blocks, m):
    """Each gate's (W_x, W_h, b) as ``ad.narrow`` slices of the bound fused
    ``lstm_W``/``lstm_b``: gate ``blocks[j]`` owns column block j of width m,
    and its W_h is the last m rows."""
    W, b = p["lstm_W"], p["lstm_b"]
    rows = W.shape[-2]
    gates = {}
    for j, gate in enumerate(blocks):
        cols = ad.narrow(W, -1, j * m, m)
        gates[gate] = (ad.narrow(cols, -2, 0, rows - m), ad.narrow(cols, -2, rows - m, m),
                       ad.narrow(b, -1, j * m, m))
    return gates


def per_gate_lstm(gates, inputs, h, c):
    """LSTM cell with one matmul pair and one bias add per gate."""
    acts = {}
    for gate in GATES:
        W_x, W_h, b = gates[gate]
        pre = ad.matmul(inputs, W_x) + ad.matmul(h, W_h) + b
        acts[gate] = ad.tanh(pre) if gate == "g" else ad.sigmoid(pre)
    c_new = acts["f"] * c + acts["i"] * acts["g"]
    return acts["o"] * ad.tanh(c_new), c_new


def per_gate_init(config, seed, variant=None):
    """Initial parameters as the per-gate layout drew them, one array after
    another with each gate's W_x, W_h and b in turn (gates i, f, o, g, then
    the captioner's sentinel), then concatenated into the fused
    ``lstm_W``/``lstm_b``.  ``variant`` None means the captioner."""
    K, m, d = config.vocab_size, config.hidden_dim, config.feature_dim
    in_rows = 2 * m if variant is None else m
    draws = [("embed", (K, m))]
    for gate in GATES + (("sent",) if variant is None else ()):
        draws += [(f"Wx_{gate}", (in_rows, m)), (f"Wh_{gate}", (m, m)), (f"b_{gate}", (1, m))]
    if variant is None:
        draws += [("attn_Wv", (d, m)), ("attn_Wa", (m, m)), ("attn_Wh", (m, m)),
                  ("attn_w", (m, 1)), ("attn_b", (1, m)), ("out_W", (m, K)), ("out_b", (1, K))]
    elif variant == "coatt":
        draws += [("img_W", (d, m))] + [(name, (m, m)) for name in (
            "bilinear_Q", "attn_WI", "attn_WIh", "attn_Wh", "attn_WhI")] + [
            ("attn_bI", (1, m)), ("attn_bS", (1, m)), ("alpha_w", (m, 1)), ("alpha_b", (1, 1)),
            ("beta_w", (m, 1)), ("beta_b", (1, 1)), ("out_UI", (m, m)), ("out_VS", (m, m))]
    else:
        draws += [("img_W", (d, m)), ("head_M", (m, m))]
    rng = np.random.default_rng(seed)
    a = 1.0 / np.sqrt(m)
    arrays = {name: rng.uniform(-a, a, shape) for name, shape in draws}
    blocks = CAPTIONER_BLOCKS if variant is None else DISCRIMINATOR_BLOCKS
    arrays["lstm_W"] = np.concatenate([np.vstack([arrays.pop(f"Wx_{g}"), arrays.pop(f"Wh_{g}")])
                                       for g in blocks], axis=1)
    arrays["lstm_b"] = np.concatenate([arrays.pop(f"b_{g}") for g in blocks], axis=1)
    return arrays


def composed_lstm_cell(pre, c, k):
    """The numpy cell ``ad._lstm_cell_values`` from separate
    sigmoid/tanh/mul/add nodes, as ``[c' | o_1*tanh(c') | ... |
    o_k*tanh(c')]``: the fused cell as the models composed it on the tape
    before it was fused."""
    m = c.shape[1]
    sig = ad.sigmoid(ad.narrow(pre, 1, 0, (k + 2) * m))
    i, f, *outs = [ad.narrow(sig, 1, j * m, m) for j in range(k + 2)]
    g = ad.tanh(ad.narrow(pre, 1, (k + 2) * m, m))
    c_new = f * c + i * g
    tanh_c = ad.tanh(c_new)
    return ad.concat([c_new] + [o * tanh_c for o in outs], axis=1)


class PerGateCaptioner(BoundCaptioner):
    """The captioner step as separate per-gate and sentinel branches."""

    def __init__(self, tape, params):
        super().__init__(tape, params)
        self.gates = gate_weights(self.p, CAPTIONER_BLOCKS, params.config.hidden_dim)

    def project_feats(self, image_feats, batch=None):
        """One C x d image's crops, C x m, as one tape ``matmul``: the
        oracle takes the crop projection's gradient from that op's VJP."""
        feats = np.asarray(image_feats, dtype=np.float64).reshape(
            self.config.num_crops, self.config.feature_dim)
        return ad.matmul(self.tape.tensor(feats), self.p["attn_Wv"])

    def step(self, h, c, ctx, x_embed, feats_proj):
        """One image's step: 1 x m rows against the C x m crops of
        ``project_feats``."""
        p = self.p
        context_aware = self.config.attention == "context_aware"
        if not context_aware:
            ctx = self.tape.tensor(np.zeros_like(ctx.data))
        x = ad.concat([x_embed, ctx], axis=-1)  # 1 x 2m
        h_new, c_new = per_gate_lstm(self.gates, x, h, c)

        hidden_part = ad.matmul(h_new, p["attn_Wh"])
        act_img = ad.tanh(ad.add(ad.matmul(feats_proj, p["attn_Wa"]), hidden_part)
                          + p["attn_b"])
        e_img = ad.transpose(ad.matmul(act_img, p["attn_w"]))  # 1 x C
        n_crops = e_img.shape[-1]

        if context_aware:
            W_x, W_h, b = self.gates["sent"]
            sent_gate_vec = ad.sigmoid(ad.matmul(x, W_x) + ad.matmul(h, W_h) + b)
            sentinel = sent_gate_vec * ad.tanh(c_new)  # 1 x m
            act_s = ad.tanh(ad.matmul(sentinel, p["attn_Wa"]) + hidden_part + p["attn_b"])
            e_s = ad.matmul(act_s, p["attn_w"])  # 1 x 1
            attn = ad.softmax(ad.concat([e_img, e_s], axis=-1))  # 1 x (C+1)
            attn_img = ad.narrow(attn, -1, 0, n_crops)
            attn_sent = ad.narrow(attn, -1, n_crops, 1)
            ctx_new = ad.matmul(attn_img, feats_proj) + attn_sent * sentinel
        else:
            attn_img = ad.softmax(e_img)
            sentinel_slot = self.tape.tensor(np.zeros(e_img.shape[:-1] + (1,)))
            attn = ad.concat([attn_img, sentinel_slot], axis=-1)
            ctx_new = ad.matmul(attn_img, feats_proj)

        return h_new + ctx_new, h_new, c_new, ctx_new, attn

    def sequence_log_prob_and_logits(self, image_feats, batch):
        """``stepwise_log_prob`` through the per-gate steps."""
        return stepwise_log_prob(self, image_feats, batch)


def stepwise_log_prob(bound, image_feats, batch):
    """Per-token log-likelihood of a one-caption batch against 1 x C x d
    features, teacher-forced through ``bound.step`` (one tape node per step
    for ``BoundCaptioner``, per-gate tape ops for ``PerGateCaptioner``) with
    one output affine, softmax, pick and log per step: the step-by-step
    oracle for the one-node teacher-forced pass.  Returns the
    log-likelihood as one value and the per-step 1 x K logit tensors as a
    list."""
    (seq,) = batch.seqs
    batch.one_hot(bound.config.vocab_size)  # rejects an empty caption or a bad id
    feats_proj = bound.project_feats(np.asarray(image_feats)[0])
    h, c, ctx = bound.zero_state()
    prev = bound.config.bos_id
    total = bound.tape.tensor(0.0)
    step_logits = []
    for tok in seq.tokens:
        row, h, c, ctx, _ = bound.step(h, c, ctx, bound.embed_token(prev), feats_proj)
        logits = bound.logits(row)
        step_logits.append(logits)
        probs = bound.word_dist(logits)
        total = total + ad.log(ad.reshape(ad.narrow(probs, 1, tok, 1), ()))
        prev = tok
    return ad.reshape(total, (1,)), step_logits


def replay_steps(params, image_feats, prev_tokens, tape=None, bound_cls=BoundCaptioner):
    """Steps of one bound captioner from the zero state, step t fed
    ``prev_tokens[t]`` as its previous word (BOS first, to replay a
    decode): the step-by-step oracle for the decoders.  One bind on
    ``tape`` (a no-grad tape by default).

    Returns per step the arrays of ``step``'s (row, h, c, ctx, attn), each
    1 x ..., then the row's word scores, K values (the last attention slot
    is the sentinel gate).
    """
    bound = bound_cls(ad.Tape(grad=False) if tape is None else tape, params)
    feats_proj = bound.project_feats(image_feats)
    h, c, ctx = bound.zero_state()
    steps = []
    for tok in prev_tokens:
        row, h, c, ctx, attn = bound.step(h, c, ctx, bound.embed_token(tok), feats_proj)
        steps.append(tuple(t.data for t in (row, h, c, ctx, attn))
                     + (bound.logits(row).data.reshape(-1),))
    return steps


def bound_decode(params, image_feats, pick, bound_cls=BoundCaptioner, tape=None):
    """One image decoded step by step through a bound captioner (its
    ``step``, then ``logits`` and ``word_dist`` as tape ops), on ``tape`` (a
    grad tape by default): the oracle for the plain decode loop.  Stacked
    parameters (``stack_members``) have their word distributions averaged
    over the member axis.  ``pick(probs)`` gets a 1 x K distribution and
    returns the next word, as the decoders' ``pick`` does.

    Returns (the tokens, each step's 1 x K distribution).
    """
    config = params.config
    bound = bound_cls(ad.Tape() if tape is None else tape, params)
    feats_proj = bound.project_feats(image_feats)
    h, c, ctx = bound.zero_state()
    prev, tokens, dists = config.bos_id, [], []
    while len(tokens) < config.max_len:
        row, h, c, ctx, _ = bound.step(h, c, ctx, bound.embed_token(prev), feats_proj)
        probs = bound.word_dist(bound.logits(row)).data
        if probs.ndim == 3:  # stacked members
            probs = probs.mean(axis=0)
        dists.append(probs)
        prev = int(np.asarray(pick(probs)).reshape(-1)[0])
        tokens.append(prev)
        if prev == config.eos_id:
            break
    return tokens, dists


def multinomial_pick(rng):
    """``sample_sentence``'s draw as a ``pick`` for ``bound_decode``: the
    inverse-CDF word of one uniform per step.  Returns (pick, a one-element
    list holding the running log-probability)."""
    log_p = [0.0]

    def pick(probs):
        row = probs[0]
        tok = int(min(row.cumsum().searchsorted(rng.random(), side="right"), row.size - 1))
        log_p[0] += float(np.log(row[tok]))
        return tok

    return pick, log_p


def per_member_decode(params_list, image_feats):
    """Ensemble argmax decode with one bound model per member, stepped one
    after another, their word distributions averaged with ``np.mean``.

    Returns the token sequence and the averaged distribution of every step.
    """
    config = params_list[0].config
    bounds = [BoundCaptioner(ad.Tape(grad=False), p) for p in params_list]
    projs = [b.project_feats(image_feats) for b in bounds]
    states = [b.zero_state() for b in bounds]
    prev, tokens, steps = config.bos_id, [], []
    while len(tokens) < config.max_len:
        dists = []
        for k, b in enumerate(bounds):
            h, c, ctx = states[k]
            row, h, c, ctx, _ = b.step(h, c, ctx, b.embed_token(prev), projs[k])
            states[k] = (h, c, ctx)
            dists.append(b.word_dist(b.logits(row)).data.reshape(-1))
        steps.append(np.mean(dists, axis=0))
        prev = int(np.argmax(steps[-1]))
        tokens.append(prev)
        if prev == config.eos_id:
            break
    return TokenSequence(tokens, True), steps


def _counts(tokens, n):
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def _seq_tokens(seq):
    return tuple(seq.tokens if isinstance(seq, TokenSequence) else seq)


def _idf_weight(idf, gram):
    """One gram's idf weight from the scalar formula."""
    return float(np.log(idf.corpus_size / max(1, idf.doc_freq.get(gram, 0))))


def per_reference_cider_d(candidate, refs, idf):
    """CIDEr-D with the candidate's n-gram counts, idf weights and norm
    rebuilt for every reference and every n, and each weight taken from
    ``np.log`` at every lookup."""
    def weight(gram):
        return _idf_weight(idf, gram)

    cand = _seq_tokens(candidate)
    if not cand:
        return 0.0
    unique_refs = list(dict.fromkeys(_seq_tokens(r) for r in refs))
    per_n = np.zeros(4)
    for rtok in unique_refs:
        penalty = float(np.exp(-((len(cand) - len(rtok)) ** 2) / (2 * 6.0**2)))
        for n in range(1, 5):
            c_cnt, r_cnt = _counts(cand, n), _counts(rtok, n)
            norm_c = np.sqrt(sum((cnt * weight(g)) ** 2 for g, cnt in c_cnt.items()))
            norm_r = np.sqrt(sum((cnt * weight(g)) ** 2 for g, cnt in r_cnt.items()))
            num = sum(min(cnt, r_cnt.get(g, 0)) * weight(g) * r_cnt.get(g, 0) * weight(g)
                      for g, cnt in c_cnt.items())
            if norm_c > 0 and norm_r > 0:
                per_n[n - 1] += penalty * num / (norm_c * norm_r)
    return float(10.0 * per_n.mean() / len(unique_refs))


class PerGateDiscriminator(BoundDiscriminator):
    """The discriminator with its word LSTM as a tape loop of per-gate
    cells, and every token row embedded by ``ad.matmul``."""

    def __init__(self, tape, params):
        super().__init__(tape, params)
        self.gates = gate_weights(self.p, DISCRIMINATOR_BLOCKS, params.config.hidden_dim)

    def embed_rows(self, rows):
        """Hard rows too, which ``ad.matmul`` copies into a leaf."""
        return ad.matmul(rows, self.p["embed"])

    def hidden_states(self, word_vectors):
        """Per word, one ``narrow`` of the word vectors and one per-gate
        cell on the tape; the B x 1 x m states joined by one ``concat``."""
        B, T, m = word_vectors.shape
        h = c = self.tape.tensor(np.zeros((B, 1, m)))
        states = []
        for t in range(T):
            h, c = per_gate_lstm(self.gates, ad.narrow(word_vectors, 1, t, 1), h, c)
            states.append(h)
        return ad.concat(states, axis=1)


def score_one(params, feats, seq) -> float:
    """``discriminator.score`` of one caption against its one C x d image."""
    return disc.score(params, np.asarray(feats)[None], CaptionBatch([seq])).item()


def per_caption_objective(bound, image_feats, real, fake, mismatched):
    """The single-image discriminator objective with each caption scored by
    its own forward pass (B = 1, no padding), summed term by term."""
    def clamped(seq):
        return tr._clamp_score(bound.score_sequence(image_feats[None],
                                                    CaptionBatch([seq]))["score"])

    def one_minus(t):
        return ad.sub(t.tape.tensor(1.0), t)

    return ad.log(clamped(real)) \
        + ad.scale(ad.log(one_minus(clamped(fake))), 0.5) \
        + ad.scale(ad.log(one_minus(clamped(mismatched))), 0.5)


def loop_d_batch_step(g_params, d_params, d_opt, dataset, batch, rng, cfg):
    """The discriminator step as a per-image loop, drawing from ``rng`` in
    the same order as ``training._d_batch_step``: one tape and one bind per
    image, gradients averaged over the batch, then the Adam ascent step.

    Returns (mean objective, averaged gradients of the objective).
    """
    grads = {k: np.zeros_like(a) for k, a in d_params.arrays.items()}
    total = 0.0
    for i in batch:
        feats = tr._example_feats(dataset[i])
        refs = dataset[i][1]
        real = refs[int(rng.integers(len(refs)))]
        fake, _ = sample_sentence(g_params, feats, rng)
        mismatched = tr._pick_other_ref(dataset, i, rng)
        tape = ad.Tape()
        bound = BoundDiscriminator(tape, d_params)
        objective = per_caption_objective(bound, feats, real, fake, mismatched)
        ad.backward(tape, objective)
        for name in grads:
            grads[name] += bound.p[name].grad / len(batch)
        total += objective.item() / len(batch)
    tr.adam_step(d_params.arrays, {n: -g for n, g in grads.items()}, d_opt, cfg.d_lr)
    return total, grads


def per_caption_ce_grads(g_params, examples, bound_cls=BoundCaptioner):
    """Gradient of the minibatch's CE loss, the mean over its captions of
    each caption's nats per token, summed caption by caption: one tape, one
    bind and one teacher-forced pass each.  ``examples`` holds (C x d
    features, caption) pairs.

    Returns (gradients, the minibatch's total nats).
    """
    grads = {k: np.zeros_like(a) for k, a in g_params.arrays.items()}
    nats = 0.0
    for feats, ref in examples:
        tape = ad.Tape()
        bound = bound_cls(tape, g_params)
        loss = ad.scale(bound.sequence_log_prob(feats[None], CaptionBatch([ref])),
                        -1.0 / len(ref.tokens))
        ad.backward(tape, loss)
        for name in grads:
            grads[name] += 1.0 / len(examples) * bound.p[name].grad
        nats += loss.item() * len(ref.tokens)
    return grads, nats


def loop_ce_pretrain(g_params, dataset, epochs, rng, lr=1e-3, batch_size=8,
                     bound_cls=BoundCaptioner):
    """``training.ce_pretrain`` as a per-caption loop (``per_caption_ce_grads``
    per minibatch), drawing the same epoch permutations from ``rng``."""
    pairs = [(idx, r) for idx, (_, refs) in enumerate(dataset) for r in range(len(refs))]
    opt = tr.init_adam(g_params.arrays)
    curve = []
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        epoch_loss, epoch_tokens = 0.0, 0
        for start in range(0, len(order), batch_size):
            examples = [(tr._example_feats(dataset[idx]), dataset[idx][1][r])
                        for idx, r in (pairs[j] for j in order[start : start + batch_size])]
            grads, nats = per_caption_ce_grads(g_params, examples, bound_cls)
            tr.adam_step(g_params.arrays, grads, opt, lr)
            epoch_loss += nats
            epoch_tokens += sum(len(ref.tokens) for _, ref in examples)
        curve.append(epoch_loss / max(epoch_tokens, 1))
    return g_params, curve


def per_caption_cider_d(candidate, refs, idf):
    """CIDEr-D of one caption as a pure-Python loop over ``Counter`` sides:
    the candidate's counts, weights and norm built once per n, each
    distinct reference's counts and norm once, every weight from the scalar
    formula."""
    if not refs:
        raise InputError("reference set is empty")
    cand = _seq_tokens(candidate)
    if not cand:
        return 0.0
    unique_refs = list(dict.fromkeys(_seq_tokens(r) for r in refs))
    penalties = [float(np.exp(-((len(cand) - len(rtok)) ** 2) / (2 * met.CIDER_SIGMA**2)))
                 for rtok in unique_refs]
    ref_sides = [[(counts, np.sqrt(sum((cnt * _idf_weight(idf, g)) ** 2
                                       for g, cnt in counts.items())))
                  for counts in (_counts(rtok, n) for n in range(1, met.CIDER_N + 1))]
                 for rtok in unique_refs]

    per_n = np.zeros(met.CIDER_N)
    for n in range(1, met.CIDER_N + 1):
        c_grams = [(g, cnt, _idf_weight(idf, g)) for g, cnt in _counts(cand, n).items()]
        norm_c = np.sqrt(sum((cnt * w) ** 2 for _, cnt, w in c_grams))
        for side, penalty in zip(ref_sides, penalties):
            r_cnt, norm_r = side[n - 1]
            num = sum(min(cnt, r_cnt.get(g, 0)) * w * r_cnt.get(g, 0) * w
                      for g, cnt, w in c_grams)
            if norm_c > 0 and norm_r > 0:
                per_n[n - 1] += penalty * num / (norm_c * norm_r)
    return float(10.0 * per_n.mean() / len(unique_refs))


def per_caption_bleu4(candidate, refs):
    """BLEU4 of one caption as a pure-Python loop, each reference's
    ``Counter`` rebuilt per order."""
    if not refs:
        raise InputError("reference set is empty")
    cand = _seq_tokens(candidate)
    if not cand:
        return 0.0
    ref_toks = [_seq_tokens(r) for r in refs]

    log_precisions = []
    for n in range(1, 5):
        c_cnt = _counts(cand, n)
        total = sum(c_cnt.values())
        if total == 0:
            return 0.0
        max_ref = Counter()
        for rtok in ref_toks:
            for g, cnt in _counts(rtok, n).items():
                max_ref[g] = max(max_ref[g], cnt)
        clipped = sum(min(cnt, max_ref.get(g, 0)) for g, cnt in c_cnt.items())
        if clipped == 0:
            return 0.0
        log_precisions.append(np.log(clipped / total))

    c = len(cand)
    r = min((abs(len(rt) - c), len(rt)) for rt in ref_toks)[1]
    bp = 1.0 if c > r else float(np.exp(1.0 - r / c))
    return float(bp * np.exp(np.mean(log_precisions)))


def lcs_len(a, b):
    """Longest common subsequence length by the textbook dynamic program."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def per_caption_rouge_l(candidate, refs):
    """ROUGE-L of one caption as a pure-Python loop over its references."""
    if not refs:
        raise InputError("reference set is empty")
    cand = _seq_tokens(candidate)
    if not cand:
        return 0.0
    best = 0.0
    b2 = met.ROUGE_BETA**2
    for ref in refs:
        rtok = _seq_tokens(ref)
        lcs = lcs_len(cand, rtok)
        if lcs == 0:
            continue
        prec, rec = lcs / len(cand), lcs / len(rtok)
        best = max(best, (1 + b2) * prec * rec / (rec + b2 * prec))
    return float(best)


def per_pair_semantic_score(model, x, y) -> float:
    """Correlation-weighted cosine of one projected caption vector ``x`` and
    one image vector ``y``; 0.0 when either projection has zero norm."""
    a = model.sigma * (model.U.T @ (np.asarray(x) - model.mean_x))
    b = model.V.T @ (np.asarray(y) - model.mean_y)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def caption_vec(embed, seq) -> np.ndarray:
    """Mean token embedding of one caption, zeros for an empty one."""
    toks = list(_seq_tokens(seq))
    return embed[toks].mean(axis=0) if toks else np.zeros(embed.shape[1])


def loop_semantic_fit(embed, examples, rank):
    """The semantic scorer's fit as a loop over ``(scene, refs)`` examples:
    one caption vector per reference, paired with its image's mean crop
    feature, then one ``fit_cca`` at the rank clamped to the narrower view.
    Returns (X, Y, model)."""
    X, Y = [], []
    for scene, refs in examples:
        for ref in refs:
            X.append(caption_vec(embed, ref))
            Y.append(np.asarray(scene.features).mean(axis=0))
    rank = min(rank, embed.shape[1], np.asarray(examples[0][0].features).shape[1])
    return np.array(X), np.array(Y), met.fit_cca(np.array(X), np.array(Y), rank)


def per_image_rewards(cfg, d_params, image_feats, seqs, refs=None, idf=None):
    """Rewards of finished captions of one image (C x d features, that
    image's references), their D scores taken in one pass."""
    if cfg.reward in ("logD_plus_cider", "cider") and (refs is None or idf is None):
        raise InputError(f"reward {cfg.reward!r} needs reference captions and idf")
    if cfg.reward == "cider":
        return [per_caption_cider_d(seq, refs, idf) for seq in seqs]
    feats = np.repeat(np.asarray(image_feats)[None], len(seqs), axis=0)
    rewards = [float(np.log(v)) for v in tr._clamped_scores(d_params, feats, seqs)]
    if cfg.reward == "logD_plus_cider":
        rewards = [r + cfg.cider_weight * per_caption_cider_d(seq, refs, idf)
                   for r, seq in zip(rewards, seqs)]
    return rewards


def scst_grad(g_params, d_params, image_feats, rng, cfg, refs=None, idf=None,
              want_logit_grads=False):
    """Single-sample SCST gradient of one image's generator objective (to
    ascend): one sample, the greedy decode's reward as baseline, and the
    sample's log-probability gradient from its own replay tape, scaled by
    the advantage.  Returns (gradients, the rewards of the sample and of
    the baseline as one array of 2) and, with ``want_logit_grads``, the
    len(sample) x K scaled gradient of the step logits."""
    sample, _ = sample_sentence(g_params, image_feats, rng)
    baseline = greedy_decode(g_params, image_feats)
    rewards = np.array(per_image_rewards(cfg, d_params, image_feats, [sample, baseline],
                                         refs, idf))
    adv = rewards[0] - rewards[1]

    if adv == 0.0:
        grads = {k: np.zeros_like(a) for k, a in g_params.arrays.items()}
        logit_grads = np.zeros((len(sample.tokens), g_params.config.vocab_size))
        return (grads, rewards, logit_grads) if want_logit_grads else (grads, rewards)

    tape = ad.Tape()
    bound = BoundCaptioner(tape, g_params)
    logp, step_grads = bound.sequence_log_prob_and_logits(image_feats[None],
                                                          CaptionBatch([sample]))
    ad.backward(tape, logp)
    grads = {name: adv * bound.p[name].grad for name in g_params.arrays}
    if not want_logit_grads:
        return grads, rewards
    return grads, rewards, adv * step_grads[0]


def loop_g_batch_step(g_params, d_params, g_opt, dataset, batch, rng, cfg, idf=None):
    """The SCST generator step as a per-image loop, drawing from ``rng`` in
    the same order as ``training._g_batch_step``: per image the
    ground-truth pick, then ``scst_grad``; gradients averaged over the
    batch, then the Adam ascent step.

    Returns (averaged gradients, the B x 2 rewards of each image's sample
    and baseline, the B x T x K logit gradients of the averaged objective,
    T the longest sample, each row zero past its sample).
    """
    grads = {k: np.zeros_like(a) for k, a in g_params.arrays.items()}
    rewards, rows = [], []
    for i in batch:
        feats = tr._example_feats(dataset[i])
        refs = dataset[i][1]
        refs[int(rng.integers(len(refs)))]  # the ground-truth pick, unused by SCST
        part, pair, row = scst_grad(g_params, d_params, feats, rng, cfg, refs, idf,
                                    want_logit_grads=True)
        for name in grads:
            grads[name] += 1.0 / len(batch) * part[name]
        rewards.append(pair)
        rows.append(row / len(batch))
    logit_grads = np.zeros((len(batch), max(map(len, rows)), g_params.config.vocab_size))
    for b, row in enumerate(rows):
        logit_grads[b, : len(row)] = row
    tr.adam_step(g_params.arrays, {n: -g for n, g in grads.items()}, g_opt, cfg.g_lr)
    return grads, np.array(rewards), logit_grads


def loop_adam_step(arrays, grads, state, lr):
    """Adam as a per-parameter loop over separate moment arrays
    (``state.m``, ``state.v``), each updated and applied in turn."""
    state.step += 1
    b1t, b2t = 1.0 - tr.ADAM_BETA1**state.step, 1.0 - tr.ADAM_BETA2**state.step
    for name, g in grads.items():
        m, v = state.m[name], state.v[name]
        m *= tr.ADAM_BETA1
        m += (1.0 - tr.ADAM_BETA1) * g
        v *= tr.ADAM_BETA2
        v += (1.0 - tr.ADAM_BETA2) * g * g
        arrays[name] -= lr * (m / b1t) / (np.sqrt(v / b2t) + tr.ADAM_EPS)


def st_onehot(x):
    """One-hot of argmax over the last axis as a tape op; backward is the
    identity (straight-through), ties broken toward the lowest index."""
    v = x.data
    out = np.zeros_like(v)
    np.put_along_axis(out, np.expand_dims(np.argmax(v, axis=-1), -1), 1.0, axis=-1)

    def vjp(g):
        return (g.copy(),)

    return x.tape._output(out, (x.index,), vjp)


class RecordingRng:
    """A seeded generator that keeps every uniform block it hands out."""

    def __init__(self, seed):
        self.rng, self.blocks = np.random.default_rng(seed), []

    def random(self, size):
        self.blocks.append(self.rng.random(size))
        return self.blocks[-1]


class ReplayRng:
    """Hands out the given uniform rows in turn, one per ``random`` call."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def random(self, size):
        row = next(self.rows)
        assert row.shape == tuple(size)
        return row


def gumbel_unroll(tape, bound_g, image_feats, rng, cfg):
    """Decode with relaxed samples fed back as inputs, one ``step`` and
    one 1 x K noise draw per decoder step, each relaxed row embedded by
    ``ad.matmul``.

    Returns (soft rows on the tape, per-step logits tensors, hard token ids).
    Unrolling stops when the hard argmax is EOS or max_len is reached.
    """
    mode = "soft" if cfg.estimator == "gumbel_soft" else "st"
    config = bound_g.config
    feats_proj = bound_g.project_feats(image_feats)
    h, c, ctx = bound_g.zero_state()
    x = bound_g.embed_token(config.bos_id)
    rows, step_logits, tokens = [], [], []
    for _ in range(config.max_len):
        row, h, c, ctx, _ = bound_g.step(h, c, ctx, x, feats_proj)
        logits = bound_g.logits(row)
        step_logits.append(logits)
        noise = tape.tensor(tr.gumbel_noise(rng, (1, config.vocab_size)))
        y = ad.softmax(ad.scale(ad.add(bound_g.masked_logits(logits), noise),
                                1 / cfg.temperature))
        row = st_onehot(y) if mode == "st" else y
        hard = int(np.argmax(row.data))
        rows.append(row)
        tokens.append(hard)
        x = ad.matmul(row, bound_g.p["embed"])
        if hard == config.eos_id:
            break
    return rows, step_logits, tokens


def gumbel_grad(g_params, d_params, image_feats, rng, cfg, gt_seq=None,
                want_logit_grads=False, bound_cls=BoundCaptioner,
                disc_cls=BoundDiscriminator):
    """Gradient of log D on a relaxed sample of one C x d image,
    backpropagated into the captioner, with the models bound as
    ``bound_cls`` and ``disc_cls``.

    With feature matching enabled the loss subtracts the squared distances
    between the discriminator embeddings of the ground-truth caption and of
    the relaxed sample; ``gt_seq`` is then required.  With
    ``want_logit_grads`` the result also holds "logit_grads", the
    len(tokens) x K gradient of the step logits.
    """
    if cfg.estimator not in ("gumbel_soft", "gumbel_st"):
        raise InputError("gumbel_grad needs a gumbel estimator config")
    fm_on = cfg.fm_image_weight > 0 or cfg.fm_caption_weight > 0
    if fm_on and gt_seq is None:
        raise InputError("feature matching requires the ground-truth caption")

    tape = ad.Tape()
    bound_g = bound_cls(tape, g_params)
    bound_d = disc_cls(tape, d_params)
    rows, step_logits, tokens = gumbel_unroll(tape, bound_g, image_feats, rng, cfg)

    out = bound_d.score_soft_rows(image_feats, rows)
    loss = ad.log(tr._clamp_score(out["score"]))
    if fm_on:
        ref = bound_d.score_sequence(image_feats[None], CaptionBatch([gt_seq]))
        loss = loss - ad.scale(tr._sum_sq(ref["e_img"] - out["e_img"]), cfg.fm_image_weight)
        loss = loss - ad.scale(tr._sum_sq(ref["e_cap"] - out["e_cap"]),
                               cfg.fm_caption_weight)

    ad.backward(tape, loss)
    grads = {name: bound_g.p[name].grad.copy() for name in g_params.arrays}
    result = {
        "grads": grads,
        "loss": loss.item(),
        "tokens": tokens,
        "score": out["score"].item(),
    }
    if want_logit_grads:
        result["logit_grads"] = np.vstack([t.grad for t in step_logits])
    return result


def gumbel_sample(logits, temperature: float, rng: np.random.Generator, mode: str):
    """Relaxed categorical sample from a logit row.

    Returns (row, argmax index): the row is on the simplex for ``soft`` and
    an exact one-hot for ``st``.
    """
    if mode not in ("soft", "st"):
        raise InputError(f"mode must be 'soft' or 'st', got {mode!r}")
    if temperature <= 0:
        raise InputError("temperature must be positive")
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    z = (logits + tr.gumbel_noise(rng, logits.size)) / temperature
    z = z - z.max()
    e = np.exp(z)
    y = e / e.sum()
    hard = int(np.argmax(y))
    if mode == "soft":
        return y, hard
    onehot = np.zeros_like(y)
    onehot[hard] = 1.0
    return onehot, hard


def enumerate_sequences(config):
    """Every sampling outcome: sequences ending at EOS or at max_len."""
    seqs = []

    def rec(prefix):
        for tok in range(config.vocab_size):
            if tok == config.bos_id:
                continue
            cur = prefix + [tok]
            if tok == config.eos_id or len(cur) == config.max_len:
                seqs.append(TokenSequence(cur, True))
            else:
                rec(cur)

    rec([])
    return seqs


def sequence_probabilities(g_params, feats, seqs):
    bound = BoundCaptioner(ad.Tape(grad=False), g_params)
    return np.array([np.exp(bound.sequence_log_prob(feats[None], CaptionBatch([s])).item())
                     for s in seqs])


def flat_grads(grads: dict) -> np.ndarray:
    return np.concatenate([grads[k].reshape(-1) for k in sorted(grads)])


def autodiff_expected_reward_grad(g_params, feats, seqs, rewards, baseline):
    """Gradient of sum_s p(s) * (r_s - b), differentiated through p on one tape."""
    tape = ad.Tape()
    bound = BoundCaptioner(tape, g_params)
    acc = tape.tensor(0.0)
    for seq, r in zip(seqs, rewards):
        p = ad.exp(bound.sequence_log_prob(feats[None], CaptionBatch([seq])))
        acc = acc + ad.scale(p, r - baseline)
    ad.backward(tape, acc)
    return {name: bound.p[name].grad.copy() for name in g_params.arrays}


def per_sequence_score_grads(g_params, feats, seqs):
    """(probabilities, flat grad of log p per sequence)."""
    probs, grads = [], []
    for seq in seqs:
        tape = ad.Tape()
        bound = BoundCaptioner(tape, g_params)
        lp = bound.sequence_log_prob(feats[None], CaptionBatch([seq]))
        ad.backward(tape, lp)
        probs.append(float(np.exp(lp.item())))
        grads.append(flat_grads({n: bound.p[n].grad for n in g_params.arrays}))
    return np.array(probs), np.vstack(grads)


def expected_policy_gradient(probs, score_grads, rewards, baseline):
    """Exact expectation of (r - b) * grad log p over the sequence law."""
    w = probs * (np.asarray(rewards) - baseline)
    return w @ score_grads


def policy_gradient_variance(probs, score_grads, rewards, baseline):
    """Exact per-component variance of the (r - b)-weighted score estimator."""
    g = (np.asarray(rewards) - baseline)[:, None] * score_grads
    mean = probs @ g
    second = probs @ (g * g)
    return second - mean**2
