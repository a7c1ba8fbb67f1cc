"""Oracles for the captioner and its estimator tests.

The enumeration helpers walk the complete sampling tree of a tiny
captioner, so expectations and variances over the sequence distribution are
exact.  ``PerGateCaptioner`` and ``PerGateDiscriminator`` keep the per-gate
LSTM cells, the separate sentinel branch and the per-token log-likelihood
that the fused models replaced, as the oracle for the fused path;
``composed_lstm_cell`` is the oracle for ``ad.lstm_cell``, and
``per_member_decode`` keeps the per-member ensemble loop as the oracle for
the stacked ensemble bind, and ``per_reference_cider_d`` the CIDEr-D loop
that rebuilt the candidate side for every reference.
"""

from collections import Counter

import numpy as np

from seqgan import autodiff as ad
from seqgan.captioner import BoundCaptioner, TokenSequence, _check_seq, log_prob
from seqgan.discriminator import BoundDiscriminator

GATES = ("i", "f", "o", "g")


def per_gate_lstm(p, inputs, h, c):
    """LSTM cell with one matmul pair and one bias add per gate."""
    gates = {}
    for gate in GATES:
        pre = ad.matmul(inputs, p[f"lstm_Wx_{gate}"]) + ad.matmul(h, p[f"lstm_Wh_{gate}"]) \
            + p[f"lstm_b_{gate}"]
        gates[gate] = ad.tanh(pre) if gate == "g" else ad.sigmoid(pre)
    c_new = gates["f"] * c + gates["i"] * gates["g"]
    return gates["o"] * ad.tanh(c_new), c_new


def composed_lstm_cell(pre, c, k):
    """``ad.lstm_cell`` from separate sigmoid/tanh/mul/add nodes: the fused
    cell as the models composed it before the op existed."""
    m = c.shape[1]
    sig = ad.sigmoid(ad.narrow(pre, 1, 0, (k + 2) * m))
    i, f, *outs = [ad.narrow(sig, 1, j * m, m) for j in range(k + 2)]
    g = ad.tanh(ad.narrow(pre, 1, (k + 2) * m, m))
    c_new = f * c + i * g
    tanh_c = ad.tanh(c_new)
    return ad.concat([c_new] + [o * tanh_c for o in outs], axis=1)


class PerGateCaptioner(BoundCaptioner):
    """The captioner step as separate per-gate and sentinel branches."""

    def step(self, h, c, ctx, x_embed, feats_proj):
        p = self.p
        context_aware = self.config.attention == "context_aware"
        if not context_aware:
            ctx = self.tape.tensor(np.zeros_like(ctx.data))
        x = ad.concat([x_embed, ctx], axis=1)  # 1 x 2m
        h_new, c_new = per_gate_lstm(p, x, h, c)

        hidden_part = ad.matmul(h_new, p["attn_Wh"])
        act_img = ad.tanh(ad.add(ad.matmul(feats_proj, p["attn_Wa"]), hidden_part)
                          + p["attn_b"])
        e_img = ad.transpose(ad.matmul(act_img, p["attn_w"]))  # 1 x C

        if context_aware:
            sent_gate_vec = ad.sigmoid(ad.matmul(x, p["sent_Wx"]) + ad.matmul(h, p["sent_Wh"])
                                       + p["sent_b"])
            sentinel = sent_gate_vec * ad.tanh(c_new)  # 1 x m
            act_s = ad.tanh(ad.matmul(sentinel, p["attn_Wa"]) + hidden_part + p["attn_b"])
            e_s = ad.matmul(act_s, p["attn_w"])  # 1 x 1
            attn = ad.softmax(ad.concat([e_img, e_s], axis=1))  # 1 x (C+1)
            attn_img = ad.narrow(attn, 1, 0, e_img.shape[1])
            attn_sent = ad.narrow(attn, 1, e_img.shape[1], 1)
            ctx_new = ad.matmul(attn_img, feats_proj) + attn_sent * sentinel
        else:
            attn_img = ad.softmax(e_img)
            attn = ad.concat([attn_img, self.tape.tensor(np.zeros((1, 1)))], axis=1)
            ctx_new = ad.matmul(attn_img, feats_proj)

        return h_new + ctx_new, h_new, c_new, ctx_new, attn

    def sequence_log_prob_and_logits(self, image_feats, seq):
        """Per-token log-likelihood: one output affine, softmax, pick and log
        per step.  Returns the per-step 1 x K logit tensors as a list."""
        _check_seq(seq, self.config)
        feats_proj = self.project_feats(image_feats)
        m = self.config.hidden_dim
        h, c, ctx = (self.tape.tensor(np.zeros((1, m))) for _ in range(3))
        prev = self.config.bos_id
        total = self.tape.tensor(0.0)
        step_logits = []
        for tok in seq.tokens:
            row, h, c, ctx, _ = self.step(h, c, ctx, self.embed_token(prev), feats_proj)
            logits = self.logits(row)
            step_logits.append(logits)
            probs = self.word_dist(logits)
            total = total + ad.log(ad.reshape(ad.narrow(probs, 1, tok, 1), ()))
            prev = tok
        return total, step_logits


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


def per_reference_cider_d(candidate, refs, idf):
    """CIDEr-D with the candidate's n-gram counts, idf weights and norm
    rebuilt for every reference and every n, and each weight taken from
    ``np.log`` at every lookup."""
    def counts(tokens, n):
        return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))

    def weight(gram):
        return float(np.log(idf.corpus_size / max(1, idf.doc_freq.get(gram, 0))))

    def tokens(seq):
        return tuple(seq.tokens if isinstance(seq, TokenSequence) else seq)

    cand = tokens(candidate)
    if not cand:
        return 0.0
    unique_refs = list(dict.fromkeys(tokens(r) for r in refs))
    per_n = np.zeros(4)
    for rtok in unique_refs:
        penalty = float(np.exp(-((len(cand) - len(rtok)) ** 2) / (2 * 6.0**2)))
        for n in range(1, 5):
            c_cnt, r_cnt = counts(cand, n), counts(rtok, n)
            norm_c = np.sqrt(sum((cnt * weight(g)) ** 2 for g, cnt in c_cnt.items()))
            norm_r = np.sqrt(sum((cnt * weight(g)) ** 2 for g, cnt in r_cnt.items()))
            num = sum(min(cnt, r_cnt.get(g, 0)) * weight(g) * r_cnt.get(g, 0) * weight(g)
                      for g, cnt in c_cnt.items())
            if norm_c > 0 and norm_r > 0:
                per_n[n - 1] += penalty * num / (norm_c * norm_r)
    return float(10.0 * per_n.mean() / len(unique_refs))


class PerGateDiscriminator(BoundDiscriminator):
    """The discriminator with its word LSTM as per-gate branches."""

    def _lstm_step(self, h, c, x):
        return per_gate_lstm(self.p, x, h, c)


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
    return np.array([np.exp(log_prob(g_params, feats, s)) for s in seqs])


def flat_grads(grads: dict) -> np.ndarray:
    return np.concatenate([grads[k].reshape(-1) for k in sorted(grads)])


def autodiff_expected_reward_grad(g_params, feats, seqs, rewards, baseline):
    """Gradient of sum_s p(s) * (r_s - b), differentiated through p on one tape."""
    tape = ad.Tape()
    bound = BoundCaptioner(tape, g_params)
    acc = tape.tensor(0.0)
    for seq, r in zip(seqs, rewards):
        p = ad.exp(bound.sequence_log_prob(feats, seq))
        acc = acc + ad.scale(p, r - baseline)
    ad.backward(tape, acc)
    return {name: bound.p[name].grad.copy() for name in g_params.arrays}


def per_sequence_score_grads(g_params, feats, seqs):
    """(probabilities, flat grad of log p per sequence)."""
    probs, grads = [], []
    for seq in seqs:
        tape = ad.Tape()
        bound = BoundCaptioner(tape, g_params)
        lp = bound.sequence_log_prob(feats, seq)
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
