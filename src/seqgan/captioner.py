"""Attention LSTM caption generator.

The decoder feeds two things into the LSTM at every step: the embedding of
the previous word and the previous step's attention mixture (image crops plus
a visual sentinel), so the network is aware of the attentional context it
used last.  The sentinel competes with the image crops inside one
(C+1)-way softmax; its weight is exposed as the sentinel gate.

A plain attention path without the sentinel and without context feedback is
available via ``CaptionerConfig.attention = "att2all"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad


class InputError(ValueError):
    """Invalid caller-supplied value (token id, sequence, config mix)."""


ATTENTION_MODES = ("context_aware", "att2all")

# finite stand-in for -inf so softmax max-subtraction stays NaN-free
_MASK = -1e30


@dataclass(frozen=True)
class CaptionerConfig:
    vocab_size: int
    hidden_dim: int = 512
    num_crops: int = 196
    feature_dim: int = 2048
    max_len: int = 16
    bos_id: int = 0
    eos_id: int = 1
    attention: str = "context_aware"

    def __post_init__(self):
        for name in ("vocab_size", "hidden_dim", "num_crops", "feature_dim", "max_len"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
        if self.bos_id == self.eos_id:
            raise InputError("bos_id and eos_id must differ")
        if not (0 <= self.bos_id < self.vocab_size and 0 <= self.eos_id < self.vocab_size):
            raise InputError("bos_id/eos_id must be valid token ids")
        if self.attention not in ATTENTION_MODES:
            raise InputError(f"attention must be one of {ATTENTION_MODES}")


@dataclass
class TokenSequence:
    """Sentence as a token-id list; BOS is implicit at position 0 and never
    stored, EOS is stored when the sequence terminated on it."""

    tokens: list[int] = field(default_factory=list)
    terminated: bool = False

    def __len__(self):
        return len(self.tokens)


@dataclass
class DecoderState:
    h: np.ndarray        # 1 x m hidden
    c: np.ndarray        # 1 x m cell
    context: np.ndarray  # 1 x m attention mixture from the previous step


def initial_state(config: CaptionerConfig) -> DecoderState:
    """Zero state; the first-step context is defined as the zero vector."""
    m = config.hidden_dim
    return DecoderState(np.zeros((1, m)), np.zeros((1, m)), np.zeros((1, m)))


_GATES = ("i", "f", "o", "g")


def _param_shapes(config: CaptionerConfig) -> dict[str, tuple[int, int]]:
    K, m, d = config.vocab_size, config.hidden_dim, config.feature_dim
    shapes: dict[str, tuple[int, int]] = {"embed": (K, m)}
    for gate in _GATES:
        shapes[f"lstm_Wx_{gate}"] = (2 * m, m)
        shapes[f"lstm_Wh_{gate}"] = (m, m)
        shapes[f"lstm_b_{gate}"] = (1, m)
    shapes["sent_Wx"] = (2 * m, m)
    shapes["sent_Wh"] = (m, m)
    shapes["sent_b"] = (1, m)
    shapes["attn_Wv"] = (d, m)
    shapes["attn_Wa"] = (m, m)
    shapes["attn_Wh"] = (m, m)
    shapes["attn_w"] = (m, 1)
    shapes["attn_b"] = (1, m)
    shapes["out_W"] = (m, K)
    shapes["out_b"] = (1, K)
    return shapes


@dataclass
class CaptionerParams:
    config: CaptionerConfig
    arrays: dict[str, np.ndarray]

    def copy(self) -> "CaptionerParams":
        return CaptionerParams(self.config, {k: v.copy() for k, v in self.arrays.items()})


def init_params(config: CaptionerConfig, seed: int) -> CaptionerParams:
    """Uniform init in [-a, a] with a = 1/sqrt(hidden_dim); seed-deterministic."""
    rng = np.random.default_rng(seed)
    a = 1.0 / np.sqrt(config.hidden_dim)
    arrays = {name: rng.uniform(-a, a, shape)
              for name, shape in _param_shapes(config).items()}
    return CaptionerParams(config, arrays)


def _lstm_cell(inputs, c, W, b):
    """One fused LSTM cell step, shared by the captioner and the discriminator.

    ``W`` maps the concatenated ``inputs`` to column blocks ``i, f, o_1..o_k,
    g`` of width m each (m = width of ``c``): one affine node, then one
    ``ad.lstm_cell`` node for all the element-wise work.

    Returns [c', o_1*tanh(c'), ..., o_k*tanh(c')]; the first output gate
    gives h'.  Blocks are joined and split on the last axis, so stacked
    members (a leading axis on every operand) run through the same nodes.
    """
    m = c.shape[-1]
    out = ad.lstm_cell(ad.affine(ad.concat(inputs, axis=-1), W, b), c)
    return [ad.narrow(out, -1, j, m) for j in range(0, out.shape[-1], m)]


def _fuse_gates(p, blocks):
    """Fused weight and bias of an LSTM cell from per-gate tensors.

    ``blocks`` lists (input weight, hidden weight, bias) names in column
    order; the weight stacks the input rows over the hidden rows.  Gradients
    reach the per-gate tensors through the concat VJP.
    """
    W = ad.concat([ad.concat([p[wx] for wx, _, _ in blocks], axis=-1),
                   ad.concat([p[wh] for _, wh, _ in blocks], axis=-1)], axis=-2)
    return W, ad.concat([p[bias] for _, _, bias in blocks], axis=-1)


def _gate_names(gate):
    return f"lstm_Wx_{gate}", f"lstm_Wh_{gate}", f"lstm_b_{gate}"


# column blocks of the fused captioner cell: i, f, o, sentinel gate, g
_CAPTIONER_BLOCKS = (_gate_names("i"), _gate_names("f"), _gate_names("o"),
                     ("sent_Wx", "sent_Wh", "sent_b"), _gate_names("g"))


class BoundCaptioner:
    """Captioner parameters bound to a tape, exposing differentiable steps.

    Used directly by the training losses; the module-level functions below
    wrap it for plain (non-gradient) decoding.  Binding also builds the
    fused LSTM weight (3m x 5m) and bias (1 x 5m) from the stored per-gate
    arrays.

    ``step`` returns the output row ``h' + ctx'``; ``logits`` projects one
    or several stacked output rows to word scores in one affine node.

    The arrays of ``params`` may carry a leading member axis (M x ...,
    built by ``stack_members``): the bound model then runs M same-config
    models as one, every tensor of a step carries the member axis (the zero
    state is M x 1 x m), and each step is one set of nodes for all members.
    """

    def __init__(self, tape: ad.Tape, params: CaptionerParams):
        self.tape = tape
        self.config = params.config
        self.p = {name: tape.tensor(arr) for name, arr in params.arrays.items()}
        self._W, self._b = _fuse_gates(self.p, _CAPTIONER_BLOCKS)
        mask = np.zeros(params.config.vocab_size)
        mask[params.config.bos_id] = _MASK
        self._bos_mask = tape.tensor(mask.reshape(1, -1))
        members = params.arrays["embed"].shape[:-2]  # (M,) when stacked, else ()
        self._zero = tape.tensor(np.zeros(members + (1, params.config.hidden_dim)))
        self._context_aware = params.config.attention == "context_aware"
        if not self._context_aware:  # the sentinel slot gets exactly zero attention
            scores = np.zeros((1, params.config.num_crops + 1))
            scores[0, -1] = _MASK
            self._sentinel_mask = tape.tensor(scores)

    def project_feats(self, image_feats) -> ad.Tensor:
        feats = _check_feats(image_feats, self.config)
        return ad.matmul(self.tape.tensor(feats), self.p["attn_Wv"])

    def zero_state(self):
        return self._zero, self._zero, self._zero

    def embed_token(self, token: int) -> ad.Tensor:
        if not (0 <= token < self.config.vocab_size):
            raise InputError(f"token id {token} out of range")
        return ad.get_row(self.p["embed"], token)

    def embed_soft(self, soft_row: ad.Tensor) -> ad.Tensor:
        """Embedding of a relaxed token: simplex row times the embedding table."""
        return ad.matmul(soft_row, self.p["embed"])

    def step(self, h, c, ctx, x_embed, feats_proj):
        """One decoder step.

        Returns (output row h' + ctx' 1xm, h', c', ctx', attn 1x(C+1)); pass
        the output row to ``logits`` for word scores.  The last slot of
        ``attn`` is the sentinel gate.  The sentinel is the cell's second
        output gate applied to tanh(c'), stacked as one more attendable row
        under the projected crops, so the crop and sentinel scores come from
        one (C+1)-way score pass.  In att2all mode the context feedback is
        zeroed and the sentinel slot of the attention vector is exactly zero.
        """
        p = self.p
        if not self._context_aware:
            ctx = self._zero
        c_new, h_new, sentinel = _lstm_cell([x_embed, ctx, h], c, self._W, self._b)
        values = ad.concat([feats_proj, sentinel], axis=-2)  # (C+1) x m
        act = ad.tanh(ad.matmul(values, p["attn_Wa"])
                      + ad.affine(h_new, p["attn_Wh"], p["attn_b"]))
        scores = ad.transpose(ad.matmul(act, p["attn_w"]))  # 1 x (C+1)
        if not self._context_aware:
            scores = scores + self._sentinel_mask
        attn = ad.softmax(scores)
        ctx_new = ad.matmul(attn, values)
        return h_new + ctx_new, h_new, c_new, ctx_new, attn

    def logits(self, rows: ad.Tensor) -> ad.Tensor:
        """Word scores (pre-mask) of n stacked output rows, n x K."""
        return ad.affine(rows, self.p["out_W"], self.p["out_b"])

    def masked_logits(self, logits: ad.Tensor) -> ad.Tensor:
        """Word scores with BOS pushed to -inf so it is never emitted."""
        return ad.add(logits, self._bos_mask)

    def word_dist(self, logits: ad.Tensor) -> ad.Tensor:
        """Output distribution; BOS is masked out and never emitted."""
        return ad.softmax(self.masked_logits(logits))

    def sequence_log_prob(self, image_feats, seq: TokenSequence) -> ad.Tensor:
        """Teacher-forced log p(sequence | image) as a differentiable scalar."""
        return self.sequence_log_prob_and_logits(image_feats, seq)[0]

    def sequence_log_prob_and_logits(self, image_feats, seq: TokenSequence):
        """As ``sequence_log_prob`` but also returns the T x K logit tensor
        (pre-mask, row t for step t), so callers can harvest its gradient
        after backward.

        The T output rows are stacked, so the caption takes one output
        affine, one masked softmax, one one-hot pick, one log and one sum.
        """
        _check_seq(seq, self.config)
        feats_proj = self.project_feats(image_feats)
        h, c, ctx = self.zero_state()
        prev = self.config.bos_id
        rows = []
        for tok in seq.tokens:
            row, h, c, ctx, _ = self.step(h, c, ctx, self.embed_token(prev), feats_proj)
            rows.append(row)
            prev = tok
        logits = self.logits(ad.concat(rows, axis=0))  # T x K
        probs = self.word_dist(logits)
        onehot = np.zeros(probs.shape)
        onehot[np.arange(len(seq.tokens)), seq.tokens] = 1.0
        picked = ad.reduce_sum(ad.mul(probs, onehot), axis=1)
        return ad.reduce_sum(ad.log(picked)), logits


def _check_feats(image_feats, config: CaptionerConfig) -> np.ndarray:
    feats = np.asarray(image_feats, dtype=np.float64)
    if feats.shape != (config.num_crops, config.feature_dim):
        raise InputError(
            f"image features must be {config.num_crops} x {config.feature_dim}, "
            f"got {feats.shape}")
    return feats


def _check_seq(seq: TokenSequence, config: CaptionerConfig):
    if not seq.tokens:
        raise InputError("sequence is empty")
    if len(seq.tokens) > config.max_len:
        raise InputError(f"sequence longer than max_len={config.max_len}")
    for tok in seq.tokens:
        if not (0 <= tok < config.vocab_size) or tok == config.bos_id:
            raise InputError(f"invalid token id {tok}")


def decode_step(params: CaptionerParams, state: DecoderState, prev_token: int,
                image_feats):
    """Single decoder step on plain arrays.

    Returns (logits (K,), new DecoderState, attention weights (C+1,) on the
    simplex including the sentinel slot, sentinel gate in [0, 1]).
    """
    tape = ad.Tape(grad=False)
    bound = BoundCaptioner(tape, params)
    feats_proj = bound.project_feats(image_feats)
    h, c, ctx = (tape.tensor(state.h), tape.tensor(state.c), tape.tensor(state.context))
    row, h2, c2, ctx2, attn = bound.step(h, c, ctx, bound.embed_token(prev_token),
                                         feats_proj)
    new_state = DecoderState(h2.data.copy(), c2.data.copy(), ctx2.data.copy())
    attn = attn.data.reshape(-1).copy()
    return bound.logits(row).data.reshape(-1).copy(), new_state, attn, float(attn[-1])


def _argmax(probs) -> int:
    return int(np.argmax(probs))


def stack_members(params_list: list[CaptionerParams]) -> CaptionerParams:
    """The models of ``params_list`` as one, every array stacked on a leading
    member axis; a single model is returned as is.

    Stacked parameters decode as the ensemble of their members: pass them to
    ``greedy_decode``.
    """
    if not params_list:
        raise InputError("ensemble needs at least one model")
    first = params_list[0]
    if len(params_list) == 1:
        return first
    shapes = {name: arr.shape for name, arr in first.arrays.items()}
    for p in params_list[1:]:
        if p.config != first.config:
            raise InputError("ensemble members must share one config")
        if {name: arr.shape for name, arr in p.arrays.items()} != shapes:
            raise InputError("ensemble members must have the same array names and shapes")
    # shapes are equal, so np.array stacks (and does so faster than np.stack)
    return CaptionerParams(first.config,
                           {name: np.array([p.arrays[name] for p in params_list])
                            for name in shapes})


def _decode(params: CaptionerParams, image_feats, pick) -> TokenSequence:
    """The one decode loop.  ``params`` may be stacked (``stack_members``):
    the members then advance together on the previous word and their word
    distributions are averaged over the member axis (a single model's is
    used as is); ``pick(probs_row) -> token id`` chooses the next word."""
    config = params.config
    bound = BoundCaptioner(ad.Tape(grad=False), params)
    feats_proj = bound.project_feats(image_feats)
    h, c, ctx = bound.zero_state()
    prev = config.bos_id
    tokens: list[int] = []
    terminated = False
    while len(tokens) < config.max_len:
        row, h, c, ctx, _ = bound.step(h, c, ctx, bound.embed_token(prev), feats_proj)
        probs = bound.word_dist(bound.logits(row)).data
        tok = pick((probs.mean(axis=0) if probs.ndim == 3 else probs).reshape(-1))
        tokens.append(tok)
        prev = tok
        if tok == config.eos_id:
            terminated = True
            break
    return TokenSequence(tokens, terminated or len(tokens) == config.max_len)


def greedy_decode(params: CaptionerParams, image_feats) -> TokenSequence:
    """Argmax decode (ties toward the lowest id); stops at EOS or max_len.

    Parameters stacked by ``stack_members`` decode as an ensemble.
    """
    return _decode(params, image_feats, _argmax)


def sample_sentence(params: CaptionerParams, image_feats, rng: np.random.Generator):
    """Multinomial sample; returns the sequence and its total log-probability."""
    log_p = 0.0

    def pick(probs):
        nonlocal log_p
        tok = int(min(np.searchsorted(np.cumsum(probs), rng.random(), side="right"),
                      probs.size - 1))
        log_p += float(np.log(probs[tok]))
        return tok

    seq = _decode(params, image_feats, pick)
    return seq, log_p


def log_prob(params: CaptionerParams, image_feats, seq: TokenSequence) -> float:
    """Total log p(seq | image) under teacher forcing."""
    tape = ad.Tape(grad=False)
    return BoundCaptioner(tape, params).sequence_log_prob(image_feats, seq).item()


def ensemble_decode(params_list: list[CaptionerParams], image_feats) -> TokenSequence:
    """Average the per-step word distributions of several models, then argmax:
    ``greedy_decode(stack_members(params_list), image_feats)``.  To decode
    many images, stack the members once and call ``greedy_decode``."""
    return _decode(stack_members(params_list), image_feats, _argmax)
