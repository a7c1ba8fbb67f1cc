"""Attention LSTM caption generator.

The decoder feeds two things into the LSTM at every step: the embedding of
the previous word and the previous step's attention mixture (image crops plus
a visual sentinel), so the network is aware of the attentional context it
used last.  The sentinel competes with the image crops inside one
(C+1)-way softmax; its weight is exposed as the sentinel gate.

A plain attention path without the sentinel and without context feedback is
available via ``CaptionerConfig.attention = "att2all"``.

The decoder step (fused LSTM cell, sentinel attention, context feedback
and the att2all masking) is written once in plain numpy: ``_step_forward``
and its reverse, ``_step_reverse``.  The decoders ``greedy_decode``,
``sample_sentence`` and ``ensemble_decode`` (one C x d image) and
``greedy_decode_batch`` (B of them) call the forward directly, with no tape
and no bind.  On a tape, ``BoundCaptioner`` records a whole teacher-forced
unroll as one node, and so the Gumbel estimators' relaxed unroll, which feeds
its outputs back.

Teacher forcing takes a ``CaptionBatch`` of B captions against B x C x d
features; ``CaptionBatch.one_hot`` gives the padded one-hot rows that both
models read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad


class InputError(ValueError):
    """Invalid caller-supplied value (token id, sequence, config mix)."""


ATTENTION_MODES = ("context_aware", "att2all")

# finite stand-in for -inf so softmax max-subtraction stays NaN-free
_MASK = -1e30


def _check_field_types(config, str_fields=()):
    """``InputError`` naming the first field of a model config that is not a
    str (the fields named in ``str_fields``) or an int (every other; a bool
    is not an int)."""
    for f in fields(config):
        value, kind = getattr(config, f.name), str if f.name in str_fields else int
        if not isinstance(value, kind) or isinstance(value, bool):
            raise InputError(f"{f.name} must be {kind.__name__}, got {type(value).__name__}")


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
        _check_field_types(self, str_fields=("attention",))
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
class CaptionBatch:
    """B captions teacher-forced as one padded batch (see
    ``BoundCaptioner.sequence_log_prob_and_logits``)."""

    seqs: list[TokenSequence]

    def __post_init__(self):
        if not isinstance(self.seqs, list):
            raise InputError(f"a CaptionBatch holds a list of captions, "
                             f"got {type(self.seqs).__name__}")

    @property
    def tokens(self) -> list[list[int]]:
        """Each caption's tokens, in batch order."""
        return [seq.tokens for seq in self.seqs]

    def one_hot(self, vocab_size: int):
        """The captions as padded one-hot token rows: (B x T x K rows, the B
        lengths), T the longest caption; the rows past a caption's end are
        zero."""
        if not self.seqs:
            raise InputError("caption batch is empty")
        for seq in self.seqs:
            if not seq.tokens:
                raise InputError("caption is empty")
            for tok in seq.tokens:
                if not (0 <= tok < vocab_size):
                    raise InputError(f"invalid token id {tok}")
        lengths = [len(seq.tokens) for seq in self.seqs]
        rows = np.zeros((len(self.seqs), max(lengths), vocab_size))
        for b, seq in enumerate(self.seqs):
            rows[b, np.arange(lengths[b]), seq.tokens] = 1.0
        return rows, lengths


def _param_shapes(config: CaptionerConfig) -> dict[str, tuple[int, int]]:
    K, m, d = config.vocab_size, config.hidden_dim, config.feature_dim
    return {
        "embed": (K, m),
        # fused LSTM cell of [x_embed | ctx | h]: column blocks i, f, o, sentinel, g
        "lstm_W": (3 * m, 5 * m),
        "lstm_b": (1, 5 * m),
        "attn_Wv": (d, m),
        "attn_Wa": (m, m),
        "attn_Wh": (m, m),
        "attn_w": (m, 1),
        "attn_b": (1, m),
        "out_W": (m, K),
        "out_b": (1, K),
    }


@dataclass
class CaptionerParams:
    config: CaptionerConfig
    arrays: dict[str, np.ndarray]

    def copy(self) -> "CaptionerParams":
        return CaptionerParams(self.config, {k: v.copy() for k, v in self.arrays.items()})


def init_params(config: CaptionerConfig, seed: int) -> CaptionerParams:
    """Uniform init in [-a, a] with a = 1/sqrt(hidden_dim); seed-deterministic."""
    return CaptionerParams(config, _init_arrays(_param_shapes(config), config.hidden_dim,
                                                seed))


def _init_arrays(shapes, m: int, seed: int) -> dict[str, np.ndarray]:
    """Uniform init in [-a, a] with a = 1/sqrt(m), one array after another in
    ``shapes`` order; serves both models.

    ``lstm_W`` and ``lstm_b`` are drawn together, as one (rows + 1) x m block
    ``[W_x; W_h; b]`` per gate in the order i, f, o, g, then any further
    output gate (the captioner's sentinel); g's column block goes last.
    """
    rng = np.random.default_rng(seed)
    a = 1.0 / np.sqrt(m)
    arrays = {}
    for name, shape in shapes.items():
        if name == "lstm_W":
            blocks = rng.uniform(-a, a, (shape[1] // m, shape[0] + 1, m))
            fused = np.concatenate([*blocks[:3], *blocks[4:], blocks[3]], axis=1)
            arrays["lstm_W"], arrays["lstm_b"] = fused[:-1], fused[-1:]
        elif name != "lstm_b":
            arrays[name] = rng.uniform(-a, a, shape)
    return arrays


# the weights of the decoder step, as ``_step_forward`` reads them
_STEP_WEIGHTS = ("lstm_W", "lstm_b", "attn_Wa", "attn_Wh", "attn_w", "attn_b")


def _masks(config: CaptionerConfig):
    """The 1 x K mask that keeps BOS from being emitted and, in att2all mode,
    the 1 x (C+1) mask that gives the sentinel slot zero attention (None in
    context-aware mode)."""
    bos = np.zeros((1, config.vocab_size))
    bos[0, config.bos_id] = _MASK
    if config.attention == "context_aware":
        return bos, None
    sentinel = np.zeros((1, config.num_crops + 1))
    sentinel[0, -1] = _MASK
    return bos, sentinel


def _step_forward(w, h, c, ctx, x, feats_proj, sentinel_mask):
    """One decoder step in plain numpy.

    ``w`` maps the names of ``_STEP_WEIGHTS`` to arrays.  Every operand may
    carry leading axes (members, batch rows), e.g. B x 1 x m states against
    B x C x m crops.  The fused cell maps [x | ctx | h] to the column blocks
    i, f, o, sentinel, g; the sentinel is the cell's second output gate
    applied to tanh(c'), stacked as one more attendable row under the
    projected crops, so the crop and sentinel scores come from one
    (C+1)-way score pass.  With a ``sentinel_mask`` (att2all mode) the
    context fed back is zero and the mask is added to the scores.

    Returns (output row h' + ctx', h', c', ctx', attn, saved); the last slot
    of ``attn`` is the sentinel gate and ``saved`` feeds ``_step_reverse``.
    """
    if sentinel_mask is not None:
        ctx = np.zeros(h.shape)
    u = np.concatenate([x, ctx, h], axis=-1)
    c_new, out_rows, cell = ad._lstm_cell_values(u @ w["lstm_W"] + w["lstm_b"], c)
    h_new, sentinel = out_rows[..., 0, :], out_rows[..., 1, :]
    values = np.concatenate([feats_proj, sentinel], axis=-2)  # (C+1) x m
    act = np.tanh(values @ w["attn_Wa"] + (h_new @ w["attn_Wh"] + w["attn_b"]))
    scores = (act @ w["attn_w"]).swapaxes(-1, -2)  # 1 x (C+1)
    if sentinel_mask is not None:
        scores = scores + sentinel_mask
    attn = ad._softmax_values(scores)
    ctx_new = attn @ values
    saved = (sentinel_mask is None, u, cell, h_new, values, act, attn)
    return h_new + ctx_new, h_new, c_new, ctx_new, attn, saved


def _step_reverse(wT, saved, g_row, g_h, g_c, g_ctx, g_attn=None):
    """Reverse of one ``_step_forward``, given the step weights transposed
    over their last two axes (``_transposed``): from the gradients of its
    output row, h', c' and ctx' (and attn, when it was used), those of x, h,
    c, ctx (zero in att2all mode) and the projected crops, plus ``terms``:
    the operand pairs whose products give the weight gradients (see
    ``_weight_grads``).  Leading axes are not summed down."""
    context_aware, u, cell, h_new, values, act, attn = saved
    m = h_new.shape[-1]
    C = values.shape[-2] - 1
    g_ctx_new = g_row + g_ctx
    g_scores = g_ctx_new @ values.swapaxes(-1, -2)
    if g_attn is not None:
        g_scores = g_scores + g_attn
    g_e = ad._softmax_grads(attn, g_scores).swapaxes(-1, -2)  # (C+1) x 1
    g_z = (g_e @ wT["attn_w"]) * (1.0 - act * act)
    g_values = attn.swapaxes(-1, -2) @ g_ctx_new + g_z @ wT["attn_Wa"]
    g_hh = g_z.sum(axis=-2, keepdims=True)
    g_h_new = g_row + g_h + g_hh @ wT["attn_Wh"]
    g_pre, g_c_prev = ad._lstm_cell_grads(
        cell, g_c, np.concatenate([g_h_new, g_values[..., C:, :]], axis=-1))
    g_u = g_pre @ wT["lstm_W"]
    g_ctx_prev = g_u[..., m : 2 * m] if context_aware else np.zeros(g_ctx.shape)
    terms = (u, g_pre, values, g_z, h_new, g_hh, act, g_e)
    return g_u[..., :m], g_u[..., 2 * m :], g_c_prev, g_ctx_prev, g_values[..., :C, :], terms


def _transposed(w):
    """The step weights that ``_step_reverse`` multiplies by, each with its
    last two axes swapped."""
    return {name: w[name].swapaxes(-1, -2) for name in ("attn_w", "attn_Wa", "attn_Wh", "lstm_W")}


def _weight_grads(w, terms) -> list:
    """The gradients of the ``_STEP_WEIGHTS``, in that order, from the
    ``terms`` of one reverse step, or of several with each operand stacked
    over the steps: each weight's is one product over all rows (biases are
    left for ``Tape.record`` to sum)."""
    u, g_pre, values, g_z, h_new, g_hh, act, g_e = terms
    return [ad._weight_grad(u, g_pre, w["lstm_W"].shape), g_pre,
            ad._weight_grad(values, g_z, w["attn_Wa"].shape),
            ad._weight_grad(h_new, g_hh, w["attn_Wh"].shape),
            ad._weight_grad(act, g_e, w["attn_w"].shape), g_hh]


class BoundCaptioner:
    """Captioner parameters bound to a tape, for the training losses.

    The decoder step itself runs in plain numpy (``_step_forward`` and
    ``_step_reverse``); the tape sees it as whole nodes.
    ``sequence_log_prob_and_logits`` records a teacher-forced unroll as one
    node, and ``relaxed_unroll`` the relaxed unroll of the Gumbel
    estimators, output head, relaxation and feed included, as one node.
    ``step`` records one node per step, for stepping a model by hand.  The
    projection of the crops, the teacher-forced output head (affine, masked
    softmax, pick, log) and whatever consumes the unrolls stay ops on the
    tape.  The module-level decoders bind no captioner: they call the plain
    step directly.

    ``step`` returns the output row ``h' + ctx'``; ``logits`` projects one
    or several stacked output rows to word scores in one affine node.

    The arrays of ``params`` may carry a leading member axis (M x ...,
    built by ``stack_members``): every tensor of a step then carries the
    member axis (the zero state is M x 1 x m; B rows under the member axis
    need a row axis on the weights: see ``_decode``).
    """

    def __init__(self, tape: ad.Tape, params: CaptionerParams):
        self.tape = tape
        self.config = params.config
        self.p = {name: tape.tensor(arr) for name, arr in params.arrays.items()}
        self._w = {name: self.p[name].data for name in _STEP_WEIGHTS}
        bos_mask, self._sentinel_mask = _masks(params.config)
        self._bos_mask = tape.tensor(bos_mask)
        self._members = params.arrays["embed"].shape[:-2]  # (M,) when stacked, else ()

    def project_feats(self, image_feats, batch: int | None = None) -> ad.Tensor:
        """Crops projected to the attention width: C x m, or B x C x m for
        ``batch`` = B images given as B x C x d."""
        feats = _check_feats(image_feats, self.config, batch)
        return ad.matmul(self.tape.tensor(feats), self.p["attn_Wv"])

    def zero_state(self):
        """Zero (h, c, ctx), 1 x m per member; the first-step context is
        defined as the zero vector."""
        zero = self.tape.tensor(np.zeros(self._members + (1, self.config.hidden_dim)))
        return zero, zero, zero

    def embed_token(self, token: int) -> ad.Tensor:
        if not (0 <= token < self.config.vocab_size):
            raise InputError(f"token id {token} out of range")
        return ad.get_row(self.p["embed"], token)

    def step(self, h, c, ctx, x_embed, feats_proj):
        """One decoder step (``_step_forward``) on tensors, for stepping a
        model by hand; no library code calls it.

        Returns (output row h' + ctx' 1xm, h', c', ctx', attn 1x(C+1)); pass
        the output row to ``logits`` for word scores.  Every operand may carry
        leading axes (members, batch rows), e.g. B x 1 x m states against
        B x C x m crops.  The last slot of ``attn`` is the sentinel gate; in
        att2all mode the context fed back is zero and the sentinel slot of
        ``attn`` is exactly zero.  The step is one node, whose output
        [row | h' | c' | ctx' | attn] the five tensors narrow.
        """
        w, inputs = self._w, [h, c, ctx, x_embed, feats_proj]
        *outs, saved = _step_forward(w, *(t.data for t in inputs), self._sentinel_mask)
        widths = [out.shape[-1] for out in outs]
        ends = np.cumsum(widths).tolist()

        # the VJP holds arrays only: a tensor or the bind would tie the tape
        # into a reference cycle and keep it alive until a garbage collection
        def vjp(g):
            g_row, g_h, g_c, g_ctx, g_attn = np.split(g, ends[:-1], axis=-1)
            *g_in, terms = _step_reverse(_transposed(w), saved, g_row, g_h, g_c, g_ctx, g_attn)
            return _weight_grads(w, terms) + g_in

        packed = self.tape.record(np.concatenate(outs, axis=-1),
                                  [self.p[name] for name in _STEP_WEIGHTS]
                                  + [x_embed, h, c, ctx, feats_proj], vjp)
        return tuple(ad.narrow(packed, -1, end - width, width)
                     for end, width in zip(ends, widths))

    def logits(self, rows: ad.Tensor) -> ad.Tensor:
        """Word scores (pre-mask) of n stacked output rows, n x K."""
        return ad.affine(rows, self.p["out_W"], self.p["out_b"])

    def masked_logits(self, logits: ad.Tensor) -> ad.Tensor:
        """Word scores with BOS pushed to -inf so it is never emitted."""
        return ad.add(logits, self._bos_mask)

    def word_dist(self, logits: ad.Tensor) -> ad.Tensor:
        """Output distribution; BOS is masked out and never emitted."""
        return ad.softmax(self.masked_logits(logits))

    def sequence_log_prob(self, image_feats, batch: CaptionBatch) -> ad.Tensor:
        """Teacher-forced log p(caption | image) of each of the B captions of
        ``batch`` against B x C x d features, as B differentiable values."""
        return self.sequence_log_prob_and_logits(image_feats, batch)[0]

    def sequence_log_prob_and_logits(self, image_feats, batch: CaptionBatch):
        """As ``sequence_log_prob`` but also returns the B x T x K logit
        tensor (pre-mask, row t for step t, T the longest caption); callers
        can harvest its gradient after backward.

        The one teacher-forced loop.  The captions are padded to the longest,
        and the whole unroll of B rows is one node (``_unroll``).  The pass is
        causal, so a padded step, which comes after its caption's last word,
        never reaches a valid one, and the LSTM state needs no mask.  The T
        output rows are stacked, so the batch takes one output affine, one
        B x T x K masked softmax, one pick, one log and one sum: each valid
        step picks its word's probability with weight 1, and a padded step
        picks nothing and adds log 1 = 0.
        """
        if not isinstance(batch, CaptionBatch):
            raise InputError(f"expected a CaptionBatch, got {type(batch).__name__}")
        picks, lengths = batch.one_hot(self.config.vocab_size)
        B, T = picks.shape[:2]
        if T > self.config.max_len:
            raise InputError(f"caption longer than max_len={self.config.max_len}")
        if picks[:, :, self.config.bos_id].any():
            raise InputError(f"invalid token id {self.config.bos_id} (BOS)")
        prev = np.full((B, T), self.config.bos_id)
        for b, s in enumerate(batch.seqs):
            prev[b, 1 : lengths[b]] = s.tokens[:-1]
        logits = self.logits(self._unroll(prev, self.project_feats(image_feats, batch=B)))
        picked = ad.reduce_sum(ad.mul(self.word_dist(logits), picks), axis=-1)
        pad = 1.0 - picks.sum(axis=-1)
        if pad.any():
            picked = ad.add(picked, pad)
        return ad.reduce_sum(ad.log(picked), axis=-1), logits

    def _unroll(self, prev, feats_proj: ad.Tensor) -> ad.Tensor:
        """The B x T x m output rows of B rows stepped from the zero state,
        row b fed the previous words ``prev[b]``, as one node.  Its VJP walks
        the steps backward and forms each weight's gradient with one product
        over all B·T rows, and the embedding's with one ``np.add.at``."""
        w, embed = self._w, self.p["embed"].data
        B, T = prev.shape
        xs, fp = embed[prev], feats_proj.data  # B x T x m, B x C x m
        h = c = ctx = np.zeros((B, 1, self.config.hidden_dim))
        rows, saved = np.empty(xs.shape), []
        for t in range(T):
            row, h, c, ctx, _, step_saved = _step_forward(w, h, c, ctx, xs[:, t : t + 1], fp,
                                                          self._sentinel_mask)
            rows[:, t : t + 1] = row
            saved.append(step_saved)

        def vjp(g_rows):  # holds arrays only (see ``step``)
            wT = _transposed(w)
            g_h = g_c = g_ctx = np.zeros(h.shape)
            g_xs, g_fp, terms = np.empty(xs.shape), 0.0, []
            for t in reversed(range(T)):
                g_xs[:, t : t + 1], g_h, g_c, g_ctx, g_fp_t, step_terms = _step_reverse(
                    wT, saved[t], g_rows[:, t : t + 1], g_h, g_c, g_ctx)
                g_fp = g_fp + g_fp_t
                terms.append(step_terms)
            g_embed = np.zeros(embed.shape)
            np.add.at(g_embed, prev, g_xs)
            stacked = [np.stack(operands) for operands in zip(*terms)]
            return _weight_grads(w, stacked) + [g_embed, g_fp]

        return self.tape.record(rows, [self.p[name] for name in _STEP_WEIGHTS]
                                + [self.p["embed"], feats_proj], vjp)

    def relaxed_unroll(self, image_feats, draw, temperature: float, straight_through: bool):
        """Decode the B images of B x C x d ``image_feats`` as one node, each
        step's row fed back times the embedding: the softmax at
        ``temperature`` of the masked logits plus ``draw()`` (B x 1 x K
        noise), or with ``straight_through`` its argmax one-hot, whose VJP is
        the identity.  ``draw`` is called once per step while any row is
        live; a row ends at its first hard EOS or at max_len.

        Returns (the B x T x K rows, T the longest row, each row's hard
        tokens, a B x T x K array that the VJP fills with the gradient of
        each step's logits).
        """
        config, w, embed = self.config, self._w, self.p["embed"].data
        out_W, out_b = self.p["out_W"].data, self.p["out_b"].data
        B = len(image_feats)
        feats_proj = self.project_feats(image_feats, batch=B)
        h = c = ctx = np.zeros((B, 1, config.hidden_dim))
        x = embed[np.full(B, config.bos_id)][:, None]
        steps, ys = [], []  # per step: (output row, softmax, saved arrays); the row fed back
        tokens, live = [[] for _ in range(B)], list(range(B))
        for _ in range(config.max_len):
            out, h, c, ctx, _, step_saved = _step_forward(w, h, c, ctx, x, feats_proj.data,
                                                          self._sentinel_mask)
            soft = ad._softmax_values(
                (out @ out_W + out_b + self._bos_mask.data + draw()) / temperature)
            words = soft.argmax(axis=-1).reshape(B).tolist()
            ys.append(np.eye(config.vocab_size)[words][:, None] if straight_through else soft)
            steps.append((out, soft, step_saved))
            for b in live:
                tokens[b].append(words[b])
            live = [b for b in live if words[b] != config.eos_id]
            if not live:
                break
            x = ys[-1] @ embed
        outs, softs, saved = zip(*steps)
        T, outs, ys = len(steps), np.concatenate(outs, axis=1), np.concatenate(ys, axis=1)
        g_logits = np.zeros(ys.shape)

        def vjp(g_rows):  # holds arrays only (see ``step``)
            wT, embed_T, out_W_T = _transposed(w), embed.T, out_W.T
            g_h = g_c = g_ctx = np.zeros(h.shape)
            g_xs, g_fp, terms = np.empty(outs.shape), 0.0, []
            for t in reversed(range(T)):
                g_y = g_rows[:, t : t + 1]
                if t + 1 < T:  # row t was step t + 1's input
                    g_y = g_y + g_xs[:, t + 1 : t + 2] @ embed_T
                g_logits[:, t : t + 1] = ad._softmax_grads(softs[t], g_y) / temperature
                g_xs[:, t : t + 1], g_h, g_c, g_ctx, g_fp_t, step_terms = _step_reverse(
                    wT, saved[t], g_logits[:, t : t + 1] @ out_W_T, g_h, g_c, g_ctx)
                g_fp = g_fp + g_fp_t
                terms.append(step_terms)
            g_embed = ad._weight_grad(ys[:, :-1], g_xs[:, 1:], embed.shape)
            g_embed[config.bos_id] += g_xs[:, 0].sum(axis=0)
            stacked = [np.stack(operands) for operands in zip(*terms)]
            return _weight_grads(w, stacked) + [
                g_embed, ad._weight_grad(outs, g_logits, out_W.shape), g_logits, g_fp]

        rows = self.tape.record(ys, [self.p[name] for name in _STEP_WEIGHTS]
                                + [self.p["embed"], self.p["out_W"], self.p["out_b"],
                                   feats_proj], vjp)
        return rows, tokens, g_logits


def _check_feats(image_feats, config, batch: int | None = None):
    """Features as float64, C x d, or B x C x d for ``batch`` = B, against the
    ``num_crops`` and ``feature_dim`` of either model's config."""
    feats = np.asarray(image_feats, dtype=np.float64)
    shape = (config.num_crops, config.feature_dim)
    if batch is not None:
        shape = (batch,) + shape
    if feats.shape != shape:
        names = "C x d" if batch is None else "B x C x d"
        raise InputError(f"image features must be {names} = "
                         f"{' x '.join(map(str, shape))}, got {feats.shape}")
    return feats


def _argmax(probs) -> np.ndarray:
    """Each row's most probable word (ties toward the lowest id)."""
    return probs.argmax(axis=-1)


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


def _decode(params: CaptionerParams, image_feats, pick,
            batch: int | None = None) -> list[TokenSequence]:
    """The one decode loop, over the B images of B x C x d ``image_feats``
    for ``batch`` = B: B x 1 x m states step against B x C x m crops, and
    each step gathers the B previous words with one fancy index.  Rows never
    mix, so row b decodes as image b would alone.  With ``batch`` None,
    ``image_feats`` is one C x d image, whose 1 x m states keep no row axis.
    ``pick(probs)`` gets the n x K word distributions of the n rows still
    decoding, in row order, and returns their n next words; a row stops at
    EOS or at max_len.

    Runs ``_step_forward`` and the output head in plain numpy, with no tape
    and no bind.  ``params`` may be stacked (``stack_members``): the members
    then advance together on the previous words and their word
    distributions are averaged over the member axis (a single model's are
    used as is).
    """
    config = params.config
    B = 1 if batch is None else batch
    arrays = params.arrays
    stacked = arrays["embed"].ndim == 3
    if stacked and batch is not None:
        # every weight gets a length-1 row axis after the member axis, so it
        # broadcasts over the B rows (M x B x ... arrays); the gather puts
        # the embedding's rows into that axis itself
        arrays = {name: arr if name == "embed" else arr[:, None]
                  for name, arr in arrays.items()}
    w, embed = {name: arrays[name] for name in _STEP_WEIGHTS}, arrays["embed"]
    bos_mask, sentinel_mask = _masks(config)
    feats_proj = _check_feats(image_feats, config, batch) @ arrays["attn_Wv"]
    rows = () if batch is None else (B,)
    h = c = ctx = np.zeros(embed.shape[:-2] + rows + (1, config.hidden_dim))
    prev = np.full(B, config.bos_id)
    tokens: list[list[int]] = [[] for _ in range(B)]
    live = list(range(B))  # rows still decoding
    for _ in range(config.max_len):
        if batch is None:  # one image: no row axis
            x = embed[..., prev[0] : prev[0] + 1, :]
        else:
            x = embed[..., prev, :][..., None, :]
        row, h, c, ctx, _, _ = _step_forward(w, h, c, ctx, x, feats_proj, sentinel_mask)
        probs = ad._softmax_values(row @ arrays["out_W"] + arrays["out_b"] + bos_mask)
        if stacked:
            probs = probs.mean(axis=0)
        probs = probs.reshape(B, config.vocab_size)
        if len(live) == B:  # every row still decodes: no gather
            prev[:] = pick(probs)
        else:
            prev[live] = pick(probs[live])
        words = prev.tolist()
        for b in live:
            tokens[b].append(words[b])
        live = [b for b in live if tokens[b][-1] != config.eos_id]
        if not live:
            break
    # every row ended on EOS or at max_len
    return [TokenSequence(seq, True) for seq in tokens]


def greedy_decode(params: CaptionerParams, image_feats) -> TokenSequence:
    """Argmax decode (ties toward the lowest id); stops at EOS or max_len.

    Parameters stacked by ``stack_members`` decode as an ensemble.
    """
    return _decode(params, image_feats, _argmax)[0]


def greedy_decode_batch(params: CaptionerParams, image_feats) -> list[TokenSequence]:
    """``greedy_decode`` of each of the B images of B x C x d ``image_feats``,
    in one pass."""
    return _decode(params, image_feats, _argmax, batch=len(image_feats))


def sample_sentence(params: CaptionerParams, image_feats, rng: np.random.Generator):
    """Multinomial sample; returns the sequence and its total log-probability."""
    log_p = 0.0

    def pick(probs):  # 1 x K: one image
        nonlocal log_p
        row = probs[0]
        tok = int(min(row.cumsum().searchsorted(rng.random(), side="right"), row.size - 1))
        log_p += float(np.log(row[tok]))
        return tok

    return _decode(params, image_feats, pick)[0], log_p


def ensemble_decode(params_list: list[CaptionerParams], image_feats) -> TokenSequence:
    """Average the per-step word distributions of several models, then argmax:
    ``greedy_decode(stack_members(params_list), image_feats)``.  To decode
    many images, stack the members once and call ``greedy_decode``."""
    return _decode(stack_members(params_list), image_feats, _argmax)[0]
