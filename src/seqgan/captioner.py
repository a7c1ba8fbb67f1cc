"""Attention LSTM caption generator.

The decoder feeds two things into the LSTM at every step: the embedding of
the previous word and the previous step's attention mixture (image crops plus
a visual sentinel), so the network is aware of the attentional context it
used last.  The sentinel competes with the image crops inside one
(C+1)-way softmax; its weight is exposed as the sentinel gate.

A plain attention path without the sentinel and without context feedback is
available via ``CaptionerConfig.attention = "att2all"``.

The decoder step (fused LSTM cell, sentinel attention, context feedback
and the att2all masking) is written once in plain numpy, ``_step_forward``,
and reversed over any number of steps by ``_reverse``.  It runs on rows:
states are [M x] B x m (M stacked ensemble members, B images) against
[M x] B x C x m projected crops, and every product with a shared weight is
one 2-D GEMM over all rows.  One image is B = 1.  The decoders
``greedy_decode``, ``sample_sentence`` and ``ensemble_decode`` (one C x d
image, whose C x m crops keep no row axis, so its attended rows stay one
(C+1) x m matrix) and ``greedy_decode_batch`` (B of them) call the forward
directly, with no tape and no bind.  On a tape, ``BoundCaptioner`` records
the teacher-forced log-likelihood of B captions as one node, from the
features to the B values, and so the Gumbel estimators' relaxed unroll,
which feeds its outputs back; each returns the B x T x K array that its VJP
fills with the gradient of the step logits.

Teacher forcing takes a ``CaptionBatch`` of B captions against B x C x d
features; ``CaptionBatch.one_hot`` gives the padded one-hot rows that both
models read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain

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
        zero.  The first caption at fault, in batch order, raises
        ``InputError``: an empty one, or one holding an id outside [0, K),
        named by its first such id."""
        if not self.seqs:
            raise InputError("caption batch is empty")
        tokens = self.tokens
        lengths = [len(caption) for caption in tokens]
        ids = np.array(list(chain.from_iterable(tokens)))
        if 0 in lengths or ((ids < 0) | (ids >= vocab_size)).any():
            for caption in tokens:  # name the first caption at fault
                if not caption:
                    raise InputError("caption is empty")
                bad = [tok for tok in caption if not 0 <= tok < vocab_size]
                if bad:
                    raise InputError(f"invalid token id {bad[0]}")
        rows = np.zeros((len(lengths), max(lengths), vocab_size))
        # the valid (b, t) slots in row-major order hold the ids in caption order
        rows[np.arange(rows.shape[1]) < np.array(lengths)[:, None], ids] = 1.0
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
# the other parameters of the unroll nodes, after the step weights
_HEAD_WEIGHTS = ("embed", "attn_Wv", "out_W", "out_b")


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


# the ``out`` of ``_step_forward`` that writes nothing in place
_NO_OUT = (None,) * 10


def _mm(x, W):
    """``x @ W`` as one GEMM per member: ``W`` is a shared n x k weight or a
    member-stacked M x n x k one, and every axis of ``x`` between W's member
    axis and the last folds into rows (B x (C+1) x m crops against a shared
    weight are one (B(C+1)) x m product, not B stacked ones)."""
    lead = x.shape[: W.ndim - 2]
    return (x.reshape(lead + (-1, x.shape[-1])) @ W).reshape(x.shape[:-1] + W.shape[-1:])


def _project(feats, W):
    """The crops of B x C x d ``feats`` projected by ``attn_Wv`` (d x m, or
    member-stacked M x d x m) as one GEMM: [M x] B x C x m."""
    flat = feats.reshape(-1, feats.shape[-1]) @ W
    return flat.reshape(W.shape[:-2] + feats.shape[:-1] + W.shape[-1:])


def _step_forward(w, h, c, ctx, x, feats_proj, sentinel_mask, out=_NO_OUT):
    """One decoder step of B rows in plain numpy.

    ``w`` maps the names of ``_STEP_WEIGHTS`` to arrays, each shared
    (rank 2) or member-stacked (M x ...).  States and the input words are
    rows, [M x] B x m, against [M x] B x C x m projected crops; every
    product with a weight is one GEMM per member (``_mm``).  One image may
    also come as [M x] C x m crops against 1 x m rows (the decoders' one
    image): its attended rows then stay (C+1) x m, with no row axis to
    broadcast over.  The fused cell maps [x | ctx | h] to the column blocks
    i, f, o, sentinel, g; the sentinel is the cell's second output gate
    applied to tanh(c'), stacked as one more attendable row under each
    row's crops, so the crop and sentinel scores come from one (C+1)-way
    score pass.  With a ``sentinel_mask`` (att2all mode) the context fed
    back is zero and the mask is added to the scores.

    Returns (output row h' + ctx', h', c', ctx', attn, saved); attn is
    [M x] B x (C+1), its last slot the sentinel gate, and ``saved`` feeds
    ``_reverse``, which takes crops with the row axis only.  ``out`` holds
    the arrays to write into, each None to allocate (``_run_steps`` passes
    step-major buffers): the output row, [x | ctx | h], the cell's ``out``
    (c', the output rows [h' | sentinel] as B x 2 x m, the sigmoids, g and
    tanh(c')), the attended rows, the score activations and attn.
    """
    row_out, u_out, *cell_out, values_out, act_out, attn_out = out
    if sentinel_mask is not None:
        ctx = np.zeros(h.shape)
    u = np.concatenate([x, ctx, h], axis=-1, out=u_out)
    c_new, out_rows, cell = ad._lstm_cell_values(u @ w["lstm_W"] + w["lstm_b"], c, cell_out)
    h_new, sentinel = out_rows[..., 0, :], out_rows[..., 1, :]
    query = h_new @ w["attn_Wh"] + w["attn_b"]
    one = feats_proj.ndim == h.ndim  # one image's crops, no row axis
    if one:  # (C+1) x m attended rows, met by the 1 x m row as it is
        values = np.concatenate([feats_proj, sentinel], axis=-2, out=values_out)
        act = np.tanh(values @ w["attn_Wa"] + query, out=act_out)
        scores = (act @ w["attn_w"]).swapaxes(-1, -2)  # 1 x (C+1)
    else:  # B x (C+1) x m, each row's vectors on a new axis
        values = np.concatenate([feats_proj, sentinel[..., None, :]], axis=-2, out=values_out)
        act = np.tanh(_mm(values, w["attn_Wa"]) + query[..., None, :], out=act_out)
        scores = _mm(act, w["attn_w"])[..., 0]  # B x (C+1)
    if sentinel_mask is not None:
        scores = scores + sentinel_mask
    attn = ad._softmax_values(scores, out=attn_out)
    ctx_new = attn @ values if one else (attn[..., None, :] @ values)[..., 0, :]
    saved = (u, h_new, values, act, attn) + cell
    return np.add(h_new, ctx_new, out=row_out), h_new, c_new, ctx_new, attn, saved


def _run_steps(w, x, feats_proj, sentinel_mask, max_steps, feed):
    """Step B rows from the zero state, ``x`` (B x m) the first input words,
    at most ``max_steps`` times; after step t, ``feed(t, row)`` returns the
    next input words, or None to stop.  Each step writes its output row and
    saved arrays straight into step-major buffers (c' into the slot that is
    the next step's c), so the T steps taken come back stacked: (output
    rows T x B x m, the saved arrays for ``_reverse``)."""
    (B, m), C = x.shape, feats_proj.shape[-2]
    # the ``out`` of ``_step_forward``, in its order, for every step; the c'
    # slot holds each step's c, then the last c'
    bufs = [np.empty((max_steps,) + shape) for shape in (
        (B, m), (B, 3 * m), (B, m), (B, 2, m), (B, 4 * m), (B, m), (B, m), (B, C + 1, m),
        (B, C + 1, m), (B, C + 1))]
    bufs[2] = np.zeros((max_steps + 1, B, m))
    rows, us, cells, outs, sigs, gs, tanhs, values, acts, attns = bufs
    h = ctx = np.zeros((B, m))
    for t in range(max_steps):
        out = [buf[t] for buf in bufs]
        out[2] = cells[t + 1]
        row, h, _, ctx, _, _ = _step_forward(w, h, cells[t], ctx, x, feats_proj,
                                             sentinel_mask, out)
        x = feed(t, row)
        if x is None:
            break
    T = t + 1
    return rows[:T], [us[:T], outs[:T, :, 0], values[:T], acts[:T], attns[:T], cells[:T],
                      sigs[:T], gs[:T], tanhs[:T]]


def _reverse(w, saved, row_grad, sentinel_mask, g_state=None, g_attn=None):
    """Reverse of T ``_step_forward`` calls, walked from the last step to
    the first; ``saved`` holds each of their saved arrays stacked over the
    steps (``_run_steps``).

    ``row_grad(t, g_x)`` gives the gradient of step t's output row, given
    that of step t + 1's input words (None at the last step), so an unroll
    that feeds its output back can join the two.  ``g_state`` holds the
    gradients of the last step's h', c' and ctx' (zero when None), and
    ``g_attn`` (T-stacked) those of the attention rows, if they were used.
    ``sentinel_mask`` is the forward's (not None in att2all mode, where no
    context was fed back).  The weights must be shared (rank 2):
    member-stacked ones serve the forward only.

    Every activation derivative is taken once for all steps
    (``ad._lstm_cell_slopes``, and w * (1 - act^2) for the scores), so a
    reverse step does only the products that carry the gradient back in
    time.  Each weight's gradient, and the crops' share of the attention
    products, is one product over the stacked steps afterwards.

    Returns (the T-stacked gradients of the input words, those of the first
    step's h, c and ctx (zero in att2all mode), that of the projected crops,
    and the gradients of the ``_STEP_WEIGHTS`` in that order, biases left
    for ``Tape.record`` to sum).
    """
    U, H, V, ACT, ATTN, *cell = saved
    T, m, C = len(U), H.shape[-1], V.shape[-2] - 1
    g_h, g_c, g_ctx = (np.zeros(H.shape[1:]),) * 3 if g_state is None else g_state
    slopes = ad._lstm_cell_slopes(cell)
    s_act = w["attn_w"].swapaxes(-1, -2)[..., None, :, :] * (1.0 - ACT * ACT)
    W_T = w["lstm_W"].swapaxes(-1, -2)
    Wa_T, Wh_T = w["attn_Wa"].swapaxes(-1, -2), w["attn_Wh"].swapaxes(-1, -2)
    G_PRE = np.empty(U.shape[:-1] + (5 * m,))
    G_S, G_Z = np.empty(ATTN.shape), np.empty(ACT.shape)
    G_CTX, G_HH, G_X = np.empty(H.shape), np.empty(H.shape), np.empty(H.shape)
    no_ctx = None if sentinel_mask is None else np.zeros(H.shape[1:])
    g_x = None
    for t in reversed(range(T)):
        g_row = row_grad(t, g_x)
        g_ctx_new = np.add(g_row, g_ctx, out=G_CTX[t])
        g_scores = (V[t] @ g_ctx_new[..., None])[..., 0]
        if g_attn is not None:
            g_scores = g_scores + g_attn[t]
        G_S[t] = ad._softmax_grads(ATTN[t], g_scores)
        g_z = np.multiply(G_S[t][..., None], s_act[t], out=G_Z[t])
        g_hh = np.sum(g_z, axis=-2, out=G_HH[t])
        g_h_new = g_row + g_h + g_hh @ Wh_T
        g_sentinel = ATTN[t][..., C:] * g_ctx_new + g_z[..., C, :] @ Wa_T
        g_pre, g_c = ad._lstm_cell_reverse([s[t] for s in slopes], g_c,
                                           np.concatenate([g_h_new, g_sentinel], axis=-1),
                                           out=G_PRE[t])
        g_u = g_pre @ W_T
        g_x = G_X[t] = g_u[..., :m]
        g_ctx, g_h = g_u[..., m : 2 * m] if no_ctx is None else no_ctx, g_u[..., 2 * m :]
    g_fp = ((ATTN[..., :C, None] * G_CTX[..., None, :]).sum(axis=0)
            + _mm(G_Z[..., :C, :].sum(axis=0), Wa_T))
    grads = [ad._weight_grad(U, G_PRE, w["lstm_W"].shape), G_PRE,
             ad._weight_grad(V, G_Z, w["attn_Wa"].shape),
             ad._weight_grad(H, G_HH, w["attn_Wh"].shape),
             ad._weight_grad(ACT, G_S[..., None], w["attn_w"].shape), G_HH]
    return G_X, g_h, g_c, g_ctx, g_fp, grads


class BoundCaptioner:
    """Captioner parameters bound to a tape, for the training losses.

    The decoder step runs in plain numpy on rows (``_step_forward``,
    reversed by ``_reverse``): states are [M x] B x m against [M x] B x C x m
    projected crops, and one image is B = 1.  The tape sees whole nodes.
    ``sequence_log_prob_and_logits`` records the teacher-forced
    log-likelihood of B captions as one node, from the features to the B
    values, and ``relaxed_unroll`` the relaxed unroll of the Gumbel
    estimators, output head, relaxation and feed included, as one node;
    each returns the B x T x K array that its VJP fills with the gradient
    of the step logits.  ``step`` records one node per step, for stepping a
    model by hand with ``project_feats``, ``zero_state``, ``embed_token``,
    ``logits`` and ``word_dist``.  The module-level decoders bind no
    captioner: they call the plain step directly.

    The arrays of ``params`` may carry a leading member axis (M x ...,
    built by ``stack_members``) for forward passes: every tensor of a step
    then carries the member axis (the zero state is M x 1 x m).  Gradients
    need unstacked parameters.
    """

    def __init__(self, tape: ad.Tape, params: CaptionerParams):
        self.tape = tape
        self.config = params.config
        self.p = {name: tape.tensor(arr) for name, arr in params.arrays.items()}
        self._w = {name: self.p[name].data for name in _STEP_WEIGHTS}
        self._bos_mask, self._sentinel_mask = _masks(params.config)
        self._members = params.arrays["embed"].shape[:-2]  # (M,) when stacked, else ()

    def project_feats(self, image_feats, batch: int | None = None) -> ad.Tensor:
        """Crops projected to the attention width, as rows: B x C x m for
        ``batch`` = B images given as B x C x d, 1 x C x m for one C x d
        image (with a leading member axis when stacked)."""
        feats = _check_feats(image_feats, self.config, batch)
        feats = feats.reshape((-1,) + feats.shape[-2:])
        W = self.p["attn_Wv"]
        shape = W.data.shape
        return self.tape.record(_project(feats, W.data), [W],
                                lambda g: [ad._weight_grad(feats, g, shape)])

    def zero_state(self):
        """Zero (h, c, ctx), one 1 x m row per member; the first-step context
        is defined as the zero vector."""
        zero = self.tape.tensor(np.zeros(self._members + (1, self.config.hidden_dim)))
        return zero, zero, zero

    def embed_token(self, token: int) -> ad.Tensor:
        if not (isinstance(token, (int, np.integer)) and 0 <= token < self.config.vocab_size):
            raise InputError(f"token id {token} out of range")
        return ad.narrow(self.p["embed"], -2, token, 1)

    def step(self, h, c, ctx, x_embed, feats_proj):
        """One decoder step (``_step_forward``) on tensors, for stepping a
        model by hand; no library code calls it.

        Takes B x m rows (``zero_state`` and ``embed_token`` give one) and
        the B x C x m crops of ``project_feats``; returns (output row
        h' + ctx', h', c', ctx', attn B x (C+1)), and the output row goes
        to ``logits`` for word scores.  The last slot of ``attn`` is the
        sentinel gate; in att2all mode the context fed back is zero and the
        sentinel slot of ``attn`` is exactly zero.  The step is one node,
        whose output [row | h' | c' | ctx' | attn] the five tensors narrow.
        """
        w, inputs = self._w, [h, c, ctx, x_embed, feats_proj]
        *outs, saved = _step_forward(w, *(t.data for t in inputs), self._sentinel_mask)
        widths = [out.shape[-1] for out in outs]
        ends = np.cumsum(widths).tolist()
        sentinel_mask = self._sentinel_mask

        # the VJP holds arrays only: a tensor or the bind would tie the tape
        # into a reference cycle and keep it alive until a garbage collection
        def vjp(g):
            g_row, g_h, g_c, g_ctx, g_attn = np.split(g, ends[:-1], axis=-1)
            g_x, *g_in, grads = _reverse(w, [a[None] for a in saved], lambda t, g_x: g_row,
                                         sentinel_mask, (g_h, g_c, g_ctx), g_attn[None])
            return grads + [g_x[0]] + g_in

        packed = self.tape.record(np.concatenate(outs, axis=-1),
                                  [self.p[name] for name in _STEP_WEIGHTS]
                                  + [x_embed, h, c, ctx, feats_proj], vjp)
        return tuple(ad.narrow(packed, -1, end - width, width)
                     for end, width in zip(ends, widths))

    def logits(self, rows: ad.Tensor) -> ad.Tensor:
        """Word scores (pre-mask) of n stacked output rows, n x K."""
        return ad.matmul(rows, self.p["out_W"]) + self.p["out_b"]

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
        """As ``sequence_log_prob`` but also returns a B x T x K array (T the
        longest caption) that backward fills with the gradient of the
        pre-mask logits, row t for step t; it stays zero on a no-grad tape
        or until backward runs.

        The one teacher-forced pass, recorded as one node whose parents are
        the parameters.  The captions are padded to the longest, and the B
        rows step together: each step's previous words come from one
        one-hot GEMM with the embedding, and the pass is causal, so a padded
        step, which comes after its caption's last word, never reaches a
        valid one and the state needs no mask.  The T output rows are
        stacked for the head: one output affine, one B x T x K masked
        softmax, one pick, one log and one sum, in which each valid step
        picks its word's probability with weight 1 and a padded step picks
        nothing and adds log 1 = 0.  The VJP runs the head backward, then
        ``_reverse``, and forms the embedding's, the crop projection's and
        the output affine's gradients as one product each over all B·T rows.
        """
        if not isinstance(batch, CaptionBatch):
            raise InputError(f"expected a CaptionBatch, got {type(batch).__name__}")
        config, w = self.config, self._w
        picks, _ = batch.one_hot(config.vocab_size)
        B, T, K = picks.shape
        if T > config.max_len:
            raise InputError(f"caption longer than max_len={config.max_len}")
        if picks[:, :, config.bos_id].any():
            raise InputError(f"invalid token id {config.bos_id} (BOS)")
        feats = _check_feats(image_feats, config, B)
        embed, W_v = self.p["embed"].data, self.p["attn_Wv"].data
        out_W, out_b = self.p["out_W"].data, self.p["out_b"].data
        # step t's previous words, one-hot and step-major: BOS, then the picks
        prev = np.zeros((T, B, K))
        prev[0, :, config.bos_id] = 1.0
        prev[1:] = picks[:, :-1].swapaxes(0, 1)
        xs, feats_proj = _mm(prev, embed), _project(feats, W_v)
        rows, saved = _run_steps(w, xs[0], feats_proj, self._sentinel_mask, T,
                                  lambda t, row: xs[t + 1] if t + 1 < T else None)
        rows = rows.swapaxes(0, 1)  # B x T x m, as the picks
        probs = ad._softmax_values(_mm(rows, out_W) + out_b + self._bos_mask)
        picked = (probs * picks).sum(axis=-1)
        pad = 1.0 - picks.sum(axis=-1)
        if pad.any():
            picked = picked + pad
        if not np.all(picked > 0):
            raise ad.DomainError("log requires strictly positive input")
        g_logits = np.zeros(picks.shape)
        sentinel_mask = self._sentinel_mask

        def vjp(g):  # holds arrays only (see ``step``)
            g_probs = (g[:, None] / picked)[..., None] * picks
            g_logits[...] = ad._softmax_grads(probs, g_probs)
            g_rows = _mm(g_logits, out_W.T)
            g_xs, *_, g_fp, grads = _reverse(w, saved, lambda t, g_x: g_rows[:, t],
                                             sentinel_mask)
            return grads + [ad._weight_grad(prev, g_xs, embed.shape),
                            ad._weight_grad(feats, g_fp, W_v.shape),
                            ad._weight_grad(rows, g_logits, out_W.shape), g_logits]

        log_p = self.tape.record(np.log(picked).sum(axis=-1),
                                 [self.p[name] for name in _STEP_WEIGHTS + _HEAD_WEIGHTS], vjp)
        return log_p, g_logits

    def relaxed_unroll(self, image_feats, draw, temperature: float, straight_through: bool):
        """Decode the B images of B x C x d ``image_feats`` as one node, each
        step's row fed back times the embedding: the softmax at
        ``temperature`` of the masked logits plus ``draw()`` (B x K noise),
        or with ``straight_through`` its argmax one-hot, whose VJP is the
        identity.  ``draw`` is called once per step while any row is live;
        a row ends at its first hard EOS or at max_len.

        Returns (the B x T x K rows, T the longest row, each row's hard
        tokens, a B x T x K array that the VJP fills with the gradient of
        each step's logits).
        """
        config, w, embed = self.config, self._w, self.p["embed"].data
        W_v, out_W, out_b = (self.p[name].data for name in ("attn_Wv", "out_W", "out_b"))
        B = len(image_feats)
        feats = _check_feats(image_feats, config, B)
        feats_proj = _project(feats, W_v)
        softs, ys = [], []  # per step: the softmax, the row fed back
        tokens, live = [[] for _ in range(B)], list(range(B))

        def feed(t, out):
            soft = ad._softmax_values((out @ out_W + out_b + self._bos_mask + draw())
                                      / temperature)
            words = soft.argmax(axis=-1).tolist()
            softs.append(soft)
            ys.append(np.eye(config.vocab_size)[words] if straight_through else soft)
            for b in live:
                tokens[b].append(words[b])
            live[:] = [b for b in live if words[b] != config.eos_id]
            return ys[-1] @ embed if live else None

        outs, saved = _run_steps(w, embed[np.full(B, config.bos_id)], feats_proj,
                                  self._sentinel_mask, config.max_len, feed)
        ys = np.stack(ys, axis=1)
        g_logits = np.zeros(ys.shape)
        sentinel_mask = self._sentinel_mask

        def vjp(g_rows):  # holds arrays only (see ``step``)
            embed_T, out_W_T = embed.T, out_W.T

            def row_grad(t, g_x):  # row t was step t + 1's input
                g_y = g_rows[:, t] if g_x is None else g_rows[:, t] + g_x @ embed_T
                g_logits[:, t] = ad._softmax_grads(softs[t], g_y) / temperature
                return g_logits[:, t] @ out_W_T

            g_xs, *_, g_fp, grads = _reverse(w, saved, row_grad, sentinel_mask)
            g_embed = ad._weight_grad(ys[:, :-1], g_xs[1:].swapaxes(0, 1), embed.shape)
            g_embed[config.bos_id] += g_xs[0].sum(axis=0)
            return grads + [g_embed, ad._weight_grad(feats, g_fp, W_v.shape),
                            ad._weight_grad(outs.swapaxes(0, 1), g_logits, out_W.shape),
                            g_logits]

        rows = self.tape.record(ys, [self.p[name] for name in _STEP_WEIGHTS + _HEAD_WEIGHTS],
                                vjp)
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
    for ``batch`` = B, or over one C x d image as B = 1: B x m states step
    against B x C x m crops (one image's C x m crops keep no row axis), and
    each step gathers the B previous words with one ``take``.  Rows never
    mix: row b's values depend only on image b (a product over B rows may
    round them in the last digit otherwise than a one-image one).
    ``pick(probs)`` gets the n x K word distributions of the n rows still
    decoding, in row order, and returns their n next words; a row stops at
    EOS or at max_len.

    Runs ``_step_forward`` and the output head in plain numpy, with no tape
    and no bind.  ``params`` may be stacked (``stack_members``): the members
    then advance together on the previous words (M x B x m states) and
    their word distributions are averaged over the member axis (a single
    model's are used as is).
    """
    config, arrays = params.config, params.arrays
    feats = _check_feats(image_feats, config, batch)
    B, m = 1 if batch is None else batch, config.hidden_dim
    w, embed = {name: arrays[name] for name in _STEP_WEIGHTS}, arrays["embed"]
    members = embed.shape[:-2]  # (M,) when stacked, else ()
    bos_mask, sentinel_mask = _masks(config)
    # out_b + BOS mask once: the mask absorbs any logit, so the sum is the same
    out_W, head_b = arrays["out_W"], arrays["out_b"] + bos_mask
    feats_proj = _project(feats, arrays["attn_Wv"])
    h = c = ctx = np.zeros(members + (B, m))
    prev = np.full(B, config.bos_id)
    tokens: list[list[int]] = [[] for _ in range(B)]
    live = list(range(B))  # rows still decoding
    for _ in range(config.max_len):
        row, h, c, ctx, _, _ = _step_forward(w, h, c, ctx, embed.take(prev, axis=-2),
                                             feats_proj, sentinel_mask)
        probs = ad._softmax_values(row @ out_W + head_b)
        if members:  # the mean over members, as np.mean takes it
            probs = probs.sum(axis=0) / members[0]
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
