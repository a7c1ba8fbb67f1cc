"""Attention LSTM caption generator.

The decoder feeds two things into the LSTM at every step: the embedding of
the previous word and the previous step's attention mixture (image crops plus
a visual sentinel), so the network is aware of the attentional context it
used last.  The sentinel competes with the image crops inside one
(C+1)-way softmax; its weight is exposed as the sentinel gate.

A plain attention path without the sentinel and without context feedback is
available via ``CaptionerConfig.attention = "att2all"``.

Teacher forcing takes a ``CaptionBatch`` of B captions against B x C x d
features; ``CaptionBatch.one_hot`` gives the padded one-hot rows that both
models read.  The decoders ``greedy_decode``, ``sample_sentence`` and
``ensemble_decode`` take one C x d image, ``greedy_decode_batch`` B of them.
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


class BoundCaptioner:
    """Captioner parameters bound to a tape, exposing differentiable steps.

    Used directly by the training losses; the module-level functions below
    wrap it for plain (non-gradient) decoding.

    ``step`` returns the output row ``h' + ctx'``; ``logits`` projects one
    or several stacked output rows to word scores in one affine node.

    The arrays of ``params`` may carry a leading member axis (M x ...,
    built by ``stack_members``): the bound model then runs M same-config
    models as one, every tensor of a step carries the member axis (the zero
    state is M x 1 x m, or M x B x 1 x m for B rows, whose weights need a
    row axis: see ``_decode``), and each step is one set of nodes for all
    members.
    """

    def __init__(self, tape: ad.Tape, params: CaptionerParams):
        self.tape = tape
        self.config = params.config
        self.p = {name: tape.tensor(arr) for name, arr in params.arrays.items()}
        mask = np.zeros(params.config.vocab_size)
        mask[params.config.bos_id] = _MASK
        self._bos_mask = tape.tensor(mask.reshape(1, -1))
        self._members = params.arrays["embed"].shape[:-2]  # (M,) when stacked, else ()
        self._zeros = {}  # zero leaves by shape, bound on first use
        self._context_aware = params.config.attention == "context_aware"
        if not self._context_aware:  # the sentinel slot gets exactly zero attention
            scores = np.zeros((1, params.config.num_crops + 1))
            scores[0, -1] = _MASK
            self._sentinel_mask = tape.tensor(scores)

    def project_feats(self, image_feats, batch: int | None = None) -> ad.Tensor:
        """Crops projected to the attention width: C x m, or B x C x m for
        ``batch`` = B images given as B x C x d."""
        feats = _check_feats(image_feats, self.config, batch)
        return ad.matmul(self.tape.tensor(feats), self.p["attn_Wv"])

    def _zero(self, shape) -> ad.Tensor:
        if shape not in self._zeros:
            self._zeros[shape] = self.tape.tensor(np.zeros(shape))
        return self._zeros[shape]

    def zero_state(self, batch: int | None = None):
        """Zero (h, c, ctx), 1 x m per member, or B x 1 x m for ``batch`` = B
        rows; the first-step context is defined as the zero vector."""
        rows = () if batch is None else (batch,)
        zero = self._zero(self._members + rows + (1, self.config.hidden_dim))
        return zero, zero, zero

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
        the output row to ``logits`` for word scores.  Every operand may carry
        leading axes (members, batch rows), e.g. B x 1 x m states against
        B x C x m crops.  The last slot of
        ``attn`` is the sentinel gate.  The sentinel is the cell's second
        output gate applied to tanh(c'), stacked as one more attendable row
        under the projected crops, so the crop and sentinel scores come from
        one (C+1)-way score pass.  In att2all mode the context feedback is
        zeroed and the sentinel slot of the attention vector is exactly zero.
        """
        p = self.p
        if not self._context_aware:
            ctx = self._zero(h.shape)
        c_new, h_new, sentinel = _lstm_cell([x_embed, ctx, h], c, p["lstm_W"],
                                              p["lstm_b"])
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

    def sequence_log_prob(self, image_feats, batch: CaptionBatch) -> ad.Tensor:
        """Teacher-forced log p(caption | image) of each of the B captions of
        ``batch`` against B x C x d features, as B differentiable values."""
        return self.sequence_log_prob_and_logits(image_feats, batch)[0]

    def sequence_log_prob_and_logits(self, image_feats, batch: CaptionBatch):
        """As ``sequence_log_prob`` but also returns the B x T x K logit
        tensor (pre-mask, row t for step t, T the longest caption); callers
        can harvest its gradient after backward.

        The one teacher-forced loop.  The captions are padded to the longest,
        and each step advances B x 1 x m rows from one bind.  The pass is
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
        feats_proj = self.project_feats(image_feats, batch=B)
        h, c, ctx = self.zero_state(B)
        rows = []
        for t in range(T):
            x = ad.get_row(self.p["embed"], prev[:, t])  # B x 1 x m
            row, h, c, ctx, _ = self.step(h, c, ctx, x, feats_proj)
            rows.append(row)
        logits = self.logits(ad.concat(rows, axis=-2))  # B x T x K
        picked = ad.reduce_sum(ad.mul(self.word_dist(logits), picks), axis=-1)
        pad = 1.0 - picks.sum(axis=-1)
        if pad.any():
            picked = ad.add(picked, pad)
        return ad.reduce_sum(ad.log(picked), axis=-1), logits


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
    each step gathers the B previous words with one vector ``get_row``.
    Rows never mix, so row b decodes as image b would alone.  With
    ``batch`` None, ``image_feats`` is one C x d image, whose 1 x m states
    keep no row axis (so one image costs what it cost before the loop took
    batches).  ``pick(probs)`` gets the n x K word distributions of the n
    rows still decoding, in row order, and returns their n next words; a
    row stops at EOS or at max_len.

    ``params`` may be stacked (``stack_members``): the members then advance
    together on the previous words and their word distributions are averaged
    over the member axis (a single model's are used as is).
    """
    config = params.config
    B = 1 if batch is None else batch
    stacked = params.arrays["embed"].ndim == 3
    if stacked and batch is not None:
        # every weight gets a length-1 row axis after the member axis, so it
        # broadcasts over the B rows (M x B x ... tensors); get_row gathers
        # the embedding's rows into that axis itself
        params = CaptionerParams(config, {name: arr if name == "embed" else arr[:, None]
                                          for name, arr in params.arrays.items()})
    bound = BoundCaptioner(ad.Tape(grad=False), params)
    feats_proj = bound.project_feats(image_feats, batch)
    h, c, ctx = bound.zero_state(batch)
    prev = np.full(B, config.bos_id)
    tokens: list[list[int]] = [[] for _ in range(B)]
    live = list(range(B))  # rows still decoding
    for _ in range(config.max_len):
        ids = prev if batch is not None else int(prev[0])  # one image: no row axis
        row, h, c, ctx, _ = bound.step(h, c, ctx, ad.get_row(bound.p["embed"], ids),
                                       feats_proj)
        probs = bound.word_dist(bound.logits(row)).data  # (M x) (B x) 1 x K
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
