"""Image-caption alignment scorers.

Two variants share a word LSTM:

- co-attention: image crops and caption words attend to each other through a
  bilinear correlation map; the score is the sigmoid of the inner product of
  the two attended embeddings.
- joint embedding: mean-pooled image features meet the last LSTM state
  through a bilinear similarity head.

Caption input is a batch of B token rows against B x C x d image features:
the one-hot rows of a ``CaptionBatch`` (``CaptionBatch.one_hot``: the raw
token lists, EOS included, no BOS), or relaxed rows, so generator gradients
can flow through the caption input.  Captions of different lengths are
padded to the longest and masked (see ``BoundDiscriminator.forward``).
The word LSTM runs in plain numpy as one tape node; attention and heads
are tape ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .captioner import (_MASK, CaptionBatch, InputError, _check_feats, _check_field_types,
                        _init_arrays)


@dataclass(frozen=True)
class DiscriminatorConfig:
    vocab_size: int
    hidden_dim: int = 32
    num_crops: int = 4
    feature_dim: int = 16

    def __post_init__(self):
        _check_field_types(self)
        for name in ("vocab_size", "hidden_dim", "num_crops", "feature_dim"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")


def _lstm_shapes(config: DiscriminatorConfig) -> dict[str, tuple[int, int]]:
    """Word embedding and the fused word-LSTM cell of [x | h] (column blocks
    i, f, o, g), shared by both variants."""
    K, m = config.vocab_size, config.hidden_dim
    return {"embed": (K, m), "lstm_W": (2 * m, 4 * m), "lstm_b": (1, 4 * m)}


def _coatt_shapes(config: DiscriminatorConfig) -> dict[str, tuple[int, int]]:
    m, d = config.hidden_dim, config.feature_dim
    return _lstm_shapes(config) | {
        "img_W": (d, m),
        "bilinear_Q": (m, m),
        "attn_WI": (m, m),
        "attn_WIh": (m, m),
        "attn_Wh": (m, m),
        "attn_WhI": (m, m),
        "attn_bI": (1, m),
        "attn_bS": (1, m),
        "alpha_w": (m, 1),
        "alpha_b": (1, 1),
        "beta_w": (m, 1),
        "beta_b": (1, 1),
        "out_UI": (m, m),
        "out_VS": (m, m),
    }


def _jointemb_shapes(config: DiscriminatorConfig) -> dict[str, tuple[int, int]]:
    m, d = config.hidden_dim, config.feature_dim
    return _lstm_shapes(config) | {"img_W": (d, m), "head_M": (m, m)}


_SHAPES = {"coatt": _coatt_shapes, "jointemb": _jointemb_shapes}
VARIANTS = tuple(_SHAPES)


@dataclass
class DiscriminatorParams:
    """Parameters of either variant; ``variant`` is one of ``VARIANTS``."""

    config: DiscriminatorConfig
    arrays: dict[str, np.ndarray]
    variant: str

    def copy(self) -> "DiscriminatorParams":
        return DiscriminatorParams(self.config,
                                   {k: v.copy() for k, v in self.arrays.items()},
                                   self.variant)


def param_shapes(config: DiscriminatorConfig, variant: str) -> dict[str, tuple[int, int]]:
    """The array shapes of ``variant``, which must be one of ``VARIANTS``."""
    if variant not in _SHAPES:
        raise InputError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return _SHAPES[variant](config)


def init_discriminator(config: DiscriminatorConfig, seed: int,
                       variant: str) -> DiscriminatorParams:
    return DiscriminatorParams(
        config, _init_arrays(param_shapes(config, variant), config.hidden_dim, seed), variant)


class BoundDiscriminator:
    """Either discriminator variant bound to a tape.

    ``forward`` scores a batch of B captions, each against its own image,
    as one padded batch.
    """

    def __init__(self, tape: ad.Tape, params: DiscriminatorParams):
        self.tape = tape
        self.config = params.config
        self.variant = params.variant
        self.p = {name: tape.tensor(arr) for name, arr in params.arrays.items()}

    def embed_rows(self, rows) -> ad.Tensor:
        """Word vectors ``rows @ embed`` (B x T x m) of B x T x K token rows:
        one-hot rows for hard tokens, simplex rows for relaxed ones.  Plain
        rows are a constant, so their product is one node whose only parent
        is ``embed``."""
        data = rows.data if isinstance(rows, ad.Tensor) else np.asarray(rows)
        K = self.config.vocab_size
        if data.ndim != 3 or data.shape[-1] != K:
            raise InputError(f"token rows must be B x T x {K}, got {data.shape}")
        if data.shape[1] == 0:
            raise InputError("caption is empty")
        if np.any(data < 0):
            raise InputError("token rows must be nonnegative")
        embed = self.p["embed"]
        if isinstance(rows, ad.Tensor):
            return ad.matmul(rows, embed)
        data, shape = data.astype(np.float64, copy=False), embed.shape
        return self.tape.record(data @ embed.data, [embed],
                                lambda g: (ad._weight_grad(data, g, shape),))

    def hidden_states(self, word_vectors: ad.Tensor) -> ad.Tensor:
        """LSTM state after each word vector, B x T x m (rows past a
        caption's end are states over padding; ``forward`` masks them), as
        one node that steps ``ad._lstm_cell_values`` over [x | h].  Its VJP
        walks the steps backward and adds up the weight gradients one step
        at a time, latest first, as the per-step tape ops did."""
        W, b, X = self.p["lstm_W"].data, self.p["lstm_b"].data, word_vectors.data
        B, T, m = X.shape
        h = c = np.zeros((B, 1, m))
        H, saved = np.empty(X.shape), []
        for t in range(T):
            u = np.concatenate([X[:, t : t + 1], h], axis=-1)
            c, out_rows, cell = ad._lstm_cell_values(u @ W + b, c)
            h = H[:, t : t + 1] = out_rows[..., 0, :]
            if self.tape.grad:  # a no-grad tape keeps no per-step arrays
                saved.append((u, cell))

        def vjp(g_H):  # holds arrays only (see ``BoundCaptioner.step``)
            g_X, g_W, g_b, g_c, g_h_next = np.empty((B, T, m)), 0.0, 0.0, 0.0, 0.0
            for t in reversed(range(T)):
                u, cell = saved[t]
                g_pre, g_c = ad._lstm_cell_reverse(ad._lstm_cell_slopes(cell), g_c,
                                                   g_H[:, t : t + 1] + g_h_next)
                g_u = g_pre @ W.T
                g_X[:, t : t + 1], g_h_next = g_u[..., :m], g_u[..., m:]
                g_W = g_W + ad._weight_grad(u, g_pre, W.shape)
                g_b = g_b + ad._unbroadcast(g_pre, b.shape)
            return g_W, g_b, g_X

        return self.tape.record(H, [self.p["lstm_W"], self.p["lstm_b"], word_vectors], vjp)

    def forward(self, image_feats, rows, lengths) -> dict:
        """Scores of B captions given as padded B x T x K token rows.

        ``image_feats`` is B x C x d (one image per caption) and ``lengths``
        holds each caption's length.  Padding is masked three ways: padded
        LSTM states are zeroed, so their columns of the correlation map are
        0; co-attention's beta is a softmax over the valid words only; joint
        embedding reads each caption's last valid state through a one-hot
        row.

        Returns the scores (B,) plus the attention rows alpha (B x 1 x C)
        and beta (B x 1 x T), None for the joint-embedding variant, and the
        pooled embeddings e_img, e_cap (B x 1 x m).
        """
        p = self.p
        X = self.embed_rows(rows)
        B, T = X.shape[:2]
        lengths = np.asarray(lengths)
        if lengths.shape != (B,) or np.any(lengths < 1) or np.any(lengths > T):
            raise InputError(f"lengths must be {B} values in 1..{T}")
        feats_t = self.tape.tensor(_check_feats(image_feats, self.config, B))
        valid = (np.arange(T) < lengths[:, None]).astype(np.float64)  # B x T
        H = ad.mul(self.hidden_states(X), valid[:, :, None])         # B x T x m

        if self.variant == "jointemb":
            pooled = ad.reshape(ad.reduce_mean(feats_t, axis=1), (B, 1, -1))
            e_img = ad.matmul(pooled, p["img_W"])                   # B x 1 x m
            last = np.zeros((B, 1, T))
            last[np.arange(B), 0, lengths - 1] = 1.0
            e_cap = ad.matmul(last, H)                              # last valid state
            logit = ad.matmul(ad.matmul(e_img, p["head_M"]), ad.transpose(e_cap))
            return {"score": ad.sigmoid(ad.reshape(logit, (B,))), "alpha": None,
                    "beta": None, "e_img": e_img, "e_cap": e_cap}

        I = ad.matmul(feats_t, p["img_W"])                          # B x C x m
        Y = ad.tanh(ad.matmul(ad.matmul(I, p["bilinear_Q"]), ad.transpose(H)))  # B x C x T

        act_i = ad.tanh(ad.matmul(I, p["attn_WI"])
                        + ad.matmul(ad.matmul(Y, H), p["attn_WIh"]) + p["attn_bI"])
        alpha = ad.softmax(ad.transpose(ad.matmul(act_i, p["alpha_w"]) + p["alpha_b"]))

        act_s = ad.tanh(ad.matmul(H, p["attn_Wh"])
                        + ad.matmul(ad.matmul(ad.transpose(Y), I), p["attn_WhI"])
                        + p["attn_bS"])
        word_mask = np.where(valid, 0.0, _MASK)[:, None, :]        # B x 1 x T
        beta = ad.softmax(ad.transpose(ad.matmul(act_s, p["beta_w"]) + p["beta_b"])
                          + word_mask)

        e_img = ad.matmul(ad.matmul(alpha, I), p["out_UI"])         # B x 1 x m
        e_cap = ad.matmul(ad.matmul(beta, H), p["out_VS"])          # B x 1 x m
        logit = ad.matmul(e_img, ad.transpose(e_cap))
        return {"score": ad.sigmoid(ad.reshape(logit, (B,))), "alpha": alpha,
                "beta": beta, "e_img": e_img, "e_cap": e_cap}

    def score_sequence(self, image_feats, batch: CaptionBatch) -> dict:
        """``forward`` on the B hard captions of ``batch`` against B x C x d
        features."""
        if not isinstance(batch, CaptionBatch):
            raise InputError(f"expected a CaptionBatch, got {type(batch).__name__}")
        return self.forward(image_feats, *batch.one_hot(self.config.vocab_size))

    def score_soft_rows(self, image_feats, soft_rows: list[ad.Tensor]) -> dict:
        """``forward`` (B = 1) on one caption given as on-tape relaxed token
        rows (each n x K) against its one C x d image, so gradients reach the
        rows."""
        if not soft_rows:
            raise InputError("caption is empty")
        rows = ad.concat(soft_rows, axis=0) if len(soft_rows) > 1 else soft_rows[0]
        if rows.data.ndim != 2:
            raise InputError(f"soft tokens must be T x {self.config.vocab_size}")
        return self.forward(np.asarray(image_feats, dtype=np.float64)[None],
                            ad.reshape(rows, (1,) + rows.shape), [rows.shape[0]])


# ---------------------------------------------------------------------------
# plain-array front end
# ---------------------------------------------------------------------------


def score(params, image_feats, batch: CaptionBatch) -> np.ndarray:
    """The B scores of the captions of ``batch`` against B x C x d features,
    as a plain array from one no-grad bind (either variant).  For alpha,
    beta or relaxed rows, bind on ``ad.Tape(grad=False)`` and call
    ``score_sequence`` or ``forward``."""
    bound = BoundDiscriminator(ad.Tape(grad=False), params)
    return bound.score_sequence(image_feats, batch)["score"].data
