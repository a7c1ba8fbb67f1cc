"""Image-caption alignment scorers.

Two variants share a word LSTM:

- co-attention: image crops and caption words attend to each other through a
  bilinear correlation map; the score is the sigmoid of the inner product of
  the two attended embeddings.
- joint embedding: mean-pooled image features meet the last LSTM state
  through a bilinear similarity head.

Caption input is the raw token list of a ``TokenSequence`` (EOS included,
no BOS).  ``score_soft`` accepts relaxed token rows so generator gradients
can flow through the caption input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .captioner import (_GATES, InputError, TokenSequence, _check_feats, _fuse_gates,
                        _gate_names, _lstm_cell)


@dataclass(frozen=True)
class DiscriminatorConfig:
    vocab_size: int
    hidden_dim: int = 32
    num_crops: int = 4
    feature_dim: int = 16

    def __post_init__(self):
        for name in ("vocab_size", "hidden_dim", "num_crops", "feature_dim"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")


def _lstm_shapes(m: int) -> dict[str, tuple[int, int]]:
    shapes = {}
    for gate in _GATES:
        shapes[f"lstm_Wx_{gate}"] = (m, m)
        shapes[f"lstm_Wh_{gate}"] = (m, m)
        shapes[f"lstm_b_{gate}"] = (1, m)
    return shapes


def _coatt_shapes(config: DiscriminatorConfig) -> dict[str, tuple[int, int]]:
    K, m, d = config.vocab_size, config.hidden_dim, config.feature_dim
    shapes = {"embed": (K, m)}
    shapes.update(_lstm_shapes(m))
    shapes.update({
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
    })
    return shapes


def _jointemb_shapes(config: DiscriminatorConfig) -> dict[str, tuple[int, int]]:
    K, m, d = config.vocab_size, config.hidden_dim, config.feature_dim
    shapes = {"embed": (K, m)}
    shapes.update(_lstm_shapes(m))
    shapes.update({"img_W": (d, m), "head_M": (m, m)})
    return shapes


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


def _init_arrays(shapes, m, seed):
    rng = np.random.default_rng(seed)
    a = 1.0 / np.sqrt(m)
    return {name: rng.uniform(-a, a, shape) for name, shape in shapes.items()}


def init_coatt(config: DiscriminatorConfig, seed: int) -> DiscriminatorParams:
    return init_discriminator(config, seed, "coatt")


def init_jointemb(config: DiscriminatorConfig, seed: int) -> DiscriminatorParams:
    return init_discriminator(config, seed, "jointemb")


def init_discriminator(config: DiscriminatorConfig, seed: int,
                       variant: str) -> DiscriminatorParams:
    if variant not in _SHAPES:
        raise InputError(f"unknown discriminator variant {variant!r}")
    shapes = _SHAPES[variant](config)
    return DiscriminatorParams(config, _init_arrays(shapes, config.hidden_dim, seed),
                               variant)


class BoundDiscriminator:
    """Either discriminator variant bound to a tape."""

    def __init__(self, tape: ad.Tape, params: DiscriminatorParams):
        self.tape = tape
        self.config = params.config
        self.variant = params.variant
        self.p = {name: tape.tensor(arr) for name, arr in params.arrays.items()}
        # fused word-LSTM weight (2m x 4m, column blocks i, f, o, g) and bias
        self._W, self._b = _fuse_gates(self.p, [_gate_names(g) for g in _GATES])

    def _lstm_step(self, h, c, x):
        c_new, h_new = _lstm_cell([x, h], c, self._W, self._b)
        return h_new, c_new

    def hidden_states(self, word_vectors) -> ad.Tensor:
        """Stacked LSTM states, one row per consumed word vector (T x m)."""
        m = self.config.hidden_dim
        h = self.tape.tensor(np.zeros((1, m)))
        c = self.tape.tensor(np.zeros((1, m)))
        rows = []
        for x in word_vectors:
            h, c = self._lstm_step(h, c, x)
            rows.append(h)
        return ad.concat(rows, axis=0)

    def _hard_word_vectors(self, seq: TokenSequence):
        if not seq.tokens:
            raise InputError("caption is empty")
        K = self.config.vocab_size
        for tok in seq.tokens:
            if not (0 <= tok < K):
                raise InputError(f"invalid token id {tok}")
        return [ad.get_row(self.p["embed"], tok) for tok in seq.tokens]

    def _soft_word_vectors(self, soft_tokens):
        data = np.asarray(soft_tokens, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.config.vocab_size:
            raise InputError(f"soft tokens must be T x {self.config.vocab_size}")
        if data.shape[0] == 0:
            raise InputError("caption is empty")
        if np.any(data < 0):
            raise InputError("soft token rows must be nonnegative")
        rows = [self.tape.tensor(data[t : t + 1]) for t in range(data.shape[0])]
        return [ad.matmul(r, self.p["embed"]) for r in rows]

    def _soft_tensor_vectors(self, soft_rows: list[ad.Tensor]):
        return [ad.matmul(r, self.p["embed"]) for r in soft_rows]

    def forward(self, image_feats, word_vectors) -> dict:
        """Score from already-embedded word vectors.

        Returns score plus the attention vectors and pooled embeddings
        (alpha/beta are None for the joint-embedding variant).
        """
        p = self.p
        feats_t = self.tape.tensor(_check_feats(image_feats, self.config))
        H = self.hidden_states(word_vectors)  # T x m

        if self.variant == "jointemb":
            pooled = ad.reshape(ad.reduce_mean(feats_t, axis=0), (1, -1))
            e_img = ad.matmul(pooled, p["img_W"])                   # 1 x m
            e_cap = ad.narrow(H, 0, H.shape[0] - 1, 1)              # last state
            logit = ad.matmul(ad.matmul(e_img, p["head_M"]), ad.transpose(e_cap))
            return {"score": ad.sigmoid(ad.reshape(logit, ())), "alpha": None,
                    "beta": None, "e_img": e_img, "e_cap": e_cap}

        I = ad.matmul(feats_t, p["img_W"])                          # C x m
        Y = ad.tanh(ad.matmul(ad.matmul(I, p["bilinear_Q"]), ad.transpose(H)))  # C x T

        act_i = ad.tanh(ad.matmul(I, p["attn_WI"])
                        + ad.matmul(ad.matmul(Y, H), p["attn_WIh"]) + p["attn_bI"])
        alpha = ad.softmax(ad.transpose(ad.matmul(act_i, p["alpha_w"]) + p["alpha_b"]))

        act_s = ad.tanh(ad.matmul(H, p["attn_Wh"])
                        + ad.matmul(ad.matmul(ad.transpose(Y), I), p["attn_WhI"])
                        + p["attn_bS"])
        beta = ad.softmax(ad.transpose(ad.matmul(act_s, p["beta_w"]) + p["beta_b"]))

        e_img = ad.matmul(ad.matmul(alpha, I), p["out_UI"])         # 1 x m
        e_cap = ad.matmul(ad.matmul(beta, H), p["out_VS"])          # 1 x m
        logit = ad.matmul(e_img, ad.transpose(e_cap))
        return {"score": ad.sigmoid(ad.reshape(logit, ())), "alpha": alpha,
                "beta": beta, "e_img": e_img, "e_cap": e_cap}

    def score_sequence(self, image_feats, seq: TokenSequence) -> dict:
        return self.forward(image_feats, self._hard_word_vectors(seq))

    def score_soft_rows(self, image_feats, soft_rows: list[ad.Tensor]) -> dict:
        """Differentiable path for on-tape relaxed token rows."""
        return self.forward(image_feats, self._soft_tensor_vectors(soft_rows))


# ---------------------------------------------------------------------------
# plain-array front ends
# ---------------------------------------------------------------------------


def embed_caption(params, seq: TokenSequence) -> np.ndarray:
    """LSTM hidden state after each token, stacked as a T x m array."""
    tape = ad.Tape(grad=False)
    bound = BoundDiscriminator(tape, params)
    return bound.hidden_states(bound._hard_word_vectors(seq)).data.copy()


def coatt_score(params: DiscriminatorParams, image_feats, seq: TokenSequence):
    """Returns (score, alpha over crops, beta over words, image embedding,
    caption embedding)."""
    if params.variant != "coatt":
        raise InputError("coatt_score needs co-attention parameters")
    out = BoundDiscriminator(ad.Tape(grad=False), params).score_sequence(image_feats, seq)
    return (out["score"].item(), out["alpha"].data.reshape(-1).copy(),
            out["beta"].data.reshape(-1).copy(), out["e_img"].data.reshape(-1).copy(),
            out["e_cap"].data.reshape(-1).copy())


def jointemb_score(params: DiscriminatorParams, image_feats, seq: TokenSequence) -> float:
    if params.variant != "jointemb":
        raise InputError("jointemb_score needs joint-embedding parameters")
    out = BoundDiscriminator(ad.Tape(grad=False), params).score_sequence(image_feats, seq)
    return out["score"].item()


def score(params, image_feats, seq: TokenSequence) -> float:
    """Variant-agnostic scalar score."""
    bound = BoundDiscriminator(ad.Tape(grad=False), params)
    return bound.score_sequence(image_feats, seq)["score"].item()


def score_soft(params, image_feats, soft_tokens) -> float:
    """Score a caption given as rows of token weights (simplex or one-hot)."""
    tape = ad.Tape(grad=False)
    bound = BoundDiscriminator(tape, params)
    vectors = bound._soft_word_vectors(soft_tokens)
    return bound.forward(image_feats, vectors)["score"].item()
