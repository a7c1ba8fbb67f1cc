"""Synthetic compositional scenes, feature-file ingestion and checkpoints.

Scenes pair an (object, context) concept with crop features built as
``object prototype + context offset + noise``; prototypes and offsets are
orthonormal, so the signal is learnable but never trivially separable.
Captions come from five paraphrase templates over object/context synonyms
with small random decorations.  A held-out set of (object, context) pairs
that never co-occur in training forms the out-of-context split.

File formats (also documented in the README):

- feature file: magic ``SGF1``, little-endian u32 count, u32 crops, u32
  feature dim, then count*crops*dim little-endian float32 values.
- checkpoint: magic ``SGCK``, u32 version (2), u32 section count, a section
  table of (u16 name length, name, u64 payload length) records, then the
  payloads in table order.  Section names are ``meta``, ``gen``, ``disc``,
  ``gen_opt``, ``disc_opt`` and ``aux``; any other is rejected.  Tensor
  payloads store (u16 name length, name, u8 rank, u32 dims..., float64
  little-endian data) per entry; rank 0 keeps one placeholder dim.
  Version 2 stores each LSTM as its fused ``lstm_W``/``lstm_b``; version-1
  files (per-gate arrays, scalars as rank 1) still load, converted to the
  fused layout.  ``aux`` holds named arrays; a malformed CIDEr idf or
  semantic-scorer table in it is rejected (``NGramIdf.from_aux``,
  ``SemanticScorer.from_aux``, against the stored captioner's vocabulary
  and image width).  Stored model configs are rebuilt as
  ``cls(**stored)``: ``CaptionerConfig`` and ``DiscriminatorConfig`` check
  their own field types.

Both formats are read through one bounds-checked cursor, ``_Reader``; a
field that runs past the end raises ``FormatError`` at the offset where it
starts.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ParameterError  # also raised for infeasible dataset requests
from .captioner import (CaptionerConfig, CaptionerParams, InputError, TokenSequence,
                        _param_shapes)
from .discriminator import VARIANTS, DiscriminatorConfig, DiscriminatorParams, param_shapes
from .metrics import NGramIdf, SemanticScorer


class FormatError(ValueError):
    """Malformed file; carries the byte offset of the failure."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (at byte {offset})")
        self.offset = offset


class VersionError(FormatError):
    """Unknown magic or unsupported container version."""


class _Reader:
    """A bounds-checked cursor over ``blob``, which starts at byte ``base``
    of its file.  A field that runs past the end raises ``FormatError`` with
    the caller's message at the file offset where that field starts."""

    def __init__(self, blob: bytes, base: int = 0, pos: int = 0):
        self.blob, self.base, self.pos = blob, base, pos

    def skip(self, n: int, what: str) -> int:
        """Step over ``n`` bytes; returns the position they start at."""
        start = self.pos
        if start + n > len(self.blob):
            raise FormatError(what, offset=self.base + start)
        self.pos += n
        return start

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self.skip(struct.calcsize(fmt), what))

    def name(self, what: str) -> str:
        """A u16 length, then that many bytes of UTF-8."""
        (n,) = self.unpack("<H", what)
        start = self.skip(n, what)
        raw = self.blob[start : self.pos]
        try:
            return raw.decode()
        except UnicodeDecodeError:
            raise FormatError(f"name {raw!r} is not UTF-8", offset=self.base + start) from None


# ---------------------------------------------------------------------------
# vocabulary and caption templates
# ---------------------------------------------------------------------------

_TEMPLATE_WORDS = ["a", "the", "one", "in", "on", "near", "sits", "rests",
                   "seen", "by", "there", "is", "at"]
_DECOR_WORDS = ["today", "quietly", "outside", "alone", "nearby", "still"]


@dataclass(frozen=True)
class VocabSpec:
    words_per_object: int = 2
    words_per_context: int = 2


@dataclass
class Vocabulary:
    words: list[str]
    bos_id: int = 0
    eos_id: int = 1

    @property
    def size(self) -> int:
        return len(self.words)

    def decode(self, tokens) -> str:
        return " ".join(self.words[t] for t in tokens)


def _build_vocab(n_objects, n_contexts, spec: VocabSpec):
    words = ["<bos>", "<eos>"]
    obj_ids, ctx_ids = [], []
    for o in range(n_objects):
        ids = []
        for s in range(spec.words_per_object):
            ids.append(len(words))
            words.append(f"obj{o}" if s == 0 else f"obj{o}_{s}")
        obj_ids.append(ids)
    for c in range(n_contexts):
        ids = []
        for s in range(spec.words_per_context):
            ids.append(len(words))
            words.append(f"ctx{c}" if s == 0 else f"ctx{c}_{s}")
        ctx_ids.append(ids)
    template_ids = {}
    for w in _TEMPLATE_WORDS + _DECOR_WORDS:
        template_ids[w] = len(words)
        words.append(w)
    return Vocabulary(words), obj_ids, ctx_ids, template_ids


def _caption_templates(w):
    """Five paraphrase skeletons; OBJ/CTX are filled per image, and template
    2 also takes the image's drawn decoration word."""
    return [
        lambda o, c: [w["a"], o, w["in"], w["the"], c],
        lambda o, c: [w["the"], o, w["sits"], w["near"], w["the"], c],
        lambda o, c, d: [w["one"], o, w["seen"], w["by"], w["the"], c, d],
        lambda o, c: [o, w["at"], w["the"], c],
        lambda o, c: [w["there"], w["is"], w["a"], o, w["rests"], w["on"], w["the"], c],
    ]


# ---------------------------------------------------------------------------
# scenes and splits
# ---------------------------------------------------------------------------


@dataclass
class SyntheticScene:
    features: np.ndarray              # crops x feature_dim
    labels: list[tuple[int, int]]     # (object id, context id) concepts
    image_id: str


@dataclass
class DatasetSplit:
    train: list
    val: list
    test: list
    ooc: list
    vocab: Vocabulary
    num_crops: int
    feature_dim: int
    train_pairs: set = field(default_factory=set)
    ooc_pairs: set = field(default_factory=set)

    def split(self, name: str) -> list:
        if name not in ("train", "val", "test", "ooc"):
            raise InputError(f"unknown split {name!r}")
        return getattr(self, name)


def check_dataset_request(n_objects: int, n_contexts: int, n_images: int, feature_dim: int,
                          num_crops: int, ooc_fraction: float, vocab_spec: VocabSpec):
    """``ParameterError``, led by the argument at fault, for a dataset
    ``generate_dataset`` cannot build."""
    for name in ("words_per_object", "words_per_context"):
        if getattr(vocab_spec, name) < 1:
            raise ParameterError(f"{name} must be >= 1, got {getattr(vocab_spec, name)}")
    if num_crops < 1:
        raise ParameterError(f"num_crops must be >= 1, got {num_crops}")
    if not 0.0 <= ooc_fraction <= 1.0:
        raise ParameterError(f"ooc_fraction must be in [0, 1], got {ooc_fraction}")
    if n_objects * n_contexts < 4:
        raise ParameterError("n_objects * n_contexts must be >= 4 object-context pairs")
    if n_objects + n_contexts > feature_dim:
        raise ParameterError(
            f"feature_dim={feature_dim} too small for {n_objects} objects + "
            f"{n_contexts} contexts (orthogonal prototypes)")
    if n_images < 4:
        raise ParameterError(f"n_images must be >= 4, got {n_images}")


def generate_dataset(seed: int, n_objects: int, n_contexts: int, n_images: int,
                     vocab_spec: VocabSpec | None = None, num_crops: int = 4,
                     feature_dim: int = 16, noise: float = 0.1,
                     ooc_fraction: float = 0.15) -> DatasetSplit:
    """Build train/val/test plus an out-of-context split from one seed.

    A biased object-context co-occurrence drives train/val/test; a reserved
    set of pairs that never co-occur there supplies the ooc images.
    """
    spec = vocab_spec or VocabSpec()
    check_dataset_request(n_objects, n_contexts, n_images, feature_dim, num_crops,
                          ooc_fraction, spec)

    rng = np.random.default_rng(seed)
    vocab, obj_ids, ctx_ids, w = _build_vocab(n_objects, n_contexts, spec)
    templates = _caption_templates(w)

    # orthonormal concept directions
    basis = np.linalg.qr(rng.normal(size=(feature_dim, feature_dim)))[0].T
    protos = basis[:n_objects]
    offsets = basis[n_objects : n_objects + n_contexts]

    # hold out pairs that keep every object and context represented in train
    all_pairs = [(o, c) for o in range(n_objects) for c in range(n_contexts)]
    order = [all_pairs[i] for i in rng.permutation(len(all_pairs))]
    n_hold = max(1, int(round(ooc_fraction * len(all_pairs))))
    obj_left = {o: n_contexts for o in range(n_objects)}
    ctx_left = {c: n_objects for c in range(n_contexts)}
    ooc_pairs: set = set()
    for o, c in order:
        if len(ooc_pairs) == n_hold:
            break
        if obj_left[o] > 1 and ctx_left[c] > 1:
            ooc_pairs.add((o, c))
            obj_left[o] -= 1
            ctx_left[c] -= 1
    if not ooc_pairs:
        raise ParameterError("could not hold out any object-context pair")
    train_pairs = [p for p in all_pairs if p not in ooc_pairs]

    # biased co-occurrence: each object prefers a random context ordering
    prefs = {o: rng.permutation(n_contexts) for o in range(n_objects)}
    weights = np.array([1.0 / (1.0 + int(np.where(prefs[o] == c)[0][0]))
                        for o, c in train_pairs])
    weights /= weights.sum()
    # the draw of rng.choice(len(train_pairs), p=weights), without its
    # per-call validation of p
    cdf = weights.cumsum()
    cdf /= cdf[-1]

    def make_image(pair, image_id):
        o, c = pair
        feats = (protos[o] + offsets[c]
                 + noise * rng.normal(size=(num_crops, feature_dim)))
        scene = SyntheticScene(feats, [(o, c)], image_id)
        refs = []
        for i, template in enumerate(templates):
            o_word = obj_ids[o][i % len(obj_ids[o])]
            c_word = ctx_ids[c][i % len(ctx_ids[c])]
            if i == 2:
                decor = w[_DECOR_WORDS[int(rng.integers(len(_DECOR_WORDS)))]]
                tokens = templates[i](o_word, c_word, decor)
            else:
                tokens = template(o_word, c_word)
            refs.append(TokenSequence(list(tokens) + [vocab.eos_id], True))
        return scene, refs

    n_train = max(1, int(round(0.7 * n_images)))
    n_val = max(1, int(round(0.15 * n_images)))
    n_test = max(1, n_images - n_train - n_val)
    n_ooc = max(2, int(round(0.15 * n_images)))

    splits = {"train": [], "val": [], "test": [], "ooc": []}
    counter = 0
    for name, count in (("train", n_train), ("val", n_val), ("test", n_test)):
        for _ in range(count):
            pair = train_pairs[int(cdf.searchsorted(rng.random(), side="right"))]
            splits[name].append(make_image(pair, f"{name}-{counter}"))
            counter += 1
    ooc_list = sorted(ooc_pairs)
    for _ in range(n_ooc):
        pair = ooc_list[int(rng.integers(len(ooc_list)))]
        splits["ooc"].append(make_image(pair, f"ooc-{counter}"))
        counter += 1

    dataset = DatasetSplit(splits["train"], splits["val"], splits["test"],
                           splits["ooc"], vocab, num_crops, feature_dim,
                           train_pairs=set(train_pairs), ooc_pairs=set(ooc_pairs))
    assert not (dataset.ooc_pairs & dataset.train_pairs)
    return dataset


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------

_FEATURE_MAGIC = b"SGF1"


def write_features(path, feature_arrays):
    """Write crop features for several images to the binary feature format."""
    arrays = [np.asarray(a, dtype=np.float32) for a in feature_arrays]
    if not arrays:
        raise InputError("no feature arrays to write")
    shape = arrays[0].shape
    if len(shape) != 2 or any(a.shape != shape for a in arrays) or 0 in shape:
        raise InputError("all feature arrays must share one nonempty crops x dim shape")
    with open(path, "wb") as fh:
        fh.write(_FEATURE_MAGIC)
        fh.write(struct.pack("<III", len(arrays), shape[0], shape[1]))
        for a in arrays:
            fh.write(a.astype("<f4").tobytes())


def load_features(path, expected_crops=None, expected_dim=None):
    """Parse a feature file into scenes (labels unknown for external files)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _FEATURE_MAGIC:
        raise FormatError("bad feature-file magic", offset=0)
    count, crops, dim = _Reader(blob, pos=4).unpack("<III", "truncated feature-file header")
    for offset, name, value in ((4, "image count", count), (8, "crops", crops),
                                (12, "dim", dim)):
        if value == 0:
            raise FormatError(f"feature-file header has zero {name}", offset=offset)
    if expected_crops is not None and crops != expected_crops:
        raise FormatError(f"expected {expected_crops} crops, file has {crops}", offset=8)
    if expected_dim is not None and dim != expected_dim:
        raise FormatError(f"expected dim {expected_dim}, file has {dim}", offset=12)
    need = 16 + 4 * count * crops * dim
    if len(blob) != need:
        raise FormatError(
            f"feature payload has {len(blob) - 16} bytes, expected {need - 16}",
            offset=min(len(blob), need))
    flat = np.frombuffer(blob, dtype="<f4", offset=16).astype(np.float64)
    scenes = []
    for i in range(count):
        feats = flat[i * crops * dim : (i + 1) * crops * dim].reshape(crops, dim)
        scenes.append(SyntheticScene(feats, [], f"ext-{i}"))
    return scenes


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"SGCK"
_CKPT_VERSION = 2
_CKPT_SECTIONS = ("meta", "gen", "disc", "gen_opt", "disc_opt", "aux")

# Version 1 stored each LSTM gate as three arrays (``{}`` = Wx, Wh or b),
# listed here in the column-block order of the fused cell.
_V1_GATES = {"gen": ("lstm_{}_i", "lstm_{}_f", "lstm_{}_o", "sent_{}", "lstm_{}_g"),
             "disc": ("lstm_{}_i", "lstm_{}_f", "lstm_{}_o", "lstm_{}_g")}


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    def copy(self) -> AdamState:
        return AdamState({k: a.copy() for k, a in self.m.items()},
                         {k: a.copy() for k, a in self.v.items()}, self.step)


@dataclass
class Checkpoint:
    captioner: CaptionerParams | None
    discriminator: DiscriminatorParams | None
    gen_opt: AdamState | None
    disc_opt: AdamState | None
    config: dict
    rng_state: dict | None
    epoch: int
    aux: dict = field(default_factory=dict)  # extra named float64 arrays


def _pack_table(arrays: dict[str, np.ndarray]) -> bytes:
    chunks = [struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float64)  # keeps rank 0
        nb = name.encode()
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{max(arr.ndim, 1)}I",
                                  *(arr.shape if arr.ndim else (1,))))
        chunks.append(arr.astype("<f8").tobytes())
    return b"".join(chunks)


def _unpack_table(blob: bytes, base: int) -> dict[str, np.ndarray]:
    reader, what = _Reader(blob, base), "truncated tensor table"
    (count,) = reader.unpack("<I", what)
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = reader.name(what)
        (ndim,) = reader.unpack("<B", what)
        dims = reader.unpack(f"<{max(ndim, 1)}I", what)
        size = math.prod(dims) if ndim else 1
        start = reader.skip(8 * size, what)
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=start).copy()
        arrays[name] = arr.reshape(dims if ndim else ())
    if reader.pos != len(blob):
        raise FormatError(f"{len(blob) - reader.pos} bytes left over in a tensor table",
                          offset=base + reader.pos)
    return arrays


def _config_from_meta(cls, raw, what: str):
    """``cls(**raw)`` for a config stored in meta, or ``FormatError``; the
    config classes check their own field types."""
    if not isinstance(raw, dict):
        raise FormatError(f"{what} is not a JSON object", offset=12)
    try:
        return cls(**raw)
    except (TypeError, InputError) as err:
        raise FormatError(f"{what} is not a valid {cls.__name__}: {err}",
                          offset=12) from None


def _check_shapes(arrays: dict[str, np.ndarray], shapes: dict, section: str, offset: int):
    """Every array the config implies, with its shape, and no other."""
    missing, extra = sorted(set(shapes) - set(arrays)), sorted(set(arrays) - set(shapes))
    if missing or extra:
        raise FormatError(f"section {section!r} does not match its config: missing "
                          f"{missing}, unexpected {extra}", offset=offset)
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise FormatError(f"section {section!r} array {name!r} has shape "
                              f"{arrays[name].shape}, its config implies {shape}",
                              offset=offset)


def _fuse_v1(table, model: str, shape, prefix: str, section: str, offset: int):
    """Replace the version-1 per-gate LSTM arrays named ``prefix`` + name in
    ``table`` by the fused ``lstm_W`` (``shape``, from the config) and
    ``lstm_b``: each gate's ``[W_x; W_h; b]`` is its (rows + 1) x m block."""
    gates = _V1_GATES[model]
    rows, m = shape[0], shape[1] // len(gates)
    want = [(rows - m, m), (m, m), (1, m)]
    blocks = []
    for gate in gates:
        names = [prefix + gate.format(part) for part in ("Wx", "Wh", "b")]
        parts = [table.pop(name, None) for name in names]
        if [None if p is None else p.shape for p in parts] != want:
            raise FormatError(f"section {section!r} lacks version-1 gate arrays {names} "
                              f"of shapes {want}", offset=offset)
        blocks.append(np.concatenate(parts))
    if {prefix + "lstm_W", prefix + "lstm_b"} & table.keys():
        raise FormatError(f"section {section!r} mixes fused and per-gate LSTM arrays",
                          offset=offset)
    fused = np.concatenate(blocks, axis=1)
    table[prefix + "lstm_W"], table[prefix + "lstm_b"] = fused[:-1], fused[-1:]


def _opt_to_table(state) -> dict[str, np.ndarray]:
    table = {"__step": np.array(float(state.step))}
    for k, v in state.m.items():
        table[f"m__{k}"] = v
    for k, v in state.v.items():
        table[f"v__{k}"] = v
    return table


def _opt_from_table(table: dict[str, np.ndarray], model, section: str, offset: int):
    """Adam state from its table: a step count and one first and one second
    moment per array of ``model``, with that array's shape."""
    if model is None:
        raise FormatError(f"section {section!r} has no model in the checkpoint",
                          offset=offset)
    step = table.get("__step", np.zeros(0))
    step = step.item() if step.size == 1 else np.nan  # shape (), (1,) in version 1
    if not (np.isfinite(step) and step == np.floor(step) and step >= 0):
        raise FormatError(f"section {section!r} lacks an integer __step >= 0",
                          offset=offset)
    moments = {k: v for k, v in table.items() if k != "__step"}
    _check_shapes(moments, {prefix + name: arr.shape for prefix in ("m__", "v__")
                            for name, arr in model.arrays.items()}, section, offset)
    m = {k[3:]: v for k, v in moments.items() if k.startswith("m__")}
    v = {k[3:]: v for k, v in moments.items() if k.startswith("v__")}
    return AdamState(m=m, v=v, step=int(step))


def save_checkpoint(path, ckpt: Checkpoint):
    """Write the versioned section container; bit-exact round trips.

    The write is atomic: ``path`` holds either its old content or the whole
    new checkpoint, never a partial one.
    """
    meta = {
        "epoch": ckpt.epoch,
        "config": ckpt.config,
        "rng_state": ckpt.rng_state,
        "captioner_config": None,
        "discriminator": None,
    }
    sections: list[tuple[str, bytes]] = []
    if ckpt.captioner is not None:
        meta["captioner_config"] = vars(ckpt.captioner.config) | {
            "__dataclass": "CaptionerConfig"}
        sections.append(("gen", _pack_table(ckpt.captioner.arrays)))
    if ckpt.discriminator is not None:
        meta["discriminator"] = {"variant": ckpt.discriminator.variant,
                                 "config": vars(ckpt.discriminator.config)}
        sections.append(("disc", _pack_table(ckpt.discriminator.arrays)))
    if ckpt.gen_opt is not None:
        sections.append(("gen_opt", _pack_table(_opt_to_table(ckpt.gen_opt))))
    if ckpt.disc_opt is not None:
        sections.append(("disc_opt", _pack_table(_opt_to_table(ckpt.disc_opt))))
    if ckpt.aux:
        sections.append(("aux", _pack_table(ckpt.aux)))
    sections.insert(0, ("meta", json.dumps(meta, sort_keys=True,
                                           separators=(",", ":")).encode()))

    # write a temp file beside the target, then rename it over the target, so
    # a failed or killed write never leaves a partial checkpoint at ``path``
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<II", _CKPT_VERSION, len(sections)))
            for name, payload in sections:
                nb = name.encode()
                fh.write(struct.pack("<H", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<Q", len(payload)))
            for _, payload in sections:
                fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CKPT_MAGIC:
        raise VersionError("not a checkpoint file (bad magic)", offset=0)
    reader = _Reader(blob, pos=4)
    version, n_sections = reader.unpack("<II", "truncated checkpoint header")
    if version not in (1, _CKPT_VERSION):
        raise VersionError(f"unsupported checkpoint version {version}", offset=4)

    table: list[tuple[str, int]] = []
    for _ in range(n_sections):
        name = reader.name("truncated section table")
        (plen,) = reader.unpack("<Q", "truncated section table")
        table.append((name, plen))

    payloads: dict[str, bytes] = {}
    starts: dict[str, int] = {}
    for name, plen in table:
        if name not in _CKPT_SECTIONS:
            raise FormatError(f"unknown section {name!r}", offset=reader.pos)
        if name in payloads:
            raise FormatError(f"duplicate section {name!r}", offset=reader.pos)
        starts[name] = reader.skip(plen, f"truncated payload for section {name!r}")
        payloads[name] = blob[starts[name] : reader.pos]
    if reader.pos != len(blob):
        raise FormatError(f"{len(blob) - reader.pos} trailing bytes after the last payload",
                          offset=reader.pos)
    if "meta" not in payloads:
        raise FormatError("checkpoint missing meta section", offset=12)
    try:
        meta = json.loads(payloads["meta"].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FormatError(f"meta section is not UTF-8 JSON: {err}", offset=12) from None
    if not isinstance(meta, dict):
        raise FormatError("meta section is not a JSON object", offset=12)
    missing = [key for key in ("epoch", "config", "rng_state") if key not in meta]
    if missing:
        raise FormatError(f"meta section lacks {', '.join(missing)}", offset=12)
    if type(meta["epoch"]) is not int or meta["epoch"] < 0:  # a bool is no epoch
        raise FormatError(f"meta epoch must be an integer >= 0, got {meta['epoch']!r}",
                          offset=12)
    if meta["rng_state"] is not None:
        try:
            rng_from_state(meta["rng_state"])
        except (TypeError, ValueError, KeyError, OverflowError) as err:
            raise FormatError(f"meta rng_state is not a generator state: {err}",
                              offset=12) from None

    def model_arrays(name, shapes):
        if name not in payloads:
            raise FormatError(f"meta names a model but section {name!r} is missing",
                              offset=12)
        arrays = _unpack_table(payloads[name], starts[name])
        if version == 1:
            _fuse_v1(arrays, name, shapes["lstm_W"], "", name, starts[name])
        _check_shapes(arrays, shapes, name, starts[name])
        return arrays

    captioner = None
    if meta.get("captioner_config") is not None:
        cfg = meta["captioner_config"]
        if isinstance(cfg, dict):
            cfg = {k: v for k, v in cfg.items() if k != "__dataclass"}
        config = _config_from_meta(CaptionerConfig, cfg, "meta captioner_config")
        captioner = CaptionerParams(config, model_arrays("gen", _param_shapes(config)))
    discriminator = None
    if meta.get("discriminator") is not None:
        dmeta = meta["discriminator"]
        if not isinstance(dmeta, dict) or set(dmeta) != {"variant", "config"}:
            raise FormatError("meta discriminator must hold exactly variant and config",
                              offset=12)
        variant = dmeta["variant"]
        if variant not in VARIANTS:
            raise FormatError(f"unknown discriminator variant {variant!r}", offset=12)
        dcfg = _config_from_meta(DiscriminatorConfig, dmeta["config"],
                                 "meta discriminator config")
        discriminator = DiscriminatorParams(
            dcfg, model_arrays("disc", param_shapes(dcfg, variant)), variant)
    opts = {}
    for name, model, kind in (("gen_opt", captioner, "gen"),
                              ("disc_opt", discriminator, "disc")):
        if name in payloads:
            table = _unpack_table(payloads[name], starts[name])
            if version == 1 and model is not None:
                for prefix in ("m__", "v__"):
                    _fuse_v1(table, kind, model.arrays["lstm_W"].shape, prefix, name,
                             starts[name])
            opts[name] = _opt_from_table(table, model, name, starts[name])
    aux = {}
    if "aux" in payloads:
        aux = _unpack_table(payloads["aux"], starts["aux"])
        # a stored scorer has the captioner's vocabulary and image width
        sizes = ((captioner.config.vocab_size, captioner.config.feature_dim)
                 if captioner else ())
        for what, check in (("idf table", lambda: NGramIdf.from_aux(aux)),
                            ("semantic scorer", lambda: SemanticScorer.from_aux(aux, *sizes))):
            try:
                check()
            except InputError as err:
                raise FormatError(f"aux {what} is malformed: {err}",
                                  offset=starts["aux"]) from None

    return Checkpoint(captioner=captioner, discriminator=discriminator,
                      gen_opt=opts.get("gen_opt"), disc_opt=opts.get("disc_opt"),
                      config=meta["config"],
                      rng_state=meta["rng_state"], epoch=meta["epoch"], aux=aux)


def rng_from_state(state: dict) -> np.random.Generator:
    """Rebuild a Generator from a serialized bit-generator state."""
    gen = np.random.default_rng(0)
    gen.bit_generator.state = state
    return gen
