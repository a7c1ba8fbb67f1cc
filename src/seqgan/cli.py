"""Experiment runner: train, eval, grad-probe, plots, gen-data.

One JSON config file fully reproduces a run.  Unknown keys are rejected with
their field path.  One evaluator, ``split_metrics``, scores a decoded split
as one column per metric, each from one array pass in ``metrics``, for the
per-epoch record and ``eval``, which ensembles only members trained on one
dataset.  Exit codes: 0 ok, 1 runtime failure, 2 usage/config error.  The
SEQGAN_LOG environment variable (error/info/debug) controls logging; all
data files carry a schema string in their header line.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import data as dat
from . import discriminator as disc
from . import metrics as met
from . import training as tr
# ensemble_decode is not called here; the benchmark's tracer rebinds it as
# cli.ensemble_decode too (tests/test_bench_hooks.py keeps the import)
from .captioner import (CaptionBatch, CaptionerConfig, CaptionerParams,  # noqa: F401
                        TokenSequence, ensemble_decode, greedy_decode, init_params,
                        stack_members)

logger = logging.getLogger(__name__)

METRICS_SCHEMA = "seqgan.metrics.v1"
EVAL_SCHEMA = "seqgan.eval.v1"
PROBE_SCHEMA = "seqgan.grad_probe.v1"
PLOTS_SCHEMA = "seqgan.plots.v1"

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE = 0, 1, 2


class ConfigError(ValueError):
    """Bad experiment config; message includes the offending field path."""


class ProbeError(RuntimeError):
    """The probed estimators saw different minibatch streams."""


# ---------------------------------------------------------------------------
# experiment config
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "seed": 0,
    "out_dir": "run",
    "dataset": {
        "seed": 0, "n_objects": 6, "n_contexts": 4, "n_images": 48,
        "num_crops": 4, "feature_dim": 12, "noise": 0.1, "ooc_fraction": 0.15,
        "words_per_object": 2, "words_per_context": 2,
    },
    "captioner": {"hidden_dim": 24, "max_len": 12, "attention": "context_aware"},
    "discriminator": {"variant": "coatt", "hidden_dim": 24},
    "gan": {
        "estimator": "scst", "reward": "logD", "cider_weight": 5.0,
        "temperature": 0.5, "fm_image_weight": 0.0, "fm_caption_weight": 0.0,
        "g_lr": 1e-3, "d_lr": 2e-3, "batch_size": 8, "epochs": 4,
        "d_pretrain_epochs": 8,
    },
    "ce_pretrain": {"epochs": 12, "lr": 5e-3, "batch_size": 8},
    "metrics": {"cca_rank": 4},
}

# on/off switches for each metric, retired when one evaluator came to compute
# them all; checkpoints written before still store them in their config
_RETIRED_METRIC_SWITCHES = ("cider", "bleu4", "rouge_l", "semantic_score", "vocab_coverage")


def _merge_strict(defaults, overrides, path=""):
    if not isinstance(overrides, dict):
        raise ConfigError(f"{path or '<root>'}: expected an object")
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(defaults[key], dict):
            merged[key] = _merge_strict(defaults[key], value, here)
        else:
            expect = type(defaults[key])
            if expect in (float, int) and isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                if expect is int and isinstance(value, float) and not value.is_integer():
                    raise ConfigError(f"{here}: expected an integer, got {value}")
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{here}: expected a finite number, got {value}")
                merged[key] = expect(value)
            elif isinstance(value, expect) and not (expect is not bool
                                                    and isinstance(value, bool)):
                merged[key] = value
            else:
                raise ConfigError(f"{here}: expected {expect.__name__}, "
                                  f"got {type(value).__name__}")
    return merged


def parse_config(data: dict) -> dict:
    """The config merged over the defaults and checked before any work, by
    ranges, the rules of ``generate_dataset`` and building the model and
    ``gan`` config objects.  Errors name the field path."""
    cfg = _merge_strict(_DEFAULTS, data)
    ce, ds, d = cfg["ce_pretrain"], cfg["dataset"], cfg["discriminator"]
    for name, value, low in (("seed", cfg["seed"], 0), ("dataset.seed", ds["seed"], 0),
                             ("ce_pretrain.epochs", ce["epochs"], 0),
                             ("ce_pretrain.batch_size", ce["batch_size"], 1),
                             ("metrics.cca_rank", cfg["metrics"]["cca_rank"], 1)):
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    if not ce["lr"] > 0:
        raise ConfigError(f"ce_pretrain.lr must be > 0, got {ce['lr']}")
    for section, check in (
            ("dataset", lambda: dat.check_dataset_request(
                ds["n_objects"], ds["n_contexts"], ds["n_images"], ds["feature_dim"],
                ds["num_crops"], ds["ooc_fraction"],
                dat.VocabSpec(ds["words_per_object"], ds["words_per_context"]))),
            ("captioner", lambda: CaptionerConfig(vocab_size=2, **cfg["captioner"])),
            ("discriminator", lambda: disc.param_shapes(
                disc.DiscriminatorConfig(1, d["hidden_dim"], 1, 1), d["variant"])),
            ("gan", lambda: gan_config(cfg))):
        try:
            check()
        except (tr.InputError, dat.ParameterError) as e:  # led by the field name
            raise ConfigError(f"{section}.{e}") from None
    return cfg


def _check_seed_override(seed_override):
    """``--seed-override`` replaces the config's ``seed``, so it obeys its rule."""
    if seed_override is not None and seed_override < 0:
        raise ConfigError(f"--seed-override must be >= 0, got {seed_override}")


def load_config(path, seed_override=None, out_dir=None) -> dict:
    _check_seed_override(seed_override)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    cfg = parse_config(data)
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    if out_dir is not None:
        cfg["out_dir"] = str(out_dir)
    return cfg


def stored_config(ckpt: dat.Checkpoint) -> dict:
    """A checkpoint's config, parsed, without the retired metric switches
    that checkpoints written before the single evaluator still carry."""
    data = ckpt.config
    if isinstance(data, dict) and isinstance(data.get("metrics"), dict):
        data = {**data, "metrics": {k: v for k, v in data["metrics"].items()
                                    if k not in _RETIRED_METRIC_SWITCHES}}
    return parse_config(data)


# ---------------------------------------------------------------------------
# experiment assembly
# ---------------------------------------------------------------------------


def build_dataset(cfg: dict) -> dat.DatasetSplit:
    d = cfg["dataset"]
    return dat.generate_dataset(
        seed=d["seed"], n_objects=d["n_objects"], n_contexts=d["n_contexts"],
        n_images=d["n_images"],
        vocab_spec=dat.VocabSpec(d["words_per_object"], d["words_per_context"]),
        num_crops=d["num_crops"], feature_dim=d["feature_dim"],
        noise=d["noise"], ooc_fraction=d["ooc_fraction"])


def captioner_config(cfg: dict, dataset) -> CaptionerConfig:
    c = cfg["captioner"]
    longest = max((len(ref.tokens) for _, refs in dataset.train for ref in refs), default=0)
    if c["max_len"] < longest:
        raise ConfigError(f"captioner.max_len must be >= {longest}, the longest reference "
                          f"caption with EOS, got {c['max_len']}")
    return CaptionerConfig(
        vocab_size=dataset.vocab.size, hidden_dim=c["hidden_dim"],
        num_crops=dataset.num_crops, feature_dim=dataset.feature_dim,
        max_len=c["max_len"], bos_id=dataset.vocab.bos_id,
        eos_id=dataset.vocab.eos_id, attention=c["attention"])


def discriminator_setup(cfg: dict, dataset):
    d = cfg["discriminator"]
    dconf = disc.DiscriminatorConfig(
        vocab_size=dataset.vocab.size, hidden_dim=d["hidden_dim"],
        num_crops=dataset.num_crops, feature_dim=dataset.feature_dim)
    return disc.init_discriminator(dconf, cfg["seed"] + 1, d["variant"])


def gan_config(cfg: dict) -> tr.GanConfig:
    return tr.GanConfig(seed=cfg["seed"], **cfg["gan"])


def checkpoint_idf(ckpt: dat.Checkpoint, dataset) -> met.NGramIdf:
    """The CIDEr idf stored in the checkpoint's aux; checkpoints written
    before it was stored get it refitted over the train split."""
    idf = met.NGramIdf.from_aux(ckpt.aux)
    return idf if idf is not None else met.fit_idf([refs for _, refs in dataset.train])


# --- split evaluation ------------------------------------------------------


def decode_split(models: list[CaptionerParams], examples) -> list[TokenSequence]:
    """Greedy captions of a split; several models decode as their ensemble,
    stacked once for the whole split."""
    stacked = stack_members(models)
    return [greedy_decode(stacked, scene.features) for scene, _ in examples]


def split_metrics(models, examples, idf, scorer,
                  vocab_size) -> tuple[list[TokenSequence], dict[str, np.ndarray], dict]:
    """The one evaluator of a split: the greedy captions of ``decode_split``,
    their per-image columns of CIDEr-D, BLEU4, ROUGE-L (one ``caption_scores``
    call) and semantic score (one ``SemanticScorer.score`` call; 0.0 without
    a scorer), and the report of the column means plus vocabulary coverage.
    Returns ``(captions, columns, report)``."""
    decoded = decode_split(models, examples)
    columns = met.caption_scores(decoded, [refs for _, refs in examples], idf)._asdict()
    feats = [scene.features for scene, _ in examples]
    columns["semantic_score"] = scorer.score(decoded, feats) if scorer else np.zeros(len(feats))
    report = {key: float(column.mean()) for key, column in columns.items()}
    report["vocab_coverage"] = met.vocabulary_coverage(decoded, vocab_size)
    return decoded, columns, report


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(config_path, seed_override=None, out_dir=None) -> int:
    cfg = load_config(config_path, seed_override, out_dir)
    dataset = build_dataset(cfg)
    logger.info("dataset: %d train / %d val / %d test / %d ooc images, vocab %d",
                len(dataset.train), len(dataset.val), len(dataset.test),
                len(dataset.ooc), dataset.vocab.size)

    g_params = init_params(captioner_config(cfg, dataset), cfg["seed"])
    ce = cfg["ce_pretrain"]
    _, ce_curve = tr.ce_pretrain(g_params, dataset.train, ce["epochs"],
                                 np.random.default_rng(cfg["seed"] + 17),
                                 lr=ce["lr"], batch_size=ce["batch_size"])
    if ce_curve:
        logger.info("cross-entropy pretraining: %.3f -> %.3f nats/token",
                    ce_curve[0], ce_curve[-1])

    idf = met.fit_idf([refs for _, refs in dataset.train])
    scorer = met.SemanticScorer.fit(
        g_params.arrays["embed"], [ref for _, refs in dataset.train for ref in refs],
        [s.features for s, refs in dataset.train for _ in refs], cfg["metrics"]["cca_rank"])
    d_params = discriminator_setup(cfg, dataset)
    gcfg = gan_config(cfg)
    aux = scorer.to_aux() | idf.to_aux()

    def epoch_hook(epoch, g, d):
        return split_metrics([g], dataset.val, idf, scorer, dataset.vocab.size)[2]

    checkpoints, records = tr.train_gan(g_params, d_params, dataset.train, gcfg,
                                        idf=idf, epoch_hook=epoch_hook)
    # the output path is environment, not experiment identity; keeping it out
    # of the checkpoint makes checkpoint bytes location-independent
    persisted = {k: v for k, v in cfg.items() if k != "out_dir"}
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for ckpt in checkpoints:
        ckpt.config, ckpt.aux = persisted, aux
        dat.save_checkpoint(out / f"ckpt-{ckpt.epoch:05d}.sgck", ckpt)

    metrics_path = out / "metrics.jsonl"
    with open(metrics_path, "w") as fh:
        fh.write(json.dumps({"schema": METRICS_SCHEMA}, sort_keys=True) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    logger.info("wrote %s and %d checkpoints", metrics_path, len(checkpoints))
    print(f"train: {len(records)} epoch records -> {metrics_path}")
    return EXIT_OK


def _require_models(path, ckpt: dat.Checkpoint, *sections):
    """``ConfigError`` naming ``path`` and the first of ``sections`` that
    ``ckpt`` holds no model for."""
    for section in sections:
        if getattr(ckpt, section) is None:
            raise ConfigError(f"{path}: checkpoint has no {section} section")


def cmd_eval(checkpoint_paths, split: str, out_dir=None) -> int:
    if split not in ("val", "test", "ooc"):
        raise ConfigError(f"unknown split {split!r} (expected val, test or ooc)")
    ckpts = [dat.load_checkpoint(p) for p in checkpoint_paths]
    first = ckpts[0]
    # every member decodes; the first's discriminator scores the split
    _require_models(checkpoint_paths[0], first, "captioner", "discriminator")
    cfg = stored_config(first)
    # members trained on other datasets give the same token ids other words,
    # and members of other captioner shapes cannot be stacked
    for path, ckpt in zip(checkpoint_paths[1:], ckpts[1:]):
        _require_models(path, ckpt, "captioner")
        other = stored_config(ckpt)
        for section in ("dataset", "captioner"):
            for key, value in cfg[section].items():
                if other[section][key] != value:
                    raise ConfigError(f"{path}: {section}.{key} is {other[section][key]!r}, "
                                      f"but {checkpoint_paths[0]} was trained with "
                                      f"{value!r}; ensemble members must share one "
                                      f"{section} config")
    dataset = build_dataset(cfg)
    examples = dataset.split(split)
    decoded, columns, report = split_metrics(
        [c.captioner for c in ckpts], examples, checkpoint_idf(first, dataset),
        met.SemanticScorer.from_aux(first.aux), dataset.vocab.size)
    # the whole split scored as one batch; tolist keeps the CSV's float repr
    d_scores = disc.score(first.discriminator,
                          np.array([scene.features for scene, _ in examples]),
                          CaptionBatch(decoded)).tolist()

    out = Path(out_dir or cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"eval-{split}.csv"
    with open(csv_path, "w") as fh:
        fh.write(f"# schema={EVAL_SCHEMA}\n")
        fh.write("image_id,caption,cider,semantic_score,d_score\n")
        values = zip(columns["cider"].tolist(), columns["semantic_score"].tolist(), d_scores)
        for seq, (scene, _), (cider, semantic, d_score) in zip(decoded, examples, values):
            fh.write(f"{scene.image_id},\"{dataset.vocab.decode(seq.tokens)}\","
                     f"{cider!r},{semantic!r},{d_score!r}\n")
    print(json.dumps({"split": split, **report}, sort_keys=True))
    print(f"eval: per-image table -> {csv_path}")
    return EXIT_OK


def cmd_grad_probe(checkpoint_path, estimators, n_batches: int,
                   out_dir=None, seed_override=None) -> int:
    if not estimators or any(est not in tr.ESTIMATORS for est in estimators):
        raise ConfigError(f"--estimators must name one or more of {', '.join(tr.ESTIMATORS)}, "
                          f"got {','.join(estimators)!r}")
    if n_batches < 1:
        raise ConfigError("n_batches must be >= 1")
    _check_seed_override(seed_override)
    ckpt = dat.load_checkpoint(checkpoint_path)
    cfg = stored_config(ckpt)
    _require_models(checkpoint_path, ckpt, "captioner")
    # Gumbel, and SCST unless its reward is CIDEr alone, score with D
    if any(est != "scst" or cfg["gan"]["reward"] != "cider" for est in estimators):
        _require_models(checkpoint_path, ckpt, "discriminator")
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    dataset = build_dataset(cfg)
    idf = checkpoint_idf(ckpt, dataset)
    gcfg = gan_config(cfg)

    results, hash_streams = {}, {}
    for est in estimators:
        norms, hashes = tr.grad_norm_probe(
            ckpt.captioner, ckpt.discriminator, dataset.train, est, n_batches,
            np.random.default_rng(cfg["seed"] + 99), gcfg, idf=idf)
        results[est] = norms
        hash_streams[est] = hashes
        logger.info("probe %s: batch hashes %s...", est, hashes[:2])
    streams = list(hash_streams.values())
    if any(s != streams[0] for s in streams):
        raise ProbeError("estimators saw different batches")

    out = Path(out_dir or cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "grad_probe.csv"
    with open(csv_path, "w") as fh:
        fh.write(f"# schema={PROBE_SCHEMA}\n")
        fh.write("batch_index,estimator,l2_norm\n")
        for est in estimators:
            for i, norm in enumerate(results[est]):
                fh.write(f"{i},{est},{norm!r}\n")
        for est in estimators:
            arr = np.array(results[est])
            fh.write(f"# summary estimator={est} mean={float(arr.mean())!r} "
                     f"variance={float(arr.var())!r}\n")
    for est in estimators:
        arr = np.array(results[est])
        print(f"grad-probe {est}: mean={arr.mean():.6g} variance={arr.var():.6g}")
    print(f"grad-probe: norms -> {csv_path}")
    return EXIT_OK


def _metrics_records(path) -> list[dict]:
    """The epoch records of a ``metrics.jsonl`` file, after its schema
    header line; ``ConfigError`` naming ``path:line`` for a line that is not
    a JSON object or a record without ``epoch``."""
    with open(path) as fh:
        lines = [(num, line) for num, line in enumerate(fh, start=1) if line.strip()]
    rows = []
    for num, line in lines:
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}:{num}: not valid JSON ({e})") from None
        if not isinstance(row, dict):
            raise ConfigError(f"{path}:{num}: expected a JSON object, "
                              f"got {type(row).__name__}")
        rows.append((num, row))
    if not rows or rows[0][1].get("schema") != METRICS_SCHEMA:
        raise ConfigError(f"{path}: missing or wrong schema header line")
    for num, row in rows[1:]:
        if "epoch" not in row:
            raise ConfigError(f"{path}:{num}: record has no epoch")
    return [row for _, row in rows[1:]]


def cmd_plots(metrics_files, out_dir=None) -> int:
    runs = []
    key_sets = {}
    for path in metrics_files:
        records = _metrics_records(path)
        run_id = Path(path).parent.name or Path(path).stem
        runs.append((run_id, records))
        for rec in records:
            key_sets.setdefault(frozenset(rec), path)
    if len(key_sets) > 1:
        variants = [sorted(k) for k in key_sets]
        common = set.intersection(*(set(k) for k in key_sets))
        offending = sorted(set().union(*(set(k) for k in key_sets)) - common)
        raise ConfigError(f"metrics schema drift across files; "
                          f"offending fields: {offending}; variants: {variants}")

    out = Path(out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "curves.csv"
    with open(csv_path, "w") as fh:
        fh.write(f"# schema={PLOTS_SCHEMA}\n")
        fh.write("run_id,epoch,metric,value\n")
        for run_id, records in runs:
            for rec in records:
                for key in sorted(rec):
                    if key == "epoch":
                        continue
                    fh.write(f"{run_id},{rec['epoch']},{key},{rec[key]!r}\n")
    print(f"plots: tidy curves -> {csv_path}")
    return EXIT_OK


def cmd_gen_data(config_path, out_dir=None, seed_override=None) -> int:
    cfg = load_config(config_path, seed_override, out_dir)
    dataset = build_dataset(cfg)
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    summary = {"vocab_size": dataset.vocab.size}
    captions = {}
    for name in ("train", "val", "test", "ooc"):
        examples = dataset.split(name)
        dat.write_features(out / f"{name}.sgf",
                           [scene.features for scene, _ in examples])
        captions[name] = [
            {"image_id": scene.image_id, "labels": scene.labels,
             "refs": [r.tokens for r in refs]}
            for scene, refs in examples]
        summary[name] = len(examples)
    with open(out / "captions.json", "w") as fh:
        json.dump({"schema": "seqgan.captions.v1", "vocab": dataset.vocab.words,
                   "splits": captions}, fh, sort_keys=True)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqgan",
        description="Adversarial sequence-generation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="CE pretrain + adversarial training")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed-override", type=int)
    p_train.add_argument("--out-dir")

    p_eval = sub.add_parser("eval", help="decode a split and score it")
    p_eval.add_argument("--checkpoint", action="append", required=True,
                        help="repeat for an ensemble")
    p_eval.add_argument("--split", default="test", choices=["val", "test", "ooc"])
    p_eval.add_argument("--out-dir")

    p_probe = sub.add_parser("grad-probe", help="logit-gradient norm comparison")
    p_probe.add_argument("--checkpoint", required=True)
    p_probe.add_argument("--estimators", default="scst,gumbel_st",
                         help="comma-separated list")
    p_probe.add_argument("--n-batches", type=int, default=50)
    p_probe.add_argument("--seed-override", type=int)
    p_probe.add_argument("--out-dir")

    p_plots = sub.add_parser("plots", help="merge metrics files into tidy CSV")
    p_plots.add_argument("metrics_files", nargs="+")
    p_plots.add_argument("--out-dir")

    p_gen = sub.add_parser("gen-data", help="emit the synthetic dataset files")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--seed-override", type=int)
    p_gen.add_argument("--out-dir")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SEQGAN_LOG", "error").lower()
    if level not in ("error", "info", "debug"):
        print(f"SEQGAN_LOG must be error, info or debug, got {level!r}",
              file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, level.upper()),
                        format="%(levelname)s %(name)s: %(message)s")

    args = _build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.seed_override, args.out_dir)
        if args.command == "eval":
            return cmd_eval(args.checkpoint, args.split, args.out_dir)
        if args.command == "grad-probe":
            estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
            return cmd_grad_probe(args.checkpoint, estimators, args.n_batches,
                                  args.out_dir, args.seed_override)
        if args.command == "plots":
            return cmd_plots(args.metrics_files, args.out_dir)
        if args.command == "gen-data":
            return cmd_gen_data(args.config, args.out_dir, args.seed_override)
        return EXIT_USAGE
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # runtime failure: report and exit 1
        logger.debug("unhandled failure", exc_info=True)
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
