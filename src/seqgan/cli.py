"""Experiment runner: train, eval, grad-probe, plots, gen-data.

One JSON config file fully reproduces a run.  Unknown keys are rejected with
their field path.  Exit codes: 0 ok, 1 runtime failure, 2 usage/config
error.  The SEQGAN_LOG environment variable (error/info/debug) controls
logging; all data files carry a schema string in their header line.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as dat
from . import discriminator as disc
from . import metrics as met
from . import training as tr
# ensemble_decode is not called here; bench/test_bench.py checks that the
# tracer rebinds it as cli.ensemble_decode too
from .captioner import (CaptionerConfig, CaptionerParams, TokenSequence,  # noqa: F401
                        ensemble_decode, greedy_decode, init_params, stack_members)

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
    "metrics": {"cider": True, "bleu4": True, "rouge_l": True,
                "semantic_score": True, "vocab_coverage": True, "cca_rank": 4},
}


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
                merged[key] = expect(value)
            elif isinstance(value, expect) and not (expect is not bool
                                                    and isinstance(value, bool)):
                merged[key] = value
            else:
                raise ConfigError(f"{here}: expected {expect.__name__}, "
                                  f"got {type(value).__name__}")
    return merged


@dataclass
class ExperimentConfig:
    raw: dict

    @property
    def seed(self):
        return self.raw["seed"]

    @property
    def out_dir(self):
        return self.raw["out_dir"]


def parse_config(data: dict) -> ExperimentConfig:
    return ExperimentConfig(_merge_strict(_DEFAULTS, data))


def load_config(path, seed_override=None, out_dir=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    cfg = parse_config(data)
    if seed_override is not None:
        cfg.raw["seed"] = int(seed_override)
    if out_dir is not None:
        cfg.raw["out_dir"] = str(out_dir)
    return cfg


# ---------------------------------------------------------------------------
# experiment assembly
# ---------------------------------------------------------------------------


def build_dataset(cfg: ExperimentConfig) -> dat.DatasetSplit:
    d = cfg.raw["dataset"]
    return dat.generate_dataset(
        seed=d["seed"], n_objects=d["n_objects"], n_contexts=d["n_contexts"],
        n_images=d["n_images"],
        vocab_spec=dat.VocabSpec(d["words_per_object"], d["words_per_context"]),
        num_crops=d["num_crops"], feature_dim=d["feature_dim"],
        noise=d["noise"], ooc_fraction=d["ooc_fraction"])


def captioner_config(cfg: ExperimentConfig, dataset) -> CaptionerConfig:
    c = cfg.raw["captioner"]
    return CaptionerConfig(
        vocab_size=dataset.vocab.size, hidden_dim=c["hidden_dim"],
        num_crops=dataset.num_crops, feature_dim=dataset.feature_dim,
        max_len=c["max_len"], bos_id=dataset.vocab.bos_id,
        eos_id=dataset.vocab.eos_id, attention=c["attention"])


def discriminator_setup(cfg: ExperimentConfig, dataset):
    d = cfg.raw["discriminator"]
    dconf = disc.DiscriminatorConfig(
        vocab_size=dataset.vocab.size, hidden_dim=d["hidden_dim"],
        num_crops=dataset.num_crops, feature_dim=dataset.feature_dim)
    return disc.init_discriminator(dconf, cfg.seed + 1, d["variant"])


def gan_config(cfg: ExperimentConfig) -> tr.GanConfig:
    return tr.GanConfig(seed=cfg.seed, **cfg.raw["gan"])


# --- semantic scorer -------------------------------------------------------


@dataclass
class SemanticScorer:
    """CCA over (mean caption-token embedding, mean crop feature) pairs.

    The embedding table is frozen at fit time so scores stay comparable
    across training epochs; everything round-trips through checkpoint aux
    arrays.
    """

    embed: np.ndarray
    model: met.CcaModel

    def caption_vec(self, seq) -> np.ndarray:
        toks = seq.tokens if isinstance(seq, TokenSequence) else list(seq)
        return self.embed[toks].mean(axis=0) if toks else np.zeros(self.embed.shape[1])

    @staticmethod
    def image_vec(feats) -> np.ndarray:
        return np.asarray(feats).mean(axis=0)

    def score(self, seq, feats) -> float:
        return met.semantic_score(self.model, self.caption_vec(seq),
                                  self.image_vec(feats))

    def to_aux(self) -> dict:
        m = self.model
        return {"sem_embed": self.embed, "sem_U": m.U, "sem_V": m.V,
                "sem_sigma": m.sigma, "sem_mean_x": m.mean_x, "sem_mean_y": m.mean_y}

    @staticmethod
    def from_aux(aux: dict) -> "SemanticScorer | None":
        if "sem_embed" not in aux:
            return None
        model = met.CcaModel(U=aux["sem_U"], V=aux["sem_V"], sigma=aux["sem_sigma"],
                             mean_x=aux["sem_mean_x"], mean_y=aux["sem_mean_y"])
        return SemanticScorer(embed=aux["sem_embed"], model=model)


def checkpoint_idf(ckpt: dat.Checkpoint, dataset) -> met.NGramIdf:
    """The CIDEr idf stored in the checkpoint's aux; checkpoints written
    before it was stored get it refitted over the train split."""
    idf = met.NGramIdf.from_aux(ckpt.aux)
    return idf if idf is not None else met.fit_idf([refs for _, refs in dataset.train])


def fit_semantic_scorer(g_params: CaptionerParams, dataset, rank: int) -> SemanticScorer:
    embed = g_params.arrays["embed"].copy()
    scorer = SemanticScorer(embed=embed, model=None)
    X, Y = [], []
    for scene, refs in dataset.train:
        for ref in refs:
            X.append(scorer.caption_vec(ref))
            Y.append(scorer.image_vec(scene.features))
    rank = min(rank, embed.shape[1], dataset.feature_dim)
    scorer.model = met.fit_cca(np.array(X), np.array(Y), rank)
    return scorer


# --- per-epoch evaluation ---------------------------------------------------


def decode_split(models: list[CaptionerParams], examples) -> list[TokenSequence]:
    """Greedy captions of a split; several models decode as their ensemble,
    stacked once for the whole split."""
    stacked = stack_members(models)
    return [greedy_decode(stacked, scene.features) for scene, _ in examples]


def split_metrics(cfg: ExperimentConfig, models, examples, idf, scorer,
                  vocab_size) -> dict:
    toggles = cfg.raw["metrics"]
    decoded = decode_split(models, examples)
    out = {}
    if toggles["cider"]:
        out["cider"] = float(np.mean([met.cider_d(seq, refs, idf)
                                      for seq, (_, refs) in zip(decoded, examples)]))
    if toggles["bleu4"]:
        out["bleu4"] = float(np.mean([met.bleu4(seq, refs)
                                      for seq, (_, refs) in zip(decoded, examples)]))
    if toggles["rouge_l"]:
        out["rouge_l"] = float(np.mean([met.rouge_l(seq, refs)
                                        for seq, (_, refs) in zip(decoded, examples)]))
    if toggles["semantic_score"] and scorer is not None:
        out["semantic_score"] = float(np.mean(
            [scorer.score(seq, scene.features)
             for seq, (scene, _) in zip(decoded, examples)]))
    if toggles["vocab_coverage"]:
        out["vocab_coverage"] = met.vocabulary_coverage(decoded, vocab_size)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(config_path, seed_override=None, out_dir=None) -> int:
    cfg = load_config(config_path, seed_override, out_dir)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dataset = build_dataset(cfg)
    logger.info("dataset: %d train / %d val / %d test / %d ooc images, vocab %d",
                len(dataset.train), len(dataset.val), len(dataset.test),
                len(dataset.ooc), dataset.vocab.size)

    g_params = init_params(captioner_config(cfg, dataset), cfg.seed)
    ce = cfg.raw["ce_pretrain"]
    _, ce_curve = tr.ce_pretrain(g_params, dataset.train, ce["epochs"],
                                 np.random.default_rng(cfg.seed + 17),
                                 lr=ce["lr"], batch_size=ce["batch_size"])
    if ce_curve:
        logger.info("cross-entropy pretraining: %.3f -> %.3f nats/token",
                    ce_curve[0], ce_curve[-1])

    idf = met.fit_idf([refs for _, refs in dataset.train])
    scorer = fit_semantic_scorer(g_params, dataset, cfg.raw["metrics"]["cca_rank"])
    d_params = discriminator_setup(cfg, dataset)
    gcfg = gan_config(cfg)

    def epoch_hook(epoch, g, d):
        return split_metrics(cfg, [g], dataset.val, idf, scorer, dataset.vocab.size)

    checkpoints, records = tr.train_gan(g_params, d_params, dataset.train, gcfg,
                                        idf=idf, epoch_hook=epoch_hook,
                                        aux=scorer.to_aux() | idf.to_aux())
    # the output path is environment, not experiment identity; keeping it out
    # of the checkpoint makes checkpoint bytes location-independent
    persisted = {k: v for k, v in cfg.raw.items() if k != "out_dir"}
    for ckpt in checkpoints:
        ckpt.config = persisted
        dat.save_checkpoint(out / f"ckpt-{ckpt.epoch:05d}.sgck", ckpt)

    metrics_path = out / "metrics.jsonl"
    with open(metrics_path, "w") as fh:
        fh.write(json.dumps({"schema": METRICS_SCHEMA}, sort_keys=True) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    logger.info("wrote %s and %d checkpoints", metrics_path, len(checkpoints))
    print(f"train: {len(records)} epoch records -> {metrics_path}")
    return EXIT_OK


def _load_eval_models(checkpoint_paths):
    ckpts = [dat.load_checkpoint(p) for p in checkpoint_paths]
    first = ckpts[0]
    models = [c.captioner for c in ckpts]
    return ckpts, models, first


def cmd_eval(checkpoint_paths, split: str, out_dir=None) -> int:
    ckpts, models, first = _load_eval_models(checkpoint_paths)
    cfg = parse_config(first.config)
    dataset = build_dataset(cfg)
    if split not in ("val", "test", "ooc"):
        raise ConfigError(f"unknown split {split!r} (expected val, test or ooc)")
    examples = dataset.split(split)
    scorer = SemanticScorer.from_aux(first.aux)
    idf = checkpoint_idf(first, dataset)

    decoded = decode_split(models, examples)
    bound_d = disc.BoundDiscriminator(ad.Tape(grad=False), first.discriminator)
    rows = []
    for seq, (scene, refs) in zip(decoded, examples):
        rows.append({
            "image_id": scene.image_id,
            "caption": dataset.vocab.decode(seq.tokens),
            "cider": met.cider_d(seq, refs, idf),
            "semantic_score": scorer.score(seq, scene.features) if scorer else 0.0,
            "d_score": bound_d.score_sequence(scene.features, seq)["score"].item(),
        })
    report = met.ScoreReport(
        cider=float(np.mean([r["cider"] for r in rows])),
        bleu4=float(np.mean([met.bleu4(seq, refs) for seq, (_, refs)
                             in zip(decoded, examples)])),
        rouge_l=float(np.mean([met.rouge_l(seq, refs) for seq, (_, refs)
                               in zip(decoded, examples)])),
        semantic_score=float(np.mean([r["semantic_score"] for r in rows])),
        vocab_coverage=met.vocabulary_coverage(decoded, dataset.vocab.size),
    )

    out = Path(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"eval-{split}.csv"
    with open(csv_path, "w") as fh:
        fh.write(f"# schema={EVAL_SCHEMA}\n")
        fh.write("image_id,caption,cider,semantic_score,d_score\n")
        for r in rows:
            fh.write(f"{r['image_id']},\"{r['caption']}\",{r['cider']!r},"
                     f"{r['semantic_score']!r},{r['d_score']!r}\n")
    print(json.dumps({"split": split, **report.as_dict()}, sort_keys=True))
    print(f"eval: per-image table -> {csv_path}")
    return EXIT_OK


def cmd_grad_probe(checkpoint_path, estimators, n_batches: int,
                   out_dir=None, seed_override=None) -> int:
    for est in estimators:
        if est not in tr.ESTIMATORS:
            raise ConfigError(f"unknown estimator {est!r}")
    if n_batches < 1:
        raise ConfigError("n_batches must be >= 1")
    ckpt = dat.load_checkpoint(checkpoint_path)
    cfg = parse_config(ckpt.config)
    if seed_override is not None:
        cfg.raw["seed"] = int(seed_override)
    dataset = build_dataset(cfg)
    idf = checkpoint_idf(ckpt, dataset)
    gcfg = gan_config(cfg)

    results, hash_streams = {}, {}
    for est in estimators:
        norms, hashes = tr.grad_norm_probe(
            ckpt.captioner, ckpt.discriminator, dataset.train, est, n_batches,
            np.random.default_rng(cfg.seed + 99), gcfg, idf=idf)
        results[est] = norms
        hash_streams[est] = hashes
        logger.info("probe %s: batch hashes %s...", est, hashes[:2])
    streams = list(hash_streams.values())
    if any(s != streams[0] for s in streams):
        raise ProbeError("estimators saw different batches")

    out = Path(out_dir or cfg.out_dir)
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


def cmd_plots(metrics_files, out_dir=None) -> int:
    runs = []
    key_sets = {}
    for path in metrics_files:
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        if not lines or lines[0].get("schema") != METRICS_SCHEMA:
            raise ConfigError(f"{path}: missing or wrong schema header line")
        records = lines[1:]
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
    out = Path(cfg.out_dir)
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
