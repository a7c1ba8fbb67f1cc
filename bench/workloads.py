"""Workload definitions shared by ``run.py`` and its worker.

Each workload is a list of ``seqgan`` command lines run back to back in one
fresh process.  The benchmark seed picks the inputs; the program sees only
the resulting command lines and files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("train-scst", "probe-gumbel", "eval-ensemble")

# `seqgan train` on the default config: 12 CE epochs, 8 D-pretrain epochs,
# 4 SCST/logD epochs.
TRAIN_CONFIG: dict = {}
TRAIN_GAN_EPOCHS = 4

# grad-probe runs on the last checkpoint of a default-config run (seed 0).
PROBE_FIXTURE = {"name": "probe-train", "config": {}, "seed": 0,
                 "checkpoint": "ckpt-00004.sgck"}
PROBE_ESTIMATORS = ("gumbel_soft", "gumbel_st")
PROBE_BATCHES = 30

# eval ensembles three CE-only models trained on a larger synthetic dataset;
# 72 images per split.
EVAL_CONFIG = {"dataset": {"n_images": 480}, "ce_pretrain": {"epochs": 1},
               "gan": {"epochs": 0, "d_pretrain_epochs": 0}}
EVAL_FIXTURES = [{"name": f"eval-train-s{s}", "config": EVAL_CONFIG, "seed": s,
                  "checkpoint": "ckpt-00000.sgck"} for s in (0, 1, 2)]
EVAL_SPLITS = ("val", "test", "ooc")

FIXTURES = {"train-scst": [], "probe-gumbel": [PROBE_FIXTURE],
            "eval-ensemble": EVAL_FIXTURES}  # what each workload needs


def fixture_checkpoint(fixtures_dir: Path, fixture: dict) -> Path:
    return fixtures_dir / fixture["name"] / fixture["checkpoint"]


def eval_order(seed: int):
    """Ensemble member order and split order for one seed.

    The first member supplies the discriminator and semantic scorer, so the
    seed changes the scores as well as the averaging order.
    """
    rng = random.Random(seed)
    members = list(EVAL_FIXTURES)
    splits = list(EVAL_SPLITS)
    rng.shuffle(members)
    rng.shuffle(splits)
    return members, splits


def commands(workload: str, seed: int, out_dir: Path, fixtures_dir: Path) -> list:
    """The ``seqgan`` argument lists of one workload iteration."""
    if workload == "train-scst":
        return [["train", "--config", str(fixtures_dir / "train-config.json"),
                 "--seed-override", str(seed), "--out-dir", str(out_dir)]]
    if workload == "probe-gumbel":
        return [["grad-probe",
                 "--checkpoint", str(fixture_checkpoint(fixtures_dir, PROBE_FIXTURE)),
                 "--estimators", ",".join(PROBE_ESTIMATORS),
                 "--n-batches", str(PROBE_BATCHES),
                 "--seed-override", str(seed), "--out-dir", str(out_dir)]]
    if workload == "eval-ensemble":
        members, splits = eval_order(seed)
        ckpt_args = []
        for fixture in members:
            ckpt_args += ["--checkpoint", str(fixture_checkpoint(fixtures_dir, fixture))]
        return [["eval", *ckpt_args, "--split", split, "--out-dir", str(out_dir)]
                for split in splits]
    raise ValueError(f"unknown workload {workload!r}")


def write_train_config(fixtures_dir: Path):
    (fixtures_dir / "train-config.json").write_text(json.dumps(TRAIN_CONFIG))
