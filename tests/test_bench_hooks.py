"""The benchmark's tracer hooks ``seqgan`` names given as strings
(``bench/tracer.py``): every class, method and function it names must exist,
and the calls it keys its units by must still be made, so that renaming or
bypassing one fails here rather than only in the benchmark's own, slower
tests."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer(name):
    return importlib.import_module(f"seqgan.{name}")


def test_every_traced_name_exists():
    tracer = load_tracer()
    named = [(layer(mod), cls) for mod, cls in tracer.CLASS_METHODS]
    named += [(getattr(layer(mod), cls), method)
              for (mod, cls), methods in tracer.CLASS_METHODS.items() for method in methods]
    named += [(layer("captioner"), name) for name in tracer.DECODERS]
    named += [(layer(mod), name) for mod, name in tracer.FIRST_WORK]
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name in named
               if not callable(getattr(owner, name, None))]
    assert tracer.CLASS_METHODS and tracer.DECODERS and tracer.FIRST_WORK
    assert not missing


def test_names_the_tracer_rebinds_are_imported_by_name():
    # the tracer rebinds a decoder in every module that imported it by name;
    # these imports look unused, but the benchmark traces calls through them
    captioner = layer("captioner")
    assert layer("training").greedy_decode is captioner.greedy_decode
    assert layer("cli").greedy_decode is captioner.greedy_decode
    assert layer("cli").ensemble_decode is captioner.ensemble_decode


# Installs the untraced phase timers (which patch seqgan for good, hence the
# separate process) and runs two epochs of CE pretraining over 12 captions at
# batch size 5: 3 minibatches per epoch (5, 5 and 2 captions).
CE_CONTRACT = r"""
import importlib.util, json, sys
import numpy as np

spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
timers = tracer.PhaseTimers()
timers.install()

from seqgan import captioner as cap, training as tr

config = cap.CaptionerConfig(vocab_size=7, hidden_dim=4, num_crops=2, feature_dim=3,
                             max_len=5)
rng = np.random.default_rng(0)
dataset = [(rng.uniform(-1, 1, (2, 3)),
            [cap.TokenSequence([int(t) for t in rng.integers(2, 7, size=n)] + [1], True)
             for n in (0, 3, 2)]) for _ in range(4)]
tr.ce_pretrain(cap.init_params(config, 0), dataset, 2, np.random.default_rng(1),
               batch_size=5)
print(json.dumps({"phase_s": timers.phase_s["ce_pretrain"],
                  "units": dict(timers.units["ce"])}))
"""


def test_ce_units_cover_the_phase_one_per_minibatch():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", CE_CONTRACT, str(TRACER)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    units = out["units"]
    # every unit was keyed, or _close_ce_unit would have dropped its time
    total = sum(sum(durations) for durations in units.values())
    assert total == pytest.approx(out["phase_s"], rel=1e-9)
    assert len(units.pop("ce-start")) == 1
    assert len(units.pop("adam")) == 6
    assert sum(len(durations) for durations in units.values()) == 6


# Installs the untraced phase timers and runs a tiny SCST train_gan twice
# from equal seeds (7 images in batches of 3, so the last minibatch is
# partial).  Each run's segments are the stretches between the marks it
# adds, from its start to its end.
SCST_CONTRACT = r"""
import importlib.util, json, sys, time
import numpy as np

spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
timers = tracer.PhaseTimers()
timers.install()

from seqgan import captioner as cap, discriminator as disc, training as tr

config = cap.CaptionerConfig(vocab_size=7, hidden_dim=4, num_crops=2, feature_dim=3,
                             max_len=5)
rng = np.random.default_rng(0)
dataset = [(rng.uniform(-1, 1, (2, 3)),
            [cap.TokenSequence([int(t) for t in rng.integers(2, 7, size=n)] + [1], True)
             for n in (1, 3)]) for _ in range(7)]
segments = []
for _ in range(2):
    g = cap.init_params(config, 1)
    d = disc.init_discriminator(disc.DiscriminatorConfig(7, 4, 2, 3), 2, "coatt")
    cfg = tr.GanConfig(estimator="scst", batch_size=3, epochs=2, d_pretrain_epochs=1)
    timers.first_work_at = time.perf_counter()
    tr.train_gan(g, d, dataset, cfg)
    segments.append(len(timers.segments(time.perf_counter())))
print(json.dumps({"segments": segments, "decode_keys": sorted(timers.units["decode"])}))
"""


def test_scst_train_gan_keeps_decode_units_and_segments():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", SCST_CONTRACT, str(TRACER)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    keys = out["decode_keys"]
    assert keys
    tracer = load_tracer()
    for key in keys:
        decoder, length, terminated = key.split(":")
        assert decoder in tracer.DECODERS and length.isdigit() and int(length) > 0, key
        assert terminated in ("True", "False"), key
    first, second = out["segments"]
    assert first == second > 1


def test_cli_names_the_benchmark_calls_work_on_a_trained_checkpoint(tmp_path, monkeypatch):
    # bench/run.py and bench/worker.py call these directly, and the tracer
    # spans decode_split and split_metrics by name and reads decode_split's
    # argument 1 as the decoded examples
    cli = layer("cli")
    for name in ("decode_split", "split_metrics", "parse_config", "build_dataset", "main"):
        assert callable(getattr(cli, name, None)), name
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": {"n_objects": 4, "n_contexts": 3, "n_images": 16, "feature_dim": 10,
                    "num_crops": 3},
        "captioner": {"hidden_dim": 6}, "discriminator": {"hidden_dim": 6},
        "gan": {"epochs": 0, "d_pretrain_epochs": 0}, "ce_pretrain": {"epochs": 1}}))
    assert cli.main(["train", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    ckpt = layer("data").load_checkpoint(tmp_path / "ckpt-00000.sgck")
    dataset = cli.build_dataset(cli.parse_config(ckpt.config))
    assert all(dataset.split(s) for s in ("val", "test", "ooc"))

    decoded_splits = []
    decode = cli.decode_split
    monkeypatch.setattr(cli, "decode_split", lambda models, examples: decoded_splits.append(
        len(examples)) or decode(models, examples))
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "ckpt-00000.sgck"),
                     "--split", "ooc", "--out-dir", str(tmp_path)]) == 0
    assert decoded_splits == [len(dataset.ooc)]
