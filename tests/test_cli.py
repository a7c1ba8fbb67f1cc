import json
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (caption_vec, per_caption_bleu4, per_caption_cider_d,
                     per_caption_rouge_l, per_member_decode, per_pair_semantic_score)

from seqgan import cli
from seqgan import data as dat
from seqgan import discriminator as disc
from seqgan import metrics as met
from seqgan.captioner import CaptionBatch, CaptionerConfig, ensemble_decode, init_params


TINY = {
    "seed": 3,
    "dataset": {"n_objects": 4, "n_contexts": 3, "n_images": 16, "feature_dim": 10,
                "num_crops": 3},
    "captioner": {"hidden_dim": 10, "max_len": 10},
    "discriminator": {"hidden_dim": 10},
    "gan": {"epochs": 1, "d_pretrain_epochs": 1, "batch_size": 4},
    "ce_pretrain": {"epochs": 2},
}


def write_config(tmp_path, name="config.json", **overrides):
    data = json.loads(json.dumps(TINY))
    data.update(overrides)
    data["out_dir"] = str(tmp_path / "run")
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_train")
    config = write_config(tmp)
    assert cli.main(["train", "--config", str(config)]) == 0
    out = tmp / "run"
    ckpts = sorted(out.glob("ckpt-*.sgck"))
    assert ckpts
    return {"tmp": tmp, "config": config, "out": out, "ckpts": ckpts}


def rewrite_checkpoint(src, dst, keep_idf=True, **config):
    """Copy a checkpoint, optionally without its stored idf or with
    top-level config sections updated."""
    ckpt = dat.load_checkpoint(src)
    if not keep_idf:
        ckpt.aux = {k: v for k, v in ckpt.aux.items() if k not in met.IDF_AUX}
    for section, values in config.items():
        ckpt.config[section] = {**ckpt.config[section], **values}
    dat.save_checkpoint(dst, ckpt)
    return str(dst)


def forbid_idf_refit(monkeypatch):
    def refit(corpus):
        raise AssertionError("idf refitted although the checkpoint stores it")

    monkeypatch.setattr(cli.met, "fit_idf", refit)


class TestConfigParsing:
    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(cli.ConfigError, match="gan.estimatr"):
            cli.parse_config({"gan": {"estimatr": "scst"}})
        with pytest.raises(cli.ConfigError, match="dataset.n_object"):
            cli.parse_config({"dataset": {"n_object": 3}})

    def test_type_mismatch_rejected(self):
        with pytest.raises(cli.ConfigError, match="gan.epochs"):
            cli.parse_config({"gan": {"epochs": "four"}})

    def test_defaults_fill_in(self):
        cfg = cli.parse_config({})
        assert cfg["gan"]["estimator"] == "scst"
        assert cfg["dataset"]["n_images"] == 48

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        assert cli.main(["train", "--config", str(bad)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("section, field, value", (
        ("ce_pretrain", "batch_size", -8), ("ce_pretrain", "batch_size", 0),
        ("ce_pretrain", "epochs", -1), ("ce_pretrain", "lr", 0.0),
        ("gan", "batch_size", 0), ("gan", "epochs", -1), ("gan", "temperature", 0.0)))
    def test_bad_size_rejected_with_path(self, section, field, value):
        with pytest.raises(cli.ConfigError, match=f"{section}.{field}"):
            cli.parse_config({section: {field: value}})

    @pytest.mark.parametrize("section, value", (("ce_pretrain", -8), ("ce_pretrain", 0),
                                                ("gan", 0)))
    def test_bad_batch_size_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    section, value):
        def no_work(*args, **kwargs):
            raise AssertionError("work started although the config is bad")

        monkeypatch.setattr(cli, "build_dataset", no_work)
        config = write_config(tmp_path, **{section: {**TINY[section], "batch_size": value}})
        assert cli.main(["train", "--config", str(config)]) == 2
        assert f"config error: {section}.batch_size" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, field, value", (
        ("gan", "epochs", 2.7), ("gan", "batch_size", 0.5), ("ce_pretrain", "epochs", 1.9),
        ("ce_pretrain", "batch_size", 3.5), ("dataset", "n_images", 20.25),
        ("gan", "epochs", float("inf"))))
    def test_fractional_integer_rejected_with_path(self, section, field, value):
        with pytest.raises(cli.ConfigError, match=f"{section}.{field}: expected an integer"):
            cli.parse_config({section: {field: value}})

    def test_integral_float_reads_as_int(self):
        cfg = cli.parse_config({"gan": {"epochs": 3.0}, "ce_pretrain": {"batch_size": 4.0}})
        assert cfg["gan"]["epochs"] == 3 and type(cfg["gan"]["epochs"]) is int
        assert cfg["ce_pretrain"]["batch_size"] == 4
        assert type(cfg["ce_pretrain"]["batch_size"]) is int

    @pytest.mark.parametrize("section, field, value", (
        ("gan", "epochs", 2.7), ("ce_pretrain", "epochs", 1.9),
        ("discriminator", "variant", "nope"), ("discriminator", "hidden_dim", 0),
        ("metrics", "cca_rank", 0), ("captioner", "attention", "bogus"),
        ("captioner", "hidden_dim", 0), ("captioner", "max_len", 0),
        ("dataset", "n_images", 2), ("dataset", "feature_dim", 5),
        ("dataset", "n_objects", 1), ("dataset", "words_per_object", 0),
        ("dataset", "words_per_context", 0), ("dataset", "num_crops", 0),
        ("dataset", "ooc_fraction", 2.0), ("dataset", "ooc_fraction", -3.0),
        ("dataset", "seed", -2), ("gan", "g_lr", -1.0), ("gan", "d_lr", 0),
        ("gan", "temperature", float("inf")), ("gan", "d_lr", float("nan")),
        ("ce_pretrain", "lr", float("inf")), ("dataset", "noise", float("nan"))))
    def test_bad_value_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                               section, field, value):
        def no_work(*args, **kwargs):
            raise AssertionError("work started although the config is bad")

        monkeypatch.setattr(cli, "build_dataset", no_work)
        config = write_config(tmp_path, **{section: {**TINY.get(section, {}), field: value}})
        assert cli.main(["train", "--config", str(config)]) == 2
        assert f"config error: {section}.{field}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_parsing_draws_no_array(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("parse_config drew model arrays")

        monkeypatch.setattr(disc, "_init_arrays", no_draw)
        monkeypatch.setattr(disc, "init_discriminator", no_draw)
        for variant in disc.VARIANTS:
            cfg = cli.parse_config({"discriminator": {"variant": variant}})
            assert cfg["discriminator"]["variant"] == variant
        with pytest.raises(cli.ConfigError, match="discriminator.variant must be one of"):
            cli.parse_config({"discriminator": {"variant": "nope"}})

    @pytest.mark.parametrize("switch", ("cider", "bleu4", "rouge_l", "semantic_score",
                                        "vocab_coverage"))
    def test_retired_metric_switch_exits_2_before_any_work(self, tmp_path, capsys,
                                                           monkeypatch, switch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started although the config is bad")

        monkeypatch.setattr(cli, "build_dataset", no_work)
        config = write_config(tmp_path, metrics={switch: False})
        assert cli.main(["train", "--config", str(config)]) == 2
        assert f"config error: unknown config key: metrics.{switch}" in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ("train", "gen-data"))
    @pytest.mark.parametrize("overrides, args, message", (
        ({"seed": -1}, [], "seed must be >= 0, got -1"),
        ({"dataset": {**TINY["dataset"], "seed": -2}}, [], "dataset.seed must be >= 0, got -2"),
        ({}, ["--seed-override", "-3"], "--seed-override must be >= 0, got -3")),
        ids=("seed", "dataset-seed", "seed-override"))
    def test_negative_seed_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                   command, overrides, args, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work started although the seed is bad")

        monkeypatch.setattr(cli, "build_dataset", no_work)
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(config), "--out-dir", str(out), *args]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_log_level_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEQGAN_LOG", "verbose")
        assert cli.main(["plots", str(tmp_path / "x.jsonl")]) == 2


class TestTrain:
    def test_outputs(self, trained_run):
        lines = (trained_run["out"] / "metrics.jsonl").read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": cli.METRICS_SCHEMA}
        records = [json.loads(l) for l in lines[1:]]
        assert len(records) == TINY["gan"]["epochs"]
        for rec in records:
            for key in ("epoch", "cider", "bleu4", "rouge_l", "semantic_score",
                        "vocab_coverage", "d_real", "d_fake", "d_random"):
                assert key in rec
        # initial + one per epoch
        assert len(trained_run["ckpts"]) == TINY["gan"]["epochs"] + 1

    def test_zero_epoch_config(self, tmp_path):
        config = write_config(tmp_path, gan={"epochs": 0, "d_pretrain_epochs": 0,
                                             "batch_size": 4})
        assert cli.main(["train", "--config", str(config)]) == 0
        out = tmp_path / "run"
        assert sorted(p.name for p in out.glob("ckpt-*.sgck")) == ["ckpt-00000.sgck"]
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1  # schema header only

    @pytest.mark.parametrize("max_len", (1, 8))
    def test_max_len_below_longest_reference_exits_2_before_ce(self, tmp_path, capsys,
                                                               monkeypatch, max_len):
        def no_ce(*args, **kwargs):
            raise AssertionError("CE pretraining started although max_len is too short")

        monkeypatch.setattr(cli.tr, "ce_pretrain", no_ce)
        config = write_config(tmp_path, captioner={**TINY["captioner"], "max_len": max_len})
        assert cli.main(["train", "--config", str(config)]) == 2
        assert (f"config error: captioner.max_len must be >= 9, the longest reference "
                f"caption with EOS, got {max_len}") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_max_len_equal_to_longest_reference_trains(self, tmp_path):
        config = write_config(tmp_path, captioner={**TINY["captioner"], "max_len": 9})
        assert cli.main(["train", "--config", str(config)]) == 0

    def test_byte_identical_reruns(self, trained_run, tmp_path):
        config2 = write_config(tmp_path)
        assert cli.main(["train", "--config", str(config2)]) == 0
        a = (trained_run["out"] / "metrics.jsonl").read_bytes()
        b = (tmp_path / "run" / "metrics.jsonl").read_bytes()
        assert a == b
        for ckpt in trained_run["ckpts"]:
            other = tmp_path / "run" / ckpt.name
            assert ckpt.read_bytes() == other.read_bytes()

    def test_checkpoints_store_the_train_idf(self, trained_run):
        dataset = cli.build_dataset(cli.load_config(trained_run["config"]))
        want = met.fit_idf([refs for _, refs in dataset.train])
        for path in trained_run["ckpts"]:
            assert met.NGramIdf.from_aux(dat.load_checkpoint(path).aux) == want

    def test_checkpoint_resumes_from_disk(self, trained_run):
        ckpt = dat.load_checkpoint(trained_run["ckpts"][-1])
        assert ckpt.epoch == TINY["gan"]["epochs"]
        assert ckpt.captioner is not None and ckpt.discriminator is not None
        assert ckpt.rng_state is not None


class TestDecodeSplit:
    @staticmethod
    def _models(n):
        config = CaptionerConfig(vocab_size=9, hidden_dim=5, num_crops=3, feature_dim=4,
                                 max_len=6)
        return [init_params(config, 40 + k) for k in range(n)]

    @pytest.mark.parametrize("n_models", [1, 2, 3])
    def test_tokens_equal_per_image_ensemble_and_per_member_loop(self, n_models):
        models = self._models(n_models)
        rng = np.random.default_rng(n_models)
        examples = [(SimpleNamespace(features=rng.normal(size=(3, 4))), None)
                    for _ in range(8)]
        decoded = cli.decode_split(models, examples)
        assert len(decoded) == len(examples)
        for seq, (scene, _) in zip(decoded, examples):
            assert seq == ensemble_decode(models, scene.features)
            assert seq == per_member_decode(models, scene.features)[0]

    def test_members_stacked_once_per_split(self, monkeypatch):
        calls = []
        stack = cli.stack_members
        monkeypatch.setattr(cli, "stack_members",
                            lambda ms: calls.append(len(ms)) or stack(ms))
        examples = [(SimpleNamespace(features=np.ones((3, 4)) * k), None) for k in range(5)]
        cli.decode_split(self._models(3), examples)
        assert calls == [3]


class TestSplitMetrics:
    def test_columns_equal_per_image_oracle(self):
        ds = dat.generate_dataset(seed=4, n_objects=4, n_contexts=3, n_images=24,
                                  num_crops=3, feature_dim=8)
        g = init_params(CaptionerConfig(vocab_size=ds.vocab.size, hidden_dim=6,
                                        num_crops=3, feature_dim=8, max_len=10), 2)
        idf = met.fit_idf([refs for _, refs in ds.train])
        scorer = met.SemanticScorer.fit(
            g.arrays["embed"], [ref for _, refs in ds.train for ref in refs],
            np.array([scene.features for scene, refs in ds.train for _ in refs]), 4)
        for examples in (ds.val, ds.test, ds.ooc):
            decoded, columns, report = cli.split_metrics([g], examples, idf, scorer,
                                                         ds.vocab.size)
            assert decoded == cli.decode_split([g], examples)
            refs = [refs for _, refs in examples]
            for name, oracle in (("cider", lambda c, r: per_caption_cider_d(c, r, idf)),
                                 ("bleu4", per_caption_bleu4),
                                 ("rouge_l", per_caption_rouge_l)):
                assert columns[name].tolist() == list(map(oracle, decoded, refs)), name
            want = [per_pair_semantic_score(scorer.model, caption_vec(scorer.embed, seq),
                                            scene.features.mean(axis=0))
                    for seq, (scene, _) in zip(decoded, examples)]
            np.testing.assert_allclose(columns["semantic_score"], want, rtol=0, atol=1e-12)
            assert report == {**{k: float(np.mean(v)) for k, v in columns.items()},
                              "vocab_coverage": met.vocabulary_coverage(decoded,
                                                                        ds.vocab.size)}
            no_scorer = cli.split_metrics([g], examples, idf, None, ds.vocab.size)[1]
            assert no_scorer["semantic_score"].tolist() == [0.0] * len(examples)


class TestEval:
    def test_eval_twice_identical_csv(self, trained_run):
        ckpt = str(trained_run["ckpts"][-1])
        out1 = trained_run["tmp"] / "eval1"
        out2 = trained_run["tmp"] / "eval2"
        assert cli.main(["eval", "--checkpoint", ckpt, "--split", "test",
                         "--out-dir", str(out1)]) == 0
        assert cli.main(["eval", "--checkpoint", ckpt, "--split", "test",
                         "--out-dir", str(out2)]) == 0
        assert (out1 / "eval-test.csv").read_bytes() == \
            (out2 / "eval-test.csv").read_bytes()
        header, columns = (out1 / "eval-test.csv").read_text().splitlines()[:2]
        assert header == f"# schema={cli.EVAL_SCHEMA}"
        assert columns == "image_id,caption,cider,semantic_score,d_score"

    def test_ensemble_of_identical_checkpoints_matches_single(self, trained_run):
        ckpt = str(trained_run["ckpts"][-1])
        single = trained_run["tmp"] / "single"
        triple = trained_run["tmp"] / "triple"
        assert cli.main(["eval", "--checkpoint", ckpt, "--split", "val",
                         "--out-dir", str(single)]) == 0
        assert cli.main(["eval", "--checkpoint", ckpt, "--checkpoint", ckpt,
                         "--checkpoint", ckpt, "--split", "val",
                         "--out-dir", str(triple)]) == 0
        assert (single / "eval-val.csv").read_bytes() == \
            (triple / "eval-val.csv").read_bytes()

    @pytest.mark.parametrize("n_members", [1, 2])
    def test_csv_same_with_and_without_stored_idf(self, trained_run, capsys, monkeypatch,
                                                  n_members):
        stored = [str(p) for p in trained_run["ckpts"][-n_members:]]
        refit = [rewrite_checkpoint(p, trained_run["tmp"] / f"no-idf-{k}.sgck",
                                    keep_idf=False) for k, p in enumerate(stored)]
        outputs = []
        for name, paths in (("refit", refit), ("stored", stored)):
            if name == "stored":
                forbid_idf_refit(monkeypatch)
            out = trained_run["tmp"] / f"idf-{name}-{n_members}"
            argv = ["eval", "--split", "val", "--out-dir", str(out)]
            for path in paths:
                argv += ["--checkpoint", path]
            assert cli.main(argv) == 0
            report = capsys.readouterr().out.splitlines()[0]
            outputs.append(((out / "eval-val.csv").read_bytes(), report))
        assert outputs[0] == outputs[1]

    def test_discriminator_bound_once_per_split(self, trained_run, monkeypatch):
        ckpt = dat.load_checkpoint(trained_run["ckpts"][-1])
        binds = []
        init = disc.BoundDiscriminator.__init__
        monkeypatch.setattr(disc.BoundDiscriminator, "__init__",
                            lambda self, tape, params: binds.append(tape.grad)
                            or init(self, tape, params))
        out = trained_run["tmp"] / "d-binds"
        assert cli.main(["eval", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--split", "val", "--out-dir", str(out)]) == 0
        assert binds == [False]
        monkeypatch.undo()
        # each row equals the caption scored alone
        examples = cli.build_dataset(cli.parse_config(ckpt.config)).val
        decoded = cli.decode_split([ckpt.captioner], examples)
        rows = (out / "eval-val.csv").read_text().splitlines()[2:]
        assert len(rows) == len(examples)
        for row, seq, (scene, _) in zip(rows, decoded, examples):
            want = disc.score(ckpt.discriminator, scene.features[None], CaptionBatch([seq]))[0]
            assert abs(float(row.rsplit(",", 1)[1]) - want) <= 1e-12

    def test_report_has_the_epoch_record_metrics(self, trained_run, capsys):
        assert cli.main(["eval", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--split", "val", "--out-dir",
                         str(trained_run["tmp"] / "report-keys")]) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        lines = (trained_run["out"] / "metrics.jsonl").read_text().splitlines()[1:]
        for line in lines:
            record_keys = {k for k in json.loads(line)
                           if k != "epoch" and not k.startswith("d_")}
            assert record_keys == set(report) - {"split"}

    @pytest.mark.parametrize("switch", (True, False))
    def test_checkpoint_with_retired_metric_switches_reads_the_same(self, trained_run,
                                                                   capsys, switch):
        tmp = trained_run["tmp"]
        original = str(trained_run["ckpts"][-1])
        switched = rewrite_checkpoint(original, tmp / f"switches-{switch}.sgck", metrics={
            name: switch for name in ("cider", "bleu4", "rouge_l", "semantic_score",
                                      "vocab_coverage")})
        assert "cider" in dat.load_checkpoint(switched).config["metrics"]
        outputs = []
        for name, path in (("original", original), ("switched", switched)):
            out = tmp / f"switches-{switch}-{name}"
            assert cli.main(["eval", "--checkpoint", path, "--split", "val",
                             "--out-dir", str(out)]) == 0
            assert cli.main(["grad-probe", "--checkpoint", path, "--estimators",
                             "scst,gumbel_st", "--n-batches", "2",
                             "--out-dir", str(out)]) == 0
            report = capsys.readouterr().out.splitlines()[0]
            outputs.append(((out / "eval-val.csv").read_bytes(), report,
                            (out / "grad_probe.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_ooc_split_supported(self, trained_run):
        out = trained_run["tmp"] / "ooc"
        assert cli.main(["eval", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--split", "ooc", "--out-dir", str(out)]) == 0
        assert (out / "eval-ooc.csv").exists()

    def test_missing_checkpoint_is_runtime_error(self, trained_run):
        assert cli.main(["eval", "--checkpoint",
                         str(trained_run["tmp"] / "missing.sgck")]) == 1

    def test_members_differing_only_in_seed_evaluate(self, trained_run):
        """A member trained with another top-level seed on the same dataset
        is accepted; with equal weights the ensemble decodes as one model."""
        path = str(trained_run["ckpts"][-1])
        ckpt = dat.load_checkpoint(path)
        ckpt.config["seed"] += 1
        reseeded = trained_run["tmp"] / "reseeded.sgck"
        dat.save_checkpoint(reseeded, ckpt)
        single, pair = trained_run["tmp"] / "seed-single", trained_run["tmp"] / "seed-pair"
        assert cli.main(["eval", "--checkpoint", path, "--split", "val",
                         "--out-dir", str(single)]) == 0
        assert cli.main(["eval", "--checkpoint", path, "--checkpoint", str(reseeded),
                         "--split", "val", "--out-dir", str(pair)]) == 0
        assert (single / "eval-val.csv").read_bytes() == (pair / "eval-val.csv").read_bytes()

    def test_members_from_another_dataset_exit_2(self, trained_run, capsys):
        path = str(trained_run["ckpts"][-1])
        other = rewrite_checkpoint(path, trained_run["tmp"] / "other-data.sgck",
                                   dataset={"n_objects": 5, "n_contexts": 5})
        out = trained_run["tmp"] / "mixed-data"
        assert cli.main(["eval", "--checkpoint", path, "--checkpoint", other,
                         "--split", "val", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {other}: dataset.n_objects is 5, but {path} was trained " \
            "with 4" in err
        assert not out.exists()

    def test_members_with_another_captioner_exit_2(self, trained_run, capsys):
        path = str(trained_run["ckpts"][-1])
        other = rewrite_checkpoint(path, trained_run["tmp"] / "other-captioner.sgck",
                                   captioner={"hidden_dim": 12})
        out = trained_run["tmp"] / "mixed-captioner"
        assert cli.main(["eval", "--checkpoint", path, "--checkpoint", other,
                         "--split", "val", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {other}: captioner.hidden_dim is 12, but {path} was " \
            "trained with 10; ensemble members must share one captioner config" in err
        assert not out.exists()

    def test_members_sharing_dataset_and_captioner_evaluate(self, trained_run):
        """Sections other than ``dataset`` and ``captioner`` may differ."""
        path = str(trained_run["ckpts"][-1])
        other = rewrite_checkpoint(path, trained_run["tmp"] / "other-gan.sgck",
                                   gan={"epochs": 3, "g_lr": 0.5},
                                   discriminator={"hidden_dim": 12})
        single, pair = trained_run["tmp"] / "gan-single", trained_run["tmp"] / "gan-pair"
        assert cli.main(["eval", "--checkpoint", path, "--split", "val",
                         "--out-dir", str(single)]) == 0
        assert cli.main(["eval", "--checkpoint", path, "--checkpoint", other,
                         "--split", "val", "--out-dir", str(pair)]) == 0
        assert (single / "eval-val.csv").read_bytes() == (pair / "eval-val.csv").read_bytes()

    def test_scorer_of_another_image_width_is_format_error_at_aux(self, trained_run, capsys):
        ckpt = dat.load_checkpoint(trained_run["ckpts"][-1])
        assert ckpt.aux["sem_V"].shape[0] == ckpt.captioner.config.feature_dim == 10
        ckpt.aux.update(sem_V=ckpt.aux["sem_V"][:-1], sem_mean_y=ckpt.aux["sem_mean_y"][:-1])
        bad = trained_run["tmp"] / "narrow-scorer.sgck"
        dat.save_checkpoint(bad, ckpt)
        message = "aux semantic scorer is malformed: sem_mean_y has 9 values for image " \
            "features of width 10"
        with pytest.raises(dat.FormatError, match=message) as err:
            dat.load_checkpoint(bad)
        assert err.value.offset == len(bad.read_bytes()) - len(dat._pack_table(ckpt.aux))
        out = trained_run["tmp"] / "narrow-scorer"
        assert cli.main(["eval", "--checkpoint", str(bad), "--split", "val",
                         "--out-dir", str(out)]) == 1
        assert f"FormatError: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda a: a["sem_sigma"].__setitem__(0, np.nan),
        lambda a: a.update(sem_embed=a["sem_embed"][:-3]),
        lambda a: a.update(sem_U=a["sem_U"][:, :-1]),
    ], ids=["nan-sigma", "embed-missing-rows", "U-missing-column"])
    def test_malformed_semantic_scorer_exits_1_before_any_csv(self, trained_run, capsys,
                                                              edit):
        ckpt = dat.load_checkpoint(trained_run["ckpts"][-1])
        edit(ckpt.aux)
        bad = trained_run["tmp"] / "bad-scorer.sgck"
        dat.save_checkpoint(bad, ckpt)
        out = trained_run["tmp"] / "bad-scorer"
        assert cli.main(["eval", "--checkpoint", str(bad), "--split", "val",
                         "--out-dir", str(out)]) == 1
        assert "FormatError: aux semantic scorer is malformed" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_split_rejected_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started although the split is bad")

        monkeypatch.setattr(cli.dat, "load_checkpoint", no_work)
        monkeypatch.setattr(cli, "build_dataset", no_work)
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.cmd_eval(["missing.sgck"], "bogus")

    def test_unknown_split_rejected_by_parser(self, trained_run, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--checkpoint", "x", "--split", "bogus"])
        assert exc.value.code == 2


class TestGradProbe:
    def test_row_count_and_summary(self, trained_run):
        out = trained_run["tmp"] / "probe"
        assert cli.main(["grad-probe", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--estimators", "scst,gumbel_st", "--n-batches", "3",
                         "--out-dir", str(out)]) == 0
        lines = (out / "grad_probe.csv").read_text().splitlines()
        assert lines[0] == f"# schema={cli.PROBE_SCHEMA}"
        rows = [l for l in lines if l and not l.startswith("#")
                and not l.startswith("batch_index")]
        assert len(rows) == 3 * 2
        summaries = [l for l in lines if l.startswith("# summary")]
        assert len(summaries) == 2
        assert any("estimator=scst" in s and "mean=" in s and "variance=" in s
                   for s in summaries)

    def test_summary_parses_back_to_printed_stats(self, trained_run, capsys):
        out = trained_run["tmp"] / "probe-summary"
        assert cli.main(["grad-probe", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--estimators", "scst,gumbel_soft", "--n-batches", "3",
                         "--out-dir", str(out)]) == 0
        printed = [l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("grad-probe ") and "mean=" in l]
        lines = (out / "grad_probe.csv").read_text().splitlines()
        summaries = [l for l in lines if l.startswith("# summary")]
        assert len(summaries) == len(printed) == 2
        for summary, shown in zip(summaries, printed):
            fields = dict(f.split("=", 1) for f in summary.split()[2:])
            est = fields["estimator"]
            mean, var = float(fields["mean"]), float(fields["variance"])
            assert shown == f"grad-probe {est}: mean={mean:.6g} variance={var:.6g}"
            norms = np.array([float(l.split(",")[2]) for l in lines
                              if l.split(",")[1:2] == [est]])
            assert (mean, var) == (norms.mean(), norms.var())

    def test_csv_same_with_and_without_stored_idf(self, trained_run, monkeypatch):
        # a CIDEr reward makes the probe read the idf
        cider = {"reward": "logD_plus_cider"}
        tmp = trained_run["tmp"]
        stored = rewrite_checkpoint(trained_run["ckpts"][-1], tmp / "probe-idf.sgck",
                                    gan=cider)
        refit = rewrite_checkpoint(trained_run["ckpts"][-1], tmp / "probe-no-idf.sgck",
                                   keep_idf=False, gan=cider)
        csvs = []
        for name, path in (("refit", refit), ("stored", stored)):
            if name == "stored":
                forbid_idf_refit(monkeypatch)
            out = tmp / f"probe-idf-{name}"
            assert cli.main(["grad-probe", "--checkpoint", path, "--estimators", "scst",
                             "--n-batches", "2", "--out-dir", str(out)]) == 0
            csvs.append((out / "grad_probe.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_diverging_batch_streams_exit_1(self, trained_run, monkeypatch, capsys):
        def probe(g, d, dataset, estimator, n_batches, rng, cfg, idf=None):
            return [1.0] * n_batches, [estimator] * n_batches

        monkeypatch.setattr(cli.tr, "grad_norm_probe", probe)
        out = trained_run["tmp"] / "probe-diverge"
        assert cli.main(["grad-probe", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--estimators", "scst,gumbel_st", "--n-batches", "2",
                         "--out-dir", str(out)]) == 1
        assert "ProbeError: estimators saw different batches" in capsys.readouterr().err
        assert not (out / "grad_probe.csv").exists()

    def test_negative_seed_override_exits_2_before_any_work(self, trained_run, capsys,
                                                            monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started although the seed is bad")

        monkeypatch.setattr(cli.dat, "load_checkpoint", no_work)
        out = trained_run["tmp"] / "probe-negative-seed"
        assert cli.main(["grad-probe", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--n-batches", "2", "--seed-override", "-100",
                         "--out-dir", str(out)]) == 2
        assert "config error: --seed-override must be >= 0, got -100" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_unknown_estimator_exits_2(self, trained_run):
        assert cli.main(["grad-probe", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--estimators", "sctt", "--n-batches", "2"]) == 2

    @pytest.mark.parametrize("estimators", (",", "", " , "))
    def test_empty_estimator_list_exits_2_before_any_work(self, trained_run, capsys,
                                                          monkeypatch, estimators):
        def no_work(*args, **kwargs):
            raise AssertionError("work started although no estimator was named")

        monkeypatch.setattr(cli.dat, "load_checkpoint", no_work)
        out = trained_run["tmp"] / "probe-no-estimator"
        assert cli.main(["grad-probe", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--estimators", estimators, "--out-dir", str(out)]) == 2
        assert "config error: --estimators must name one or more of" in \
            capsys.readouterr().err
        assert not out.exists()


class TestCheckpointWithoutAModel:
    """``eval`` needs every member's captioner and the first member's
    discriminator; ``grad-probe`` needs the captioner, and the discriminator
    for Gumbel or for SCST with a reward other than ``cider``.  A checkpoint
    without one exits 2 naming the path and the section, before any work."""

    @staticmethod
    def without(trained_run, section):
        ckpt = dat.load_checkpoint(trained_run["ckpts"][-1])
        setattr(ckpt, section, None)
        setattr(ckpt, {"captioner": "gen_opt", "discriminator": "disc_opt"}[section], None)
        path = trained_run["tmp"] / f"no-{section}.sgck"
        dat.save_checkpoint(path, ckpt)
        return str(path)

    @pytest.mark.parametrize("section", ["captioner", "discriminator"])
    @pytest.mark.parametrize("command", [
        ["eval", "--split", "val"],
        ["grad-probe", "--estimators", "scst,gumbel_st", "--n-batches", "2"]],
        ids=["eval", "grad-probe"])
    def test_exits_2_before_any_work(self, trained_run, capsys, monkeypatch, command,
                                     section):
        def no_work(*args, **kwargs):
            raise AssertionError("work started although a model is missing")

        monkeypatch.setattr(cli, "build_dataset", no_work)
        path = self.without(trained_run, section)
        out = trained_run["tmp"] / f"no-{section}-out"
        assert cli.main(command + ["--checkpoint", path, "--out-dir", str(out)]) == 2
        assert f"config error: {path}: checkpoint has no {section} section" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_eval_needs_every_members_captioner(self, trained_run, capsys):
        path = self.without(trained_run, "captioner")
        assert cli.main(["eval", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--checkpoint", path, "--split", "val"]) == 2
        assert f"{path}: checkpoint has no captioner section" in capsys.readouterr().err

    def test_ensemble_members_after_the_first_need_no_discriminator(self, trained_run):
        path = self.without(trained_run, "discriminator")
        out = trained_run["tmp"] / "no-discriminator-member"
        assert cli.main(["eval", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--checkpoint", path, "--split", "val",
                         "--out-dir", str(out)]) == 0

    def test_cider_scst_probe_needs_no_discriminator(self, trained_run):
        ckpt = dat.load_checkpoint(self.without(trained_run, "discriminator"))
        ckpt.config["gan"] = {**ckpt.config["gan"], "reward": "cider"}
        path = trained_run["tmp"] / "no-discriminator-cider.sgck"
        dat.save_checkpoint(path, ckpt)
        out = trained_run["tmp"] / "no-discriminator-cider"
        assert cli.main(["grad-probe", "--checkpoint", str(path), "--estimators", "scst",
                         "--n-batches", "2", "--out-dir", str(out)]) == 0
        for est in ("gumbel_soft", "gumbel_st"):
            assert cli.main(["grad-probe", "--checkpoint", str(path), "--estimators",
                             f"scst,{est}", "--n-batches", "2", "--out-dir", str(out)]) == 2


class TestPlots:
    def test_single_run_reshaped(self, trained_run):
        out = trained_run["tmp"] / "plots1"
        metrics = trained_run["out"] / "metrics.jsonl"
        assert cli.main(["plots", str(metrics), "--out-dir", str(out)]) == 0
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == f"# schema={cli.PLOTS_SCHEMA}"
        records = [json.loads(l) for l in metrics.read_text().splitlines()[1:]]
        expected_rows = sum(len(r) - 1 for r in records)
        assert len(lines) - 2 == expected_rows

    def test_two_runs_distinguished(self, trained_run, tmp_path):
        m1 = trained_run["out"] / "metrics.jsonl"
        run_b = tmp_path / "runb"
        run_b.mkdir()
        m2 = run_b / "metrics.jsonl"
        m2.write_text(m1.read_text())
        out = tmp_path / "plots2"
        assert cli.main(["plots", str(m1), str(m2), "--out-dir", str(out)]) == 0
        body = (out / "curves.csv").read_text()
        run_ids = {line.split(",")[0] for line in body.splitlines()[2:]}
        assert len(run_ids) == 2

    def test_schema_drift_exits_2(self, trained_run, tmp_path, capsys):
        m1 = trained_run["out"] / "metrics.jsonl"
        drifted = tmp_path / "metrics.jsonl"
        lines = m1.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["surprise_field"] = 1.0
        drifted.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n")
        assert cli.main(["plots", str(m1), str(drifted)]) == 2
        assert "surprise_field" in capsys.readouterr().err

    def test_missing_schema_header_exits_2(self, tmp_path):
        bad = tmp_path / "m.jsonl"
        bad.write_text(json.dumps({"epoch": 1}) + "\n")
        assert cli.main(["plots", str(bad)]) == 2

    @pytest.mark.parametrize("bad_line,message", [
        ('{"d_real": 0.5}', "record has no epoch"),
        ("{not json", "not valid JSON"),
        ("[1, 2]", "expected a JSON object, got list"),
    ], ids=["no-epoch", "not-json", "array"])
    def test_malformed_record_exits_2_naming_its_line(self, trained_run, tmp_path, capsys,
                                                      bad_line, message):
        lines = (trained_run["out"] / "metrics.jsonl").read_text().splitlines()
        bad = tmp_path / "metrics.jsonl"
        bad.write_text("\n".join(lines[:2] + [bad_line] + lines[2:]) + "\n")
        out = tmp_path / "plots-bad"
        assert cli.main(["plots", str(bad), "--out-dir", str(out)]) == 2
        assert f"config error: {bad}:3: {message}" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    def test_curves_support_cross_metric_analysis(self, trained_run, tmp_path):
        # the long format must let a consumer align two metrics by epoch,
        # e.g. to correlate vocabulary coverage with the semantic score
        out = tmp_path / "plots3"
        assert cli.main(["plots", str(trained_run["out"] / "metrics.jsonl"),
                         "--out-dir", str(out)]) == 0
        series = {}
        for line in (out / "curves.csv").read_text().splitlines()[2:]:
            run_id, epoch, metric, value = line.split(",")
            series.setdefault(metric, {})[int(epoch)] = float(value)
        epochs = sorted(series["vocab_coverage"])
        assert epochs == sorted(series["semantic_score"])
        paired = [(series["vocab_coverage"][e], series["semantic_score"][e])
                  for e in epochs]
        assert all(np.isfinite(v) for pair in paired for v in pair)


class TestGenData:
    def test_writes_loadable_features(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "data"
        assert cli.main(["gen-data", "--config", str(config),
                         "--out-dir", str(out)]) == 0
        for split in ("train", "val", "test", "ooc"):
            scenes = dat.load_features(out / f"{split}.sgf")
            assert scenes and scenes[0].features.shape == (3, 10)
        payload = json.loads((out / "captions.json").read_text())
        assert payload["schema"] == "seqgan.captions.v1"
        assert len(payload["splits"]["train"]) == len(dat.load_features(out / "train.sgf"))
