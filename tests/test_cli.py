import json
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import per_member_decode

from seqgan import cli
from seqgan import data as dat
from seqgan import metrics as met
from seqgan.captioner import CaptionerConfig, ensemble_decode, init_params


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
        assert cfg.raw["gan"]["estimator"] == "scst"
        assert cfg.raw["dataset"]["n_images"] == 48

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        assert cli.main(["train", "--config", str(bad)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == 2

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

    def test_ooc_split_supported(self, trained_run):
        out = trained_run["tmp"] / "ooc"
        assert cli.main(["eval", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--split", "ooc", "--out-dir", str(out)]) == 0
        assert (out / "eval-ooc.csv").exists()

    def test_missing_checkpoint_is_runtime_error(self, trained_run):
        assert cli.main(["eval", "--checkpoint",
                         str(trained_run["tmp"] / "missing.sgck")]) == 1

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

    def test_unknown_estimator_exits_2(self, trained_run):
        assert cli.main(["grad-probe", "--checkpoint", str(trained_run["ckpts"][-1]),
                         "--estimators", "sctt", "--n-batches", "2"]) == 2


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
