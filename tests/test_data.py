import hashlib
import json
import os
import struct
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqgan import autodiff as ad
from seqgan import cli
from seqgan import data as dat
from seqgan import discriminator as disc
from seqgan import metrics as met
from seqgan import training as tr
from seqgan.captioner import CaptionerConfig, InputError, init_params


def small_dataset(seed=0, **kw):
    args = dict(seed=seed, n_objects=4, n_contexts=3, n_images=12,
                num_crops=3, feature_dim=10)
    args.update(kw)
    return dat.generate_dataset(**args)


class TestGenerateDataset:
    def test_ooc_pairs_disjoint_from_train(self):
        ds = small_dataset()
        assert ds.ooc_pairs and ds.train_pairs
        assert not (ds.ooc_pairs & ds.train_pairs)
        for scene, _ in ds.ooc:
            assert all(pair in ds.ooc_pairs for pair in scene.labels)
        for name in ("train", "val", "test"):
            for scene, _ in ds.split(name):
                assert all(pair in ds.train_pairs for pair in scene.labels)

    def test_same_seed_identical(self):
        a, b = small_dataset(seed=9), small_dataset(seed=9)
        for name in ("train", "val", "test", "ooc"):
            for (sa, ra), (sb, rb) in zip(a.split(name), b.split(name)):
                np.testing.assert_array_equal(sa.features, sb.features)
                assert sa.labels == sb.labels and sa.image_id == sb.image_id
                assert [r.tokens for r in ra] == [r.tokens for r in rb]
        assert a.vocab.words == b.vocab.words

    @pytest.mark.parametrize("dataset,digest,feature_sum,feature_abs_sum", [
        ({}, "f3e459b88aa4712049b5a31041c606e2276aa10abe24f141d47328ab503a4a42",
         102.9842204337824, 912.8395780772083),
        ({"n_images": 480}, "816ba0fc4d63dd5dc83194012c3fc9bb0847e6d97d0e0b0b3f24077e325bc783",
         1363.2312356933962, 9002.307638561473),
        ({"n_images": 100, "seed": 7},
         "9d7005091e12fccf1d46c2ccb30be14f0dd5891c7b22a7c63eec910fc7373e28",
         -497.18646415903686, 1831.5902974577025),
    ], ids=["default", "n_images-480", "n_images-100-seed-7"])
    def test_pinned_datasets(self, dataset, digest, feature_sum, feature_abs_sum):
        # pinned from the generator that drew each image's pair with
        # rng.choice(len(train_pairs), p=weights): the image ids, labels and
        # references exactly, the features (which go through a QR
        # factorization) by two sums
        ds = cli.build_dataset(cli.parse_config({"dataset": dataset}))
        h = hashlib.sha256()
        feats = []
        for name in ("train", "val", "test", "ooc"):
            for scene, refs in ds.split(name):
                h.update(repr((scene.image_id, [(int(o), int(c)) for o, c in scene.labels],
                               [[int(t) for t in r.tokens] for r in refs])).encode())
                feats.append(scene.features)
        assert h.hexdigest() == digest
        feats = np.stack(feats)
        assert abs(feats.sum() - feature_sum) <= 1e-9 * feature_abs_sum
        assert abs(np.abs(feats).sum() - feature_abs_sum) <= 1e-9 * feature_abs_sum

    def test_different_seed_differs(self):
        a, b = small_dataset(seed=1), small_dataset(seed=2)
        diff = any(not np.array_equal(sa.features, sb.features)
                   for (sa, _), (sb, _) in zip(a.train, b.train))
        assert diff

    def test_reference_protocol(self):
        ds = small_dataset()
        K = ds.vocab.size
        for name in ("train", "val", "test", "ooc"):
            for scene, refs in ds.split(name):
                assert len(refs) == 5
                for r in refs:
                    assert r.terminated
                    assert r.tokens[-1] == ds.vocab.eos_id
                    assert 5 <= len(r.tokens) <= 9  # 4-8 words plus EOS
                    assert all(0 <= t < K for t in r.tokens)
                    assert ds.vocab.bos_id not in r.tokens

    def test_scene_shapes_and_noise_structure(self):
        ds = small_dataset(seed=4)
        scene, _ = ds.train[0]
        assert scene.features.shape == (3, 10)
        # crops of one scene differ only by noise around a shared concept
        spread = np.std(scene.features, axis=0).max()
        assert 0 < spread < 0.5

    def test_vocab_size_in_band(self):
        ds = dat.generate_dataset(seed=0, n_objects=8, n_contexts=5,
                                  n_images=12, num_crops=4, feature_dim=16)
        assert 40 <= ds.vocab.size <= 200

    def test_infeasible_requests_rejected(self):
        with pytest.raises(dat.ParameterError):
            dat.generate_dataset(seed=0, n_objects=1, n_contexts=2, n_images=8)
        with pytest.raises(dat.ParameterError):
            dat.generate_dataset(seed=0, n_objects=6, n_contexts=4,
                                 n_images=8, feature_dim=6)

    @pytest.mark.parametrize("kw, message", (
        ({"vocab_spec": dat.VocabSpec(0, 2)}, "words_per_object must be >= 1, got 0"),
        ({"vocab_spec": dat.VocabSpec(2, 0)}, "words_per_context must be >= 1, got 0"),
        ({"num_crops": 0}, "num_crops must be >= 1, got 0"),
        ({"ooc_fraction": 2.0}, r"ooc_fraction must be in \[0, 1\], got 2.0"),
        ({"ooc_fraction": -3.0}, r"ooc_fraction must be in \[0, 1\], got -3.0"),
        ({"ooc_fraction": float("nan")}, "ooc_fraction must be in")))
    def test_bad_sizes_rejected_led_by_the_argument(self, kw, message):
        with pytest.raises(dat.ParameterError, match=f"^{message}"):
            small_dataset(**kw)
        args = {"num_crops": 3, "ooc_fraction": 0.15, "vocab_spec": dat.VocabSpec()} | kw
        with pytest.raises(dat.ParameterError, match=f"^{message}"):
            dat.check_dataset_request(4, 3, 12, 10, **args)

    @pytest.mark.parametrize("ooc_fraction", (0.0, 1.0))
    def test_ooc_fraction_bounds_accepted(self, ooc_fraction):
        assert small_dataset(ooc_fraction=ooc_fraction).ooc


class TestFeatureFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(3, 5)).astype(np.float32) for _ in range(4)]
        path = tmp_path / "feats.sgf"
        dat.write_features(path, arrays)
        scenes = dat.load_features(path)
        assert len(scenes) == 4
        for scene, arr in zip(scenes, arrays):
            np.testing.assert_array_equal(scene.features, arr.astype(np.float64))
        # write -> read -> write is byte identical
        path2 = tmp_path / "feats2.sgf"
        dat.write_features(path2, [s.features for s in scenes])
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_is_format_error(self, tmp_path):
        path = tmp_path / "feats.sgf"
        dat.write_features(path, [np.zeros((2, 3))])
        blob = path.read_bytes()
        for cut in (2, 10, len(blob) - 5):
            bad = tmp_path / f"cut{cut}.sgf"
            bad.write_bytes(blob[:cut])
            with pytest.raises(dat.FormatError) as err:
                dat.load_features(bad)
            assert err.value.offset is not None

    @pytest.mark.parametrize("count, crops, dim, offset", ((3, 0, 5, 8), (0, 4, 5, 4),
                                                           (2, 3, 0, 12), (0, 0, 0, 4)))
    def test_zero_header_field_is_format_error(self, tmp_path, count, crops, dim, offset):
        path = tmp_path / "empty.sgf"
        path.write_bytes(b"SGF1" + struct.pack("<III", count, crops, dim))
        with pytest.raises(dat.FormatError) as err:
            dat.load_features(path)
        assert err.value.offset == offset

    @pytest.mark.parametrize("shape", ((0, 4), (3, 0), (0, 0)))
    def test_zero_sized_arrays_not_written(self, tmp_path, shape):
        path = tmp_path / "empty.sgf"
        with pytest.raises(InputError):
            dat.write_features(path, [np.zeros(shape)])
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sgf"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(dat.FormatError):
            dat.load_features(path)

    def test_paper_scale_header(self, tmp_path):
        # one image at 196 crops x 2048 dims parses fine
        path = tmp_path / "paper.sgf"
        dat.write_features(path, [np.zeros((196, 2048), dtype=np.float32)])
        scenes = dat.load_features(path, expected_crops=196, expected_dim=2048)
        assert scenes[0].features.shape == (196, 2048)

    def test_shape_validation(self, tmp_path):
        path = tmp_path / "feats.sgf"
        dat.write_features(path, [np.zeros((2, 3))])
        with pytest.raises(dat.FormatError):
            dat.load_features(path, expected_crops=4)


def split_container(blob):
    """(name, payload) pairs of a checkpoint container, in table order."""
    (n_sections,) = struct.unpack_from("<I", blob, 8)
    off, table = 12, []
    for _ in range(n_sections):
        (nlen,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2 : off + 2 + nlen].decode()
        (plen,) = struct.unpack_from("<Q", blob, off + 2 + nlen)
        off += 2 + nlen + 8
        table.append((name, plen))
    sections = []
    for name, plen in table:
        sections.append((name, blob[off : off + plen]))
        off += plen
    return sections


def join_container(sections, version=dat._CKPT_VERSION):
    chunks = [b"SGCK", struct.pack("<II", version, len(sections))]
    for name, payload in sections:
        nb = name if isinstance(name, bytes) else name.encode()
        chunks += [struct.pack("<H", len(nb)), nb, struct.pack("<Q", len(payload))]
    return b"".join(chunks + [payload for _, payload in sections])


# column blocks of the fused LSTM cells, by gate, as version 1 named their arrays
V1_BLOCKS = {"gen": ("i", "f", "o", "sent", "g"), "disc": ("i", "f", "o", "g")}


def v1_gate_names(gate, prefix=""):
    names = ("sent_Wx", "sent_Wh", "sent_b") if gate == "sent" else \
        (f"lstm_Wx_{gate}", f"lstm_Wh_{gate}", f"lstm_b_{gate}")
    return [prefix + name for name in names]


def as_version_1(blob, edit=lambda section, table: None):
    """A checkpoint rewritten as version 1 wrote it: each fused ``lstm_W``/
    ``lstm_b`` (in the model tables and in the Adam moments) split into every
    gate's W_x, W_h and b, and ``__step`` as a one-element array.
    ``edit(section, table)`` may then alter a converted table."""
    sections = split_container(blob)
    meta = json.loads(sections[0][1])
    hidden = {"gen": meta["captioner_config"]["hidden_dim"],
              "disc": meta["discriminator"]["config"]["hidden_dim"]}
    out = []
    for name, payload in sections:
        model = name.removesuffix("_opt")
        if model in V1_BLOCKS:
            table, m = dat._unpack_table(payload, 0), hidden[model]
            for prefix in ("m__", "v__") if name != model else ("",):
                W, b = table.pop(prefix + "lstm_W"), table.pop(prefix + "lstm_b")
                rows = W.shape[0]
                for j, gate in enumerate(V1_BLOCKS[model]):
                    cols = slice(j * m, (j + 1) * m)
                    table.update(zip(v1_gate_names(gate, prefix),
                                     (W[: rows - m, cols], W[rows - m :, cols], b[:, cols])))
            if "__step" in table:
                table["__step"] = table["__step"].reshape(1)
            edit(name, table)
            payload = dat._pack_table(table)
        out.append((name, payload))
    return join_container(out, version=1)


def test_one_parameter_error_class():
    assert dat.ParameterError is ad.ParameterError


class TestCheckpoint:
    def _make(self, with_rng=True):
        gcfg = CaptionerConfig(vocab_size=7, hidden_dim=4, num_crops=2,
                               feature_dim=3, max_len=5)
        dcfg = disc.DiscriminatorConfig(vocab_size=7, hidden_dim=4,
                                        num_crops=2, feature_dim=3)
        g = init_params(gcfg, 0)
        d = disc.init_discriminator(dcfg, 1, "jointemb")
        rng = np.random.default_rng(33)
        rng.random(17)  # advance the stream
        return dat.Checkpoint(
            captioner=g, discriminator=d,
            gen_opt=tr.init_adam(g.arrays), disc_opt=tr.init_adam(d.arrays),
            config={"lr": 0.001, "label": "unit"},
            rng_state=rng.bit_generator.state if with_rng else None,
            epoch=3, aux={"cca_sigma": np.array([0.5, 0.25])})

    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = self._make()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dat.save_checkpoint(p1, ckpt)
        loaded = dat.load_checkpoint(p1)
        dat.save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fields_roundtrip(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "c.ckpt"
        dat.save_checkpoint(path, ckpt)
        loaded = dat.load_checkpoint(path)
        assert loaded.epoch == 3
        assert loaded.config == {"lr": 0.001, "label": "unit"}
        assert loaded.captioner.config == ckpt.captioner.config
        assert loaded.discriminator.variant == "jointemb"
        for k in ckpt.captioner.arrays:
            np.testing.assert_array_equal(loaded.captioner.arrays[k],
                                          ckpt.captioner.arrays[k])
        np.testing.assert_array_equal(loaded.aux["cca_sigma"], [0.5, 0.25])
        assert loaded.gen_opt.step == 0

    def test_rng_state_roundtrip_continues_stream(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "d.ckpt"
        dat.save_checkpoint(path, ckpt)
        loaded = dat.load_checkpoint(path)

        reference = np.random.default_rng(33)
        reference.random(17)
        restored = dat.rng_from_state(loaded.rng_state)
        np.testing.assert_array_equal(restored.random(5), reference.random(5))

    def test_corrupted_magic_is_version_error(self, tmp_path):
        path = tmp_path / "e.ckpt"
        dat.save_checkpoint(path, self._make())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(dat.VersionError):
            dat.load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "f.ckpt"
        dat.save_checkpoint(path, self._make())
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(dat.VersionError):
            dat.load_checkpoint(path)

    def test_truncation_is_format_error(self, tmp_path):
        path = tmp_path / "g.ckpt"
        dat.save_checkpoint(path, self._make())
        blob = path.read_bytes()
        bad = tmp_path / "g_cut.ckpt"
        bad.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(dat.FormatError):
            dat.load_checkpoint(bad)

    def _rebuilt(self, tmp_path, edit):
        path = tmp_path / "h.ckpt"
        dat.save_checkpoint(path, self._make())
        sections = split_container(path.read_bytes())
        assert join_container(sections) == path.read_bytes()
        bad = tmp_path / "h_bad.ckpt"
        bad.write_bytes(edit(sections))
        return bad

    @pytest.mark.parametrize("section", ["gen", "disc"])
    def test_meta_naming_a_missing_model_section_is_format_error(self, tmp_path, section):
        bad = self._rebuilt(tmp_path, lambda secs: join_container(
            [(n, p) for n, p in secs if n != section]))
        with pytest.raises(dat.FormatError, match=section):
            dat.load_checkpoint(bad)

    def test_trailing_bytes_are_format_error(self, tmp_path):
        bad = self._rebuilt(tmp_path, lambda secs: join_container(secs) + b"\0")
        with pytest.raises(dat.FormatError, match="trailing"):
            dat.load_checkpoint(bad)

    def test_unknown_section_is_format_error(self, tmp_path):
        bad = self._rebuilt(tmp_path, lambda secs: join_container(
            secs + [("gen_optt", b"8 bytes!")]))
        with pytest.raises(dat.FormatError, match="unknown section 'gen_optt'") as err:
            dat.load_checkpoint(bad)
        assert err.value.offset == len(bad.read_bytes()) - 8  # the section's payload

    def test_duplicate_section_is_format_error(self, tmp_path):
        bad = self._rebuilt(tmp_path, lambda secs: join_container(secs + [secs[-1]]))
        with pytest.raises(dat.FormatError, match="duplicate"):
            dat.load_checkpoint(bad)

    @pytest.mark.parametrize("section", ["gen", "disc", "gen_opt", "disc_opt", "aux"])
    def test_leftover_bytes_in_a_tensor_table_are_format_error(self, tmp_path, section):
        bad = self._rebuilt(tmp_path, lambda secs: join_container(
            [(n, p + b"junk" if n == section else p) for n, p in secs]))
        with pytest.raises(dat.FormatError, match="left over"):
            dat.load_checkpoint(bad)

    @pytest.mark.parametrize("key", ["epoch", "config", "rng_state"])
    def test_meta_missing_a_key_is_format_error(self, tmp_path, key):
        def drop(secs):
            meta = json.loads(secs[0][1])
            del meta[key]
            return join_container([("meta", json.dumps(meta).encode())] + secs[1:])

        with pytest.raises(dat.FormatError, match=key):
            dat.load_checkpoint(self._rebuilt(tmp_path, drop))

    @pytest.mark.parametrize("meta", [b"\xff\xfe{}", b'{"epoch": 3', b"[1, 2]"])
    def test_unreadable_meta_is_format_error(self, tmp_path, meta):
        bad = self._rebuilt(tmp_path, lambda secs: join_container(
            [("meta", meta)] + secs[1:]))
        with pytest.raises(dat.FormatError, match="meta"):
            dat.load_checkpoint(bad)

    def test_non_utf8_section_name_is_format_error(self, tmp_path):
        bad = self._rebuilt(tmp_path, lambda secs: join_container(secs + [(b"\xffx", b"")]))
        with pytest.raises(dat.FormatError, match="UTF-8"):
            dat.load_checkpoint(bad)

    @pytest.mark.parametrize("section,name", [
        ("gen", b"embed"), ("disc", b"head_M"), ("gen_opt", b"__step"), ("aux", b"cca_sigma")])
    def test_non_utf8_tensor_name_is_format_error(self, tmp_path, section, name):
        broken = b"\xff" + name[1:]
        bad = self._rebuilt(tmp_path, lambda secs: join_container(
            [(n, p.replace(name, broken, 1) if n == section else p) for n, p in secs]))
        with pytest.raises(dat.FormatError, match="UTF-8"):
            dat.load_checkpoint(bad)

    @staticmethod
    def _edit_meta(edit):
        def rebuild(secs):
            meta = json.loads(secs[0][1])
            edit(meta)
            return join_container([("meta", json.dumps(meta).encode())] + secs[1:])
        return rebuild

    @pytest.mark.parametrize("edit", [
        lambda m: m["captioner_config"].update(bogus=1),
        lambda m: m["captioner_config"].pop("vocab_size"),
        lambda m: m["captioner_config"].update(hidden_dim=0),
        lambda m: m["captioner_config"].update(hidden_dim=4.0),
        lambda m: m.update(captioner_config=[7, 4]),
        lambda m: m["discriminator"]["config"].update(bogus=1),
        lambda m: m["discriminator"]["config"].pop("vocab_size"),
        lambda m: m["discriminator"]["config"].update(num_crops="two"),
        lambda m: m["discriminator"]["config"].update(num_crops=True),
        lambda m: m["discriminator"].pop("config"),
        lambda m: m.update(discriminator="jointemb"),
    ], ids=["gen-unknown-key", "gen-missing-key", "gen-bad-value", "gen-float",
            "gen-not-object", "disc-unknown-key", "disc-missing-key", "disc-str",
            "disc-bool", "disc-no-config", "disc-not-object"])
    def test_malformed_model_config_is_format_error(self, tmp_path, edit):
        with pytest.raises(dat.FormatError, match="meta"):
            dat.load_checkpoint(self._rebuilt(tmp_path, self._edit_meta(edit)))

    @pytest.mark.parametrize("epoch", ["x", -1, 2.0, True, None, [3]],
                             ids=["string", "negative", "float", "bool", "null", "list"])
    def test_malformed_epoch_is_format_error(self, tmp_path, epoch):
        bad = self._rebuilt(tmp_path, self._edit_meta(lambda m: m.update(epoch=epoch)))
        with pytest.raises(dat.FormatError, match="meta epoch") as err:
            dat.load_checkpoint(bad)
        assert err.value.offset == 12

    @pytest.mark.parametrize("state", [
        {"foo": 1}, "x", [1], {"bit_generator": "MT19937", "state": {}},
        {"bit_generator": "PCG64", "state": {"state": -1, "inc": 1}, "has_uint32": 0,
         "uinteger": 0},
        {"bit_generator": "PCG64", "state": {"state": 1, "inc": 1}, "has_uint32": 0}],
        ids=["foo", "string", "list", "other-generator", "negative-state", "no-uinteger"])
    def test_malformed_rng_state_is_format_error(self, tmp_path, state):
        bad = self._rebuilt(tmp_path, self._edit_meta(lambda m: m.update(rng_state=state)))
        with pytest.raises(dat.FormatError, match="meta rng_state") as err:
            dat.load_checkpoint(bad)
        assert err.value.offset == 12

    @staticmethod
    def _edit_table(section, edit):
        """Rebuild the container with ``edit(arrays)`` applied to one table."""
        def rebuild(secs):
            out = []
            for n, p in secs:
                if n == section:
                    arrays = dat._unpack_table(p, 0)
                    edit(arrays)
                    p = dat._pack_table(arrays)
                out.append((n, p))
            return join_container(out)
        return rebuild

    @pytest.mark.parametrize("edit,section", [
        (lambda m: m["captioner_config"].update(hidden_dim=5), "gen"),
        (lambda m: m["captioner_config"].update(vocab_size=8), "gen"),
        (lambda m: m["discriminator"]["config"].update(hidden_dim=5), "disc"),
        (lambda m: m["discriminator"].update(variant="coatt"), "disc"),
    ], ids=["gen-hidden", "gen-vocab", "disc-hidden", "disc-variant"])
    def test_arrays_not_matching_the_config_are_format_error(self, tmp_path, edit, section):
        with pytest.raises(dat.FormatError, match=f"section '{section}'"):
            dat.load_checkpoint(self._rebuilt(tmp_path, self._edit_meta(edit)))

    @pytest.mark.parametrize("change", ["drop", "add", "reshape"])
    @pytest.mark.parametrize("section", ["gen", "disc"])
    def test_model_table_not_matching_the_config_is_format_error(self, tmp_path, section,
                                                                  change):
        def edit(arrays):
            if change == "drop":
                del arrays["embed"]
            elif change == "add":
                arrays["extra"] = np.zeros((1, 1))
            else:
                arrays["embed"] = arrays["embed"].reshape(1, -1)

        with pytest.raises(dat.FormatError, match=f"section '{section}'"):
            dat.load_checkpoint(self._rebuilt(tmp_path, self._edit_table(section, edit)))

    @pytest.mark.parametrize("edit", [
        lambda t: t.pop("__step"),
        lambda t: t.update(__step=np.array([1.5])),
        lambda t: t.update(__step=np.array([-1.0])),
        lambda t: t.update(__step=np.array([np.nan])),
        lambda t: t.update(__step=np.zeros(2)),
        lambda t: t.update(m__embed=np.zeros((2, 2))),
        lambda t: t.update(v__embed=t["v__embed"].reshape(1, -1)),
        lambda t: t.pop("v__embed"),
        lambda t: t.update(m__bogus=t.pop("m__embed")),
        lambda t: t.update(extra=np.zeros(1)),
    ], ids=["no-step", "fractional-step", "negative-step", "nan-step", "two-steps",
            "m-shape", "v-shape", "v-missing", "m-renamed", "stray-entry"])
    @pytest.mark.parametrize("section", ["gen_opt", "disc_opt"])
    def test_adam_table_not_matching_the_model_is_format_error(self, tmp_path, section,
                                                               edit):
        with pytest.raises(dat.FormatError, match=f"section '{section}'"):
            dat.load_checkpoint(self._rebuilt(tmp_path, self._edit_table(section, edit)))

    def test_adam_table_without_its_model_is_format_error(self, tmp_path):
        def drop_gen(secs):
            meta = json.loads(secs[0][1])
            meta["captioner_config"] = None
            return join_container([("meta", json.dumps(meta).encode())]
                                  + [(n, p) for n, p in secs[1:] if n != "gen"])

        with pytest.raises(dat.FormatError, match="section 'gen_opt'"):
            dat.load_checkpoint(self._rebuilt(tmp_path, drop_gen))

    def test_adam_moments_round_trip(self, tmp_path):
        ckpt = self._make()
        ckpt.gen_opt.step = 12
        ckpt.gen_opt.m["embed"] += 0.25
        path = tmp_path / "adam.ckpt"
        dat.save_checkpoint(path, ckpt)
        loaded = dat.load_checkpoint(path).gen_opt
        assert loaded.step == 12
        assert sorted(loaded.m) == sorted(loaded.v) == sorted(ckpt.captioner.arrays)
        np.testing.assert_array_equal(loaded.m["embed"], ckpt.gen_opt.m["embed"])

    def _with_idf(self):
        ckpt = self._make()
        idf = met.fit_idf([[[2, 3, 4, 1], [2, 5, 1]], [[3, 4, 1]], [[6, 2, 3, 1]]])
        ckpt.aux.update(idf.to_aux())
        return ckpt, idf

    def test_idf_aux_round_trip(self, tmp_path):
        ckpt, idf = self._with_idf()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dat.save_checkpoint(p1, ckpt)
        loaded = dat.load_checkpoint(p1)
        assert met.NGramIdf.from_aux(loaded.aux) == idf
        np.testing.assert_array_equal(loaded.aux["cca_sigma"], [0.5, 0.25])
        dat.save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda a: a["idf_grams"].__setitem__((0, 0), 2.5),
        lambda a: a["idf_grams"].__setitem__((0, 0), np.nan),
        lambda a: a["idf_grams"].__setitem__((0, 0), -2.0),
        lambda a: a["idf_grams"].__setitem__((0, 0), -1.0),
        lambda a: a["idf_grams"].__setitem__((-1, 1), -1.0),
        lambda a: a.update(idf_grams=a["idf_grams"][:, :3]),
        lambda a: a["idf_df"].__setitem__(0, 0.0),
        lambda a: a["idf_df"].__setitem__(0, a["idf_docs"][0] + 1),
        lambda a: a["idf_df"].__setitem__(0, 1.5),
        lambda a: a.update(idf_df=a["idf_df"][:-1]),
        lambda a: a["idf_grams"].__setitem__(1, a["idf_grams"][0]),
        lambda a: a.update(idf_docs=np.array([0.0])),
        lambda a: a.update(idf_docs=np.array([3.5])),
        lambda a: a.update(idf_docs=np.array([3.0, 3.0])),
        lambda a: a.pop("idf_df"),
    ], ids=["fractional-token", "nan-token", "negative-token", "empty-gram", "gap-in-gram",
            "three-columns", "df-zero", "df-above-corpus", "fractional-df",
            "mismatched-lengths", "duplicate-gram", "no-documents", "fractional-corpus",
            "two-corpus-sizes", "df-missing"])
    def test_malformed_idf_table_is_format_error(self, tmp_path, edit):
        ckpt, _ = self._with_idf()
        aux = {k: v.copy() for k, v in ckpt.aux.items()}
        edit(aux)
        ckpt.aux = aux
        path = tmp_path / "idf.ckpt"
        dat.save_checkpoint(path, ckpt)
        with pytest.raises(dat.FormatError, match="idf"):
            dat.load_checkpoint(path)

    def _with_scorer(self):
        ckpt = self._make()
        rng = np.random.default_rng(8)
        cca = met.fit_cca(rng.normal(size=(12, 4)), rng.normal(size=(12, 3)), 2)
        scorer = met.SemanticScorer(ckpt.captioner.arrays["embed"].copy(), cca)
        ckpt.aux.update(scorer.to_aux())
        return ckpt, scorer

    def test_semantic_scorer_aux_round_trip(self, tmp_path):
        ckpt, scorer = self._with_scorer()
        path = tmp_path / "sem.ckpt"
        dat.save_checkpoint(path, ckpt)
        loaded = met.SemanticScorer.from_aux(dat.load_checkpoint(path).aux, vocab_size=7)
        for name, arr in scorer.to_aux().items():
            np.testing.assert_array_equal(loaded.to_aux()[name], arr)
        feats = np.random.default_rng(9).uniform(-1, 1, (2, 3))
        assert loaded.score([[2, 3, 1]], feats[None]).tolist() == \
            scorer.score([[2, 3, 1]], feats[None]).tolist()
        assert met.SemanticScorer.from_aux({"cca_sigma": np.ones(2)}) is None

    @pytest.mark.parametrize("edit", [
        lambda a: a["sem_sigma"].__setitem__(0, np.nan),
        lambda a: a["sem_mean_y"].__setitem__(0, np.inf),
        lambda a: a.update(sem_embed=a["sem_embed"][:-3]),
        lambda a: a.update(sem_embed=a["sem_embed"][:, :-1]),
        lambda a: a.update(sem_U=a["sem_U"][:, :-1]),
        lambda a: a.update(sem_V=a["sem_V"][:-1]),
        lambda a: a.update(sem_V=a["sem_V"][:, :-1]),
        lambda a: a.update(sem_mean_x=a["sem_mean_x"][:-1]),
        lambda a: a.update(sem_mean_y=a["sem_mean_y"][:-1]),
        lambda a: a.update(sem_sigma=a["sem_sigma"][:-1]),
        lambda a: a.update(sem_sigma=a["sem_sigma"][None]),
        lambda a: a["sem_sigma"].__setitem__(0, 1.5),
        lambda a: a["sem_sigma"].__setitem__(0, -0.25),
        lambda a: a.pop("sem_V"),
    ], ids=["nan-sigma", "inf-mean-y", "embed-missing-rows", "embed-missing-column",
            "U-missing-column", "V-missing-row", "V-missing-column", "short-mean-x",
            "short-mean-y", "short-sigma", "2d-sigma", "sigma-above-1", "negative-sigma",
            "V-missing"])
    def test_malformed_semantic_scorer_is_format_error_at_aux(self, tmp_path, edit):
        ckpt, _ = self._with_scorer()
        aux = {k: v.copy() for k, v in ckpt.aux.items()}
        edit(aux)
        ckpt.aux = aux
        path = tmp_path / "sem.ckpt"
        dat.save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        name, payload = split_container(blob)[-1]
        assert name == "aux"
        with pytest.raises(dat.FormatError, match="aux semantic scorer is malformed") as err:
            dat.load_checkpoint(path)
        assert err.value.offset == len(blob) - len(payload)

    def test_save_over_an_existing_file_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "k.ckpt"
        dat.save_checkpoint(path, self._make())
        first = path.read_bytes()
        dat.save_checkpoint(path, self._make())
        assert path.read_bytes() == first
        assert os.listdir(tmp_path) == ["k.ckpt"]

    def test_write_failing_mid_payload_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        dat.save_checkpoint(path, self._make())
        old = path.read_bytes()

        class FailingFile:
            """Accepts 100 bytes, then fails like a full disk."""

            def __init__(self, fh):
                self.fh, self.left = fh, 100

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                if len(chunk) > self.left:
                    self.fh.write(chunk[: self.left])
                    raise OSError(28, "No space left on device")
                self.left -= len(chunk)
                return self.fh.write(chunk)

        monkeypatch.setattr(dat, "open", lambda *a, **k: FailingFile(open(*a, **k)),
                            raising=False)
        newer = self._make()
        newer.epoch = 4
        with pytest.raises(OSError, match="No space"):
            dat.save_checkpoint(path, newer)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["m.ckpt"]


class TestVersion1:
    """Version-1 files stored per-gate LSTM arrays; they load into the fused
    layout and re-save as version 2."""

    def _v2_bytes(self, tmp_path):
        ckpt = TestCheckpoint()._make()
        rng = np.random.default_rng(5)
        for opt in (ckpt.gen_opt, ckpt.disc_opt):
            opt.step = 7
            for moments in (opt.m, opt.v):
                for name in moments:
                    moments[name] = rng.uniform(-1, 1, moments[name].shape)
        path = tmp_path / "v2.ckpt"
        dat.save_checkpoint(path, ckpt)
        return ckpt, path.read_bytes()

    def _load(self, tmp_path, blob):
        path = tmp_path / "v1.ckpt"
        path.write_bytes(blob)
        return dat.load_checkpoint(path)

    def test_loads_equal_to_the_fused_original(self, tmp_path):
        ckpt, blob = self._v2_bytes(tmp_path)
        loaded = self._load(tmp_path, as_version_1(blob))
        for model in ("captioner", "discriminator"):
            want, got = getattr(ckpt, model).arrays, getattr(loaded, model).arrays
            assert sorted(got) == sorted(want)
            assert all(np.array_equal(got[k], want[k]) for k in want)
        for opt in ("gen_opt", "disc_opt"):
            want, got = getattr(ckpt, opt), getattr(loaded, opt)
            assert got.step == want.step == 7
            for moments, ref in ((got.m, want.m), (got.v, want.v)):
                assert sorted(moments) == sorted(ref)
                assert all(np.array_equal(moments[k], ref[k]) for k in ref)
        assert loaded.rng_state == ckpt.rng_state and loaded.epoch == ckpt.epoch

    def test_resaves_as_version_2_byte_identically(self, tmp_path):
        _, blob = self._v2_bytes(tmp_path)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dat.save_checkpoint(first, self._load(tmp_path, as_version_1(blob)))
        assert struct.unpack_from("<I", first.read_bytes(), 4) == (2,)
        assert first.read_bytes() == blob
        dat.save_checkpoint(second, dat.load_checkpoint(first))
        assert second.read_bytes() == first.read_bytes()

    @staticmethod
    def _move_column(table, prefix, src, dst):
        """Widen one gate's W_x by a column taken from another, so the widths
        still sum to the fused width."""
        wx_src, wx_dst = v1_gate_names(src, prefix)[0], v1_gate_names(dst, prefix)[0]
        table[wx_dst] = np.hstack([table[wx_dst], table[wx_src][:, -1:]])
        table[wx_src] = table[wx_src][:, :-1]

    @staticmethod
    def _move_row(table, prefix):
        """Move W_x's last row to the top of W_h: the block keeps its shape."""
        wx, wh, _ = v1_gate_names("f", prefix)
        table[wh] = np.vstack([table[wx][-1:], table[wh]])
        table[wx] = table[wx][:-1]

    @pytest.mark.parametrize("edit", [
        lambda t, p: t.pop(p + "lstm_Wh_f"),
        lambda t, p: t.update({p + "lstm_b_o": t[p + "lstm_b_o"].reshape(-1, 1)}),
        lambda t, p: TestVersion1._move_column(t, p, "i", "f"),
        lambda t, p: TestVersion1._move_row(t, p),
        lambda t, p: t.update({p + "lstm_b": np.zeros((1, 1))}),
    ], ids=["missing", "bias-shape", "widths-sum", "rows-sum", "fused-too"])
    @pytest.mark.parametrize("section", ["gen", "disc", "gen_opt", "disc_opt"])
    def test_malformed_gate_arrays_are_format_error(self, tmp_path, section, edit):
        prefix = "m__" if section.endswith("_opt") else ""
        _, blob = self._v2_bytes(tmp_path)
        bad = as_version_1(blob, lambda name, table: edit(table, prefix)
                           if name == section else None)
        with pytest.raises(dat.FormatError, match=f"section '{section}'"):
            self._load(tmp_path, bad)

    @pytest.mark.parametrize("section", ["gen", "disc", "gen_opt", "disc_opt"])
    def test_per_gate_names_in_version_2_are_format_error(self, tmp_path, section):
        _, blob = self._v2_bytes(tmp_path)
        per_gate = dict(split_container(as_version_1(blob)))
        mixed = join_container([(n, per_gate[n] if n == section else p)
                                for n, p in split_container(blob)])
        with pytest.raises(dat.FormatError, match=f"section '{section}'"):
            self._load(tmp_path, mixed)


def test_scalars_load_with_rank_0(tmp_path):
    ckpt = TestCheckpoint()._make()
    ckpt.gen_opt.step = 3
    ckpt.aux["scalar"] = np.array(2.5)
    path = tmp_path / "s.ckpt"
    dat.save_checkpoint(path, ckpt)
    sections = dict(split_container(path.read_bytes()))
    assert dat._unpack_table(sections["gen_opt"], 0)["__step"].shape == ()
    loaded = dat.load_checkpoint(path)
    assert loaded.aux["scalar"].shape == () and loaded.aux["scalar"] == 2.5
    assert loaded.gen_opt.step == 3


def _real_checkpoint_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "real.ckpt")
        dat.save_checkpoint(path, TestCheckpoint()._make())
        with open(path, "rb") as fh:
            return fh.read()


_REAL_CKPT = _real_checkpoint_bytes()
_REAL_CKPTS = {2: _REAL_CKPT, 1: as_version_1(_REAL_CKPT)}


@settings(max_examples=300, deadline=None)
@given(version=st.sampled_from((2, 1)), data=st.data())
def test_truncation_at_any_offset_raises_only_format_errors(version, data):
    blob = _REAL_CKPTS[version]
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cut.ckpt")
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(dat.FormatError):  # VersionError is a FormatError
            dat.load_checkpoint(path)


@pytest.mark.parametrize("kind, cut, message, offset", [
    ("features", 10, "truncated feature-file header", 4),
    ("checkpoint", 9, "truncated checkpoint header", 4),
    ("checkpoint", 13, "truncated section table", 12),  # name length
    ("checkpoint", 16, "truncated section table", 14),  # name
    ("checkpoint", 20, "truncated section table", 18),  # payload length
])
def test_truncated_header_is_format_error_at_the_short_field(tmp_path, kind, cut, message,
                                                              offset):
    path = tmp_path / "cut"
    if kind == "features":
        dat.write_features(path, [np.zeros((2, 3))])
        path.write_bytes(path.read_bytes()[:cut])
        load = dat.load_features
    else:
        path.write_bytes(_REAL_CKPT[:cut])
        load = dat.load_checkpoint
    with pytest.raises(dat.FormatError, match=f"^{message} \\(at byte {offset}\\)$") as err:
        load(path)
    assert err.value.offset == offset


def test_truncated_tensor_table_header_is_format_error_at_the_table(tmp_path):
    sections = [(n, p[:2] if n == "gen" else p) for n, p in split_container(_REAL_CKPT)]
    path = tmp_path / "cut.ckpt"
    path.write_bytes(join_container(sections))
    gen = [n for n, _ in sections].index("gen")
    with pytest.raises(dat.FormatError, match="truncated tensor table") as err:
        dat.load_checkpoint(path)
    assert err.value.offset == len(path.read_bytes()) - sum(len(p) for _, p in sections[gen:])


@pytest.mark.parametrize("dims", [(2**16,) * 4, (2**32 - 1,) * 2, (2**31, 2**31, 4)])
def test_dims_whose_product_overflows_int64_are_format_error(tmp_path, dims):
    """A table entry's size is counted exactly: (2**16)**4 is not 0."""
    table = struct.pack(f"<IH1sB{len(dims)}I", 1, 1, b"x", len(dims), *dims) + bytes(16)
    sections = split_container(_REAL_CKPT)
    assert sections[-1][0] == "aux"
    path = tmp_path / "huge.ckpt"
    path.write_bytes(join_container(sections[:-1] + [("aux", table)]))
    with pytest.raises(dat.FormatError, match="truncated tensor table") as err:
        dat.load_checkpoint(path)
    assert err.value.offset == len(path.read_bytes()) - 16  # the entry's data


@pytest.mark.parametrize("cls", [CaptionerConfig, disc.DiscriminatorConfig])
@pytest.mark.parametrize("value", [True, 4.0, "4", None], ids=["bool", "float", "str", "none"])
def test_model_configs_check_their_int_field_types(cls, value):
    names = [f.name for f in fields(cls) if f.name != "attention"]
    assert "vocab_size" in names and "hidden_dim" in names
    for name in names:
        with pytest.raises(InputError, match=f"^{name} must be int, got "
                                             f"{type(value).__name__}$"):
            cls(**{"vocab_size": 7, name: value})


@pytest.mark.parametrize("value", [3, None, b"att2all"])
def test_captioner_attention_must_be_a_str(value):
    with pytest.raises(InputError, match="^attention must be str"):
        CaptionerConfig(vocab_size=7, attention=value)


def test_adam_state_lives_beside_the_checkpoint():
    assert tr.AdamState is dat.AdamState


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# aux names outside the idf and semantic-scorer tables, which load_checkpoint
# checks as a whole (a lone random ``idf_docs`` is rightly rejected)
_TABLES = st.dictionaries(
    st.text(max_size=10).filter(lambda name: name not in met.IDF_AUX + met.SEM_AUX),
    st.lists(st.integers(0, 3), max_size=3).flatmap(
        lambda shape: hnp.arrays(np.float64, tuple(shape), elements=_FLOATS)),
    max_size=4)


@settings(max_examples=100, deadline=None)
@given(aux=_TABLES, step=st.integers(0, 2**40), hidden=st.integers(1, 3),
       variant=st.sampled_from(disc.VARIANTS), data=st.data())
def test_save_load_save_is_byte_identical_for_random_tables(aux, step, hidden, variant,
                                                            data):
    gcfg = CaptionerConfig(vocab_size=5, hidden_dim=hidden, num_crops=2, feature_dim=3)
    dcfg = disc.DiscriminatorConfig(vocab_size=5, hidden_dim=hidden + 1, num_crops=2,
                                    feature_dim=3)
    g = init_params(gcfg, step % 7)

    def moments():  # Adam moments must match the model's arrays
        return {name: data.draw(hnp.arrays(np.float64, arr.shape, elements=_FLOATS))
                for name, arr in g.arrays.items()}

    ckpt = dat.Checkpoint(
        captioner=g, discriminator=disc.init_discriminator(dcfg, step % 5, variant),
        gen_opt=tr.AdamState(m=moments(), v=moments(), step=step), disc_opt=None,
        config={"seed": step}, rng_state=None, epoch=step % 9, aux=aux)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
        dat.save_checkpoint(first, ckpt)
        dat.save_checkpoint(second, dat.load_checkpoint(first))
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
