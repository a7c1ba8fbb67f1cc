import json
import os
import struct
import tempfile
from dataclasses import make_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqgan import autodiff as ad
from seqgan import data as dat
from seqgan import discriminator as disc
from seqgan import metrics as met
from seqgan import training as tr
from seqgan.captioner import CaptionerConfig, init_params


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


def join_container(sections):
    chunks = [b"SGCK", struct.pack("<II", 1, len(sections))]
    for name, payload in sections:
        nb = name if isinstance(name, bytes) else name.encode()
        chunks += [struct.pack("<H", len(nb)), nb, struct.pack("<Q", len(payload))]
    return b"".join(chunks + [payload for _, payload in sections])


def test_one_parameter_error_class():
    assert dat.ParameterError is ad.ParameterError


class TestCheckpoint:
    def _make(self, with_rng=True):
        gcfg = CaptionerConfig(vocab_size=7, hidden_dim=4, num_crops=2,
                               feature_dim=3, max_len=5)
        dcfg = disc.DiscriminatorConfig(vocab_size=7, hidden_dim=4,
                                        num_crops=2, feature_dim=3)
        g = init_params(gcfg, 0)
        d = disc.init_jointemb(dcfg, 1)
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

    def test_config_type_check_follows_the_annotations(self):
        # class annotations here are real types, not strings
        cfg = make_dataclass("Cfg", [("n", int), ("rate", float), ("cap", int | None),
                                     ("flag", bool)])
        ok = {"n": 2, "rate": 1, "cap": None, "flag": False}
        assert dat._config_from_meta(cfg, ok, "cfg") == cfg(2, 1, None, False)
        assert dat._config_from_meta(cfg, dict(ok, cap=3, rate=0.5), "cfg").cap == 3
        for bad in ({"n": True}, {"n": 2.0}, {"rate": "1"}, {"cap": True}, {"flag": 1}):
            with pytest.raises(dat.FormatError, match="wrong type"):
                dat._config_from_meta(cfg, dict(ok, **bad), "cfg")

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


def _real_checkpoint_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "real.ckpt")
        dat.save_checkpoint(path, TestCheckpoint()._make())
        with open(path, "rb") as fh:
            return fh.read()


_REAL_CKPT = _real_checkpoint_bytes()


@settings(max_examples=300, deadline=None)
@given(cut=st.integers(min_value=0, max_value=len(_REAL_CKPT) - 1))
def test_truncation_at_any_offset_raises_only_format_errors(cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cut.ckpt")
        with open(path, "wb") as fh:
            fh.write(_REAL_CKPT[:cut])
        with pytest.raises(dat.FormatError):  # VersionError is a FormatError
            dat.load_checkpoint(path)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_TABLES = st.dictionaries(
    st.text(max_size=10),
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
