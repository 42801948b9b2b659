"""Checkpointing and corpus serialization."""

import gc
import json
import warnings

import numpy as np
import pytest

from repro.data import Corpus, Vocabulary
from repro.io import (
    CheckpointError,
    atomic_write,
    load_checkpoint,
    load_corpus,
    restore_checkpoint,
    save_checkpoint,
    save_corpus,
)
from repro.models import ProdLDA
from repro.nn import Adam


class TestCheckpoints:
    def test_roundtrip_restores_parameters(self, tiny_corpus, fast_config, tmp_path):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config).fit(tiny_corpus)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, extra={"note": "hello"})

        fresh = ProdLDA(tiny_corpus.vocab_size, fast_config)
        extra = load_checkpoint(fresh, path)
        assert extra == {"note": "hello"}
        for (name_a, p_a), (name_b, p_b) in zip(
            model.named_parameters(), fresh.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(p_a.data, p_b.data)

    def test_restored_model_predicts_identically(
        self, tiny_corpus, fast_config, tmp_path
    ):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config).fit(tiny_corpus)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        fresh = ProdLDA(tiny_corpus.vocab_size, fast_config)
        load_checkpoint(fresh, path)
        fresh._fitted = True
        fresh.eval()
        np.testing.assert_allclose(
            model.transform(tiny_corpus), fresh.transform(tiny_corpus)
        )

    def test_incompatible_model_rejected(self, tiny_corpus, fast_config, tmp_path):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        other = ProdLDA(tiny_corpus.vocab_size + 1, fast_config)
        with pytest.raises(CheckpointError):
            load_checkpoint(other, path)

    def test_non_checkpoint_file_rejected(self, tiny_corpus, fast_config, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(CheckpointError):
            load_checkpoint(ProdLDA(tiny_corpus.vocab_size, fast_config), path)


class TestAtomicWrite:
    def test_success_publishes_and_removes_tmp(self, tmp_path):
        path = tmp_path / "out.json"
        with atomic_write(path) as fp:
            fp.write('{"ok": true}')
        assert json.loads(path.read_text()) == {"ok": True}
        assert not list(tmp_path.glob("*.tmp"))

    def test_failure_preserves_previous_content(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("previous")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fp:
                fp.write("partial garbage")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "previous"
        assert not list(tmp_path.glob("*.tmp"))

    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        with atomic_write(path) as fp:
            fp.write("deep")
        assert path.read_text() == "deep"

    def test_rejects_read_modes(self, tmp_path):
        for mode in ("r", "a", "w+"):
            with pytest.raises(ValueError):
                with atomic_write(tmp_path / "x", mode):
                    pass


class TestV2Checkpoints:
    def test_roundtrip_with_optimizer_and_trainer_state(
        self, tiny_corpus, fast_config, tmp_path
    ):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config).fit(tiny_corpus)
        optimizer = Adam(model.parameters(), lr=0.01)
        trainer_state = {"epoch": 4, "note": "resume here"}
        path = tmp_path / "v2.npz"
        save_checkpoint(
            model, path, optimizer=optimizer, trainer_state=trainer_state
        )

        fresh = ProdLDA(tiny_corpus.vocab_size, fast_config)
        fresh_opt = Adam(fresh.parameters(), lr=0.5)
        meta = restore_checkpoint(fresh, path, optimizer=fresh_opt)
        assert meta["format_version"] == 2
        assert meta["optimizer_class"] == "Adam"
        assert meta["trainer_state"] == trainer_state
        assert fresh_opt.lr == optimizer.lr

    def test_optimizer_state_required_when_requested(
        self, tiny_corpus, fast_config, tmp_path
    ):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        path = tmp_path / "plain.npz"
        save_checkpoint(model, path)  # parameters only
        fresh = ProdLDA(tiny_corpus.vocab_size, fast_config)
        with pytest.raises(CheckpointError):
            restore_checkpoint(
                fresh, path, optimizer=Adam(fresh.parameters(), lr=0.1)
            )

    def test_truncated_file_rejected(self, tiny_corpus, fast_config, tmp_path):
        model = ProdLDA(tiny_corpus.vocab_size, fast_config)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        # The rejected file is closed, not left for the collector (which
        # would warn about it).  No traceback may outlive the load, or it
        # would keep the file alive past gc.collect().
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                load_checkpoint(ProdLDA(tiny_corpus.vocab_size, fast_config), path)
            except CheckpointError:
                pass
            else:
                pytest.fail("a truncated checkpoint loaded")
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_garbage_bytes_rejected(self, tiny_corpus, fast_config, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00\x01definitely not a zip archive\xff" * 10)
        with pytest.raises(CheckpointError):
            load_checkpoint(ProdLDA(tiny_corpus.vocab_size, fast_config), path)

    def test_unsupported_version_rejected(
        self, tiny_corpus, fast_config, tmp_path
    ):
        path = tmp_path / "future.npz"
        meta = json.dumps({"format_version": 99, "extra": {}})
        np.savez(
            path,
            **{"__repro_meta__": np.frombuffer(meta.encode(), dtype=np.uint8)},
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(ProdLDA(tiny_corpus.vocab_size, fast_config), path)


class TestCorpusSerialization:
    def test_roundtrip_with_labels(self, toy_corpus, tmp_path):
        path = tmp_path / "corpus.npz"
        save_corpus(toy_corpus, path)
        restored = load_corpus(path)
        assert len(restored) == len(toy_corpus)
        assert restored.vocabulary == toy_corpus.vocabulary
        assert restored.labels.tolist() == toy_corpus.labels.tolist()
        assert restored.label_names == toy_corpus.label_names
        for a, b in zip(restored.documents, toy_corpus.documents):
            np.testing.assert_array_equal(a, b)

    def test_roundtrip_without_labels(self, tmp_path):
        vocab = Vocabulary(["x", "y"])
        corpus = Corpus([[0, 1], [1, 1, 0]], vocab)
        path = tmp_path / "corpus.npz"
        save_corpus(corpus, path)
        restored = load_corpus(path)
        assert restored.labels is None
        assert restored.label_names is None
        np.testing.assert_allclose(
            restored.bow_matrix(), corpus.bow_matrix()
        )

    def test_restored_vocabulary_is_frozen(self, toy_corpus, tmp_path):
        path = tmp_path / "corpus.npz"
        save_corpus(toy_corpus, path)
        assert load_corpus(path).vocabulary.frozen


class TestContentChecksum:
    """Checkpoint content checksums: deterministic, order-free, tamper-proof."""

    def _arrays(self):
        return {
            "w": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b": np.zeros(4, dtype=np.float32),
        }

    def test_deterministic_and_order_independent(self):
        from repro.io import content_checksum

        arrays = self._arrays()
        reversed_order = dict(reversed(list(arrays.items())))
        assert content_checksum(arrays) == content_checksum(reversed_order)
        assert len(content_checksum(arrays)) == 8

    def test_sensitive_to_values_names_and_dtype(self):
        from repro.io import content_checksum

        base = content_checksum(self._arrays())

        tweaked = self._arrays()
        tweaked["w"][0, 0] += 1.0
        assert content_checksum(tweaked) != base

        renamed = {("w2" if k == "w" else k): v for k, v in self._arrays().items()}
        assert content_checksum(renamed) != base

        retyped = self._arrays()
        retyped["b"] = retyped["b"].astype(np.float64)
        assert content_checksum(retyped) != base

    def test_tampered_checkpoint_rejected_with_clear_error(
        self, tiny_corpus, fast_config, tmp_path
    ):
        """Corruption that survives the zip layer still fails loudly."""
        model = ProdLDA(tiny_corpus.vocab_size, fast_config).fit(tiny_corpus)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)

        # Rewrite the archive with one parameter perturbed but the
        # original meta blob (and its stored checksum) intact: a valid
        # zip, a valid header, silently-wrong weights.
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        tampered = next(k for k in arrays if not k.startswith("__"))
        arrays[tampered] = arrays[tampered] + 1.0
        np.savez(path, **arrays)

        fresh = ProdLDA(tiny_corpus.vocab_size, fast_config)
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(fresh, path)

    def test_legacy_checkpoint_without_checksum_still_loads(
        self, tiny_corpus, fast_config, tmp_path
    ):
        """Pre-checksum archives (no stored digest) load unverified."""
        import json as _json

        model = ProdLDA(tiny_corpus.vocab_size, fast_config).fit(tiny_corpus)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, extra={"generation": 9})

        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = _json.loads(arrays["__repro_meta__"].tobytes().decode("utf-8"))
        del meta["content_checksum"]
        arrays["__repro_meta__"] = np.frombuffer(
            _json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **arrays)

        fresh = ProdLDA(tiny_corpus.vocab_size, fast_config)
        assert load_checkpoint(fresh, path) == {"generation": 9}
