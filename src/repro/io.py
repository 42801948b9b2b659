"""Persistence: save/load model parameters, vocabularies and corpora.

Checkpoints are plain ``.npz`` archives (parameters under their dotted
names plus a small metadata header), so they need nothing beyond numpy and
can be inspected with ``np.load``.  Vocabularies and corpora serialize to
``.npz`` as well, keeping a trained pipeline fully restorable offline.

Format v2 checkpoints additionally carry optimizer state (``optim::``
prefixed arrays) and a JSON ``trainer_state`` blob (epoch counter, RNG
stream states, training history) so an interrupted run can resume
bitwise-consistently — see :mod:`repro.training.resilience` and
``docs/ROBUSTNESS.md``.

Every file this module writes goes through :func:`atomic_write`
(tmp + fsync + rename), so a crash mid-write can never leave a truncated
file at the final path.  Checkpoints additionally carry a content
checksum (:func:`content_checksum`) over every stored array, verified at
load time: a corrupt file fails with a clear :class:`CheckpointError`
instead of loading garbage parameters — the property the serving layer's
last-good rollback (:class:`repro.serving.ModelRegistry`) depends on.
"""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import IO, Callable, Iterator, TYPE_CHECKING

import numpy as np

from repro.data.corpus import Corpus
from repro.data.vocabulary import Vocabulary
from repro.errors import ReproError
from repro.nn.module import Module

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.nn.optim import Optimizer

_META_KEY = "__repro_meta__"
_OPTIM_PREFIX = "optim::"
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)

#: Hooks called (with the write's category string) just before an atomic
#: commit renames the tmp file over the final path.  This is the seam the
#: fault-injection harness (:mod:`repro.training.faults`) uses to simulate
#: a crash between "bytes written" and "file published".
_COMMIT_HOOKS: list[Callable[[str], None]] = []


class CheckpointError(ReproError, ValueError):
    """A checkpoint file was malformed or incompatible."""


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------
def commit_file(tmp: str | Path, path: str | Path, category: str = "file") -> None:
    """Atomically publish ``tmp`` at ``path`` (rename on the same volume).

    Runs the registered commit hooks first, so fault injection can
    simulate a crash after the data was written but before it became
    visible — the invariant under test is that ``path`` is never left
    truncated.
    """
    for hook in _COMMIT_HOOKS:
        hook(category)
    os.replace(tmp, path)


@contextlib.contextmanager
def atomic_write(
    path: str | Path, mode: str = "w", category: str = "file"
) -> Iterator[IO]:
    """Open a tmp file next to ``path``; fsync + rename it over on success.

    On any exception (including an injected commit fault) the tmp file is
    removed and ``path`` keeps its previous content — readers never see a
    partial write.  ``category`` labels the write for commit hooks
    ("checkpoint", "report", "telemetry", ...).
    """
    if any(flag in mode for flag in ("r", "a", "+")):
        raise ValueError(f"atomic_write requires a write-only mode, got {mode!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp")
    fp = tmp.open(mode, encoding=None if "b" in mode else "utf-8")
    try:
        yield fp
        fp.flush()
        os.fsync(fp.fileno())
        fp.close()
        commit_file(tmp, path, category=category)
    except BaseException:
        if not fp.closed:
            fp.close()
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def content_checksum(arrays: dict[str, np.ndarray]) -> str:
    """Deterministic CRC32 over every array's name, dtype, shape and bytes.

    Stored in the checkpoint header at save time and re-verified at load
    time, so corruption that survives the zip layer (bit flips introduced
    after decompression, a partially-rewritten archive, the chaos
    harness's :meth:`~repro.training.faults.FaultInjector.corrupt_checkpoint`)
    fails with a clear :class:`CheckpointError` instead of loading garbage
    parameters.  Keys are folded in sorted order, so the value is
    independent of dict insertion order.
    """
    crc = 0
    for key in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[key]))
        for piece in (key, str(arr.dtype), str(arr.shape)):
            crc = zlib.crc32(piece.encode("utf-8"), crc)
        crc = zlib.crc32(arr.tobytes(), crc)
    return f"{crc & 0xFFFFFFFF:08x}"


def save_checkpoint(
    model: Module,
    path: str | Path,
    extra: dict | None = None,
    *,
    optimizer: "Optimizer | None" = None,
    trainer_state: dict | None = None,
) -> None:
    """Write a module's parameters (and optional training state) to ``path``.

    ``extra`` must be JSON-serializable; it travels in the archive header
    (useful for hyper-parameters or training provenance).  Passing
    ``optimizer`` embeds its :meth:`~repro.nn.optim.Optimizer.state_dict`;
    ``trainer_state`` (a JSON dict, usually from
    :func:`repro.training.trainer.capture_training_state` /
    ``model.training_state()``) is what makes resuming — a
    :class:`~repro.training.trainer.RunSpec` with ``resume_from`` set —
    bitwise-consistent.  The
    archive is written atomically (tmp + fsync + rename).
    """
    path = Path(path)
    arrays = dict(model.state_dict())
    if optimizer is not None:
        for key, value in optimizer.state_dict().items():
            arrays[f"{_OPTIM_PREFIX}{key}"] = value
    meta = {
        "format_version": _FORMAT_VERSION,
        "model_class": type(model).__name__,
        "extra": extra or {},
        "optimizer_class": type(optimizer).__name__ if optimizer is not None else None,
        "trainer_state": trainer_state,
        # Verified on load; computed before the meta blob joins the archive
        # (the checksum obviously cannot cover itself).
        "content_checksum": content_checksum(arrays),
    }
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    with atomic_write(path, "wb", category="checkpoint") as fp:
        np.savez_compressed(fp, **arrays)


def _read_checkpoint(path: Path) -> tuple[dict, dict, dict]:
    """Read (meta, model_state, optimizer_state); harden against garbage."""
    try:
        # np.load is handed an open file, not the path: on a truncated
        # archive it raises before its own context manager owns the file,
        # and only this ``with`` then closes it.
        with open(path, "rb") as fp, np.load(fp, allow_pickle=False) as archive:
            if _META_KEY not in archive:
                raise CheckpointError(f"{path} is not a repro checkpoint")
            meta = json.loads(bytes(archive[_META_KEY].tobytes()).decode("utf-8"))
            if meta.get("format_version") not in _SUPPORTED_VERSIONS:
                raise CheckpointError(
                    f"{path}: unsupported checkpoint version "
                    f"{meta.get('format_version')!r} "
                    f"(supported: {_SUPPORTED_VERSIONS})"
                )
            raw: dict[str, np.ndarray] = {
                key: archive[key] for key in archive.files if key != _META_KEY
            }
            expected = meta.get("content_checksum")
            if expected is not None:
                actual = content_checksum(raw)
                if actual != expected:
                    raise CheckpointError(
                        f"{path}: content checksum mismatch (stored "
                        f"{expected}, recomputed {actual}) — the file is "
                        "truncated or corrupt; restore it from a last-good "
                        "checkpoint"
                    )
            state, optim_state = {}, {}
            for key, value in raw.items():
                if key.startswith(_OPTIM_PREFIX):
                    optim_state[key[len(_OPTIM_PREFIX):]] = value
                else:
                    state[key] = value
    except CheckpointError:
        raise
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile) as exc:
        # Truncated archives surface as BadZipFile/EOFError, garbage bytes
        # as ValueError, unreadable paths as OSError — all mean the same
        # thing to a caller: this is not a usable checkpoint.
        raise CheckpointError(
            f"{path} is not a readable checkpoint (truncated or corrupt?): {exc}"
        ) from exc
    return meta, state, optim_state


def restore_checkpoint(
    model: Module,
    path: str | Path,
    *,
    optimizer: "Optimizer | None" = None,
) -> dict:
    """Load a checkpoint into ``model`` (and optionally ``optimizer``).

    Returns the full metadata dictionary (``extra``, ``trainer_state``,
    ``format_version``, ...).  Raises :class:`CheckpointError` on
    truncated/garbage files, version mismatches, or state dicts that do
    not fit the model (class mismatch is a warning-level condition: it
    raises only when parameter names don't line up, since e.g. a
    ContraTopic checkpoint legitimately loads into another ContraTopic
    with a different kernel).
    """
    path = Path(path)
    meta, state, optim_state = _read_checkpoint(path)
    try:
        model.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"checkpoint does not fit the model: {exc}") from exc
    if optimizer is not None:
        if not optim_state:
            raise CheckpointError(
                f"{path} carries no optimizer state "
                "(saved without optimizer=...?)"
            )
        try:
            optimizer.load_state_dict(optim_state)
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint optimizer state does not fit: {exc}"
            ) from exc
    return meta


def load_checkpoint(model: Module, path: str | Path) -> dict:
    """Load parameters saved by :func:`save_checkpoint` into ``model``.

    Returns the ``extra`` metadata dictionary; use
    :func:`restore_checkpoint` when optimizer/trainer state is needed.
    """
    return restore_checkpoint(model, path).get("extra", {})


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Serialize a corpus (documents, labels, vocabulary) to ``.npz``."""
    path = Path(path)
    lengths = np.array([doc.size for doc in corpus.documents])
    flat = np.concatenate(corpus.documents)
    arrays: dict[str, np.ndarray] = {
        "lengths": lengths,
        "tokens": flat,
        "vocabulary": np.array(corpus.vocabulary.tokens(), dtype=np.str_),
    }
    if corpus.labels is not None:
        arrays["labels"] = corpus.labels
    if corpus.label_names is not None:
        arrays["label_names"] = np.array(corpus.label_names, dtype=np.str_)
    with atomic_write(path, "wb", category="corpus") as fp:
        np.savez_compressed(fp, **arrays)


def load_corpus(path: str | Path) -> Corpus:
    """Restore a corpus saved by :func:`save_corpus`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        lengths = archive["lengths"]
        flat = archive["tokens"]
        vocab = Vocabulary(str(t) for t in archive["vocabulary"]).freeze()
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        documents = [
            flat[offsets[i] : offsets[i + 1]] for i in range(lengths.size)
        ]
        labels = archive["labels"] if "labels" in archive.files else None
        label_names = (
            [str(n) for n in archive["label_names"]]
            if "label_names" in archive.files
            else None
        )
    return Corpus(documents, vocab, labels=labels, label_names=label_names)
