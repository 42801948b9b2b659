"""Benchmark inputs: seeded samples from cached document pools.

Generating synthetic text costs a Python loop per token (about 6 s for
the train-nyt corpus), and it is not what the benchmark measures.  Each
workload therefore draws its documents from a *pool* generated once with
a fixed seed and cached on disk; ``--seed`` picks which pool documents a
run uses and in which order.  The same seed always yields the same
inputs, cached or not, and a parent commit and a change measured from
checkouts that share a cache see identical documents.  Serving
checkpoints are cached the same way (see :mod:`perfbench.workloads`).

A cache entry is a directory named after what built it and a hash of its
parameters, written to a temporary name and renamed into place, so a run
interrupted mid-build never leaves a half-written entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Callable, Sequence

from repro.data import SyntheticCorpusConfig, SyntheticCorpusGenerator

POOL_FILE = "pool.json"


class InputCache:
    """Directory of built inputs, keyed by input name and parameters."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def entry(self, name: str, params: dict, build: Callable[[Path], None]) -> Path:
        """The entry for ``(name, params)``, calling ``build(dir)`` if absent."""
        digest = hashlib.sha1(
            json.dumps(params, sort_keys=True).encode("utf-8")
        ).hexdigest()[:12]
        final = self.root / f"{name}-{digest}"
        if final.is_dir():
            return final
        tmp = self.root / f".{final.name}.{os.getpid()}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            build(tmp)
            (tmp / "params.json").write_text(json.dumps(params, sort_keys=True))
            os.replace(tmp, final)
        except OSError:
            # Another run finished the same entry first; keep theirs.
            if not final.is_dir():
                raise
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return final


def text_pool(
    cache: InputCache,
    themes: Sequence[str],
    count: int,
    average_length: float,
    seed: int,
) -> tuple[list[str], list[int]]:
    """``count`` synthetic raw texts over ``themes`` and their theme labels."""
    params = {
        "themes": list(themes),
        "count": count,
        "average_length": average_length,
        "seed": seed,
    }

    def build(directory: Path) -> None:
        texts, labels, _ = SyntheticCorpusGenerator(
            SyntheticCorpusConfig(
                themes=tuple(themes),
                num_documents=count,
                average_length=average_length,
                seed=seed,
            )
        ).generate()
        (directory / POOL_FILE).write_text(
            json.dumps({"texts": texts, "labels": labels})
        )

    data = json.loads((cache.entry("pool", params, build) / POOL_FILE).read_text())
    return data["texts"], data["labels"]
