"""Which ``repro`` functions the traced run wraps, and the layer metrics.

Every wrapped callable is public API: a method on a class, or a function
looked up through its module at call time.  Setup-only calls that the
workloads make themselves (NPMI, embeddings, the kernel build) are
spanned at their call sites in :mod:`perfbench.workloads` instead.
"""

from __future__ import annotations

import numpy as np

from perfbench.trace import Span, Tracer, named, percentile_ms, self_seconds, total_seconds, within
from repro.core import ContraTopic, SimilarityKernel
from repro.data import Preprocessor
from repro.extensions import OnlineContraTopic
from repro.metrics import StreamingNpmiEngine
from repro.metrics import coherence as coherence_module
from repro.models import ETM, NeuralTopicModel, TopicModel
from repro.nn.optim import Adam, Optimizer
from repro.objectives import ElboObjective, TopicContrastiveObjective
from repro.parallel import ParallelMap
from repro.serving import ModelRegistry
from repro.tensor import Tensor
from repro.training import protocol
from repro.training.trainer import Trainer


def _map_attrs(args, results) -> dict:
    return {"workers": args[0].workers, "task_s": [r.seconds for r in results]}


def _transform_attrs(args, result) -> dict:
    documents = args[1].documents
    return {"size": len(documents), "_docs": [id(doc) for doc in documents]}


#: (span name, owner, attribute[, attrs_of]) for every traced callable.
TARGETS = (
    ("data.preprocess", Preprocessor, "fit"),
    ("data.preprocess", Preprocessor, "transform"),
    ("training.fit", Trainer, "fit"),
    ("training.epoch", Trainer, "train_epoch"),
    ("training.step", Trainer, "train_batch"),
    ("nn.zero_grad", Optimizer, "zero_grad"),
    ("nn.clip", Trainer, "clip_gradients"),
    ("nn.adam", Adam, "step"),
    ("tensor.backward", Tensor, "backward"),
    ("models.encode", NeuralTopicModel, "encode_theta"),
    ("models.encode", ContraTopic, "encode_theta"),
    ("models.beta", ETM, "beta"),
    ("models.beta", ContraTopic, "beta"),
    ("models.transform", NeuralTopicModel, "transform", _transform_attrs),
    ("models.top_words", TopicModel, "top_words"),
    ("objectives.elbo", ElboObjective, "term_on_batch"),
    ("objectives.contrastive", TopicContrastiveObjective, "term_on_batch"),
    ("objectives.contrastive.sample", TopicContrastiveObjective, "samples"),
    ("objectives.contrastive.loss", TopicContrastiveObjective, "loss"),
    ("metrics.evaluate", protocol, "evaluate_model"),
    ("metrics.coherence", coherence_module, "topic_npmi_scores"),
    ("metrics.stream_update", StreamingNpmiEngine, "update"),
    ("core.kernel_refresh", SimilarityKernel, "refresh"),
    ("parallel.map", ParallelMap, "map", _map_attrs),
    ("serving.reload", ModelRegistry, "load"),
    ("online.slice", OnlineContraTopic, "partial_fit"),
)


def instrument(tracer: Tracer) -> None:
    """Wrap every target; undo with ``tracer.restore()``."""
    for name, owner, attr, *attrs_of in TARGETS:
        tracer.wrap(owner, attr, name, *attrs_of)


def _maps(spans: list[Span], parallel: bool) -> list[Span]:
    return [s for s in named(spans, "parallel.map") if (s.attrs["workers"] > 1) == parallel]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics every workload derives the same way from spans."""
    steps = [s.seconds for s in named(spans, "training.step")]
    transforms = [s.seconds for s in named(spans, "models.transform")]
    slices = [s.seconds for s in named(spans, "online.slice")]
    fanout, serial = _maps(spans, True), _maps(spans, False)
    map_s = sum(s.seconds for s in fanout)
    task_s = sum(sum(s.attrs["task_s"]) for s in fanout)
    workers = max((s.attrs["workers"] for s in fanout), default=0)
    serial_s = float(np.mean([s.seconds for s in serial])) if serial else 0.0
    return {
        "data.preprocess_s": self_seconds(spans, "data.preprocess"),
        "data.batches_s": self_seconds(spans, "training.epoch"),
        "metrics.npmi_s": total_seconds(spans, "metrics.npmi"),
        "metrics.evaluate_s": total_seconds(spans, "metrics.evaluate"),
        "metrics.stream_update_s": total_seconds(spans, "metrics.stream_update"),
        "embeddings.build_s": total_seconds(spans, "embeddings.build"),
        "core.kernel_build_s": total_seconds(spans, "core.kernel_build"),
        "core.kernel_refresh_s": total_seconds(spans, "core.kernel_refresh"),
        "models.encode_s": self_seconds(spans, "models.encode"),
        "models.beta_s": self_seconds(spans, "models.beta"),
        "models.transform_ms_p50": percentile_ms(transforms, 50),
        "models.transform_ms_p99": percentile_ms(transforms, 99),
        "objectives.elbo_s": total_seconds(spans, "objectives.elbo"),
        "objectives.contrastive_s": total_seconds(spans, "objectives.contrastive"),
        "objectives.contrastive.sample_s": total_seconds(spans, "objectives.contrastive.sample"),
        "objectives.contrastive.kernel_s": self_seconds(spans, "objectives.contrastive.loss"),
        "tensor.backward_s": total_seconds(spans, "tensor.backward"),
        "nn.zero_grad_s": total_seconds(spans, "nn.zero_grad"),
        "nn.clip_s": total_seconds(spans, "nn.clip"),
        "nn.adam_s": total_seconds(spans, "nn.adam"),
        "training.batches": float(len(steps)),
        "training.step_ms_p50": percentile_ms(steps, 50),
        "training.fit_setup_s": self_seconds(spans, "training.fit"),
        "parallel.map_s": map_s,
        "parallel.task_s": task_s,
        "parallel.efficiency": task_s / (map_s * workers) if map_s else 0.0,
        "parallel.speedup": serial_s * len(fanout) / map_s if map_s and serial_s else 0.0,
        "online.slice_ms_p50": percentile_ms(slices, 50),
        "online.slice_ms_p90": percentile_ms(slices, 90),
        "online.fit_s": float(sum(s.seconds for s in within(spans, "online.slice", "training.fit"))),
        "online.self_s": self_seconds(spans, "online.slice"),
    }


def finite(values: dict[str, float]) -> dict[str, float]:
    """Values as plain floats, with any NaN/inf reported as 0.0."""
    return {k: float(v) if np.isfinite(v) else 0.0 for k, v in values.items()}
