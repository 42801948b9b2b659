import numpy as np
import pytest

from perfbench.inputs import InputCache
from perfbench.pace import Pace
from perfbench.trace import NullTracer
from perfbench.workloads import CheckFailed, build
from repro.extensions import OnlineContraTopic


def test_memory_growth_in_the_stream_fails_its_check(tmp_path, monkeypatch):
    workload = build("stream-drift", 1.0, quick=True)
    state = workload.setup(workload.inputs(0, InputCache(tmp_path)), NullTracer())
    workload.check(state, workload.measure(state, NullTracer(), Pace()))

    leaked = []
    partial_fit = OnlineContraTopic.partial_fit

    def leaky(self, corpus):
        leaked.append(np.ones(3 * 2**20 // 8))  # 3 MB per slice, kept resident
        return partial_fit(self, corpus)

    monkeypatch.setattr(OnlineContraTopic, "partial_fit", leaky)
    outcome = workload.measure(state, NullTracer(), Pace())
    with pytest.raises(CheckFailed, match="resident memory grew"):
        workload.check(state, outcome)
