"""The topic-wise contrastive loss (Eq. 2): exactness and behaviour."""

import numpy as np
import pytest

from repro.core import ContrastiveMode, npmi_kernel, topic_contrastive_loss
from repro.core.similarity import SimilarityKernel
from repro.errors import ShapeError
from repro.tensor import Tensor, gradcheck


def _kernel(matrix: np.ndarray, temperature: float = 1.0) -> SimilarityKernel:
    return SimilarityKernel(
        name="test",
        matrix=matrix,
        exp_matrix=np.exp(matrix / temperature),
        temperature=temperature,
    )


def _block_kernel(v=8, block=4, high=0.8, low=-0.8):
    m = np.full((v, v), low)
    m[:block, :block] = high
    m[block:, block:] = high
    np.fill_diagonal(m, 1.0)
    return _kernel(m)


def _reference_eq2(samples_hard: list[list[int]], kernel: SimilarityKernel) -> float:
    """Literal Eq. 2 over hard word samples (the paper's definition)."""
    flat = [(k, w) for k, words in enumerate(samples_hard) for w in words]
    total = 0.0
    for i, (ki, wi) in enumerate(flat):
        pos = sum(
            np.exp(kernel.matrix[wi, wj] / kernel.temperature)
            for j, (kj, wj) in enumerate(flat)
            if kj == ki and j != i
        )
        den = sum(
            np.exp(kernel.matrix[wi, wj] / kernel.temperature)
            for j, (kj, wj) in enumerate(flat)
            if j != i
        )
        total += -np.log(pos / den)
    return total / len(flat)


def _indicator(samples_hard: list[list[int]], v: int) -> np.ndarray:
    y = np.zeros((len(samples_hard), v))
    for k, words in enumerate(samples_hard):
        y[k, words] = 1.0
    return y


class TestExactnessAgainstEq2:
    def test_matches_hand_rolled_reference(self):
        kernel = _block_kernel()
        hard = [[0, 1, 2], [4, 5, 6]]
        loss = topic_contrastive_loss(Tensor(_indicator(hard, 8)), kernel)
        np.testing.assert_allclose(loss.item(), _reference_eq2(hard, kernel), rtol=1e-10)

    def test_matches_reference_with_three_topics(self):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(-1, 1, size=(10, 10))
        matrix = (matrix + matrix.T) / 2
        np.fill_diagonal(matrix, 1.0)
        kernel = _kernel(matrix, temperature=0.5)
        hard = [[0, 3, 7], [1, 4, 8], [2, 5, 9]]
        loss = topic_contrastive_loss(Tensor(_indicator(hard, 10)), kernel)
        np.testing.assert_allclose(loss.item(), _reference_eq2(hard, kernel), rtol=1e-10)


class TestBehaviour:
    def test_well_separated_topics_beat_duplicated(self):
        kernel = _block_kernel()
        good = _indicator([[0, 1, 2], [4, 5, 6]], 8)   # one topic per block
        duplicated = _indicator([[0, 1, 2], [0, 1, 3]], 8)  # both on block 1
        loss_good = topic_contrastive_loss(Tensor(good), kernel).item()
        loss_dup = topic_contrastive_loss(Tensor(duplicated), kernel).item()
        assert loss_good < loss_dup

    def test_incoherent_topic_beaten_by_coherent(self):
        kernel = _block_kernel()
        coherent = _indicator([[0, 1, 2], [4, 5, 6]], 8)
        mixed = _indicator([[0, 1, 5], [4, 2, 6]], 8)  # blocks mixed inside
        assert (
            topic_contrastive_loss(Tensor(coherent), kernel).item()
            < topic_contrastive_loss(Tensor(mixed), kernel).item()
        )

    def test_positive_only_ignores_cross_topic(self):
        kernel = _block_kernel()
        # same within-topic structure, different cross-topic overlap
        disjoint = _indicator([[0, 1, 2], [4, 5, 6]], 8)
        clashing = _indicator([[0, 1, 2], [1, 2, 3]], 8)
        p_disjoint = topic_contrastive_loss(
            Tensor(disjoint), kernel, mode=ContrastiveMode.POSITIVE_ONLY
        ).item()
        p_clash = topic_contrastive_loss(
            Tensor(clashing), kernel, mode=ContrastiveMode.POSITIVE_ONLY
        ).item()
        np.testing.assert_allclose(p_disjoint, p_clash, rtol=1e-9)

    def test_negative_only_prefers_disjoint(self):
        kernel = _block_kernel()
        disjoint = _indicator([[0, 1, 2], [4, 5, 6]], 8)
        duplicated = _indicator([[0, 1, 2], [0, 1, 3]], 8)
        n_disjoint = topic_contrastive_loss(
            Tensor(disjoint), kernel, mode=ContrastiveMode.NEGATIVE_ONLY
        ).item()
        n_dup = topic_contrastive_loss(
            Tensor(duplicated), kernel, mode=ContrastiveMode.NEGATIVE_ONLY
        ).item()
        assert n_disjoint < n_dup

    def test_negative_weight_amplifies_duplication_penalty(self):
        kernel = _block_kernel()
        duplicated = Tensor(_indicator([[0, 1, 2], [0, 1, 3]], 8))
        disjoint = Tensor(_indicator([[0, 1, 2], [4, 5, 6]], 8))
        gap_1 = (
            topic_contrastive_loss(duplicated, kernel, negative_weight=1.0).item()
            - topic_contrastive_loss(disjoint, kernel, negative_weight=1.0).item()
        )
        gap_4 = (
            topic_contrastive_loss(duplicated, kernel, negative_weight=4.0).item()
            - topic_contrastive_loss(disjoint, kernel, negative_weight=4.0).item()
        )
        assert gap_4 > gap_1

    def test_soft_samples_interpolate(self):
        kernel = _block_kernel()
        hard = _indicator([[0, 1, 2], [4, 5, 6]], 8)
        soft = hard * 0.9 + 0.0375  # smoothed, rows still sum to 3
        loss_soft = topic_contrastive_loss(Tensor(soft), kernel).item()
        loss_hard = topic_contrastive_loss(Tensor(hard), kernel).item()
        assert loss_hard < loss_soft  # smoothing mixes blocks -> worse


class TestGradients:
    def test_gradcheck_through_loss(self):
        rng = np.random.default_rng(1)
        matrix = rng.uniform(-1, 1, size=(6, 6))
        matrix = (matrix + matrix.T) / 2
        np.fill_diagonal(matrix, 1.0)
        kernel = _kernel(matrix)
        y0 = np.abs(rng.normal(size=(2, 6))) + 0.1

        def f(y):
            return topic_contrastive_loss(y, kernel)

        assert gradcheck(f, [y0], atol=1e-5, rtol=1e-4)

    def test_gradient_direction_reduces_duplication(self):
        """One gradient step on soft samples should move duplicated topics
        apart (increase weight on the unused block)."""
        kernel = _block_kernel()
        y = Tensor(
            _indicator([[0, 1, 2], [0, 1, 3]], 8) * 0.8 + 0.075, requires_grad=True
        )
        topic_contrastive_loss(y, kernel).backward()
        # for the duplicated topic (row 1), gradient on block-2 words should
        # be more negative (increase them) than on the clashing block-1 words
        assert y.grad[1, [4, 5, 6, 7]].mean() < y.grad[1, [0, 1]].mean()


class TestValidation:
    def test_kernel_vocab_mismatch(self):
        kernel = _block_kernel(v=8)
        with pytest.raises(ShapeError):
            topic_contrastive_loss(Tensor(np.ones((2, 5))), kernel)

    def test_requires_2d(self):
        kernel = _block_kernel(v=8)
        with pytest.raises(ShapeError):
            topic_contrastive_loss(Tensor(np.ones(8)), kernel)

    def test_npmi_kernel_from_matrix(self, tiny_npmi):
        kernel = npmi_kernel(tiny_npmi, temperature=0.5)
        assert kernel.vocab_size == tiny_npmi.vocab_size
        np.testing.assert_allclose(
            kernel.exp_matrix, np.exp(kernel.matrix / 0.5)
        )


def _random_kernel(rng, v, temperature=0.25) -> SimilarityKernel:
    matrix = rng.uniform(-1, 1, size=(v, v))
    matrix = (matrix + matrix.T) / 2
    np.fill_diagonal(matrix, 1.0)
    return _kernel(matrix, temperature=temperature)


def _loss_and_grad(fn, samples, kernel, upstream, **kwargs):
    y = Tensor(samples.copy(), requires_grad=True)
    loss = fn(y, kernel, **kwargs)
    loss.backward(upstream)
    return loss.data, y.grad


class TestFusedMatchesComposed:
    """The one-node loss replays the composed graph bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", list(ContrastiveMode))
    @pytest.mark.parametrize("negative_weight", [1.0, 3.0])
    @pytest.mark.parametrize("k,v", [(5, 30), (1, 12), (12, 60)])
    def test_loss_and_gradient_bitwise(self, dtype, mode, negative_weight, k, v):
        from tests.core._composed_contrastive import topic_contrastive_loss_composed

        rng = np.random.default_rng(k * 100 + v)
        kernel = _random_kernel(rng, v)
        samples = (rng.dirichlet(np.ones(v) * 0.3, size=k) * 4).astype(dtype)
        upstream = np.asarray(rng.normal(), dtype=dtype)
        kwargs = dict(mode=mode, negative_weight=negative_weight)
        loss, grad = _loss_and_grad(
            topic_contrastive_loss, samples, kernel, upstream, **kwargs
        )
        ref_loss, ref_grad = _loss_and_grad(
            topic_contrastive_loss_composed, samples, kernel, upstream, **kwargs
        )
        assert loss.dtype == ref_loss.dtype == dtype
        assert loss.tobytes() == ref_loss.tobytes()
        assert grad.dtype == ref_grad.dtype == dtype
        assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("mode", list(ContrastiveMode))
    def test_hard_indicators_bitwise(self, mode):
        from tests.core._composed_contrastive import topic_contrastive_loss_composed

        kernel = _block_kernel()
        samples = _indicator([[0, 1, 2], [0, 1, 3]], 8)
        upstream = np.asarray(1.0)
        loss, grad = _loss_and_grad(
            topic_contrastive_loss, samples, kernel, upstream, mode=mode
        )
        ref_loss, ref_grad = _loss_and_grad(
            topic_contrastive_loss_composed, samples, kernel, upstream, mode=mode
        )
        assert loss.tobytes() == ref_loss.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    def test_fused_is_one_graph_node(self):
        rng = np.random.default_rng(2)
        y = Tensor(rng.dirichlet(np.ones(8), size=3), requires_grad=True)
        loss = topic_contrastive_loss(y, _random_kernel(rng, 8))
        assert loss._parents == (y,)
        assert loss.shape == ()

    def test_constant_samples_build_no_graph(self):
        rng = np.random.default_rng(3)
        loss = topic_contrastive_loss(
            Tensor(rng.dirichlet(np.ones(8), size=3)), _random_kernel(rng, 8)
        )
        assert not loss.requires_grad and loss._parents == ()

    def test_unknown_mode_rejected(self):
        kernel = _block_kernel()
        with pytest.raises(ShapeError):
            topic_contrastive_loss(Tensor(np.ones((2, 8))), kernel, mode="full")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_refreshed_kernel_is_read_live(self, dtype):
        """After the stream-drift path's in-place ``refresh()`` the fused
        loss must see the new exp(K) — the composed loss on the refreshed
        kernel — not a copy captured on an earlier call."""
        from tests.core._composed_contrastive import topic_contrastive_loss_composed

        rng = np.random.default_rng(4)
        kernel = _random_kernel(rng, 20)
        samples = (rng.dirichlet(np.ones(20), size=4) * 3).astype(dtype)
        upstream = np.asarray(1.0, dtype=dtype)
        before, _ = _loss_and_grad(topic_contrastive_loss, samples, kernel, upstream)

        drift = rng.uniform(-1, 1, size=(20, 20))
        kernel.refresh(np.clip(kernel.matrix + (drift + drift.T) / 4, -1, 1))
        loss, grad = _loss_and_grad(topic_contrastive_loss, samples, kernel, upstream)
        ref_loss, ref_grad = _loss_and_grad(
            topic_contrastive_loss_composed, samples, kernel, upstream
        )
        assert loss.tobytes() != before.tobytes()
        assert loss.tobytes() == ref_loss.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
