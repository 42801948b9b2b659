"""CSR batch views: the sparse bag-of-words fast-path container.

Real bag-of-words corpora are overwhelmingly zeros (>95% on the paper's
datasets), yet a dense ``(batch, vocab)`` count matrix pays O(batch·vocab)
memory traffic per training step.  :class:`CSRBatch` is the compressed
sparse row representation the data layer hands to the tensor layer
instead: three flat arrays (``data``/``indices``/``indptr``) describing
only the nonzero counts.

Design points:

* **Constant, not differentiated.**  A ``CSRBatch`` is a *constant*
  operand (bag-of-words counts are inputs, never parameters), so it is
  deliberately not a :class:`~repro.tensor.tensor.Tensor` subclass.  The
  sparse×dense fused kernels in :mod:`repro.tensor.fused`
  (``linear_csr``, ``nll_from_probs_csr``, ``log_softmax_nll_csr``)
  accept it directly and differentiate only their dense tensor operands.
* **Zero-copy where the access pattern allows.**  :meth:`slice_rows`
  (contiguous ranges — the ``transform()`` path) returns views sharing
  the parent's ``data``/``indices`` buffers.  :meth:`take_rows`
  (shuffled mini-batches) gathers, but copies only the nonzeros —
  ~20-50× less than a dense fancy-index at real corpus densities.
* **Sparsity-aware casting.**  :meth:`astype` casts only the ``data``
  array (nnz elements) and shares ``indices``/``indptr``, so a
  per-dtype cast cache over a CSR corpus costs O(nnz), not O(D·V).
* **Graceful densification.**  ``__array__`` lets ``np.asarray(batch)``
  produce the dense matrix, so dense-only consumers (the OT models'
  reconstruction terms, CLNTM's tf-idf augmentation) keep working
  unchanged when a sparse batch reaches them.

The two matmuls call scipy's compiled CSR/CSC kernels directly on the
three arrays (:func:`sparse_dense_product`), so no ``scipy.sparse`` matrix
is built on the training or inference path; everything else is plain
numpy.  :meth:`CSRBatch.to_scipy` wraps the same buffers where a caller
needs scipy's API.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _scipy_sparse
from scipy.sparse import _sparsetools

from repro.errors import ShapeError

#: Column-block width of :func:`transpose_contiguous`.  512 float32
#: columns keep each block inside L2 on common CPUs; measured ~4× faster
#: than numpy's strided whole-matrix transpose copy at the
#: ``(vocab, hidden)`` shapes the sparse kernels produce.
_TRANSPOSE_BLOCK = 512


def transpose_contiguous(a: np.ndarray) -> np.ndarray:
    """C-contiguous copy of ``a.T``, built with cache-friendly blocking.

    ``np.ascontiguousarray(a.T)`` walks one operand with a stride of the
    full row length, which thrashes the cache once the matrix outgrows it
    (a ``(20000, 256)`` float32 transpose costs ~39 ms that way, ~9 ms
    blocked).  Both sparse×dense kernel directions need exactly this
    operation: the forward to feed scipy a contiguous ``weight.T``, the
    backward to hand the autodiff engine a ``(out, in)``-layout weight
    gradient.
    """
    rows, cols = a.shape
    out = np.empty((cols, rows), a.dtype)
    if rows >= cols:
        for i in range(0, rows, _TRANSPOSE_BLOCK):
            out[:, i : i + _TRANSPOSE_BLOCK] = a[i : i + _TRANSPOSE_BLOCK].T
    else:
        for i in range(0, cols, _TRANSPOSE_BLOCK):
            out[i : i + _TRANSPOSE_BLOCK] = a[:, i : i + _TRANSPOSE_BLOCK].T
    return out


def _as_c_contiguous(a: np.ndarray) -> np.ndarray:
    """C-contiguous view or copy of a 2-D array (blocked for transposes)."""
    if a.flags.c_contiguous:
        return a
    if a.T.flags.c_contiguous:  # a transpose view: block the copy
        return transpose_contiguous(a.T)
    return np.ascontiguousarray(a)


class CSRBatch:
    """A ``(rows, cols)`` count matrix in compressed sparse row form.

    Parameters
    ----------
    data:
        Nonzero values, length ``nnz``, in row-major order.
    indices:
        Column index of each nonzero, length ``nnz``.  Within a row,
        indices must be sorted and unique (canonical CSR) — corpus
        bag-of-words construction guarantees this.
    indptr:
        Row boundaries, length ``rows + 1``: row ``i``'s nonzeros live in
        ``data[indptr[i]:indptr[i+1]]``.
    shape:
        ``(rows, cols)``.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "_row_ids")

    def __init__(self, data, indices, indptr, shape: tuple[int, int]):
        self.data = np.asarray(data)
        self.indices = np.asarray(indices)
        self.indptr = np.asarray(indptr)
        self.shape = (int(shape[0]), int(shape[1]))
        if self.indptr.shape != (self.shape[0] + 1,):
            raise ShapeError(
                f"indptr length {self.indptr.shape[0]} does not match "
                f"{self.shape[0]} rows"
            )
        if self.data.shape != self.indices.shape:
            raise ShapeError(
                f"data length {self.data.shape} != indices length "
                f"{self.indices.shape}"
            )
        self._row_ids: np.ndarray | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_scipy(cls, matrix, dtype=None) -> "CSRBatch":
        """Wrap a ``scipy.sparse`` matrix (converted to canonical CSR)."""
        csr = matrix.tocsr()
        csr.sum_duplicates()
        data = csr.data if dtype is None else csr.data.astype(dtype, copy=False)
        return cls(data, csr.indices, csr.indptr, csr.shape)

    @classmethod
    def from_dense(cls, array, dtype=None) -> "CSRBatch":
        """Build from a dense 2-D array (test/interop convenience)."""
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise ShapeError(f"CSRBatch.from_dense expects 2-D, got {arr.shape}")
        return cls.from_scipy(_scipy_sparse.csr_matrix(arr), dtype=dtype)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return 2

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    @property
    def density(self) -> float:
        """Fraction of stored entries: ``nnz / (rows * cols)``."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:
        return (
            f"CSRBatch(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.4f}, dtype={self.dtype})"
        )

    def row_ids(self) -> np.ndarray:
        """Row index of every nonzero, length ``nnz`` (cached)."""
        if self._row_ids is None:
            counts = np.diff(self.indptr)
            self._row_ids = np.repeat(
                np.arange(self.shape[0], dtype=np.intp), counts
            )
        return self._row_ids

    def row_nnz(self) -> np.ndarray:
        """Number of nonzeros per row, shape ``(rows,)``."""
        return np.diff(self.indptr)

    def row_sums(self) -> np.ndarray:
        """Per-row sum of the stored values, shape ``(rows,)``."""
        sums = np.zeros(self.shape[0], dtype=self.data.dtype)
        if self.nnz:
            np.add.at(sums, self.row_ids(), self.data)
        return sums

    # ------------------------------------------------------------------
    # dtype / densification
    # ------------------------------------------------------------------
    def astype(self, dtype, copy: bool = False) -> "CSRBatch":
        """Cast ``data`` only (O(nnz)); ``indices``/``indptr`` are shared."""
        resolved = np.dtype(dtype)
        if resolved == self.data.dtype and not copy:
            return self
        return CSRBatch(
            self.data.astype(resolved, copy=copy),
            self.indices,
            self.indptr,
            self.shape,
        )

    def copy(self) -> "CSRBatch":
        """Deep copy (ndarray-parity: batches behave array-like)."""
        return CSRBatch(
            self.data.copy(),
            self.indices.copy(),
            self.indptr.copy(),
            self.shape,
        )

    def toarray(self, dtype=None) -> np.ndarray:
        """Materialise the dense ``(rows, cols)`` matrix.

        Building directly in the target ``dtype`` scatters the nnz values
        into a zeroed array — no intermediate full-size copy in another
        precision.
        """
        out = np.zeros(self.shape, dtype=dtype or self.data.dtype)
        if self.nnz:
            out[self.row_ids(), self.indices] = self.data
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # np.asarray(batch) fallback for dense-only consumers.
        return self.toarray(dtype=dtype)

    # ------------------------------------------------------------------
    # row selection
    # ------------------------------------------------------------------
    def slice_rows(self, start: int, stop: int) -> "CSRBatch":
        """Contiguous row range as a **zero-copy** view.

        ``data`` and ``indices`` are numpy views into the parent buffers;
        only the small re-based ``indptr`` (``stop - start + 1`` ints) is
        fresh.  A range covering every row returns the batch itself.  This
        is the batch access pattern of ``transform()``.
        """
        start, stop = max(start, 0), min(stop, self.shape[0])
        if start == 0 and stop == self.shape[0]:
            return self
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSRBatch(
            self.data[lo:hi],
            self.indices[lo:hi],
            self.indptr[start : stop + 1] - lo,
            (stop - start, self.shape[1]),
        )

    def take_rows(self, row_indices) -> "CSRBatch":
        """Gather arbitrary rows (the shuffled mini-batch pattern).

        Copies only the selected nonzeros — O(batch nnz), never
        O(batch·cols).
        """
        idx = np.asarray(row_indices, dtype=np.intp)
        counts = np.diff(self.indptr)[idx]
        indptr = np.zeros(idx.shape[0] + 1, dtype=self.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        # Flat positions of the gathered nonzeros in the parent arrays.
        positions = np.repeat(
            self.indptr[idx] - indptr[:-1], counts
        ) + np.arange(total, dtype=np.intp)
        return CSRBatch(
            self.data[positions],
            self.indices[positions],
            indptr,
            (idx.shape[0], self.shape[1]),
        )

    # ------------------------------------------------------------------
    # row-wise arithmetic (returns new batches sharing structure)
    # ------------------------------------------------------------------
    def row_normalized(self, min_total: float = 1.0) -> "CSRBatch":
        """Rows divided by ``max(row_sum, min_total)``.

        The sparse twin of the encoder's dense ``bow / total`` input
        normalisation (zeros stay zero either way).  Uses true division —
        not a reciprocal multiply — so each stored value matches the dense
        ``bow / total`` result bit for bit.
        """
        totals = np.maximum(self.row_sums(), min_total)
        return CSRBatch(
            self.data / totals[self.row_ids()],
            self.indices,
            self.indptr,
            self.shape,
        )

    # ------------------------------------------------------------------
    # matmuls (scipy's C kernels; forward/backward of linear_csr)
    # ------------------------------------------------------------------
    def to_scipy(self) -> _scipy_sparse.csr_matrix:
        """A ``scipy.sparse.csr_matrix`` sharing this batch's buffers."""
        return _scipy_sparse.csr_matrix(
            (self.data, self.indices, self.indptr),
            shape=self.shape,
            copy=False,
        )

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """``self @ dense`` — the sparse×dense forward product."""
        return sparse_dense_product(self, dense)

    def t_matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """``self.T @ dense`` — the weight-gradient product."""
        return sparse_dense_product(self, dense, transpose=True)


#: scipy's (single-vector, multi-vector) kernels: the CSR arrays read as
#: CSR for ``batch @ dense`` and as CSC of the transpose for ``batch.T @ dense``.
_KERNELS = {
    False: (_sparsetools.csr_matvec, _sparsetools.csr_matvecs),
    True: (_sparsetools.csc_matvec, _sparsetools.csc_matvecs),
}


def sparse_dense_product(
    batch: CSRBatch, dense: np.ndarray, transpose: bool = False
) -> np.ndarray:
    """``batch @ dense`` (or ``batch.T @ dense``) through scipy's C kernels.

    Runs the very kernel ``batch.to_scipy() @ dense`` (``.T @ dense``)
    dispatches to — ``csr_matvecs`` (``csc_matvecs`` on the same three
    arrays for the transpose), or the single-vector ``*_matvec`` when
    ``dense`` has one column — into a zeroed output of the upcast dtype,
    so the result is bitwise equal to scipy's.  What it skips is building
    and format-checking a ``scipy.sparse`` matrix per call, which costs
    more than the product itself at serving batch sizes.
    """
    rows, cols = batch.shape
    n_row, n_col = (cols, rows) if transpose else (rows, cols)
    dense = _as_c_contiguous(dense)
    if dense.ndim != 2 or dense.shape[0] != n_col:
        raise ShapeError(
            f"sparse_dense_product: {'transposed ' if transpose else ''}"
            f"batch {batch.shape} cannot multiply {dense.shape}"
        )
    n_vecs = dense.shape[1]
    out = np.zeros((n_row, n_vecs), dtype=np.result_type(batch.data, dense))
    matvec, matvecs = _KERNELS[transpose]
    args = (batch.indptr, batch.indices, batch.data, dense.ravel(), out.ravel())
    if n_vecs == 1:  # scipy's dispatch for an (n, 1) operand
        matvec(n_row, n_col, *args)
    else:
        matvecs(n_row, n_col, n_vecs, *args)
    return out
