"""The multiply-and-search CSR build that ``Graph``'s counting build
replaced, kept for the tests only: every ``indptr`` and ``indices`` array
of the out, in and both rows must equal the ones computed here bit for bit.
"""

import numpy as np


def _sorted_keys(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``row * n + col`` of every entry, ascending: row-major CSR order."""
    keys = rows * np.int64(n)
    keys += cols
    keys.sort()
    return keys


def _csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of sorted keys; the keys become the indices."""
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return indptr.astype(np.int64, copy=False), np.remainder(keys, n, out=keys)


def csr_rows(n: int, src: np.ndarray, dst: np.ndarray) -> dict:
    """direction -> ``(indptr, indices)`` of the int64 edge columns: the
    both rows are the union of the out and in keys."""
    out_keys = _sorted_keys(n, src, dst)
    in_keys = _sorted_keys(n, dst, src)
    both_keys = np.union1d(out_keys, in_keys).astype(np.int64)
    return {"out": _csr(n, out_keys), "in": _csr(n, in_keys),
            "both": _csr(n, both_keys)}
