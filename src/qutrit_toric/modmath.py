"""Linear algebra over Z_d for prime d: modular inverse, row reduction, rank, solve.

Pivot inverses always exist because d is prime; everything is plain
Gaussian elimination on small int64 matrices.
"""

from __future__ import annotations

import numpy as np


def mod_inverse(a: int, d: int) -> int:
    a %= d
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {d}")
    return pow(a, d - 2, d)


def row_reduce(mat: np.ndarray, d: int) -> tuple[np.ndarray, list[int]]:
    """Return (RREF of mat mod d, pivot column list)."""
    m = np.asarray(mat, dtype=np.int64).copy() % d
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        m[r] = (m[r] * mod_inverse(int(m[r, c]), d)) % d
        col = m[:, c].copy()  # clear column c from every other row at once
        col[r] = 0
        m -= np.outer(col, m[r])
        m %= d
        pivots.append(c)
        r += 1
    return m, pivots


def rank(mat: np.ndarray, d: int) -> int:
    _, pivots = row_reduce(mat, d)
    return len(pivots)


def solve(mat: np.ndarray, rhs: np.ndarray, d: int) -> np.ndarray | None:
    """One solution of mat @ v = rhs (mod d), or None if inconsistent."""
    mat = np.asarray(mat, dtype=np.int64) % d
    rhs = np.asarray(rhs, dtype=np.int64) % d
    rows, cols = mat.shape
    aug = np.concatenate([mat, rhs.reshape(rows, 1)], axis=1)
    red, pivots = row_reduce(aug, d)
    if cols in pivots:
        return None
    v = np.zeros(cols, dtype=np.int64)
    for r, c in enumerate(pivots):
        v[c] = red[r, cols]
    return v

