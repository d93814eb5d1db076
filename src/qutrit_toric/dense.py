"""Dense matrices of Clifford gates and Weyl strings, for small systems.

The `verify` command checks the conjugation tables against them, in
stacks, and the encoder takes its synthesis targets from `gate_matrix`.
The dense statevector oracle built on them lives with the tests, in
`tests/oracles.py`.
"""

from __future__ import annotations

import numpy as np

from .weyl import GateKind


def gate_matrix(kind: GateKind, d: int) -> np.ndarray:
    """Dense matrix of a Clifford gate kind (d x d or d^2 x d^2); a dagger
    kind is the adjoint of its base kind."""
    kind = GateKind(kind)
    w = np.exp(2j * np.pi / d)
    X = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        X[(i + 1) % d, i] = 1
    Z = np.diag([w**i for i in range(d)])
    H = np.array([[w ** (i * j) for j in range(d)] for i in range(d)]) / np.sqrt(d)
    C = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        C[(-i) % d, i] = 1
    # two-qudit kinds, control = first site
    CXm = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            CXm[d * i + (i + j) % d, d * i + j] = 1
    CZm = np.diag([w ** (i * j) for i in range(d) for j in range(d)])
    mats = {"x": X, "z": Z, "c": C, "h": H, "cx": CXm, "cz": CZm}
    base = kind.value.removesuffix("dg")
    return mats[base] if base == kind.value else mats[base].conj().T


def weyl_matrices(d: int, x: np.ndarray, z: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """(k, d^n, d^n) matrices of the Weyl strings (x[i], z[i], phase[i]), small n only."""
    k, n = x.shape
    dim = d**n
    if dim > 4096:
        raise ValueError("weyl_matrices is for small systems only")
    digits = np.indices((d,) * n).reshape(n, dim)  # column j's site digits
    place = d ** np.arange(n - 1, -1, -1)  # row-major place value of each site
    rows = place @ ((digits + x[:, :, None]) % d)  # (k, dim)
    powers = np.array([np.exp(2j * np.pi / d) ** m for m in range(d)])
    mats = np.zeros((k, dim, dim), dtype=np.complex128)
    mats[np.arange(k)[:, None], rows, np.arange(dim)] = powers[(phase[:, None] + z @ digits) % d]
    return mats

