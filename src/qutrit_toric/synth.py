"""Two-qubit unitary synthesis over the native gate set.

Native gates, with angles in turns:

    U1q(theta, phi) = exp(-i pi theta/2 (cos(pi phi) X + sin(pi phi) Y))
    RZ(theta)       = exp(-i pi theta/2 Z)
    ZZPhase(theta)  = exp(-i pi theta/2 Z (x) Z)

Any single-qubit unitary becomes RZ(a) U1q(b, 1/2) RZ(c) (ZYZ Euler
angles). Any two-qubit unitary goes through the magic-basis canonical
decomposition U = (K1a (x) K1b) exp(i sum_k c_k s_k (x) s_k) (K2a (x) K2b);
each canonical axis with a nonvanishing coefficient costs exactly one
ZZPhase, so entangler counts are minimal for the class (1 for
CNOT-likes, 2 for the double-axis class, 3 generic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]],
    dtype=np.complex128,
) / np.sqrt(2)


@dataclass(frozen=True)
class NativeOp:
    kind: str  # u1q | rz | zzphase | measz | barrier
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    cbits: tuple[int, ...] = ()

    def __repr__(self):
        ps = ",".join(f"{p:.6g}" for p in self.params)
        return f"{self.kind}({ps}) q{list(self.qubits)}"


def u1q_matrix(theta: float, phi: float) -> np.ndarray:
    axis = np.cos(np.pi * phi) * PAULI_X + np.sin(np.pi * phi) * PAULI_Y
    a = np.pi * theta / 2
    return np.cos(a) * np.eye(2) - 1j * np.sin(a) * axis


def rz_matrix(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * np.pi * theta / 2), np.exp(1j * np.pi * theta / 2)])


def zzphase_matrix(theta: float) -> np.ndarray:
    a = np.exp(-1j * np.pi * theta / 2)
    b = np.exp(1j * np.pi * theta / 2)
    return np.diag([a, b, b, a])


def native_matrix(op: NativeOp) -> np.ndarray:
    if op.kind == "u1q":
        return u1q_matrix(*op.params)
    if op.kind == "rz":
        return rz_matrix(op.params[0])
    if op.kind == "zzphase":
        return zzphase_matrix(op.params[0])
    raise ValueError(f"{op.kind} has no matrix")


def ops_unitary(ops: list[NativeOp], n_qubits: int) -> np.ndarray:
    """Dense unitary of a native op list (time order = list order).

    Each op's matrix multiplies the (2,)*n row axes of its qubits (first listed
    = most significant), moved to the front, in one np.dot: the product that
    np.tensordot makes, so U is bit-identical to full Kronecker embeddings
    multiplied in order. Entries below 1e-16 are taken as exact zeros. Each
    distinct matrix and axis order is built once per call.
    """
    dim = 1 << n_qubits
    U = np.eye(dim, dtype=np.complex128).reshape((2,) * n_qubits + (dim,))
    matrices, orders = {}, {}  # (kind, params) -> clamped matrix, qubits -> (order, inverse)
    for op in ops:
        if op.kind in ("measz", "barrier"):
            continue
        if (op.kind, op.params) not in matrices:
            m = native_matrix(op)
            matrices[op.kind, op.params] = np.where(np.abs(m) < 1e-16, 0, m)
        if op.qubits not in orders:
            order = [*op.qubits, *(a for a in range(n_qubits + 1) if a not in op.qubits)]
            orders[op.qubits] = order, [order.index(a) for a in range(n_qubits + 1)]
        m, (order, inverse) = matrices[op.kind, op.params], orders[op.qubits]
        moved = U.transpose(order)
        U = np.dot(m, moved.reshape(len(m), -1)).reshape(moved.shape).transpose(inverse)
    return U.reshape(dim, dim)


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - e^{i phi} b| over the optimal global phase."""
    tr = np.trace(a.conj().T @ b)
    if abs(tr) < 1e-12:
        return float(np.abs(a - b).max())
    phase = tr / abs(tr)
    return float(np.abs(a - phase.conjugate() * b).max())


# -- single-qubit synthesis ------------------------------------------------------


def euler_zyz(u: np.ndarray) -> list[NativeOp]:
    """Native sequence for a single-qubit unitary, up to global phase.

    u ~ RZ(a) . RY(b) . RZ(c), emitted in time order c, b, a.
    """
    det = np.linalg.det(u)
    su = u / np.sqrt(det)
    b = 2 * np.arctan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) < 1e-12:
        apc = 0.0
        amc = 2 * np.angle(su[1, 0])
    elif abs(su[1, 0]) < 1e-12:
        apc = 2 * np.angle(su[1, 1])
        amc = 0.0
    else:
        apc = 2 * np.angle(su[1, 1])
        amc = 2 * np.angle(su[1, 0])
    a = (apc + amc) / 2
    c = (apc - amc) / 2
    ops = []
    if abs(c) > TOL:
        ops.append(NativeOp("rz", (0,), (c / np.pi,)))
    if abs(b) > TOL:
        ops.append(NativeOp("u1q", (0,), (b / np.pi, 0.5)))
    if abs(a) > TOL:
        ops.append(NativeOp("rz", (0,), (a / np.pi,)))
    return ops


def on_qubit(ops: list[NativeOp], mapping: dict[int, int]) -> list[NativeOp]:
    return [
        NativeOp(op.kind, tuple(mapping[q] for q in op.qubits), op.params, op.cbits)
        for op in ops
    ]


# -- two-qubit canonical (KAK) synthesis ---------------------------------------------


def canonical_matrix(c: np.ndarray) -> np.ndarray:
    """exp(i (cx XX + cy YY + cz ZZ)) via the magic-basis diagonal form."""
    cx_, cy, cz = c
    lam = np.array(
        [cx_ - cy + cz, cx_ + cy - cz, -cx_ - cy - cz, -cx_ + cy + cz]
    )
    return MAGIC @ np.diag(np.exp(1j * lam)) @ MAGIC.conj().T


def _orthogonal_diagonalize(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real orthogonal P and angles t with g = P diag(exp(2i t)) P^T.

    g is unitary symmetric, so Re(g) and Im(g) are commuting real
    symmetric matrices: diagonalize Re(g), then re-diagonalize Im(g)
    inside each degenerate eigenspace.
    """
    gr, gi = g.real, g.imag
    vals, P = np.linalg.eigh(gr)
    i = 0
    while i < 4:
        j = i + 1
        while j < 4 and vals[j] - vals[i] < 1e-9:
            j += 1
        if j - i > 1:
            block = P[:, i:j]
            _, sub = np.linalg.eigh(block.T @ gi @ block)
            P[:, i:j] = block @ sub
        i = j
    if np.linalg.det(P) < 0:
        P[:, 0] = -P[:, 0]
    D = P.T @ g @ P
    if np.abs(D - np.diag(np.diag(D))).max() > 1e-8:
        raise RuntimeError("failed to diagonalize the magic-basis Gram matrix")
    t = np.angle(np.diag(D)) / 2
    return P, t


def kak_decompose(U: np.ndarray):
    """U = (A1 (x) A0) . exp(i sum c_k s_k s_k) . (B1 (x) B0) up to global phase.

    Returns ((A_hi, A_lo), c, (B_hi, B_lo)) with qubit 0 = the most
    significant tensor factor.
    """
    if U.shape != (4, 4):
        raise ValueError("kak_decompose needs a 4x4 unitary")
    det = np.linalg.det(U)
    V = U / det**0.25
    m = MAGIC.conj().T @ V @ MAGIC
    g = m @ m.T
    P, t = _orthogonal_diagonalize(g)
    # bring sum(t) to 0 mod 2pi so that det(F) = +1
    r = np.sum(t) % (2 * np.pi)
    if abs(r - np.pi) < 0.5:
        t[0] += np.pi
    elif min(r, 2 * np.pi - r) > 0.5:
        raise RuntimeError("angle branches are inconsistent")
    K2 = np.diag(np.exp(-1j * t)) @ P.T @ m
    if np.abs(K2.imag).max() > 1e-7:
        raise RuntimeError("magic-basis factor is not real")
    K2 = K2.real
    if np.linalg.det(K2) < 0:
        # det(P) and det(K2) flip together; one column/row sign fixes both
        P[:, 0] = -P[:, 0]
        K2[0, :] = -K2[0, :]
    L1 = MAGIC @ P.astype(np.complex128) @ MAGIC.conj().T
    L2 = MAGIC @ K2.astype(np.complex128) @ MAGIC.conj().T
    # t = S c with rows of S from the canonical diagonal ordering
    S = np.array([[1, -1, 1], [1, 1, -1], [-1, -1, -1], [-1, 1, 1]], dtype=float)
    c = np.linalg.lstsq(S, t, rcond=None)[0]
    if phase_distance(canonical_matrix(c), MAGIC @ np.diag(np.exp(1j * t)) @ MAGIC.conj().T) > 1e-7:
        raise RuntimeError("canonical coefficients do not reproduce the core")
    A1, A0 = factor_local(L1)
    B1, B0 = factor_local(L2)
    return (A1, A0), c, (B1, B0)


def factor_local(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a tensor-product unitary L = A (x) B into its factors."""
    L4 = L.reshape(2, 2, 2, 2)  # indices [i, k, j, l] with L[2i+k, 2j+l]
    norms = np.array([[np.linalg.norm(L4[i, :, j, :]) for j in range(2)] for i in range(2)])
    i, j = np.unravel_index(np.argmax(norms), (2, 2))
    B = L4[i, :, j, :]
    B = B * np.sqrt(2) / np.linalg.norm(B)
    A = np.zeros((2, 2), dtype=np.complex128)
    for a in range(2):
        for b in range(2):
            A[a, b] = np.trace(B.conj().T @ L4[a, :, b, :]) / 2
    if phase_distance(np.kron(A, B), L) > 1e-6:
        raise RuntimeError("operator is not a local tensor product")
    return A, B


_AXIS_ROT = {
    # conjugations R with (R (x) R) ZZ (R (x) R)^dag = axis (x) axis
    "x": u1q_matrix(-0.5, 0.5),  # exp(+i pi Y/4): maps Z -> X
    "y": u1q_matrix(0.5, 0.0),   # exp(-i pi X/4): maps Z -> Y
}


def canonical_to_native(c: np.ndarray) -> tuple[list[NativeOp], np.ndarray, np.ndarray]:
    """Native ops for exp(i sum c_k s_k s_k), plus local corrections.

    Coefficients are first reduced mod pi/2 into (-pi/4, pi/4]; each
    reduction contributes a Pauli (x) Pauli factor (up to global phase)
    that is returned as left-multiplying local corrections (loc_hi, loc_lo).
    """
    ops: list[NativeOp] = []
    loc_hi = np.eye(2, dtype=np.complex128)
    loc_lo = np.eye(2, dtype=np.complex128)
    paulis = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}
    for axis, ck in zip(("x", "y", "z"), c):
        k = np.round(ck / (np.pi / 2))
        ck_red = ck - k * np.pi / 2
        if abs(ck_red + np.pi / 4) < 1e-12:
            ck_red += np.pi / 2
            k -= 1
        if k % 4:
            # exp(i (pi/2) s s) = i * s (x) s
            for _ in range(int(k % 4)):
                loc_hi = loc_hi @ paulis[axis]
                loc_lo = loc_lo @ paulis[axis]
        if abs(ck_red) < TOL:
            continue
        theta = -2 * ck_red / np.pi  # ZZPhase(theta) = exp(-i pi theta/2 ZZ)
        if axis == "z":
            ops.append(NativeOp("zzphase", (0, 1), (theta,)))
        else:
            R = _AXIS_ROT[axis]
            pre = euler_zyz(R.conj().T)
            post = euler_zyz(R)
            ops.extend(on_qubit(pre, {0: 0}))
            ops.extend(on_qubit(pre, {0: 1}))
            ops.append(NativeOp("zzphase", (0, 1), (theta,)))
            ops.extend(on_qubit(post, {0: 0}))
            ops.extend(on_qubit(post, {0: 1}))
    return ops, loc_hi, loc_lo


def synthesize_two_qubit(U: np.ndarray) -> list[NativeOp]:
    """Native sequence (qubits 0 = hi, 1 = lo) equal to U up to global phase."""
    (A1, A0), c, (B1, B0) = kak_decompose(U)
    ops: list[NativeOp] = []
    ops += on_qubit(euler_zyz(B1), {0: 0})
    ops += on_qubit(euler_zyz(B0), {0: 1})
    core, loc_hi, loc_lo = canonical_to_native(c)
    ops += core
    ops += on_qubit(euler_zyz(A1 @ loc_hi), {0: 0})
    ops += on_qubit(euler_zyz(A0 @ loc_lo), {0: 1})
    return ops
