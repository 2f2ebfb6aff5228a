"""Frozen reference matrices used across the test modules.

Everything here is written out entry by entry on purpose: these arrays act
as independent oracles for the construction code, so they must not be
produced by the functions under test.
"""

import numpy as np

H = np.sqrt(0.5)          # 1/sqrt(2)
R3 = 1.0 / np.sqrt(3.0)
R6 = 1.0 / np.sqrt(6.0)

# Exact pi/4 rotation blocks (cos = sin = 1/sqrt(2), bit-exact).
ROT2_Q = np.array([[H, H],
                   [-H, H]])
ROT3_12_Q = np.array([[H, H, 0.0],
                      [-H, H, 0.0],
                      [0.0, 0.0, 1.0]])
ROT3_23_Q = np.array([[1.0, 0.0, 0.0],
                      [0.0, H, H],
                      [0.0, -H, H]])

# Two-qubit sorting unitaries.
U1_4 = np.array([[0.0, 0.0, 0.0, 1.0],
                 [0.0, 0.0, 1.0, 0.0],
                 [0.0, 1.0, 0.0, 0.0],
                 [1.0, 0.0, 0.0, 0.0]], dtype=np.complex128)

U2_4 = H * np.array([[0.0, 0.0, -1.0, 1.0],
                     [0.0, 0.0, 1.0, 1.0],
                     [-1.0, 1.0, 0.0, 0.0],
                     [1.0, 1.0, 0.0, 0.0]], dtype=np.complex128)

# Two-qutrit sorting unitary.
U2_9 = np.array([
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, -H, H, 0],
    [0, 0, 0, 0, 0, 0, H, H, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, -H, H, 0, 0, 0, 0],
    [0, 0, 0, H, H, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0],
    [-H, H, 0, 0, 0, 0, 0, 0, 0],
    [H, H, 0, 0, 0, 0, 0, 0, 0],
], dtype=np.complex128)

# Preparation unitaries (first column carries the prepared state).
UP_4 = H * np.array([[0.0, -1.0, 1.0, 0.0],
                     [1.0, 0.0, 0.0, 1.0],
                     [-1.0, 0.0, 0.0, 1.0],
                     [0.0, 1.0, 1.0, 0.0]], dtype=np.complex128)

UP_9 = np.array([
    [0, 0, -R3, 0, R3, 0, -R3, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0],
    [R3, 0, 0, 0, -R3, 0, -R3, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0],
    [-R3, 0, -R3, 0, -R3, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0],
    [R3, 0, -R3, 0, 0, 0, R3, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
], dtype=np.complex128)

# Output amplitudes of the canonical analyzers on the singlet inputs.
PSI4_OUT = 0.5 * np.array([1.0, -1.0, 1.0, 1.0], dtype=np.complex128)
PHI_OUT = np.array([0.0, -R6, R6, 0.0, -R6, -R6, R3, 0.0, 0.0],
                   dtype=np.complex128)


# Regimes Haar sampling misses, built from plain numpy with a fixed seed: a
# port permutation times exp(1e-3 i H) (mixing angles near 0 and pi/2), a
# direct sum of 4x4 Haar blocks (most cells skipped), and dimension 1.
def _edge_unitaries():
    rng = np.random.default_rng(2718)

    def haar(n):
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    near_perm = np.eye(12)[rng.permutation(12)] @ (v * np.exp(1e-3j * w)) @ v.conj().T
    block_diag = np.zeros((12, 12), dtype=np.complex128)
    for k in (0, 4, 8):
        block_diag[k:k + 4, k:k + 4] = haar(4)
    return {"nearperm12": near_perm, "blockdiag12": block_diag,
            "dim1": np.array([[np.exp(0.7j)]])}


EDGE_UNITARIES = _edge_unitaries()
