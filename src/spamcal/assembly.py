"""The one assembly kernel shared by the noise model and the estimator.

Both build blocks of a transition matrix whose column for prepared state c
is a Kronecker product of per-qubit means plus signed correlated terms:

    T[x, c] = sum_t w_t(c)[x_q] * prod_{l not in q_t} means[c, l, x_l]

where each term t acts on a sorted tuple q_t of qubits. The product of the
means alone is the term with no qubits and weight 1. Qubit axes are 0-based
here, MSB first, matching the bitstring index convention.
"""

from __future__ import annotations

import itertools

import numpy as np

BLOCK = 64  # columns per pass; temporaries hold O(2^n * BLOCK) entries


def kron_columns(means: np.ndarray, terms) -> np.ndarray:
    """(2^n, cols) block of T from means (cols, n, 2) and a list of
    (qubits, weights) terms, weights of shape (cols,) + (2,) * len(qubits)."""
    cols, n, _ = means.shape
    out = np.zeros((1 << n, cols))
    for start in range(0, cols, BLOCK):
        m = means[start:start + BLOCK].transpose(1, 2, 0)  # (n, 2, block)
        block = m.shape[-1]
        acc = out[:, start:start + BLOCK].reshape((2,) * n + (block,))
        for qubits, weights in terms:
            v = np.ones((1, block))
            for l in range(n):
                if l not in qubits:
                    v = (v[:, None, :] * m[l]).reshape(-1, block)
            v = v.reshape((2,) * (n - len(qubits)) + (block,))
            w = weights[start:start + BLOCK]
            # one slice of the output per outcome of the term's qubits
            for bits in itertools.product((0, 1), repeat=len(qubits)):
                slot = [slice(None)] * n
                for q, b in zip(qubits, bits):
                    slot[q] = b
                acc[tuple(slot)] += v * w[(slice(None),) + bits]
    return out
