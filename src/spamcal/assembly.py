"""The one assembly kernel shared by the noise model and the estimator.

Both build blocks of a transition matrix whose column for prepared state c
is a Kronecker product of per-qubit means plus signed correlated terms:

    T[x, c] = sum_t w_t(c)[x_q] * prod_{l not in q_t} means[c, l, x_l]

where each term t acts on a sorted tuple q_t of qubits. The product of the
means alone is the term with no qubits and weight 1. Qubit axes are 0-based
here, MSB first, matching the bitstring index convention.

The kernel works on BLOCK columns at a time, with the column axis last and
every array contiguous: the block's means and each term's weights are
copied to (..., block) arrays, a term's product of means is multiplied by
its weights into one reused buffer, and the terms are added in order into
a zeroed (2,) * n + (block,) accumulator, which is copied into the output
once per block. Each entry is the same sequence of products and sums in
any block, so a column does not depend on the columns computed with it.
"""

from __future__ import annotations

import itertools

import numpy as np

BLOCK = 64  # columns per pass; temporaries hold O(2^n * BLOCK) entries


def kron_columns(means: np.ndarray, terms) -> np.ndarray:
    """(2^n, cols) block of T from means (cols, n, 2) and a list of
    (qubits, weights) terms, weights of shape (cols,) + (2,) * len(qubits)."""
    cols, n, _ = means.shape
    out = np.empty((1 << n, cols))
    for start in range(0, cols, BLOCK):
        blk = slice(start, start + BLOCK)
        m = np.ascontiguousarray(means[blk].transpose(1, 2, 0))  # (n, 2, block)
        block = m.shape[-1]
        acc = np.zeros((2,) * n + (block,))
        for qubits, weights in terms:
            v = np.ones((1, block))
            for l in range(n):
                if l not in qubits:
                    v = (v[:, None, :] * m[l]).reshape(-1, block)
            v = v.reshape((2,) * (n - len(qubits)) + (block,))
            w = np.ascontiguousarray(np.moveaxis(weights[blk], 0, -1))
            tmp = np.empty_like(v)
            # one slice of the accumulator per outcome of the term's qubits
            for bits in itertools.product((0, 1), repeat=len(qubits)):
                slot = [slice(None)] * n
                for q, b in zip(qubits, bits):
                    slot[q] = b
                np.multiply(v, w[bits], out=tmp)
                acc[tuple(slot)] += tmp
        out[:, blk] = acc.reshape(-1, block)
    return out
