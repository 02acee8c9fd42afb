"""The one assembly kernel shared by the noise model and the estimator.

Both build blocks of a transition matrix whose column for prepared state c
is a Kronecker product of per-qubit means plus signed correlated terms:

    T[x, c] = sum_t a_t(c) * (-1)^(sum_{q in q_t} x_q) * prod_{l not in q_t} m_l(x_l|c)

where read0[c, l] = m_l(0|c) = 1 - m_l(1|c), a term t acts on a sorted
tuple q_t of qubits with one coefficient a_t(c) per column, and the mean
product is the term () with coefficient 1. Qubit axes are 0-based here,
MSB first, matching the bitstring index convention.

The kernel works on BLOCK columns at a time, with the column axis last and
every array contiguous, and builds every term in one left-to-right sweep
over the qubit axes. After qubit l it holds three kinds of partial product
over the qubits 0..l:

- the free product of the means, the prefix every term starts from;
- one open partial per distinct prefix q_t & {0..l} of a term still to
  close, for example one for all pairs (i, .) between i and their second
  qubit: the product of the means off that prefix, with a size-1 axis at
  each of its qubits, so that reaching a term qubit costs nothing;
- the closed accumulator: at a term's last qubit its open partial times its
  signed coefficient is added into it, and every later mean multiplies it.

Each partial is multiplied by one mean per qubit, so pair terms cost
O(n * 2^n) per column, not the O(n^2 * 2^n) of a product per term. The plan
of which partials each qubit continues, extends or closes is built once per
call from the terms' qubits. Every operation is elementwise along the column
axis and no operation sums along it, so a column does not depend on the
columns computed with it.
"""

from __future__ import annotations

import numpy as np

BLOCK = 64  # columns per pass; temporaries hold O(2^n * BLOCK) entries


def _plan(n: int, qubit_sets) -> list:
    """Per qubit l: the open prefixes that means[l] multiplies, the prefixes
    that l extends and leaves open, and the terms that close at l, each term
    with the prefix it reads and the shapes that prefix's partial and the
    term's signed coefficient take over the axes 0..l."""
    plan = []
    for l in range(n):
        cont, extend, close = {}, {}, []
        for t, q in enumerate(qubit_sets):
            if not q or l > q[-1]:
                continue
            prefix = tuple(x for x in q if x < l)
            if l not in q:
                cont[prefix] = None
            elif l < q[-1]:
                extend[prefix] = None
            else:
                axes = [x in q for x in range(l + 1)]
                pshape = tuple(1 if a else 2 for a in axes)
                wshape = tuple(2 if a else 1 for a in axes)
                close.append((t, prefix, pshape, wshape))
        plan.append((list(cont), list(extend), close))
    return plan


def kron_columns(read0: np.ndarray, terms) -> np.ndarray:
    """(2^n, cols) block of T from read0 (cols, n), P(qubit reads 0), and a
    list of (qubits, coefficient) terms, each coefficient of shape (cols,)."""
    cols, n = read0.shape
    qubit_sets = [tuple(q) for q, _a in terms]
    plan = _plan(n, qubit_sets)
    # (-1)^(sum of the outcome bits), one (2,) * k array per term order k
    signs = {k: 1.0 - 2.0 * (np.indices((2,) * k).sum(0) % 2)
             for k in set(map(len, qubit_sets))}
    out = np.empty((1 << n, cols))
    for start in range(0, cols, BLOCK):
        blk = slice(start, start + BLOCK)
        p = np.ascontiguousarray(read0[blk].T)  # np.stack keeps a view's strides
        m = np.stack([p, 1.0 - p], axis=1)  # (n, 2, block)
        block = m.shape[-1]
        w = [signs[len(q)][..., None] * a[blk] for q, a in terms]
        # partials by prefix, flat (entries, block); () is the free product
        parts = {(): np.ones((1, block))}
        acc = np.zeros((1, block))
        for t, q in enumerate(qubit_sets):
            if not q:
                acc = acc + w[t]
        tmp = np.empty((1 << n, block))
        for l, (cont, extend, close) in enumerate(plan):
            acc = (acc[:, None, :] * m[l]).reshape(-1, block)
            # a term closing at l reads its prefix's partial as it stands:
            # axis l has size 1 there, so the entries are the same
            for t, prefix, pshape, wshape in close:
                term = tmp[: 2 << l].reshape((2,) * (l + 1) + (block,))
                np.multiply(
                    parts[prefix].reshape(pshape + (block,)),
                    w[t].reshape(wshape + (block,)),
                    out=term,
                )
                acc += term.reshape(-1, block)
            new = {prefix + (l,): parts[prefix] for prefix in extend}
            for prefix in cont:
                new[prefix] = (parts.pop(prefix)[:, None, :] * m[l]).reshape(-1, block)
            parts = new
        out[:, blk] = acc
    return out
