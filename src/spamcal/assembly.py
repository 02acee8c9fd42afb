"""The local form of a transition matrix and its one assembly kernel.

The noise model and the estimator describe T the same way: a column for
prepared state c is a Kronecker product of per-qubit means plus signed
correlated terms,

    T[x, c] = sum_t a_t(c) * (-1)^(sum_{q in q_t} x_q) * prod_{l not in q_t} m_l(x_l|c)

where read0[c, l] = m_l(0|c) = 1 - m_l(1|c), a term t acts on a sorted
tuple q_t of qubits with one coefficient a_t(c) per column, and the mean
product is the term () with coefficient 1. Each m_l(0|c) and a_t(c) depends
only on the bits of c inside a small mask, so :class:`CalibrationTables`
holds it as one number per filtered state of that mask. The estimator fills
the tables from measured distributions; the model tabulates its own
parameters (:attr:`spamcal.model.NoiseModel.tables`). Both reach T through
the same lookup (:func:`_read0`, :func:`_terms`) and :func:`kron_columns`.
Qubit axes are 0-based in the kernel, MSB first, matching the bitstring
index convention; the tables name qubits 1..n.

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

Each table is an array whose row r belongs to the r-th filtered state of
its mask in :func:`spamcal.bits.submasks` order, so a column c reads row
``searchsorted(submasks(mask), c & mask)``.

CalibrationTables JSON: keys "i|bits" hold P(i reads 0) and "i,j|bits" hold
c, one float per filtered state; metadata records k, the backend
descriptor, and the deduplicated circuit count. Loading checks that the
single masks name the qubits 1..n, that each pair has 1 <= i < j <= n (a
pair may be absent), that every mask holds its own qubits, and that every
filtered state has its entry, in [0, 1] for P(i reads 0), [-1/4, 1/4] for c
(:func:`check_table`, which bounds a noise model's rows the same way).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .bits import bitstring, parse_bitstring, qubit_mask, submasks
from .errors import ValidationError
from .serialize import as_object, dump_json, integer, load_json, number, qubits

BLOCK = 64  # columns per pass; temporaries hold O(2^n * BLOCK) entries

# a read-0 probability summed from an exact distribution can round past 1
RANGE_SLACK = 1e-12


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


@dataclass
class CalibrationTables:
    """Filtered mean fields and correlated-term coefficients: T in local form.

    mean_fields: i -> (rows,) array, [r] = P(qubit i reads 0)
    pair_fluct:  q -> (rows,) array, the signed coefficient of the term on
                 the qubits q, i < j (< l): for a pair, [r] = P(i, j read 00)
                 - P(i reads 0) P(j reads 0)
    Row r is the r-th filtered state of the qubit's or term's mask, in
    submasks order. The estimator's tables hold pairs only, with k its
    neighborhood size. A noise model's tables (k None) also hold its
    order-3 terms, each with its three qubits as its mask and constant
    rows; they are never written to a file. The JSON form keeps one entry
    per (table, filtered state), as described in the module docstring;
    ``from_json`` raises ValidationError naming the first mask or entry
    that breaks its rules.
    """

    n: int
    k: int | None
    single_masks: dict  # i -> mask of the prepared bits qubit i's mean reads
    pair_masks: dict  # q -> mask of the prepared bits term q's coefficient reads
    mean_fields: dict = field(default_factory=dict)
    pair_fluct: dict = field(default_factory=dict)
    circuits_used: int = 0
    metadata: dict = field(default_factory=dict)

    def columns(self, cols) -> np.ndarray:
        """T[:, cols] for an array of prepared-state indices in 0..2^n - 1,
        in one kernel call: the mean product first, then every term. No
        states give a (2^n, 0) block."""
        cols = np.asarray(cols, dtype=None if len(cols) else int)  # [] reads as float64
        wrong = (cols < 0) | (cols >= 1 << self.n)
        if wrong.any():
            raise ValidationError(
                f"prepared state {cols[wrong][0]} is out of range: "
                f"the register has {self.n} qubits"
            )
        terms = [((), np.ones(cols.size))] + _terms(self, cols)
        return kron_columns(_read0(self, cols), terms)

    def to_json(self, path=None) -> str:
        def entries(tables, masks, qubits):
            return {
                key: v
                for q, mask in masks.items()
                for key, v in zip(_keys(qubits(q), mask, self.n), tables[q].tolist())
            }

        n = self.n
        obj = {
            "n": n,
            "k": self.k,
            "order": "msb-first",
            "single_masks": {str(i): bitstring(m, n) for i, m in self.single_masks.items()},
            "pair_masks": {
                f"{i},{j}": bitstring(m, n) for (i, j), m in self.pair_masks.items()
            },
            "mean_fields": entries(self.mean_fields, self.single_masks, lambda i: (i,)),
            "pair_fluct": entries(self.pair_fluct, self.pair_masks, tuple),
            "circuits_used": self.circuits_used,
            "metadata": self.metadata,
        }
        return dump_json(obj, path)

    @classmethod
    def from_json(cls, path) -> "CalibrationTables":
        required = ("n", "k", "single_masks", "pair_masks", "mean_fields", "pair_fluct")
        obj = as_object(load_json(path), "tables JSON", required)
        for key in required[2:]:
            as_object(obj[key], key)
        n = integer(obj["n"], "n")

        def masks(name, parts):
            out = {}
            for key, m in obj[name].items():
                q = qubits(key, parts, "tables")
                if q != tuple(sorted(set(q))):
                    raise ValidationError(f"{name} key {key!r} needs i < j")
                mask = parse_bitstring(m, n)
                for i in q:  # qubit_mask rejects an index outside 1..n
                    if not mask & qubit_mask(i, n):
                        raise ValidationError(f"{name}[{key!r}] lacks qubit {i}")
                out[q if parts > 1 else q[0]] = mask
            return out

        def table(entries, qubits, mask, low, high):
            who = f"qubit {qubits[0]}" if len(qubits) == 1 else f"qubits {qubits}"
            if 1 << mask.bit_count() > len(entries):  # before listing 2^|mask| keys
                raise ValidationError(
                    f"{who} needs 2^{mask.bit_count()} entries, the file holds {len(entries)}"
                )
            vals = []
            for key in _keys(qubits, mask, n):
                if key not in entries:
                    state = key.rsplit("|", 1)[1]
                    raise ValidationError(
                        f"no table entry for {who}, filtered state {state}"
                    )
                vals.append(number(entries[key], f"table entry {key!r}"))
            return check_table(vals, qubits, mask, n, low, high)

        tables = cls(
            n=n,
            k=integer(obj["k"], "k", 0),
            single_masks=masks("single_masks", 1),
            pair_masks=masks("pair_masks", 2),
            circuits_used=integer(obj.get("circuits_used", 0), "circuits_used", 0),
            metadata=obj.get("metadata", {}),
        )
        if len(tables.single_masks) != n:  # each key is checked to lie in 1..n
            raise ValidationError(f"single_masks must name each of the qubits 1..{n}")
        for i, mask in tables.single_masks.items():
            tables.mean_fields[i] = table(obj["mean_fields"], (i,), mask, 0, 1)
        for ij, mask in tables.pair_masks.items():
            tables.pair_fluct[ij] = table(obj["pair_fluct"], ij, mask, -0.25, 0.25)
        return tables


def check_table(vals, qubits: tuple, mask: int, n: int, low: float, high: float,
                what: str = "table entry") -> np.ndarray:
    """vals, the rows of the table of the qubits over mask, as a float array
    when each lies in [low, high] up to RANGE_SLACK, which NaN never does;
    otherwise a ValidationError naming the first row outside by its key."""
    vals = np.asarray(vals, dtype=float)
    ok = (low - RANGE_SLACK <= vals) & (vals <= high + RANGE_SLACK)
    if not ok.all():
        r = int(np.argmin(ok))
        raise ValidationError(
            f"{what} {_keys(qubits, mask, n)[r]!r} lies outside [{low}, {high}]: {vals[r]}"
        )
    return vals


def _keys(qubits: tuple, mask: int, n: int) -> list:
    """JSON keys of one table in its row order, one per filtered state."""
    who = ",".join(map(str, qubits))
    return [f"{who}|{bitstring(s, n)}" for s in submasks(mask)]


@functools.lru_cache(maxsize=1024)
def _states(mask: int) -> np.ndarray:
    """The filtered states of a mask in row order; built once per mask and
    read-only, since every caller shares it."""
    states = np.array(submasks(mask))
    states.flags.writeable = False
    return states


def _rows(mask: int, cols: np.ndarray) -> np.ndarray:
    """Table row of every column: the index of its filtered state."""
    return np.searchsorted(_states(mask), cols & mask)


def _read0(tables: CalibrationTables, cols: np.ndarray) -> np.ndarray:
    """(cols, n) P(qubit reads 0) at every column's filtered state."""
    return np.stack(
        [
            tables.mean_fields[i][_rows(tables.single_masks[i], cols)]
            for i in range(1, tables.n + 1)
        ],
        axis=1,
    )


def _terms(tables: CalibrationTables, cols: np.ndarray) -> list:
    """Every correlated term as kron_columns takes it, 0-based qubits and
    one coefficient per column, ordered by term order, then qubits."""
    return [
        (tuple(q - 1 for q in qs), tables.pair_fluct[qs][_rows(mask, cols)])
        for qs, mask in sorted(tables.pair_masks.items(), key=lambda t: (len(t[0]), t[0]))
    ]
