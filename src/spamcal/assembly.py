"""The local form of a transition matrix and its one assembly kernel.

The noise model and the estimator describe T the same way: a column for
prepared state c is a Kronecker product of per-qubit means plus signed
correlated terms,

    T[x, c] = sum_t a_t(c) * (-1)^(sum_{q in q_t} x_q) * prod_{l not in q_t} m_l(x_l|c)

where read0[c, l] = m_l(0|c) = 1 - m_l(1|c), a term t acts on a sorted
tuple q_t of qubits with one coefficient a_t(c) per column, and the mean
product is the term () with coefficient 1. Each m_l(0|c) and a_t(c) depends
only on the bits of c inside a small mask, so :class:`CalibrationTables`
holds it as one number per filtered state of that mask. The estimator
builds the tables from measured distributions; the model tabulates its own
parameters (:attr:`spamcal.model.NoiseModel.tables`). Both reach T through
the same lookup (:func:`_read0`, :func:`_terms`) and :func:`kron_columns`.
Tables are read-only values: each of their four builders (the estimator,
the model, :func:`spamcal.characterize.t_prod` and
:meth:`CalibrationTables.from_json`) computes every table first and then
constructs the tables once, and nothing writes to them after that.
Qubit axes are 0-based in the kernel, MSB first, matching the bitstring
index convention; the tables name qubits 1..n. Summed over the outcomes
off a qubit set S, a column keeps only the terms inside S, so
:meth:`CalibrationTables.zero_marginal` gives P(every qubit of S reads 0)
from the tables without building a column.

The kernel works on :func:`sweep_width` columns at a time (256 up to
n = 11, fewer above, so that a partial over every qubit stays within 2^19
entries), with the column axis last and every array contiguous, and builds
every term in one left-to-right sweep over the qubit axes; a column is the
same arithmetic in the same order at every width. The sweep keys each open
partial product by the term qubits still ahead of it, not by those behind
it: an elimination order, as in bucket elimination (Dechter, Artificial
Intelligence 113, 41, 1999). After qubit l it holds three kinds of partial
product over the qubits 0..l:

- the free product of the means, the prefix every term starts from;
- one shared partial per remaining qubit set that two or more terms reach,
  for example one per qubit j for all the pairs (i, j), and one for the
  empty set, the accumulator that ends as the block of T. A term joins a
  shared partial at the qubit after which that set is what the term has
  left, times its coefficient signed over the term qubits read so far. At
  the set's first qubit the partial is signed and added into the shared
  partial of the rest of the set; every other mean multiplies it;
- one lazy partial per prefix q_t & {0..l} of the terms whose remaining
  set no other term reaches: the product of the means off that prefix,
  with a size-1 axis at each of its qubits, so that reaching a term qubit
  costs nothing. The term's signed coefficient multiplies it only when the
  term joins a shared partial, the accumulator at its last qubit at the
  latest.

A shared partial open after qubit l holds 2^(l+1) entries per column. With
all n(n-1)/2 pairs the sweep holds n - l - 1 of them there besides the
accumulator, so a column costs O(2^n) entry updates, not the O(n * 2^n) of
one partial per prefix or the O(n^2 * 2^n) of a product per term. Terms
that share no remaining set, such as nearest-neighbour pairs on a chain,
keep lazy partials only, each a product in the order of the qubits; a
shared partial adds its terms in another order, which moves only the last
bits. The plan of what each qubit does to which partial is built once per
term structure, the qubit count and the terms' qubit tuples, and cached.
Every operation is elementwise along the column axis and no operation sums
along it, so a column does not depend on the columns computed with it.

Each table is an array whose row r belongs to the r-th filtered state of
its mask in :func:`spamcal.bits.submasks` order, so a column c reads row
``searchsorted(submasks(mask), c & mask)``.

CalibrationTables JSON: keys "i|bits" hold P(i reads 0) and "i,j|bits" hold
c, one float per filtered state; metadata records k (null for a noise
model's tables), the backend descriptor, and the deduplicated circuit
count. Loading checks that the single masks name the qubits 1..n, that
each pair has 1 <= i < j <= n (a pair may be absent), that every mask holds
its own qubits, and that every filtered state has its entry, in [0, 1] for
P(i reads 0), [-1/4, 1/4] for c (:func:`check_table`, which bounds a noise
model's rows the same way).
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .bits import bitstring, parse_bitstring, qubit_mask, submasks
from .errors import ValidationError
from .serialize import as_object, dump_json, integer, load_json, number, qubits

SWEEP_MAX = 256  # columns per kernel pass, at most
SWEEP_ENTRIES = 1 << 19  # entries of a 2^n x columns partial, at most

# a read-0 probability summed from an exact distribution can round past 1
RANGE_SLACK = 1e-12


def sweep_width(n: int) -> int:
    """Columns per kernel pass, and states per block of a collection, on n
    qubits: 256 up to n = 11, then halving with each qubit (128 at n = 12,
    64 at n = 13), so that one 2^n x width partial stays within 2^19
    entries (4 MiB), and at least 1."""
    return max(1, min(SWEEP_MAX, SWEEP_ENTRIES >> n))


class _Step(NamedTuple):
    """What the sweep does at one qubit l to the lazy partials, keyed by the
    prefix read, and to the shared ones, keyed by the remaining qubit set."""

    cont: tuple  # lazy prefixes that means[l] multiplies
    extend: tuple  # lazy prefixes that l extends and leaves open
    grow: tuple  # shared keys that means[l] multiplies, () among them
    fresh: tuple  # shared keys that open at l
    fold: tuple  # (key, rest): shared keys signed at l and added into rest
    land: tuple  # (t, prefix, pshape, wshape, sel, key): lazy terms added into key


@functools.lru_cache(maxsize=256)
def _plan(n: int, qubit_sets: tuple) -> tuple:
    """One _Step per qubit for terms on these qubit sets. A lazy term's
    prefix partial and its signed coefficient take the shapes pshape and
    wshape over the axes 0..l; sel takes the coefficient at outcome 0 of the
    term qubits after l, which leaves the signs of those read."""
    # a remaining set that two terms reach, a repeated term counting twice,
    # gets one shared partial, and so does the empty set: the accumulator.
    # A term's own set is not a remaining one.
    reach = Counter(q[i:] for q in qubit_sets for i in range(1, len(q)))
    shared = {key for key, count in reach.items() if count > 1} | {()}
    plan, open_ = [], ((),)
    for l in range(n):
        cont, extend, land = {}, {}, []
        for t, q in enumerate(qubit_sets):
            if not q or l > q[-1]:
                continue
            if q[0] < l and tuple(x for x in q if x >= l) in shared:
                continue  # in a shared partial since an earlier qubit
            prefix = tuple(x for x in q if x < l)
            ahead = tuple(x for x in q if x > l)
            if l not in q:
                cont[prefix] = None
            elif ahead not in shared:
                extend[prefix] = None
            else:
                axes = [x in q for x in range(l + 1)]
                pshape = tuple(1 if a else 2 for a in axes)
                wshape = tuple(2 if a else 1 for a in axes)
                sel = (slice(None),) * (len(q) - len(ahead)) + (0,) * len(ahead)
                land.append((t, prefix, pshape, wshape, sel, ahead))
        grow = tuple(key for key in open_ if not key or key[0] > l)
        fold = tuple((key, key[1:]) for key in open_ if key and key[0] == l)
        joined = [rest for _key, rest in fold] + [lazy[-1] for lazy in land]
        fresh = tuple(dict.fromkeys(key for key in joined if key not in grow))
        plan.append(_Step(tuple(cont), tuple(extend), grow, fresh, fold, tuple(land)))
        open_ = grow + fresh
    return tuple(plan)


def kron_columns(read0: np.ndarray, terms) -> np.ndarray:
    """(2^n, cols) block of T from read0 (cols, n), P(qubit reads 0), and a
    list of (qubits, coefficient) terms, each coefficient of shape (cols,)."""
    cols, n = read0.shape
    qubit_sets = tuple(tuple(q) for q, _a in terms)
    plan = _plan(n, qubit_sets)
    # (-1)^(sum of the outcome bits), one (2,) * k array per term order k
    signs = {k: 1.0 - 2.0 * (np.indices((2,) * k).sum(0) % 2)
             for k in set(map(len, qubit_sets))}
    out = np.empty((1 << n, cols))
    width = sweep_width(n)
    for start in range(0, cols, width):
        blk = slice(start, start + width)
        p = np.ascontiguousarray(read0[blk].T)  # np.stack keeps a view's strides
        m = np.stack([p, 1.0 - p], axis=1)  # (n, 2, block)
        block = m.shape[-1]
        w = [signs[len(q)][..., None] * a[blk] for q, a in terms]
        # lazy partials by prefix, flat (entries, block); () is the free product
        parts = {(): np.ones((1, block))}
        # shared partials by remaining qubits, flat (2^l, block); () is the sum
        shared = {(): np.zeros((1, block))}
        for t, q in enumerate(qubit_sets):
            if not q:
                shared[()] = shared[()] + w[t]
        tmp = np.empty((1 << n, block))
        for l, step in enumerate(plan):
            grown = {key: (shared[key][:, None, :] * m[l]).reshape(-1, block)
                     for key in step.grow}
            for key in step.fresh:
                grown[key] = np.zeros((2 << l, block))
            for key, rest in step.fold:
                into = grown[rest].reshape(-1, 2, block)
                into[:, 0] += shared[key]
                into[:, 1] -= shared[key]
            # a lazy term reads its prefix's partial as it stands: axis l
            # has size 1 there, so the entries are the same
            term = tmp[: 2 << l].reshape((2,) * (l + 1) + (block,))
            for t, prefix, pshape, wshape, sel, key in step.land:
                np.multiply(
                    parts[prefix].reshape(pshape + (block,)),
                    w[t][sel].reshape(wshape + (block,)),
                    out=term,
                )
                grown[key] += term.reshape(-1, block)
            shared = grown
            new = {prefix + (l,): parts[prefix] for prefix in step.extend}
            for prefix in step.cont:
                new[prefix] = (parts.pop(prefix)[:, None, :] * m[l]).reshape(-1, block)
            parts = new
        out[:, blk] = shared[()]
    return out


def _rebuilt(value) -> tuple:
    """``__reduce__`` of a frozen value: pickle and copy it as its class and
    the arguments it was built from, each read-only mapping as a dict, so
    that the copy is built, checked and frozen anew."""
    args = [getattr(value, f.name) for f in fields(value) if f.init]
    return type(value), tuple(dict(a) if isinstance(a, MappingProxyType) else a for a in args)


@dataclass(frozen=True, eq=False)
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
    rows; they are never written to a file, and tables without them are
    written and read back with k null. The JSON form keeps one entry
    per (table, filtered state), as described in the module docstring;
    ``from_json`` raises ValidationError naming the first mask or entry
    that breaks its rules.

    Tables are values, built whole by each builder: no field can be
    rebound, the masks and tables are read-only mappings, and every table
    array has its writeable flag cleared. An array passed in is frozen, not
    copied; a view of a caller's array leaves that array writable.
    """

    n: int
    k: int | None
    single_masks: Mapping  # i -> mask of the prepared bits qubit i's mean reads
    pair_masks: Mapping  # q -> mask of the prepared bits term q's coefficient reads
    mean_fields: Mapping
    pair_fluct: Mapping
    circuits_used: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("single_masks", "pair_masks", "mean_fields", "pair_fluct"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        for table in (*self.mean_fields.values(), *self.pair_fluct.values()):
            table.flags.writeable = False

    __reduce__ = _rebuilt

    def columns(self, cols) -> np.ndarray:
        """T[:, cols] for an array of prepared-state indices in 0..2^n - 1,
        in one kernel call: the mean product first, then every term. No
        states give a (2^n, 0) block."""
        cols = _prepared(cols, self.n)
        terms = [((), np.ones(cols.size))] + _terms(self, cols)
        return kron_columns(_read0(self, cols), terms)

    def zero_marginal(self, mask: int, states) -> np.ndarray:
        """P(every qubit of the mask reads 0) at each prepared state, in
        closed form: summing T[:, c] over the outcomes off the mask S
        removes every term with a qubit outside S, which leaves

            sum_{t subset of S} a_t(c) * prod_{l in S - t} m_l(0|c).

        The product of the means of S comes first, then each term inside S
        in :func:`_terms` order, each a coefficient times the means of the
        other qubits of S; every product runs in increasing qubit order.
        The terms are found by looking each subset of S up in pair_masks.
        States may repeat and come in any order; one outside 0..2^n - 1
        raises the ValidationError of :meth:`columns`."""
        states = _prepared(states, self.n)
        inside = [i for i in range(1, self.n + 1) if mask >> (self.n - i) & 1]
        means = {i: self.mean_fields[i][_rows(self.single_masks[i], states)] for i in inside}
        zero = np.ones(states.size)
        for i in inside:
            zero = zero * means[i]
        for size in range(2, len(inside) + 1):
            for qs in itertools.combinations(inside, size):
                if qs in self.pair_masks:
                    term = self.pair_fluct[qs][_rows(self.pair_masks[qs], states)]
                    for i in inside:
                        if i not in qs:
                            term = term * means[i]
                    zero = zero + term
        return zero

    def to_json(self, path=None) -> str:
        wider = [q for q in self.pair_masks if len(q) != 2]
        if wider:
            raise ValidationError(f"tables JSON holds pairs only, not the term {wider[0]}")

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

        k = None if obj["k"] is None else integer(obj["k"], "k", 0)  # a model's tables
        single, pair = masks("single_masks", 1), masks("pair_masks", 2)
        circuits_used = integer(obj.get("circuits_used", 0), "circuits_used", 0)
        if len(single) != n:  # each key is checked to lie in 1..n
            raise ValidationError(f"single_masks must name each of the qubits 1..{n}")
        return cls(
            n, k, single, pair,
            {i: table(obj["mean_fields"], (i,), mask, 0, 1) for i, mask in single.items()},
            {ij: table(obj["pair_fluct"], ij, mask, -0.25, 0.25) for ij, mask in pair.items()},
            circuits_used, obj.get("metadata", {}),
        )


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


def _prepared(states, n: int) -> np.ndarray:
    """Prepared-state indices as an array, each checked to lie in
    0..2^n - 1; no states give an empty integer array. From n = 64, where
    a mask reaches past int64, the states are Python ints, as in
    :func:`_states`, so that ``states & mask`` holds for every one."""
    if n >= 64:
        states = np.array([operator.index(s) for s in states], dtype=object)
    else:
        states = np.asarray(states, dtype=None if len(states) else int)  # [] reads as float64
    wrong = (states < 0) | (states >= 1 << n)
    if wrong.any():
        raise ValidationError(
            f"prepared state {states[wrong][0]} is out of range: "
            f"the register has {n} qubits"
        )
    return states


def _keys(qubits: tuple, mask: int, n: int) -> list:
    """JSON keys of one table in its row order, one per filtered state."""
    who = ",".join(map(str, qubits))
    return [f"{who}|{bitstring(s, n)}" for s in submasks(mask)]


@functools.lru_cache(maxsize=1024)
def _states(mask: int) -> np.ndarray:
    """The filtered states of a mask in row order; built once per mask and
    read-only, since every caller shares it. A mask past int64 keeps its
    states as Python ints, since numpy would turn their mix into float64."""
    states = np.array(submasks(mask), dtype=int if mask >> 63 == 0 else object)
    states.flags.writeable = False
    return states


def _rows(mask: int, cols: np.ndarray) -> np.ndarray:
    """Table row of every column: the index of its filtered state."""
    return _states(mask).searchsorted(cols & mask)


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
