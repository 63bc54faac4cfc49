"""Staircase LDPC baselines: construction, linear-time encoding, peeling.

A staircase parity-check matrix is [A | D] where A is a sparse M x K
left part over the information variables and D is the M x M double
diagonal (ones at (i, i) and (i, i-1)).  Encoding is forward
substitution through D; decoding is standard BEC peeling, resolving any
check that has exactly one unknown incident variable.

A code stores the columns of A, each a tuple of strictly ascending
check indices, and one edge array of (variable, check) pairs.  A code
made from its columns builds that array from them, with numpy; a
builder draws the array itself, in one sort of its pool (see
``_assign_columns``), cuts the column tuples from it and hands both to
the code, which checks the array as it checks any.  The array serves
three uses: it validates the columns, it gives the check degrees and
XOR starts of the Tanner graph the decoders share, and the encoder
reads it.  The decoders read each information variable's checks from
the code's own column tuples, so a build makes no container per
variable; a parity's two checks follow from its index.
``parity_check_matrix()`` builds H on its own, as the reference the
tests check both against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
import operator

import numpy as np

from .decoder import _CheckedDecoder


@dataclass(frozen=True)
class StaircaseCode:
    """K information variables, M accumulated parities, N = K + M.

    Each left column lists its checks in strictly ascending order.
    """

    K: int
    M: int
    left_cols: tuple[tuple[int, ...], ...]  # check indices per info column
    kind: str

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if len(self.left_cols) != self.K:
            raise ValueError("need one left column per information variable")
        try:
            edges = self._edge_array()
        except (TypeError, ValueError, OverflowError):
            edges = None
        self._adopt(edges)

    @classmethod
    def _from_edges(cls, m: int, edges: np.ndarray,
                    left_cols: tuple[tuple[int, ...], ...],
                    kind: str) -> StaircaseCode:
        """A builder's code: ``left_cols`` cut from ``edges``, the edge
        array ``_edge_array`` would build from them, which is checked,
        not built again."""
        code = object.__new__(cls)
        for name, value in (("K", len(left_cols)), ("M", m),
                            ("left_cols", left_cols), ("kind", kind)):
            object.__setattr__(code, name, value)
        code._adopt(edges)
        return code

    def _adopt(self, edges: np.ndarray | None) -> None:
        """Keeps ``edges`` as the code's edge array if it is valid;
        otherwise raises the first bad column's fault."""
        if edges is None or not self._edges_valid(edges):
            # Name the first bad column's fault; an index that cannot be
            # compared with an int is not an integer.
            for col in self.left_cols:
                try:
                    if len(set(col)) != len(col):
                        raise ValueError("duplicate edge in a left column")
                    if any(not 0 <= r < self.M for r in col):
                        raise ValueError("check index out of range")
                    if list(col) != sorted(col):
                        raise ValueError("check indices of a left column must ascend")
                except TypeError:
                    break
            raise TypeError("check indices must be integers")
        object.__setattr__(self, "_left_edges", edges)

    def _edge_array(self) -> np.ndarray:
        """The edges of the left part A, one (variable, check) column
        each, variables ascending and each column's checks as given."""
        lengths = np.fromiter(map(len, self.left_cols), np.intp, self.K)
        checks = map(operator.index, chain.from_iterable(self.left_cols))
        chk = np.fromiter(checks, np.intp, int(lengths.sum()))
        return np.stack([np.repeat(np.arange(self.K), lengths), chk])

    def _edges_valid(self, edges: np.ndarray) -> bool:
        """Every check index lies in range and each column's checks
        strictly ascend, so no edge appears twice."""
        var, chk = edges
        if not chk.size:
            return True
        if chk.min() < 0 or chk.max() >= self.M:
            return False
        return (np.diff(chk) > 0)[var[1:] == var[:-1]].all()

    @property
    def N(self) -> int:
        return self.K + self.M

    @property
    def rate(self) -> Fraction:
        return Fraction(self.K, self.N)

    @cached_property
    def tanner(self) -> tuple[list[int], list[int]]:
        """Peeling constants shared by every decoder of this code, which
        only reads them: the degree and the XOR start of each check.
        Information variable v sits on its left column, parity K + i on
        checks i and, if i + 1 < M, i + 1, so check c holds the parities
        K + c and, for c >= 1, K + c - 1.  Check c's start is the XOR of
        ``u << 1`` over its variables u."""
        k, m = self.K, self.M
        var, chk = self._left_edges
        c = np.arange(m)
        degrees = np.bincount(chk, minlength=m) + 1 + (c >= 1)
        starts = np.zeros(m, dtype=np.int64)
        np.bitwise_xor.at(starts, chk, var << 1)
        starts ^= (k + c) << 1
        starts[1:] ^= (k + c[1:] - 1) << 1
        return degrees.tolist(), starts.tolist()

    def parity_check_matrix(self) -> np.ndarray:
        h = np.zeros((self.M, self.N), dtype=np.uint8)
        for v, col in enumerate(self.left_cols):
            h[list(col), v] = 1
        for i in range(self.M):
            h[i, self.K + i] = 1
            if i > 0:
                h[i, self.K + i - 1] = 1
        return h

    def encode(self, info) -> np.ndarray:
        """Codeword [info | parities] with H . c = 0 over GF(2).

        Check i's left sum is the parity of its edges whose information
        bit is 1; parity i is the running parity of the left sums up to
        i: forward substitution through the staircase D.
        """
        info = np.asarray(info, dtype=np.uint8)
        if info.shape != (self.K,):
            raise ValueError(f"information word must have length {self.K}")
        var, chk = self._left_edges
        left_sums = np.bincount(chk[info[var] == 1], minlength=self.M)
        return np.concatenate([info, (np.cumsum(left_sums) & 1).astype(np.uint8)])

    def fingerprint(self) -> str:
        import hashlib

        weights = sorted({len(c) for c in self.left_cols})
        graph = ";".join(" ".join(map(str, col)) for col in self.left_cols)
        h = hashlib.sha256(graph.encode()).hexdigest()
        return (f"{self.kind} K={self.K} M={self.M} col_weights={weights}"
                f" graph={h[:12]}")

    def start_decoder(self):
        return PeelingDecoder(self)


def _parity_count(k: int, rate: Fraction) -> int:
    rate = Fraction(rate)
    if rate <= 0:
        raise ValueError(f"rate {rate} must be positive")
    if rate >= 1:
        raise ValueError(f"rate {rate} leaves no parity checks; it must be below 1")
    if k < 1:
        raise ValueError("K must be >= 1")
    n = k / rate
    if n.denominator != 1:
        raise ValueError(f"K={k} with rate {rate} gives a non-integral length")
    return int(n) - k


# 16 edges per information bit at K = 2**20, the CLI's limit on K.
_MAX_EDGES = 1 << 24


def _assign_columns(col_weights, m: int, rng) -> np.ndarray:
    """Draws each column's check indices from a balanced shuffled pool;
    returns the edge array, one (variable, check) column per edge,
    variables ascending and each column's checks ascending.

    The pool round-robins over all checks so row degrees stay near
    uniform.  Column j's window is the next w_j pool entries, and the
    column takes them when they are distinct.  Otherwise it takes them
    one at a time: each is the first entry from the cursor on that the
    column does not yet hold, swapped to the cursor.  When no such entry
    is left, the column draws fresh distinct checks, the pool is spent,
    and every later column draws fresh checks of its own.

    Until the pool is spent each window starts where the last one ends,
    so one sort of ``j * m + check`` over the pool gives every window's
    checks in order and marks each window that holds a repeated check.
    Only the marked windows, and those a repair swapped an entry into,
    are redrawn, in ascending order, so the columns and the generator's
    state are those of drawing every column in turn.  Each weight is at
    most m: both builders check that first.  The total weight is at
    most ``_MAX_EDGES``, checked here before the pool of about that
    many entries is drawn.
    """
    weights = np.asarray(col_weights, dtype=np.intp)
    total = int(weights.sum())
    if total > _MAX_EDGES:
        raise ValueError(f"the code has {total} edges, above the limit of "
                         f"{_MAX_EDGES}")
    var = np.repeat(np.arange(weights.size), weights)
    reps = -(-total // m)
    pool = rng.permutation(np.tile(np.arange(m), reps))[:total]
    keys = np.sort(var * m + pool)
    chk = keys - var * m
    marked = np.zeros(weights.size, dtype=np.uint8)
    marked[var[1:][keys[1:] == keys[:-1]]] = 1
    marked = bytearray(marked)
    pool = pool.tolist()
    starts = np.cumsum(weights) - weights
    j = marked.find(1)
    while j >= 0:
        pos, w = starts.item(j), weights.item(j)
        start, end = pos, pos + w
        col = set(pool[start:end])
        if len(col) < w:
            col, scan = set(), pos
            while len(col) < w:
                # Every entry from the cursor to just before ``scan`` is
                # in ``col``: the last scan passed it, or it is the
                # cursor's old entry, swapped there.  So a column's scans
                # pass each pool entry once between them.
                swap = next((s for s in range(scan, total) if pool[s] not in col),
                            None)
                if swap is None:
                    extra = [r for r in rng.permutation(m).tolist() if r not in col]
                    col.update(extra[: w - len(col)])
                    chk[start:end] = sorted(col)
                    for j in range(j + 1, weights.size):
                        start, w = starts.item(j), weights.item(j)
                        if w:
                            chk[start:start + w] = np.sort(rng.permutation(m)[:w])
                    return np.stack([var, chk])
                if swap >= end:
                    # The entry at the cursor moves to a later window.
                    marked[var.item(swap)] = 1
                pool[pos], pool[swap] = pool[swap], pool[pos]
                col.add(pool[pos])
                pos, scan = pos + 1, swap + 1
        chk[start:end] = sorted(col)
        j = marked.find(1, j + 1)
    return np.stack([var, chk])


# The weight of every column of a regular code unless asked otherwise.
_COLUMN_WEIGHT = 4


def build_regular_staircase(k: int, rate: Fraction, seed: int,
                            column_weight: int = _COLUMN_WEIGHT) -> StaircaseCode:
    """Regular staircase code: every left column has the same weight,
    ``column_weight``, an integer >= 1.

    The column tuples are cut from the edge array ``_assign_columns``
    draws, and the code keeps that array.
    """
    try:
        column_weight = operator.index(column_weight)
    except TypeError:
        raise TypeError(f"column_weight {column_weight!r} must be an "
                        f"integer") from None
    if column_weight < 1:
        raise ValueError(f"column_weight {column_weight} must be >= 1")
    m = _parity_count(k, rate)
    if k < column_weight or m < column_weight:
        raise ValueError("block too short for the requested column weight")
    rng = np.random.default_rng(seed)
    weights = np.full(k, column_weight, dtype=np.intp)
    edges = _assign_columns(weights, m, rng)
    return StaircaseCode._from_edges(m, edges, _cut(edges[1], weights),
                                     kind="ldpc-regular")


def _cut(chk: np.ndarray, weights: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """One tuple per column, cut from ``chk`` in turn by ``weights``."""
    k = weights.size
    if k and weights.min() == weights.max() > 0:
        # One list per check slot, zipped: no list per column.  A cold
        # ldpc-r13-k1024 set-up read 0.96 ms this way against 1.14 ms
        # with the slices below (BENCH_33.json, "cut_paths").
        return tuple(zip(*chk.reshape(k, -1).T.tolist()))
    flat = chk.tolist()
    ends = np.cumsum(weights).tolist()
    return tuple(map(tuple, map(flat.__getitem__, map(slice, [0, *ends], ends))))


def build_irregular_staircase(k: int, rate: Fraction,
                              degree_distribution: dict[int, float],
                              seed: int) -> StaircaseCode:
    """Irregular staircase code from a node-perspective left-degree law.

    ``degree_distribution`` maps column weight to the fraction of
    columns carrying it; fractions must sum to 1.  Counts are rounded by
    largest remainder so exactly K columns are produced, and shuffled.
    As in the regular builder, the code keeps the edge array drawn for
    its columns.
    """
    if not degree_distribution:
        raise ValueError("empty degree distribution")
    if any(d < 1 for d in degree_distribution):
        raise ValueError("degrees must be positive")
    if not all(0 <= p <= 1 for p in degree_distribution.values()):
        raise ValueError("degree fractions must lie in [0, 1]")
    if abs(sum(degree_distribution.values()) - 1.0) > 1e-9:
        raise ValueError("degree fractions must sum to 1")
    m = _parity_count(k, rate)
    quotas = {d: p * k for d, p in degree_distribution.items()}
    counts = {d: int(q) for d, q in quotas.items()}
    short = k - sum(counts.values())
    for d in sorted(quotas, key=lambda d: quotas[d] - counts[d], reverse=True)[:short]:
        counts[d] += 1
    # Checked before any column is drawn: numpy cannot hold a weight
    # past the int64 range, nor allocate a pool for one near it.
    heavy = [d for d, count in counts.items() if count and d > m]
    if heavy:
        raise ValueError(f"column weight {min(heavy)} exceeds the check count {m}")
    weights = [d for d in sorted(counts) for _ in range(counts[d])]
    rng = np.random.default_rng(seed)
    shuffled = np.empty(k, dtype=np.intp)
    shuffled[rng.permutation(k)] = weights
    edges = _assign_columns(shuffled, m, rng)
    return StaircaseCode._from_edges(m, edges, _cut(edges[1], shuffled),
                                     kind="ldpc-irregular")


class PeelingDecoder(_CheckedDecoder):
    """BEC peeling over a staircase code, one received symbol at a time.

    Each check keeps the count of its unknown variables and one XOR
    accumulator: it starts as the XOR of ``u << 1`` over the check's
    variables u, and a variable v that becomes known with value b XORs
    ``v << 1 | b`` into it.  So with one unknown left, ``acc >> 1`` is
    that variable and ``acc & 1`` its value; with none left, a nonzero
    ``acc`` is a contradiction.  Success means all K information
    variables are known.  The graph is the code's columns and ``tanner``,
    built once and shared by all of its decoders.  One loop, the coroutine
    ``_propagate``, peels the start state, every reception ``feed`` sends
    it and, run afresh, the ops of a batch.
    """

    def __init__(self, code: StaircaseCode):
        super().__init__(code.K, code.N)
        self.code = code
        # Symbol values, kept apart from ``_received``: receiving a symbol
        # that peeling already pinned down is legal (and may contradict).
        self.values: list[int | None] = [None] * code.N
        self._var_checks = code.left_cols
        degrees, starts = code.tanner
        self._unknown = list(degrees)
        self._acc = list(starts)
        # Check 0 is the only one that can start with one variable, the
        # parity K: it has no information bit, so that parity is 0, and
        # the check's accumulator is the op K << 1 that sets it.
        seed = [starts[0]] if degrees[0] == 1 else []
        next(self._propagate(seed))

    def _propagate(self, ops):
        """Peels from a stack of ops, then from each reception key sent
        to it, settling each one before it waits for the next.

        The op that sets variable v to b is the int ``v << 1 | b``, so a
        reception's key is its op, and a check left with one unknown
        variable pushes its accumulator.  An op sets an unknown variable
        and XORs itself into the variable's checks: an information
        variable's column, parity K + i's check i, then check i + 1 if
        i + 1 < M.  A check left with no unknown variable and a nonzero
        accumulator sets ``contradiction`` and drops the ops left, and the
        op updates no further check.  An op that disagrees with a known
        value sets ``contradiction`` too, with no ops left to drop.  A
        check's op never disagrees: the op that set its variable first
        also left that check with no unknown, and so set
        ``contradiction`` if the two differ.  So only a reception can,
        and ``feed`` sends each reception to an empty stack; a batch's
        zero word agrees with every op.

        The parity's two check updates are written out: a shared loop
        over its checks measured about 7% slower per K = 1024 trial
        (CPython 3.11).
        """
        values, var_checks = self.values, self._var_checks
        check_unknown, acc = self._unknown, self._acc
        k, m = self.K, self.code.M
        pop, push = ops.pop, ops.append
        while True:
            unknown = self.unknown
            while ops:
                op = pop()
                v = op >> 1
                value = op & 1
                known = values[v]
                if known is not None:
                    if known != value:
                        self.contradiction = True
                    continue
                values[v] = value
                if v < k:
                    unknown -= 1
                    for c in var_checks[v]:
                        left = check_unknown[c] - 1
                        check_unknown[c] = left
                        a = acc[c] ^ op
                        acc[c] = a
                        if left == 1:
                            push(a)
                        elif not left and a:
                            self.contradiction = True
                            ops.clear()
                            break
                    continue
                c = v - k
                left = check_unknown[c] - 1
                check_unknown[c] = left
                a = acc[c] ^ op
                acc[c] = a
                if left == 1:
                    push(a)
                elif not left and a:
                    self.contradiction = True
                    ops.clear()
                    continue
                c += 1
                if c < m:
                    left = check_unknown[c] - 1
                    check_unknown[c] = left
                    a = acc[c] ^ op
                    acc[c] = a
                    if left == 1:
                        push(a)
                    elif not left and a:
                        self.contradiction = True
                        ops.clear()
            self.unknown = unknown
            push((yield))

    def determined_bits(self) -> list[int | None]:
        return self.values[: self.code.K]
