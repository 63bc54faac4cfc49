"""Staircase LDPC baselines: construction, linear-time encoding, peeling.

A staircase parity-check matrix is [A | D] where A is a sparse M x K
left part over the information variables and D is the M x M double
diagonal (ones at (i, i) and (i, i-1)).  Encoding is forward
substitution through D; decoding is standard BEC peeling, resolving any
check that has exactly one unknown incident variable.

A code stores only the columns of A.  The Tanner graph the decoders
share and the edge array the encoder reads are each derived from them
once; ``parity_check_matrix()`` builds H on its own, as the reference
the tests check both against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .decoder import _CheckedDecoder


@dataclass(frozen=True)
class StaircaseCode:
    """K information variables, M accumulated parities, N = K + M."""

    K: int
    M: int
    left_cols: tuple[tuple[int, ...], ...]  # check indices per info column
    kind: str = "ldpc-regular"

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if len(self.left_cols) != self.K:
            raise ValueError("need one left column per information variable")
        for col in self.left_cols:
            if len(set(col)) != len(col):
                raise ValueError("duplicate edge in a left column")
            if any(not 0 <= r < self.M for r in col):
                raise ValueError("check index out of range")

    @property
    def N(self) -> int:
        return self.K + self.M

    @property
    def rate(self) -> Fraction:
        return Fraction(self.K, self.N)

    @cached_property
    def tanner(self) -> tuple[list[list[int]], list[int], list[int]]:
        """Peeling constants shared by every decoder of this code, which
        only reads them: the checks of each variable, ascending, then the
        degree and the variable-index sum of each check.  Information
        variable v sits on its left column, parity K + i on checks i, i + 1."""
        m = self.M
        var_checks = [sorted(col) for col in self.left_cols]
        var_checks += [[i, i + 1] for i in range(m - 1)] + [[m - 1]]
        degrees, index_sums = [0] * m, [0] * m
        for v, checks in enumerate(var_checks):
            for c in checks:
                degrees[c] += 1
                index_sums[c] += v
        return var_checks, degrees, index_sums

    def parity_check_matrix(self) -> np.ndarray:
        h = np.zeros((self.M, self.N), dtype=np.uint8)
        for v, col in enumerate(self.left_cols):
            h[list(col), v] = 1
        for i in range(self.M):
            h[i, self.K + i] = 1
            if i > 0:
                h[i, self.K + i - 1] = 1
        return h

    @cached_property
    def _left_edges(self) -> np.ndarray:
        """The edges of the left part A, one (variable, check) column each."""
        return np.array([(v, c) for v, col in enumerate(self.left_cols)
                         for c in col], dtype=np.intp).reshape(-1, 2).T

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


def _assign_columns(col_weights: list[int], m: int, rng) -> list[tuple[int, ...]]:
    """Draws each column's check indices from a balanced shuffled pool.

    The pool round-robins over all checks so row degrees stay near
    uniform; duplicates within a column are repaired by swapping with a
    later pool entry.
    """
    total = sum(col_weights)
    reps = -(-total // m)
    pool = [int(x) for x in rng.permutation(np.tile(np.arange(m), reps))][:total]
    cols = []
    pos = 0
    for w in col_weights:
        if w > m:
            raise ValueError(f"column weight {w} exceeds the check count {m}")
        col = set()
        take = pos
        while len(col) < w:
            if take >= len(pool):
                # Pool exhausted by repairs: draw fresh distinct checks.
                extra = [int(r) for r in rng.permutation(m) if int(r) not in col]
                col.update(extra[: w - len(col)])
                break
            r = int(pool[take])
            if r in col:
                # Defer the duplicate: swap with a later entry.
                swap = next(
                    (s for s in range(take + 1, len(pool)) if int(pool[s]) not in col),
                    None,
                )
                if swap is None:
                    take += 1
                    continue
                pool[take], pool[swap] = pool[swap], pool[take]
                r = int(pool[take])
            col.add(r)
            take += 1
        pos = take
        cols.append(tuple(sorted(col)))
    return cols


def build_regular_staircase(k: int, rate: Fraction, seed: int,
                            column_weight: int = 4) -> StaircaseCode:
    """Regular staircase code: every left column has the same weight."""
    m = _parity_count(k, rate)
    if k < column_weight or m < column_weight:
        raise ValueError("block too short for the requested column weight")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    cols = _assign_columns([column_weight] * k, m, rng)
    return StaircaseCode(k, m, tuple(cols), kind="ldpc-regular")


def build_irregular_staircase(k: int, rate: Fraction,
                              degree_distribution: dict[int, float],
                              seed: int) -> StaircaseCode:
    """Irregular staircase code from a node-perspective left-degree law.

    ``degree_distribution`` maps column weight to the fraction of
    columns carrying it; fractions must sum to 1.  Counts are rounded by
    largest remainder so exactly K columns are produced.
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
    weights = [d for d in sorted(counts) for _ in range(counts[d])]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    order = rng.permutation(k)
    shuffled = [0] * k
    for slot, w in zip(order, weights):
        shuffled[int(slot)] = w
    cols = _assign_columns(shuffled, m, rng)
    return StaircaseCode(k, m, tuple(cols), kind="ldpc-irregular")


def load_degree_distribution(path) -> dict[int, float]:
    """Reads "degree probability" pairs, one per line; '#' starts a comment."""
    dist = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                d, p = line.split()
                d, p = int(d), float(p)
            except ValueError:
                raise ValueError(f"{path}, line {lineno} {line!r}: expected "
                                 f"an integer degree and a fraction") from None
            if d in dist:
                raise ValueError(f"{path}, line {lineno}: degree {d} given twice")
            dist[d] = p
    return dist


class PeelingDecoder(_CheckedDecoder):
    """BEC peeling over a staircase code, one received symbol at a time.

    Each check keeps a running XOR of its known incident values, the
    count of unknown incident variables, and the sum of their indices;
    a check with one unknown pins that variable to the running XOR.
    Success means all K information variables are known.  The graph is
    the code's ``tanner``, built once and shared by all of its decoders.
    """

    def __init__(self, code: StaircaseCode):
        super().__init__(code.K, code.N)
        self.code = code
        # Symbol values, kept apart from ``_received``: receiving a symbol
        # that peeling already pinned down is legal (and may contradict).
        self.values: list[int | None] = [None] * code.N
        self._var_checks, degrees, index_sums = code.tanner
        self._unknown = list(degrees)
        self._xor = bytearray(code.M)
        self._idx_sum = list(index_sums)
        if degrees[0] == 1:
            # Check 0 is the only one that can start with one variable:
            # it has no information bit, so its parity is 0.
            self._settle(index_sums[0], 0)

    def _settle(self, v: int, value: int) -> None:
        stack = [(v, value)]
        while stack:
            v, value = stack.pop()
            known = self.values[v]
            if known is not None:
                if known != value:
                    self.contradiction = True
                    return
                continue
            self.values[v] = value
            if v < self.code.K:
                self.unknown -= 1
            for c in self._var_checks[v]:
                self._unknown[c] -= 1
                self._idx_sum[c] -= v
                self._xor[c] ^= value
                if self._unknown[c] == 1:
                    stack.append((self._idx_sum[c], self._xor[c]))
                elif self._unknown[c] == 0 and self._xor[c]:
                    self.contradiction = True
                    return

    def determined_bits(self) -> list[int | None]:
        return self.values[: self.code.K]
