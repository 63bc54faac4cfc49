"""Parallel turbo encoder: systematic stream, two RSC parity streams,
interleaving, trellis termination and puncturing.

The mother codeword interleaves the three streams step by step as
s_0, p1_0, p2_0, s_1, p1_1, p2_1, ...  Puncturing drops parity positions
from this ordering; systematic bits are always transmitted.  Both
constituent encoders are driven back to the zero state with L-1 tail
steps whose bits are not transmitted, so the shipped rates are exactly
1/3, 1/2 and 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .trellis import LookupMasks, RscSpec, TransitionTable

SYSTEMATIC, PARITY1, PARITY2 = 0, 1, 2
_STREAM_NAMES = {SYSTEMATIC: "s", PARITY1: "p1", PARITY2: "p2"}


@dataclass(frozen=True)
class Interleaver:
    """A bijection on information positions {0..K-1}."""

    pi: tuple[int, ...]
    kind: str = "identity"

    def __post_init__(self):
        k = len(self.pi)
        inv = [None] * k
        for i, e in enumerate(self.pi):
            if not 0 <= e < k:
                raise ValueError(f"interleaver entry {e} out of range for K={k}")
            if inv[e] is not None:
                raise ValueError(f"interleaver entry {e} appears twice")
            inv[e] = i
        object.__setattr__(self, "pi_inv", tuple(inv))

    def __len__(self) -> int:
        return len(self.pi)

    def scramble(self, seq: np.ndarray) -> np.ndarray:
        """Second-encoder input: position j carries seq[pi[j]]."""
        return np.asarray(seq)[list(self.pi)]

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256(" ".join(map(str, self.pi)).encode()).hexdigest()
        return f"{self.kind}:{h[:12]}"


def identity_interleaver(k: int) -> Interleaver:
    return Interleaver(tuple(range(k)), kind="identity")


def make_pr_interleaver(k: int, seed: int) -> Interleaver:
    """Pseudo-random interleaver, reproducible for a given seed.

    Uses numpy's PCG64 generator seeded through SeedSequence, i.e. a
    fully specified Fisher-Yates shuffle.
    """
    if k < 1:
        raise ValueError("K must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return Interleaver(tuple(int(x) for x in rng.permutation(k)), kind=f"pr:{seed}")


def load_interleaver(path) -> Interleaver:
    """Reads one permutation image per line (ASCII integers)."""
    with open(path) as fh:
        entries = [int(line) for line in fh if line.strip()]
    return Interleaver(tuple(entries), kind=f"file:{path}")


@dataclass(frozen=True)
class PunctureMap:
    """Periodic keep-pattern over the two parity streams.

    ``p1_pattern[t % period]`` tells whether parity 1 of step t is
    transmitted; likewise for p2.  Systematic bits are always kept.
    """

    period: int
    p1_pattern: tuple[bool, ...]
    p2_pattern: tuple[bool, ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"puncture period {self.period} must be >= 1")
        if len(self.p1_pattern) != self.period or len(self.p2_pattern) != self.period:
            raise ValueError("pattern length must equal the period")

    def keeps(self, stream: int, step: int) -> bool:
        if stream == SYSTEMATIC:
            return True
        pat = self.p1_pattern if stream == PARITY1 else self.p2_pattern
        return pat[step % self.period]

    def kept_count(self, k: int) -> int:
        if k % self.period:
            raise ValueError(f"K={k} is not divisible by the pattern period {self.period}")
        per_period = self.period + sum(self.p1_pattern) + sum(self.p2_pattern)
        return k // self.period * per_period

    def describe(self) -> str:
        bits = lambda pat: "".join("1" if b else "0" for b in pat)
        return f"p1={bits(self.p1_pattern)},p2={bits(self.p2_pattern)}"


_PRESETS = {
    Fraction(1, 3): PunctureMap(1, (True,), (True,)),
    # Alternate parity streams: p1 at even steps, p2 at odd steps.
    Fraction(1, 2): PunctureMap(2, (True, False), (False, True)),
    # One parity bit every other step: p1 at t % 4 == 0, p2 at t % 4 == 2.
    Fraction(2, 3): PunctureMap(4, (True, False, False, False),
                                (False, False, True, False)),
}


def make_puncture_map(rate: Fraction, k: int) -> PunctureMap:
    rate = Fraction(rate)
    if rate not in _PRESETS:
        raise ValueError(f"unsupported rate {rate}; presets are 1/3, 1/2, 2/3")
    pm = _PRESETS[rate]
    n = pm.kept_count(k)  # validates divisibility
    if n * rate != k:
        raise ValueError(f"puncture preset for rate {rate} keeps {n} of {k} "
                         f"bits, which is rate {Fraction(k, n)}")
    return pm


def parse_puncture_patterns(text: str) -> PunctureMap:
    """Parses an override like "p1=1010,p2=0101"."""
    parts = dict(p.split("=", 1) for p in text.split(","))
    if set(parts) != {"p1", "p2"}:
        raise ValueError("puncture override must define p1 and p2")
    p1 = tuple(c == "1" for c in parts["p1"])
    p2 = tuple(c == "1" for c in parts["p2"])
    if len(p1) != len(p2):
        raise ValueError("p1 and p2 patterns must share one period")
    return PunctureMap(len(p1), p1, p2)


@dataclass(frozen=True)
class TurboCodeSpec:
    """A concrete turbo code: constituent, info length, interleaver, puncturing."""

    rsc: RscSpec
    K: int
    interleaver: Interleaver
    puncture: PunctureMap

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if len(self.interleaver) != self.K:
            raise ValueError("interleaver size must equal K")
        object.__setattr__(self, "table", TransitionTable(self.rsc))
        # One puncture period of keep flags, tiled over the K steps; the
        # kept (step, stream) pairs come out in transmission order.
        period = self.puncture.period
        kept = np.array([[self.puncture.keeps(stream, t)
                          for stream in (SYSTEMATIC, PARITY1, PARITY2)]
                         for t in range(period)])
        steps, streams = np.nonzero(np.tile(kept, (-(-self.K // period), 1))[:self.K])
        object.__setattr__(self, "layout",
                           tuple(zip(streams.tolist(), steps.tolist())))

    @cached_property
    def lookup(self) -> LookupMasks:
        """Lookup masks shared by every decoder of this code, memo included."""
        return LookupMasks(self.table)

    @cached_property
    def _gather(self) -> np.ndarray:
        """Where each transmitted symbol sits in the stacked [info, p1, p2]."""
        return np.array([s * self.K + t for s, t in self.layout])

    @property
    def N(self) -> int:
        return len(self.layout)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.K, self.N)

    def fingerprint(self) -> str:
        return (
            f"rsc=({self.rsc.feedback_poly:o},{self.rsc.forward_poly:o})_8"
            f" L={self.rsc.constraint_length} K={self.K}"
            f" interleaver={self.interleaver.fingerprint()}"
            f" puncture={self.puncture.describe()}"
        )

    def encode(self, info) -> np.ndarray:
        """Transmitted bit sequence of length N for a K-bit information word."""
        info = np.asarray(info, dtype=np.uint8)
        if info.shape != (self.K,):
            raise ValueError(f"information word must have length {self.K}")
        streams = np.concatenate([
            info, rsc_parity(self.table, info),
            rsc_parity(self.table, self.interleaver.scramble(info))])
        return streams[self._gather]

    def start_decoder(self):
        from .decoder import TurboErasureDecoder

        return TurboErasureDecoder(self)


def make_turbo_spec(rsc: RscSpec, k: int, interleaver: Interleaver,
                    rate: Fraction = Fraction(1, 3),
                    puncture: PunctureMap | None = None) -> TurboCodeSpec:
    if puncture is None:
        puncture = make_puncture_map(rate, k)
    return TurboCodeSpec(rsc, k, interleaver, puncture)


def rsc_parity(table: TransitionTable, info: np.ndarray) -> np.ndarray:
    """Parity stream of one terminated constituent; tail bits discarded.

    The L-1 termination inputs are forced so the register returns to the
    zero state after the last information step.
    """
    state = 0
    out = np.empty(len(info), dtype=np.uint8)
    nxt, par = table.next_state, table.parity
    for t, u in enumerate(info):
        u = int(u)
        out[t] = par[state][u]
        state = nxt[state][u]
    for _ in range(table.spec.constraint_length - 1):
        u = table.termination_input(state)
        state = nxt[state][u]
    if state != 0:
        raise RuntimeError("termination failed to reach the zero state")
    return out

