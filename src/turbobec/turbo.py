"""Parallel turbo encoder: systematic stream, two RSC parity streams,
interleaving and puncturing.

The mother codeword interleaves the three streams step by step as
s_0, p1_0, p2_0, s_1, p1_1, p2_1, ...  Puncturing drops parity positions
from this ordering; systematic bits are always transmitted.  Both
constituent paths are zero-state terminated by L-1 tail steps whose bits
are never transmitted, so the encoder does not run them: it emits the K
transmitted steps from state 0, and the decoder pins the last step to
enter state 0.  The shipped rates are exactly 1/3, 1/2 and 2/3.
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
    entries = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                entries.append(int(line))
            except ValueError:
                raise ValueError(f"{path}, line {lineno} {line.strip()!r}: "
                                 f"not an integer") from None
    return Interleaver(tuple(entries), kind=f"file:{path}")


@dataclass(frozen=True)
class PunctureMap:
    """Periodic keep-pattern over the two parity streams.

    ``p1_pattern[t % period]`` tells whether parity 1 of step t is
    transmitted; likewise for p2.  Systematic bits are always kept.  The
    period is the patterns' common, non-zero length.  The patterns cover
    the K information steps only: the encoder does not run the L-1 tail
    steps, and the decoder pins state 0 in their place.
    """

    p1_pattern: tuple[bool, ...]
    p2_pattern: tuple[bool, ...]

    def __post_init__(self):
        if len(self.p1_pattern) != len(self.p2_pattern):
            raise ValueError("p1 and p2 patterns must share one period")
        if not self.p1_pattern:
            raise ValueError(f"puncture period {self.period} must be >= 1")

    @property
    def period(self) -> int:
        return len(self.p1_pattern)

    def keeps(self, stream: int, step: int) -> bool:
        if stream == SYSTEMATIC:
            return True
        pat = self.p1_pattern if stream == PARITY1 else self.p2_pattern
        return pat[step % self.period]

    def describe(self) -> str:
        bits = lambda pat: "".join("1" if b else "0" for b in pat)
        return f"p1={bits(self.p1_pattern)},p2={bits(self.p2_pattern)}"


_PRESETS = {
    Fraction(1, 3): PunctureMap((True,), (True,)),
    # Alternate parity streams: p1 at even steps, p2 at odd steps.
    Fraction(1, 2): PunctureMap((True, False), (False, True)),
    # One parity bit every other step: p1 at t % 4 == 0, p2 at t % 4 == 2.
    Fraction(2, 3): PunctureMap((True, False, False, False),
                                (False, False, True, False)),
}


def make_puncture_map(rate: Fraction, k: int) -> PunctureMap:
    """The preset pattern filed under ``rate``, whose period must divide K."""
    rate = Fraction(rate)
    if rate not in _PRESETS:
        raise ValueError(f"unsupported rate {rate}; presets are 1/3, 1/2, 2/3")
    pm = _PRESETS[rate]
    if k % pm.period:
        raise ValueError(f"K={k} is not divisible by the pattern period {pm.period}")
    return pm


def parse_puncture_patterns(text: str) -> PunctureMap:
    """Parses an override like "p1=1010,p2=0101"."""
    parts = [p.partition("=") for p in text.split(",")]
    if any(not eq or set(bits) - {"0", "1"} for _, eq, bits in parts):
        raise ValueError(f"puncture override '{text}' is not p1=BITS,p2=BITS "
                         f"with BITS of 0s and 1s")
    if sorted(name for name, _, _ in parts) != ["p1", "p2"]:
        raise ValueError("puncture override must define p1 and p2")
    parts = {name: tuple(c == "1" for c in bits) for name, _, bits in parts}
    return PunctureMap(parts["p1"], parts["p2"])


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
        # Where each transmitted symbol sits in the stacked [info, p1, p2].
        object.__setattr__(self, "_gather", streams * self.K + steps)

    @cached_property
    def lookup(self) -> LookupMasks:
        """Lookup masks shared by every decoder of this code, memo included."""
        return LookupMasks(self.table)

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
        parity = (rsc_parity(self.table, info.tolist())
                  + rsc_parity(self.table, self.interleaver.scramble(info).tolist()))
        return np.concatenate([info, np.array(parity, dtype=np.uint8)])[self._gather]

    def start_decoder(self):
        from .decoder import TurboErasureDecoder

        return TurboErasureDecoder(self)


def make_turbo_spec(rsc: RscSpec, k: int, interleaver: Interleaver,
                    rate: Fraction = Fraction(1, 3),
                    puncture: PunctureMap | None = None) -> TurboCodeSpec:
    """The code punctured by ``puncture``, or else by the preset for
    ``rate``; raises ValueError unless the code's rate is ``rate``."""
    rate = Fraction(rate)
    spec = TurboCodeSpec(rsc, k, interleaver, puncture or make_puncture_map(rate, k))
    if spec.rate != rate:
        raise ValueError(f"puncture pattern gives rate {spec.rate}, requested {rate}")
    return spec


def rsc_parity(table: TransitionTable, info: list[int]) -> list[int]:
    """Parity bits of one constituent over the K transmitted steps.

    The register starts in state 0.  The L-1 termination steps are not
    run: their bits are never transmitted, and the decoder pins the last
    step to enter state 0 instead.
    """
    state = 0
    out = []
    nxt, par = table.next_state, table.parity
    for u in info:
        out.append(par[state][u])
        state = nxt[state][u]
    return out
