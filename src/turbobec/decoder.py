"""On-the-fly erasure decoding over the trellises of a turbo code.

Every trellis step holds a mask of still-allowed transitions.  A received
bit ANDs the matching lookup mask into the step; emptied rows and columns
then propagate left and right.  An information bit whose surviving
transitions all agree is recorded once, in one knowledge array indexed
by information position, and injected into the other trellis at its
interleaved step.  The whole closure is run by one FIFO worklist of
(trellis, step) entries, which makes the result independent of
reception order.

Trellis termination is two more removals of the same kind: a decoder
starts at the full adjacency, pins the first step to leave state 0 and
the last to enter it, and closes; only the first and last L-1 steps
change.

What a step mask implies for its neighbours and its information bit
depends on the mask value alone, so the decoder never scans rows and
columns itself: it looks the mask up in ``LookupMasks.memo``, which
computes each entry the first time it is met.  The lookup masks (memo
included) are a per-code constant, built once by the ``TurboCodeSpec``
and shared by all of its decoders.

Masks only ever lose entries, so total work is bounded by the number of
transitions in both trellises: linear in the interleaver size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .trellis import UNKNOWN, LookupMasks, TransitionTable
from .turbo import (PARITY1, PARITY2, SYSTEMATIC, Interleaver,
                    TurboCodeSpec)


class Status(Enum):
    IN_PROGRESS = "in_progress"
    SUCCESS = "success"
    CONTRADICTION = "contradiction"


@dataclass(frozen=True)
class DecodeOutcome:
    status: Status


def check_reception(index: int, value: int, n: int, received,
                    contradiction: bool) -> None:
    """The input contract of every decoder's ``receive``.

    Raises ValueError unless ``index`` lies in 0..n-1 and is not yet
    marked in ``received``, ``value`` is 0 or 1, and the decoder is not
    in a contradiction.
    """
    if not 0 <= index < n:
        raise ValueError(f"symbol index {index} out of range 0..{n - 1}")
    if value not in (0, 1):
        raise ValueError(f"symbol {index}: value {value!r} is not 0 or 1")
    if received[index]:
        raise ValueError(f"symbol {index} was already received")
    if contradiction:
        raise ValueError(f"symbol {index}: decoder is in a contradiction state")


class _ClosureEngine:
    """Worklist fixpoint over the mask chains of one or two trellises.

    ``lm`` is shared by every decoder of the code; its memo fills as
    decoders meet new step masks.  Chain 0 carries information position
    t at step t; a second chain, present when an interleaver is given,
    carries position ``pi[u]`` at step u.  ``determined[p]`` is what the
    chains know of position p.
    """

    def __init__(self, lm: LookupMasks, k: int,
                 interleaver: Interleaver | None = None):
        self.lm = lm
        self.K = k
        self.n_steps = k + lm.table.spec.constraint_length - 1
        identity = range(k)
        # Per chain: the information position of each step, and its inverse.
        self._position = (identity,)
        self._step = (identity,)
        if interleaver is not None:
            self._position += (interleaver.pi,)
            self._step += (interleaver.pi_inv,)
        n_chains = len(self._position)
        self.masks = [[lm.full] * self.n_steps for _ in range(n_chains)]
        self.determined: list[int | None] = [None] * k
        self.unknown = k
        self.contradiction = False
        self._queue: deque[tuple[int, int]] = deque()
        self._queued = [bytearray(self.n_steps) for _ in range(n_chains)]
        for d in range(n_chains):
            self._apply(d, 0, lm.row_masks[0])
            self._apply(d, self.n_steps - 1, lm.col_masks[0])
        self._drain()

    def _apply(self, d: int, t: int, and_mask: int) -> None:
        chain = self.masks[d]
        old = chain[t]
        new = old & and_mask
        if new == old:
            return
        chain[t] = new
        if new == 0:
            self.contradiction = True
            return
        if t < self.K:
            p = self._position[d][t]
            if self.determined[p] is None:
                lm = self.lm
                b = (lm.memo.get(new) or lm.rule(new))[2]
                if b != UNKNOWN:
                    self.determined[p] = b
                    self.unknown -= 1
                    if len(self.masks) == 2:
                        e = 1 - d
                        self._apply(e, self._step[e][p], lm.info[b])
        if not self._queued[d][t]:
            self._queued[d][t] = 1
            self._queue.append((d, t))

    def _drain(self) -> None:
        q = self._queue
        lm = self.lm
        memo = lm.memo
        last = self.n_steps - 1
        while q:
            d, t = q.popleft()
            self._queued[d][t] = 0
            m = self.masks[d][t]
            keep_left, keep_right, _ = memo.get(m) or lm.rule(m)
            if keep_left and t > 0:
                self._apply(d, t - 1, keep_left)
            if keep_right and t < last:
                self._apply(d, t + 1, keep_right)

    def determined_bits(self) -> list[int | None]:
        """Per-position information-bit knowledge, None where unknown."""
        return list(self.determined)

    def known_count(self) -> int:
        """How many entries of :meth:`determined_bits` are not None."""
        return self.K - self.unknown


class TurboErasureDecoder(_ClosureEngine):
    """Symbol-at-a-time decoder for a punctured parallel turbo code.

    Feed transmitted-codeword positions in any order via :meth:`receive`;
    decoding succeeds once all K information bits are determined.
    """

    def __init__(self, spec: TurboCodeSpec):
        super().__init__(spec.lookup, spec.K, spec.interleaver)
        self.spec = spec
        self._received = bytearray(spec.N)

    def receive(self, symbol_index: int, value: int) -> DecodeOutcome:
        """Takes one codeword symbol and closes the constraints it adds.

        Raises ValueError, before changing any state, if the index is
        outside 0..N-1, the value is not 0 or 1, the symbol was received
        before, or the decoder is already in a contradiction.
        """
        check_reception(symbol_index, value, self.spec.N, self._received,
                        self.contradiction)
        value = int(value)
        self._received[symbol_index] = 1
        stream, t = self.spec.layout[symbol_index]
        lm = self.lm
        if stream == SYSTEMATIC:
            # _apply carries the forced bit into the second trellis.
            self._apply(0, t, lm.info[value])
        elif stream == PARITY1:
            self._apply(0, t, lm.parity[value])
        else:
            assert stream == PARITY2
            self._apply(1, t, lm.parity[value])
        self._drain()
        return self.outcome()

    def outcome(self) -> DecodeOutcome:
        if self.contradiction:
            return DecodeOutcome(Status.CONTRADICTION)
        if self.unknown == 0:
            return DecodeOutcome(Status.SUCCESS)
        return DecodeOutcome(Status.IN_PROGRESS)


class RscErasureDecoder(_ClosureEngine):
    """Constraint closure on a single terminated RSC trellis.

    Exposes the same mask machinery without the turbo coupling; used for
    per-trellis analysis and testing against path enumeration.
    """

    def __init__(self, table: TransitionTable, k: int):
        super().__init__(LookupMasks(table), k)

    def receive_info(self, t: int, value: int) -> None:
        self._apply(0, t, self.lm.info[value])
        self._drain()

    def receive_parity(self, t: int, value: int) -> None:
        self._apply(0, t, self.lm.parity[value])
        self._drain()

    @property
    def step_masks(self) -> list[int]:
        return list(self.masks[0])


def boundary_masks(table: TransitionTable, k: int) -> list[int]:
    """Start-state masks of a terminated K-step trellis: K information
    steps, then the L-1 untransmitted tail steps."""
    return RscErasureDecoder(table, k).step_masks
