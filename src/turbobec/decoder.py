"""On-the-fly erasure decoding over the trellises of a turbo code.

One decoder, :class:`TurboErasureDecoder`, runs the whole algorithm.
Every step of each of the two trellises holds a mask of still-allowed
transitions.  A received bit ANDs the matching lookup mask into its
step; emptied rows and columns then propagate left and right.  An
information bit whose surviving transitions all agree is recorded once,
in one knowledge array indexed by information position, and injected
into the other trellis at its interleaved step.  The whole closure is
run by one FIFO worklist of (trellis, step) entries, which makes the
result independent of reception order.  It stops at the first emptied
mask: a contradiction ends the decode.

Trellis termination is two more removals of the same kind: a decoder
starts at the full adjacency, pins the first step to leave state 0 and
the last to enter it, and closes; only the first and last L-1 steps
change.  :func:`boundary_masks` returns that start state.

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

from .trellis import UNKNOWN, TransitionTable
from .turbo import (PARITY1, PARITY2, SYSTEMATIC, TurboCodeSpec,
                    identity_interleaver, make_turbo_spec)


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


class TurboErasureDecoder:
    """Symbol-at-a-time decoder for a punctured parallel turbo code.

    Feed transmitted-codeword positions in any order via :meth:`receive`;
    decoding succeeds once all K information bits are determined.

    ``masks[0]`` and ``masks[1]`` are the step-mask chains of the two
    trellises.  Chain 0 carries information position t at step t, chain
    1 carries position ``pi[u]`` at step u.  ``determined[p]`` is what
    the chains know of position p.  ``lm`` is the spec's shared lookup
    masks; its memo fills as decoders meet new step masks.
    """

    def __init__(self, spec: TurboCodeSpec):
        self.spec = spec
        self.lm = lm = spec.lookup
        self.K = k = spec.K
        self.n_steps = k + spec.rsc.constraint_length - 1
        # Per chain: the information position of each step, and its inverse.
        self._position = (range(k), spec.interleaver.pi)
        self._step = (range(k), spec.interleaver.pi_inv)
        self.masks = [[lm.full] * self.n_steps for _ in range(2)]
        self.determined: list[int | None] = [None] * k
        self.unknown = k
        self.contradiction = False
        self._received = bytearray(spec.N)
        self._queue: deque[tuple[int, int]] = deque()
        self._queued = [bytearray(self.n_steps) for _ in range(2)]
        for d in (0, 1):
            self._apply(d, 0, lm.row_masks[0])
            self._apply(d, self.n_steps - 1, lm.col_masks[0])
        self._drain()

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

    def _apply(self, d: int, t: int, and_mask: int) -> None:
        """ANDs ``and_mask`` into step t of chain d; queues the step and
        injects a newly forced information bit into the other chain."""
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
                    e = 1 - d
                    self._apply(e, self._step[e][p], lm.info[b])
        if not self._queued[d][t]:
            self._queued[d][t] = 1
            self._queue.append((d, t))

    def _drain(self) -> None:
        """Propagates queued steps to the fixpoint, or to the first
        contradiction, after which no mask changes."""
        q = self._queue
        lm = self.lm
        memo = lm.memo
        last = self.n_steps - 1
        while q and not self.contradiction:
            d, t = q.popleft()
            self._queued[d][t] = 0
            m = self.masks[d][t]
            keep_left, keep_right, _ = memo.get(m) or lm.rule(m)
            if keep_left and t > 0:
                self._apply(d, t - 1, keep_left)
            if keep_right and t < last and not self.contradiction:
                self._apply(d, t + 1, keep_right)

    def outcome(self) -> DecodeOutcome:
        if self.contradiction:
            return DecodeOutcome(Status.CONTRADICTION)
        if self.unknown == 0:
            return DecodeOutcome(Status.SUCCESS)
        return DecodeOutcome(Status.IN_PROGRESS)

    def determined_bits(self) -> list[int | None]:
        """Per-position information-bit knowledge, None where unknown."""
        return list(self.determined)

    def known_count(self) -> int:
        """How many entries of :meth:`determined_bits` are not None."""
        return self.K - self.unknown


def boundary_masks(table: TransitionTable, k: int) -> list[int]:
    """Start-state masks of a terminated K-step trellis: K information
    steps, then the L-1 untransmitted tail steps.

    They are chain 0 of a fresh decoder of the rate-1/3 turbo code on
    ``table``'s constituent with the identity interleaver.
    """
    spec = make_turbo_spec(table.spec, k, identity_interleaver(k))
    return spec.start_decoder().masks[0]
