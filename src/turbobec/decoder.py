"""On-the-fly erasure decoding over the trellises of a turbo code.

One decoder, :class:`TurboErasureDecoder`, runs the whole algorithm.
Every step of each of the two trellises holds a mask of still-allowed
transitions.  A received bit ANDs the matching lookup mask into its
step; emptied rows and columns then propagate left and right.  An
information bit whose surviving transitions all agree is recorded once,
in one knowledge array indexed by information position, and injected
into the other trellis at its interleaved step.

The whole closure is one loop over a stack of (trellis, step, AND mask)
ops.  An op that changes its step walks from it along its chain, first
left, then right: each next step ANDs in the keep mask of the step
before it, and the walk stops at the first step that does not change or
at the chain end.  A walked step never sends anything back: the step
before it has already emptied every row or column that it could empty
there.  So the stack holds only receptions and injections.  Every op
and every walked step only ANDs bits out of a mask, so the masks
converge to one fixpoint, the largest below the start masks, whatever
the order of the ops or of the receptions.  The loop stops at the first
emptied mask: a contradiction ends the decode.

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

from dataclasses import dataclass
from enum import Enum

from .trellis import UNKNOWN, TransitionTable
from .turbo import (PARITY1, SYSTEMATIC, TurboCodeSpec, identity_interleaver,
                    make_turbo_spec)


class Status(Enum):
    IN_PROGRESS = "in_progress"
    SUCCESS = "success"
    CONTRADICTION = "contradiction"


@dataclass(frozen=True)
class DecodeOutcome:
    status: Status


# Outcomes are immutable, so ``outcome()`` hands out these three.
_IN_PROGRESS = DecodeOutcome(Status.IN_PROGRESS)
_SUCCESS = DecodeOutcome(Status.SUCCESS)
_CONTRADICTION = DecodeOutcome(Status.CONTRADICTION)


class _CheckedDecoder:
    """The reception contract shared by both decoders.

    A decoder recovers the K information symbols of an N-symbol codeword.
    ``unknown`` counts the information symbols it has not determined;
    ``contradiction`` is set once the received symbols fit no codeword.
    Subclasses implement ``_settle(index, value)``, which propagates one
    new reception, and ``determined_bits()``.
    """

    def __init__(self, k: int, n: int):
        self.K = k
        self.unknown = k
        self.contradiction = False
        self._received = bytearray(n)

    def receive_many(self, indices, values) -> int:
        """Takes codeword symbols ``values[j]`` at ``indices[j]`` in turn.

        Stops after the first pair that leaves the decode over, in
        success or in a contradiction, and returns how many pairs it
        took.  Raises ValueError, before changing any state for that
        pair, if its index is outside 0..N-1, its value is not 0 or 1,
        the symbol was received before, or the decoder is already in a
        contradiction; the pairs before it stay received.
        """
        if len(indices) != len(values):
            raise ValueError(f"{len(indices)} symbol indices but "
                             f"{len(values)} values")
        received, settle = self._received, self._settle
        n = len(received)
        count = 0
        for index, value in zip(indices, values):
            if not 0 <= index < n:
                raise ValueError(
                    f"symbol index {index} out of range 0..{n - 1}")
            if value not in (0, 1):
                raise ValueError(
                    f"symbol {index}: value {value!r} is not 0 or 1")
            if received[index]:
                raise ValueError(f"symbol {index} was already received")
            if self.contradiction:
                raise ValueError(
                    f"symbol {index}: decoder is in a contradiction state")
            received[index] = 1
            settle(index, int(value))
            count += 1
            if self.contradiction or not self.unknown:
                break
        return count

    def receive(self, index: int, value: int) -> DecodeOutcome:
        """Takes one codeword symbol: ``receive_many`` of one pair."""
        self.receive_many((index,), (value,))
        return self.outcome()

    def outcome(self) -> DecodeOutcome:
        if self.contradiction:
            return _CONTRADICTION
        if self.unknown == 0:
            return _SUCCESS
        return _IN_PROGRESS

    def known_count(self) -> int:
        """How many entries of ``determined_bits()`` are not None."""
        return self.K - self.unknown


class TurboErasureDecoder(_CheckedDecoder):
    """Symbol-at-a-time decoder for a punctured parallel turbo code.

    Feed transmitted-codeword positions in any order via :meth:`receive`
    or :meth:`receive_many`; decoding succeeds once all K information
    bits are determined.

    ``masks[0]`` and ``masks[1]`` are the step-mask chains of the two
    trellises.  Chain 0 carries information position t at step t, chain
    1 carries position ``pi[u]`` at step u.  ``determined[p]`` is what
    the chains know of position p.  ``lm`` is the spec's shared lookup
    masks; its memo fills as decoders meet new step masks.
    """

    def __init__(self, spec: TurboCodeSpec):
        super().__init__(spec.K, spec.N)
        self.spec = spec
        self.lm = lm = spec.lookup
        k = spec.K
        self.n_steps = k + spec.rsc.constraint_length - 1
        # Per chain: the information position of each step, and its inverse.
        self._position = (range(k), spec.interleaver.pi)
        self._step = (range(k), spec.interleaver.pi_inv)
        self.masks = [[lm.full] * self.n_steps for _ in range(2)]
        self.determined: list[int | None] = [None] * k
        pins = ((0, lm.row_masks[0]), (self.n_steps - 1, lm.col_masks[0]))
        self._close([(d, t, pin) for d in (0, 1) for t, pin in pins])

    def _settle(self, symbol_index: int, value: int) -> None:
        stream, t = self.spec.layout[symbol_index]
        lm = self.lm
        if stream == SYSTEMATIC:
            # The closure carries the forced bit into the second trellis.
            op = (0, t, lm.info[value])
        else:
            op = (0 if stream == PARITY1 else 1, t, lm.parity[value])
        self._close([op])

    def _close(self, ops: list[tuple[int, int, int]]) -> None:
        """Runs the closure from a stack of ``(chain, step, and_mask)`` ops.

        An op ANDs its mask into a step.  A changed step starts two
        walks along its chain, first left, then right: each walked step
        ANDs in the keep mask of the step it came from, and the walk
        stops at the first step that does not change or at the chain
        end.  A newly forced information bit pushes its injection into
        the other chain as an op.  The loop ends at the fixpoint or at
        the first emptied step, which sets ``contradiction`` and leaves
        every other mask as it is.

        A walked step needs no op back towards where the walk came from.
        A keep mask removes whole columns (rows), so the only columns
        (rows) a walked step newly empties are states whose rows
        (columns) the step before it has already emptied; what its older
        empty columns (rows) imply was applied when they emptied.
        """
        masks, determined = self.masks, self.determined
        position, step = self._position, self._step
        lm = self.lm
        memo, rule, info = lm.memo, lm.rule, lm.info
        k, last = self.K, self.n_steps - 1
        pop, push = ops.pop, ops.append
        while ops:
            d, t, keep_left = pop()
            chain = masks[d]
            # The op's mask is the first keep mask of the left walk, which
            # starts at the op's own step.  If that step changed, the
            # right walk starts from it with its keep_right.
            s, keep_right = t, 0
            while True:
                old = chain[s]
                new = old & keep_left
                if new == old:
                    break
                chain[s] = new
                if not new:
                    self.contradiction = True
                    return
                keep_left, right, b = memo.get(new) or rule(new)
                if s == t:
                    keep_right = right
                if b != UNKNOWN and s < k:
                    p = position[d][s]
                    if determined[p] is None:
                        determined[p] = b
                        self.unknown -= 1
                        e = 1 - d
                        push((e, step[e][p], info[b]))
                if not keep_left or not s:
                    break
                s -= 1
            s = t
            while keep_right and s < last:
                s += 1
                old = chain[s]
                new = old & keep_right
                if new == old:
                    break
                chain[s] = new
                if not new:
                    self.contradiction = True
                    return
                _, keep_right, b = memo.get(new) or rule(new)
                if b != UNKNOWN and s < k:
                    p = position[d][s]
                    if determined[p] is None:
                        determined[p] = b
                        self.unknown -= 1
                        e = 1 - d
                        push((e, step[e][p], info[b]))

    def determined_bits(self) -> list[int | None]:
        """Per-position information-bit knowledge, None where unknown."""
        return list(self.determined)


def boundary_masks(table: TransitionTable, k: int) -> list[int]:
    """Start-state masks of a terminated K-step trellis: K information
    steps, then the L-1 untransmitted tail steps.

    They are chain 0 of a fresh decoder of the rate-1/3 turbo code on
    ``table``'s constituent with the identity interleaver.
    """
    spec = make_turbo_spec(table.spec, k, identity_interleaver(k))
    return spec.start_decoder().masks[0]
