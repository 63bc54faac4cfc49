"""On-the-fly erasure decoding over the trellises of a turbo code.

Every trellis step holds a mask of still-allowed transitions.  A received
bit ANDs the matching lookup mask into the step (systematic bits into
both trellises, at interleaved positions); emptied rows and columns then
propagate left and right, and an information bit whose surviving
transitions all agree is duplicated into the other trellis.  The whole
closure is run by one FIFO worklist of (trellis, step) entries, which
makes the result independent of reception order.

Masks only ever lose entries, so total work is bounded by the number of
transitions in both trellises: linear in the interleaver size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .trellis import LookupMasks, TransitionTable
from .turbo import PARITY1, PARITY2, SYSTEMATIC, TurboCodeSpec


class Status(Enum):
    IN_PROGRESS = "in_progress"
    SUCCESS = "success"
    CONTRADICTION = "contradiction"


@dataclass(frozen=True)
class DecodeOutcome:
    status: Status


def boundary_masks(table: TransitionTable, k: int) -> list[int]:
    """Initial per-step masks for a terminated K-step trellis.

    Steps 0..K-1 carry information bits, the last L-1 steps the
    (untransmitted) termination tail.  A transition survives iff its
    origin is reachable from the zero state in t steps and its target
    can return to the zero state in the steps that remain; in the
    interior both conditions are vacuous and the mask is the full
    adjacency.

    The decoder starts from these masks without closing them, which is
    sound because they already are a closure fixpoint.  The 0 -> 0
    self-loop and the (L-1)-step shift register make both reachability
    tests exact, so every surviving transition lies on a terminated
    path: no row or column is emptied by a neighbour.  And no bit is
    forced before reception: every step t < K has at least L-1 steps
    left, so transitions on both inputs survive.
    """
    S = table.n_states
    L = table.spec.constraint_length
    n_steps = k + L - 1

    reach_fwd = [{0}]
    while len(reach_fwd) < L:
        cur = reach_fwd[-1]
        reach_fwd.append({table.next_state[s][u] for s in cur for u in (0, 1)})
    preds = [[] for _ in range(S)]
    for i, j, _, _ in table.transitions():
        preds[j].append(i)
    reach_zero = [{0}]
    while len(reach_zero) < L:
        cur = reach_zero[-1]
        reach_zero.append({p for s in cur for p in preds[s]})

    all_states = set(range(S))
    masks = []
    for t in range(n_steps):
        from_ok = reach_fwd[t] if t < L - 1 else all_states
        left = n_steps - 1 - t
        to_ok = reach_zero[left] if left < L - 1 else all_states
        m = 0
        for i, j, _, _ in table.transitions():
            if i in from_ok and j in to_ok:
                m |= 1 << (i * S + j)
        masks.append(m)
    return masks


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
    """Worklist fixpoint over one or two mask chains."""

    def __init__(self, table: TransitionTable, k: int, n_chains: int):
        self.table = table
        self.lm = LookupMasks(table)
        self.K = k
        init = boundary_masks(table, k)
        self.n_steps = len(init)
        self.masks = [list(init) for _ in range(n_chains)]
        self.determined = [[None] * k for _ in range(n_chains)]
        self.unknown = [k] * n_chains
        self.contradiction = False
        self._queue: deque[tuple[int, int]] = deque()
        self._queued = [bytearray(self.n_steps) for _ in range(n_chains)]

    def _counterpart(self, d: int, t: int) -> tuple[int, int] | None:
        return None

    def _apply(self, d: int, t: int, and_mask: int) -> None:
        old = self.masks[d][t]
        new = old & and_mask
        if new == old:
            return
        self.masks[d][t] = new
        if new == 0:
            self.contradiction = True
            return
        if t < self.K and self.determined[d][t] is None:
            lm = self.lm
            for b in (0, 1):
                if not new & ~lm.info[b]:
                    self.determined[d][t] = b
                    self.unknown[d] -= 1
                    other = self._counterpart(d, t)
                    if other is not None:
                        self._apply(other[0], other[1], lm.info[b])
                    break
        if not self._queued[d][t]:
            self._queued[d][t] = 1
            self._queue.append((d, t))

    def _drain(self) -> None:
        q = self._queue
        lm = self.lm
        row_masks, col_masks = lm.row_masks, lm.col_masks
        last = self.n_steps - 1
        while q:
            d, t = q.popleft()
            self._queued[d][t] = 0
            m = self.masks[d][t]
            if t > 0:
                rem = 0
                for u, rm in enumerate(row_masks):
                    if not m & rm:
                        rem |= col_masks[u]
                if rem:
                    self._apply(d, t - 1, ~rem)
            if t < last:
                rem = 0
                for v, cm in enumerate(col_masks):
                    if not m & cm:
                        rem |= row_masks[v]
                if rem:
                    self._apply(d, t + 1, ~rem)


class TurboErasureDecoder(_ClosureEngine):
    """Symbol-at-a-time decoder for a punctured parallel turbo code.

    Feed transmitted-codeword positions in any order via :meth:`receive`;
    decoding succeeds once all K information bits of the first trellis
    are determined.
    """

    def __init__(self, spec: TurboCodeSpec):
        super().__init__(spec.table, spec.K, 2)
        self.spec = spec
        self._pi = spec.interleaver.pi
        self._pi_inv = spec.interleaver.pi_inv
        self._received = bytearray(spec.N)

    def _counterpart(self, d: int, t: int) -> tuple[int, int]:
        return (1, self._pi_inv[t]) if d == 0 else (0, self._pi[t])

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
            self._apply(0, t, lm.info[value])
            self._apply(1, self._pi_inv[t], lm.info[value])
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
        if self.unknown[0] == 0:
            return DecodeOutcome(Status.SUCCESS)
        return DecodeOutcome(Status.IN_PROGRESS)

    def determined_bits(self) -> list[int | None]:
        """Per-step info-bit knowledge of the first trellis."""
        return list(self.determined[0])


class RscErasureDecoder(_ClosureEngine):
    """Constraint closure on a single terminated RSC trellis.

    Exposes the same mask machinery without the turbo coupling; used for
    per-trellis analysis and testing against path enumeration.
    """

    def __init__(self, table: TransitionTable, k: int):
        super().__init__(table, k, 1)

    def receive_info(self, t: int, value: int) -> None:
        self._apply(0, t, self.lm.info[value])
        self._drain()

    def receive_parity(self, t: int, value: int) -> None:
        self._apply(0, t, self.lm.parity[value])
        self._drain()

    @property
    def step_masks(self) -> list[int]:
        return list(self.masks[0])

    def determined_bits(self) -> list[int | None]:
        return list(self.determined[0])
