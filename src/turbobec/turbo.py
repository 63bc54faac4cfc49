"""Parallel turbo codes: the encoder, and the on-the-fly erasure decoder
that runs over the code's own two trellises.

The mother codeword interleaves the three streams step by step as
s_0, p1_0, p2_0, s_1, p1_1, p2_1, ...  Puncturing drops parity positions
from this ordering; systematic bits are always transmitted.  The shipped
rates are exactly 1/3, 1/2 and 2/3.

One decoder, :class:`TurboErasureDecoder`, runs the whole algorithm.
Every step of each of the two trellises holds a mask of still-allowed
transitions.  A received bit ANDs the matching lookup mask into its
step; emptied rows and columns then propagate left and right.  An
information bit whose surviving transitions all agree is recorded once,
in one knowledge array indexed by information position, and injected
into the other trellis at its interleaved step.

The decoder keeps both trellises' steps in one list of slots, chain
0's, then chain 1's, then a sentinel.  The whole closure is one loop
over a stack of (slot, AND mask) ops, and it is the decoder's only
loop: the coroutine ``_propagate`` drains the stack, then waits for
``feed`` to send it the next checked reception, pushes that
reception's op and drains again; a batch of receptions runs it afresh
on all of their ops at once.
An op that changes its step walks from it along its chain, first left,
then right: each next step ANDs in the keep mask of the step before
it, and the walk stops at the first step that does not change.  A
walked step never sends anything back: the step before it has already
emptied every row or column that it could empty there.  So the stack
holds only receptions and injections.  Every op and every walked step
only ANDs bits out of a mask, so the masks converge to one fixpoint,
the largest below the start masks, whatever the order of the ops or of
the receptions.  Only an op's own step can empty, and that
contradiction ends the decode.  A walked step cannot: between ops each
chain is at its row/column fixpoint, where a state is entered at step
s exactly when it is left at step s+1, so each state that the
non-empty step before a walked step still uses keeps a transition
there.  No walk tests for the end of its chain: one that leaves it
stops unchanged on a pinned step of the other chain or on the
sentinel, the 0->0 transition.  A tail step maps to a slot past the
word, so no step tests whether it carries an information bit.

Both constituent paths are zero-state terminated by L-1 tail steps
whose bits are never transmitted.  So the encoder does not run them: it
emits the K transmitted steps from state 0, and the puncture patterns
cover those K steps only.  The decoder's chains hold all K + L - 1
steps.  Termination is two pins, removals of the same kind as a
reception: a decoder starts at the full adjacency with the first step
of each chain pinned to leave state 0 and the last to enter it, and the
same loop walks on from both pins; only the first and last L-1 steps
change.
:func:`boundary_masks` returns that start state.

What a step mask implies for its neighbours and its information bit
depends on the mask value alone, so the decoder never scans rows and
columns itself: it looks the mask up in ``LookupMasks.memo``, which
computes each entry the first time it is met.

Masks only ever lose entries, so total work is bounded by the number of
transitions in both trellises: linear in the interleaver size.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .decoder import _CheckedDecoder
from .trellis import UNKNOWN, LookupMasks, RscSpec, TransitionTable

SYSTEMATIC, PARITY1, PARITY2 = 0, 1, 2


@dataclass(frozen=True)
class Interleaver:
    """A bijection on information positions {0..K-1}.

    ``pi`` is stored as a tuple of plain ints; an entry that is not an
    integer raises TypeError before anything is built.
    """

    pi: tuple[int, ...]
    kind: str

    def __post_init__(self):
        try:
            pi = tuple(map(operator.index, self.pi))
        except TypeError:
            raise TypeError("interleaver entries must be integers") from None
        k = len(pi)
        inv = [None] * k
        for i, e in enumerate(pi):
            if not 0 <= e < k:
                raise ValueError(f"interleaver entry {e} out of range for K={k}")
            if inv[e] is not None:
                raise ValueError(f"interleaver entry {e} appears twice")
            inv[e] = i
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "pi_inv", tuple(inv))
        # ``pi`` as an index array, so that ``scramble`` is one gather.
        object.__setattr__(self, "_gather", np.array(self.pi, dtype=np.intp))

    def __len__(self) -> int:
        return len(self.pi)

    def scramble(self, seq: np.ndarray) -> np.ndarray:
        """Second-encoder input: position j carries seq[pi[j]]."""
        return np.asarray(seq)[self._gather]

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256(" ".join(map(str, self.pi)).encode()).hexdigest()
        return f"{self.kind}:{h[:12]}"


def identity_interleaver(k: int) -> Interleaver:
    return Interleaver(tuple(range(k)), kind="identity")


def make_pr_interleaver(k: int, seed: int) -> Interleaver:
    """Pseudo-random interleaver, reproducible for a given seed.

    Uses ``np.random.default_rng(seed)``, numpy's PCG64 generator seeded
    through SeedSequence, i.e. a fully specified Fisher-Yates shuffle.
    """
    if k < 1:
        raise ValueError("K must be >= 1")
    rng = np.random.default_rng(seed)
    return Interleaver(tuple(rng.permutation(k).tolist()), kind=f"pr:{seed}")


@dataclass(frozen=True)
class PunctureMap:
    """Periodic keep-pattern over the two parity streams.

    ``p1_pattern[t % period]`` tells whether parity 1 of step t is
    transmitted; likewise for p2.  Systematic bits are always kept.  The
    period is the patterns' common, non-zero length.
    """

    p1_pattern: tuple[bool, ...]
    p2_pattern: tuple[bool, ...]

    def __post_init__(self):
        if len(self.p1_pattern) != len(self.p2_pattern):
            raise ValueError("p1 and p2 patterns must share one period")
        if not self.p1_pattern:
            raise ValueError(f"puncture period {self.period} must be >= 1")
        for name, pattern in ("p1", self.p1_pattern), ("p2", self.p2_pattern):
            if any(flag not in (0, 1) for flag in pattern):
                raise ValueError(f"{name} pattern {pattern!r}: flags must be 0 or 1")

    @property
    def period(self) -> int:
        return len(self.p1_pattern)

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


@dataclass(frozen=True)
class TurboCodeSpec:
    """A concrete turbo code: constituent, info length, interleaver, puncturing.

    The transmitted order is kept as two int lists, ``streams`` and
    ``steps``: transmitted symbol n is bit ``steps[n]`` of stream
    ``streams[n]``.
    """

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
        # One puncture period of (s, p1, p2) keep flags, tiled over the K
        # steps; the kept (step, stream) pairs come out in transmission order.
        period = self.puncture.period
        kept = np.array([(True, p1, p2) for p1, p2 in
                         zip(self.puncture.p1_pattern, self.puncture.p2_pattern)])
        steps, streams = np.nonzero(np.tile(kept, (-(-self.K // period), 1))[:self.K])
        object.__setattr__(self, "streams", streams.tolist())
        object.__setattr__(self, "steps", steps.tolist())
        # Where each transmitted symbol sits in the stacked [info, p1, p2].
        object.__setattr__(self, "_gather", streams * self.K + steps)

    @cached_property
    def lookup(self) -> LookupMasks:
        """Lookup masks shared by every decoder of this code, memo included."""
        return LookupMasks(self.table)

    @property
    def N(self) -> int:
        return len(self.steps)

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

    @cached_property
    def _positions(self) -> tuple[int, ...]:
        """The information position of each decoder slot, shared by every
        decoder of this code.

        Chain 0's step t carries position t and chain 1's step u
        position ``pi[u]``; tail step K + j of either chain carries slot
        K + j of ``determined``, past the word.  The sentinel's entry,
        last, is never read.  A tuple, not a range: CPython 3.11
        specialises a subscript only while every operand it meets has
        one type, and a tuple's is its fastest.
        """
        n = self.K + self.rsc.constraint_length - 1
        return (*range(n), *self.interleaver.pi, *range(self.K, n), 0)

    @cached_property
    def _reception_table(self):
        """The op of every reception, shared by every decoder of this code.

        At reception key ``index << 1 | value`` lies the ``(slot, mask)``
        op that receiving ``value`` at symbol ``index`` pushes: its
        stream's lookup mask for that bit, ANDed into its step's slot of
        chain 0 (systematic and parity 1) or chain 1 (parity 2).  A
        systematic op goes to chain 0 only; the closure carries the
        forced bit into chain 1.  Decoders read it at their first
        reception, never at start, so a code's set-up does not build it.
        """
        n = self.K + self.rsc.constraint_length - 1
        lm = self.lookup
        # Per stream, SYSTEMATIC, PARITY1, PARITY2: its chain's first slot
        # and its lookup masks.
        base, labels = (0, 0, n), (lm.info, lm.parity, lm.parity)
        return tuple((base[stream] + step, labels[stream][value])
                     for stream, step in zip(self.streams, self.steps)
                     for value in (0, 1))

    def start_decoder(self) -> TurboErasureDecoder:
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
    """Parity bits of one constituent over the K transmitted steps,
    from state 0."""
    state = 0
    out = []
    nxt, par = table.next_state, table.parity
    for u in info:
        out.append(par[state][u])
        state = nxt[state][u]
    return out


class TurboErasureDecoder(_CheckedDecoder):
    """Symbol-at-a-time decoder for a punctured parallel turbo code.

    Feed transmitted-codeword positions in any order through
    :meth:`feed` (or :meth:`receive`, one at a time); decoding succeeds,
    and ``feed`` stops, once all K information bits are determined.

    ``masks`` returns fresh copies of the step-mask chains of the two
    trellises.  Chain 0 carries information position t at step t, chain
    1 carries position ``pi[u]`` at step u.  The decoder keeps both in
    one list of slots, chain 0's K + L - 1 steps, then chain 1's, then
    one sentinel slot.  ``determined[p]`` is what the chains know of
    position p; its L-1 slots past the word belong to the tail steps and
    are never None.  ``lm`` is ``spec.lookup``.
    """

    def __init__(self, spec: TurboCodeSpec):
        super().__init__(spec.K, spec.N)
        self.spec = spec
        self.lm = lm = spec.lookup
        self.n_steps = n = spec.K + spec.rsc.constraint_length - 1
        # The pins: step 0 of each chain leaves state 0 and its last step
        # enters it.  They are set before the loop runs, so that a walk that
        # leaves a chain stops on a pin or on the sentinel.  Step 0 keeps
        # both information bits, so the pins force none.  The loop walks on
        # from each pinned end with an op that ANDs the end's keep mask into
        # its neighbour; a keep mask of 0 removes nothing.
        row0, col0 = lm.row_masks[0], lm.col_masks[0]
        self._slots = slots = [lm.full] * (2 * n + 1)
        slots[0] = slots[n] = row0
        slots[n - 1] = slots[-2] = col0
        slots[-1] = row0 & col0
        # The tail slots K.. are never None, so a tail step records no bit.
        self.determined: list[int | None] = [None] * n
        self.determined[spec.K:] = [UNKNOWN] * (n - spec.K)
        _, from_first, _ = lm.memo[row0] or lm.rule(row0)
        into_last, _, _ = lm.memo[col0] or lm.rule(col0)
        next(self._propagate([(base + t, keep) for base in (0, n)
                              for t, keep in ((1, from_first), (n - 2, into_last))
                              if keep]))

    @property
    def masks(self) -> list[list[int]]:
        """Fresh copies of the two step-mask chains, ``[chain 0, chain 1]``."""
        return [self._slots[:self.n_steps], self._slots[self.n_steps:-1]]

    def _propagate(self, ops):
        """Runs the closure from a stack of ``(slot, and_mask)`` ops, then
        from each reception key sent to it, settling each one before it
        waits for the next.

        An op ANDs its mask into a slot.  A changed step starts two
        walks along its chain, first left, then right: each walked step
        ANDs in the keep mask of the step it came from, and the walk
        stops at the first step that does not change.  A newly forced
        information bit pushes its injection into the other chain as an
        op.  The closure ends at the fixpoint or when an op empties its
        own step, which sets ``contradiction``, drops the ops left and
        leaves every other mask as it is.  A reception's op is the entry
        of ``spec._reception_table`` at its key.

        A walked step never empties, so that is the only exit.  Between
        ops each chain is at its row/column fixpoint: at step s a state
        has a transition into it exactly when it has one leaving it at
        step s+1.  That holds once a decoder has walked on from its pins
        (the all-zero path keeps every step of that start state
        non-empty), and each op's walks run until a step stops changing.  A
        left walk ANDs into step s-1 only the removal of transitions
        into states with no transition out at step s.  Step s is not
        empty, so some state leaves it, and by the fixpoint a transition
        into that state at step s-1 survives.  The right walk is the
        mirror case.  A reception or an injection can empty its step.

        A walked step needs no op back towards where the walk came from.
        A keep mask removes whole columns (rows), so the only columns
        (rows) a walked step newly empties are states whose rows
        (columns) the step before it has already emptied; what its older
        empty columns (rows) imply was applied when they emptied.

        No walk tests a bound, and no step tests whether it carries an
        information bit.  Masks only lose bits, so from the start on each
        chain's step 0 lies inside row 0 and its last step inside column
        0.  A non-empty step inside row 0 passes on the keep mask column
        0, and one inside column 0 the keep mask row 0.  So a walk that
        leaves a chain stops unchanged on the next slot: right from chain
        0's last step on chain 1's step 0, left from chain 1's step 0 on
        chain 0's last step, and left from chain 0's step 0 (as slot -1)
        or right from chain 1's last step on the sentinel, which holds
        only the 0->0 transition.  A tail step carries a slot of
        ``determined`` past the word, and those are never None, so it
        records no bit.
        """
        slots, determined, n = self._slots, self.determined, self.n_steps
        spec, lm = self.spec, self.lm
        position, pi_inv = spec._positions, spec.interleaver.pi_inv
        memo, rule, info = lm.memo, lm.rule, lm.info
        # ``spec._reception_table``, read at the first reception, so that
        # starting a decoder does not build it.
        reception = None
        pop, push = ops.pop, ops.append
        while True:
            unknown = self.unknown
            while ops:
                t, mask = pop()
                old = slots[t]
                new = old & mask
                if new == old:
                    continue
                slots[t] = new
                if not new:
                    self.contradiction = True
                    ops.clear()
                    break
                keep_left, keep_right, b = memo[new] or rule(new)
                if b != UNKNOWN:
                    p = position[t]
                    if determined[p] is None:
                        determined[p] = b
                        unknown -= 1
                        push((p if t >= n else n + pi_inv[p], info[b]))
                s = t
                while keep_left:
                    s -= 1
                    old = slots[s]
                    new = old & keep_left
                    if new == old:
                        break
                    slots[s] = new
                    keep_left, _, b = memo[new] or rule(new)
                    if b != UNKNOWN:
                        p = position[s]
                        if determined[p] is None:
                            determined[p] = b
                            unknown -= 1
                            push((p if s >= n else n + pi_inv[p], info[b]))
                s = t
                while keep_right:
                    s += 1
                    old = slots[s]
                    new = old & keep_right
                    if new == old:
                        break
                    slots[s] = new
                    _, keep_right, b = memo[new] or rule(new)
                    if b != UNKNOWN:
                        p = position[s]
                        if determined[p] is None:
                            determined[p] = b
                            unknown -= 1
                            push((p if s >= n else n + pi_inv[p], info[b]))
            self.unknown = unknown
            key = yield
            if reception is None:
                reception = spec._reception_table
            push(reception[key])

    def _reception_ops(self, keys):
        """The ops of a batch's keys, read from ``spec._reception_table``
        as ``_propagate`` reads one key's."""
        table = self.spec._reception_table
        return [table[key] for key in keys.tolist()]

    def determined_bits(self) -> list[int | None]:
        """Per-position information-bit knowledge, None where unknown."""
        return self.determined[:self.K]


def boundary_masks(table: TransitionTable, k: int) -> list[int]:
    """Start-state masks of a terminated K-step trellis: K information
    steps, then the L-1 untransmitted tail steps.

    They are chain 0 of a fresh decoder of the rate-1/3 turbo code on
    ``table``'s constituent with the identity interleaver.
    """
    spec = make_turbo_spec(table.spec, k, identity_interleaver(k))
    return spec.start_decoder().masks[0]
