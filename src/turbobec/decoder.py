"""The reception contract shared by the turbo and the LDPC decoders.

A decoder takes codeword symbols one at a time, in any order, through
one checked loop, ``feed``, and says where the decode stands with a bare
:class:`Status` member: still going, done, or in a contradiction.
``_CheckedDecoder.feed`` is the one place that checks a reception,
counts r and decides when a decode is over; it sends each checked pair
to the decoder's own propagation coroutine as one int, the key
``index << 1 | value``, and the coroutine settles it.
``_CheckedDecoder._receive_batch`` takes a trial's held prefix, the
arrivals within which no decode can end: the all-zero word at distinct
positions of a decoder that has received nothing.  It checks them with
numpy and settles them together with one fresh run of the same
coroutine.  Removals only shrink a decoder's state, so any order of the
same receptions reaches the same state.  Each decoder lives beside its
code: ``TurboErasureDecoder`` in :mod:`turbobec.turbo`,
``PeelingDecoder`` in :mod:`turbobec.ldpc`.
"""

from __future__ import annotations

import operator
from enum import Enum

import numpy as np


class Status(Enum):
    IN_PROGRESS = "in_progress"
    SUCCESS = "success"
    CONTRADICTION = "contradiction"

    @property
    def status(self) -> Status:
        """The member itself.  ``perfbench/tracing.py`` is its only
        reader (``receive(...).status``); this alias goes once ROADMAP
        item 1 drops that read."""
        return self


class _CheckedDecoder:
    """The reception contract shared by both decoders.

    A decoder recovers the K information symbols of an N-symbol codeword.
    ``unknown`` counts the information symbols it has not determined;
    ``contradiction`` is set once the received symbols fit no codeword.
    Subclasses implement ``determined_bits()`` and the coroutine
    ``_propagate(ops)``, their whole propagation loop: it drains its
    stack ``ops``, stores its count of undetermined symbols in
    ``unknown``, then waits at a bare ``yield`` for the key ``index << 1
    | value`` of the next checked reception, reads ``unknown`` back and
    pushes its op.  ``__init__`` settles the start state through the same
    loop with ``next(self._propagate(seed_ops))``.  ``_reception_ops``
    maps an array of keys to their ops; by default an op is its key.
    """

    def __init__(self, k: int, n: int):
        self.K = k
        self.unknown = k
        self.contradiction = False
        self._received = bytearray(n)

    def feed(self, pairs):
        """Takes (index, value) pairs in turn; yields r, the count so far.

        Returns after the pair that leaves the decode over, in success or
        in a contradiction, without drawing another.  Raises ValueError,
        before changing any state for that pair, if its index is not an
        integer or is outside 0..N-1, its value is not 0 or 1, the symbol
        was received before, or the decoder is already in a contradiction;
        the pairs before it stay received.  A pair that passes is marked
        received, and its key, the plain int ``index << 1 | value``, is
        sent to the decoder's ``_propagate`` coroutine, which settles it
        before r is yielded; the stop rule is tested when the feed
        resumes.  So a feed may be abandoned after any r, or left
        suspended while other receptions reach the decoder.
        """
        # The coroutine lives in this frame only: one kept on the decoder
        # would make a reference cycle that only the cycle collector frees.
        settle = self._propagate([]).send
        settle(None)
        received = self._received
        n = len(received)
        # A numpy index fed on into peeling would make its ops numpy ints.
        as_int = operator.index
        r = 0  # a counter: ``enumerate`` measured about 1% slower per trial
        for index, value in pairs:
            try:
                index = as_int(index)
            except TypeError:
                raise ValueError(f"symbol index {index!r} is not an integer") from None
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
            settle(index << 1 | (1 if value else 0))
            r += 1
            yield r
            if self.contradiction or not self.unknown:
                return

    def _receive_batch(self, indices):
        """Receives the all-zero word at ``indices``, a 1-D integer array
        of distinct symbol indices, on a decoder that has received
        nothing, settled together.

        The all-zero word is a codeword and a fresh decoder holds only its
        start state, so no batch ends in a contradiction.  The batch
        counts no r and tests no stop rule, so its caller must know that
        the decode cannot end within it.  It is checked first, with
        numpy; any check that fails raises ValueError with no state
        changed.  Then the batch is marked received and its keys' ops
        are settled by one fresh ``_propagate``, as ``__init__`` settles
        the start state.  The state it reaches is the one that feeding
        the same pairs one at a time reaches.
        """
        n = len(self._received)
        fine = (indices.ndim == 1 and indices.dtype.kind in "iu"
                and 1 not in self._received)
        if fine and indices.size:
            fine = 0 <= indices.min() and indices.max() < n
            if fine:
                # In range, so they fit in intp: bincount and ``<<`` then
                # meet one integer type.
                indices = indices.astype(np.intp, copy=False)
                fine = np.bincount(indices).max() == 1
        if not fine:
            raise ValueError(f"a batch takes a 1-D integer array of distinct "
                             f"indices in 0..{n - 1}, on a decoder that has "
                             f"received nothing")
        np.frombuffer(self._received, np.uint8)[indices] = 1
        next(self._propagate(self._reception_ops(indices << 1)))

    def _reception_ops(self, keys):
        """The ops of an array of reception keys: the keys, as ints."""
        return keys.tolist()

    def receive(self, index: int, value: int) -> Status:
        """Takes one codeword symbol: ``feed`` of one pair."""
        next(self.feed(((index, value),)))
        return self.outcome()

    def outcome(self) -> Status:
        if self.contradiction:
            return Status.CONTRADICTION
        if self.unknown == 0:
            return Status.SUCCESS
        return Status.IN_PROGRESS

    def known_count(self) -> int:
        """How many entries of ``determined_bits()`` are not None."""
        return self.K - self.unknown
