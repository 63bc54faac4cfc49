"""The reception contract shared by the turbo and the LDPC decoders.

A decoder takes codeword symbols one at a time, in any order, through
one checked loop, ``feed``, and says where the decode stands with a bare
:class:`Status` member: still going, done, or in a contradiction.
``_CheckedDecoder.feed`` is the one place that checks a reception,
counts r and decides when a decode is over; it sends each checked pair
to the decoder's own propagation coroutine, which settles it.
``_CheckedDecoder._receive_batch`` takes many pairs at once, for the
arrivals within which no decode can end: it checks them all with numpy,
raises ``feed``'s own message for the first bad pair, and settles them
together with one fresh run of the same coroutine.  Removals only shrink
a decoder's state, so any order of the same receptions reaches the same
state.  Each decoder lives beside its code: ``TurboErasureDecoder`` in
:mod:`turbobec.turbo`, ``PeelingDecoder`` in :mod:`turbobec.ldpc`.
``_text_lines`` reads the line-oriented input files of both code
families and of the command line.
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
    ``unknown``, then waits at a bare ``yield`` for the next checked
    (index, value) pair, reads ``unknown`` back and pushes that pair's
    op.  ``__init__`` settles the start state through the same loop with
    ``next(self._propagate(seed_ops))``.  Subclasses also implement
    ``_reception_ops(indices, values)``: the ops of the pairs of two
    index and value arrays, as ``_propagate`` pushes them one at a time.
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
        received and sent, with its index as a plain int and its value as
        the int 0 or 1, to the decoder's ``_propagate`` coroutine, which
        settles it before r is yielded; the stop rule is tested when the
        feed resumes.  So a feed may be abandoned after any r, or left
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
            settle((index, 1 if value else 0))
            r += 1
            yield r
            if self.contradiction or not self.unknown:
                return

    def _receive_batch(self, indices, values):
        """Receives the pairs ``(indices[i], values[i])`` of two 1-D
        integer arrays at once, settled together.

        The batch counts no r and tests no stop rule, so its caller must
        know that the decode cannot end within it.  Every pair is checked
        first, with numpy: the index range, the values, repeats within
        the batch, earlier receptions and a contradiction already
        reached.  If any check fails, ``feed`` runs the pairs on a
        stand-in decoder that holds a copy of this one's received
        symbols and contradiction flag and settles nothing, so the
        ValueError raised is ``feed``'s for the first bad pair, and no
        state has changed; arrays whose pairs ``feed`` would all take,
        but that are not integer arrays, raise TypeError.  Then the
        batch is marked received and its ops are settled by one fresh
        ``_propagate``, as ``__init__`` settles the start state.  The
        state it reaches is the one that feeding the same pairs one at a
        time reaches, unless they end in a contradiction.
        """
        if indices.ndim != 1 or indices.shape != values.shape:
            raise ValueError("a batch takes two 1-D arrays of one length")
        if not indices.size:
            return
        received = np.frombuffer(self._received, np.uint8)
        checked = (indices.dtype.kind in "iu" and values.dtype.kind in "iu"
                   and 0 <= indices.min() and indices.max() < received.size
                   and 0 <= values.min() and values.max() <= 1)
        if checked:
            # In range, so both fit in intp: bincount, ``<<`` and ``|``
            # then meet one integer type.
            indices = indices.astype(np.intp, copy=False)
            values = values.astype(np.intp, copy=False)
            checked = not (self.contradiction or received[indices].any()
                           or np.bincount(indices).max() > 1)
        if not checked:
            stand_in = _CheckedDecoder(self.K, 0)
            stand_in._received = bytearray(self._received)
            stand_in.contradiction = self.contradiction
            stand_in._propagate = _settle_nothing
            for _ in stand_in.feed(zip(indices.tolist(), values.tolist())):
                pass
            raise TypeError("a batch takes integer index and value arrays")
        received[indices] = 1
        next(self._propagate(self._reception_ops(indices, values)))

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


def _settle_nothing(ops):
    """The ``_propagate`` of a stand-in decoder, which only runs
    ``feed``'s checks: it takes each pair and settles nothing."""
    while True:
        yield


def _text_lines(path):
    """(number, text) of each line of the UTF-8 file at ``path``, from 1.

    Each line is decoded only when drawn, so bytes after the last line
    drawn are never checked; a line that is not UTF-8 raises ValueError
    naming the file and the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}, line {lineno}: not UTF-8 text") from None
        yield lineno, line
