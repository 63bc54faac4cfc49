"""The reception contract shared by the turbo and the LDPC decoders.

A decoder takes codeword symbols one at a time, in any order, through
one checked loop, ``feed``, and says where the decode stands with a
:class:`DecodeOutcome`.  ``_CheckedDecoder.feed`` is the one place that
checks a reception, counts r and decides when a decode is over; it
sends each checked pair to the decoder's own propagation coroutine,
which settles it.  Each decoder lives beside its code:
``TurboErasureDecoder`` in :mod:`turbobec.turbo`, ``PeelingDecoder`` in
:mod:`turbobec.ldpc`.  ``_text_lines`` reads the line-oriented input
files of both code families and of the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


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
    Subclasses implement ``determined_bits()`` and the coroutine
    ``_propagate(ops)``, their whole propagation loop: it drains its
    stack ``ops``, stores its count of undetermined symbols in
    ``unknown``, then waits at a bare ``yield`` for the next checked
    (index, value) pair, reads ``unknown`` back and pushes that pair's
    op.  ``__init__`` settles the start state through the same loop with
    ``next(self._propagate(seed_ops))``.
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
        before changing any state for that pair, if its index is outside
        0..N-1, its value is not 0 or 1, the symbol was received before,
        or the decoder is already in a contradiction; the pairs before it
        stay received.  A pair that passes is marked received and sent,
        with its value as the int 0 or 1, to the decoder's ``_propagate``
        coroutine, which settles it before r is yielded; the stop rule is
        tested when the feed resumes.  So a feed may be abandoned after
        any r, or left suspended while other receptions reach the decoder.
        """
        # The coroutine lives in this frame only: one kept on the decoder
        # would make a reference cycle that only the cycle collector frees.
        settle = self._propagate([]).send
        settle(None)
        received = self._received
        n = len(received)
        r = 0  # a counter: ``enumerate`` measured about 1% slower per trial
        for index, value in pairs:
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

    def receive(self, index: int, value: int) -> DecodeOutcome:
        """Takes one codeword symbol: ``feed`` of one pair."""
        next(self.feed(((index, value),)))
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
