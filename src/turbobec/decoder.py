"""The reception contract shared by the turbo and the LDPC decoders.

A decoder takes codeword symbols one at a time, in any order, through
one checked loop, ``feed``, and says where the decode stands with a
:class:`DecodeOutcome`.  ``_CheckedDecoder._checked`` is the one place
that checks a reception and decides when a decode is over; each decoder
runs its own propagation around it.  Each decoder lives beside its code:
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
    Subclasses implement ``determined_bits()`` and the generator
    ``_propagate(receptions, ops)``, their whole propagation loop: it
    drains its stack ``ops``, stores its count of undetermined symbols
    in ``unknown``, yields r unless no pair was taken yet, reads
    ``unknown`` back, then takes the next (index, value) pair from
    ``receptions`` and pushes that pair's op; it returns once
    ``receptions`` is exhausted.  A subclass's
    ``__init__`` runs its start state through the same loop by draining
    ``_propagate((), seed_ops)``, which yields nothing.
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
        stay received.  At every yield the decoder's state is settled, so
        a feed may be abandoned after any r, or left suspended while
        other receptions reach the decoder.
        """
        return self._propagate(self._checked(pairs), [])

    def _checked(self, pairs):
        """The pairs of ``feed`` that pass the four checks, each marked
        received, as (index, int value).

        The stop rule is tested when the propagation asks for the next
        pair, after it has settled the one before.
        """
        received = self._received
        n = len(received)
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
            yield index, int(value)
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
