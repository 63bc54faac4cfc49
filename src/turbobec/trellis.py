"""Trellis model of rate-1/2 recursive systematic convolutional (RSC) codes.

Derives the state-transition table of an RSC constituent from its octal
generator polynomials and precomputes the 3^2 label-constraint lookup
masks used by the erasure decoder.  Trellis termination is not handled
here: the decoder applies the zero-state pins with the same closure
that propagates a reception.

A state is the register [s_1, ..., s_{L-1}], s_1 newest, written in
binary MSB-first: cell s_i is bit L-1-i of the state, the bit that
holds the D^i coefficient of a polynomial, so state i is the
paper-style label e_{i+1}.

A transition mask is stored as a plain int with one bit per trellis
transition: the transition from state i on information bit u is bit
``2 * i + u``, so a mask of an S-state code has 2S bits.
:meth:`TransitionTable.arc_bit` maps a state pair (i, j) to its bit, and
:func:`format_mask` draws a mask as the S x S state-pair matrix.  The
decoding loop is logical ANDs plus the all-zero row/column checks of
``LookupMasks.rule``, which run once per distinct mask and are looked
up after that.
"""

from __future__ import annotations

from dataclasses import dataclass

# Wildcard value for an unreceived bit position in a label constraint.
UNKNOWN = 2


@dataclass(frozen=True)
class RscSpec:
    """A rate-1/2 RSC constituent code.

    Polynomials are given as octal integers with coefficients
    most-significant-first: 0o7 over constraint length 3 is 1 + D + D^2,
    0o5 is 1 + D^2.
    """

    feedback_poly: int
    forward_poly: int
    constraint_length: int

    def __post_init__(self):
        L = self.constraint_length
        if L < 2:
            raise ValueError("constraint length must be >= 2")
        for name in ("feedback_poly", "forward_poly"):
            p = getattr(self, name)
            if not 0 < p < (1 << L):
                raise ValueError(f"{name} {p:o} does not fit in {L} coefficients")
        # Coefficient of D^0 is the top bit in the MSB-first convention.
        if not (self.feedback_poly >> (L - 1)) & 1:
            raise ValueError("feedback polynomial needs a nonzero constant term")

    @property
    def n_states(self) -> int:
        return 1 << (self.constraint_length - 1)

    def step(self, state: int, info_bit: int) -> tuple[int, int]:
        """One shift-register step: returns (next_state, parity_bit).

        A polynomial's D^i coefficient and register cell s_i share one
        bit, so each tap sum over the register is the parity of
        ``poly & state``; D^0 lies above the state's bits and taps the
        feedback bit ``a``.
        """
        L = self.constraint_length
        a = info_bit ^ ((self.feedback_poly & state).bit_count() & 1)
        parity = ((self.forward_poly >> (L - 1)) & a) ^ (
            (self.forward_poly & state).bit_count() & 1)
        return (a << (L - 2)) | (state >> 1), parity


class TransitionTable:
    """All state transitions of an RSC code between two trellis steps.

    ``next_state[s][u]`` and ``parity[s][u]`` describe the transition
    taken from state ``s`` on information bit ``u``; the label is
    ``(u, parity[s][u])``.
    """

    def __init__(self, spec: RscSpec):
        self.spec = spec
        self.n_states = spec.n_states
        steps = [[spec.step(s, u) for u in (0, 1)] for s in range(self.n_states)]
        self.next_state = [[nxt for nxt, _ in row] for row in steps]
        self.parity = [[p for _, p in row] for row in steps]

    def arc_bit(self, i: int, j: int) -> int:
        """The one-bit mask of the transition from state i to state j,
        bit ``2 * i + u`` for its information bit u; 0 if there is none."""
        for u in (0, 1):
            if self.next_state[i][u] == j:
                return 1 << (2 * i + u)
        return 0

    def transitions(self):
        """Yields (from_state, to_state, info_bit, parity_bit)."""
        for s in range(self.n_states):
            for u in (0, 1):
                yield s, self.next_state[s][u], u, self.parity[s][u]

    def to_text(self) -> str:
        """Paper-style table: rows are from-states, entries b1b2 or X."""
        S = self.n_states
        labels = [["X"] * S for _ in range(S)]
        for i, j, b1, b2 in self.transitions():
            labels[i][j] = f"{b1}{b2}"
        header = "      " + " ".join(f"e{j + 1:<2}" for j in range(S))
        rows = [
            f"e{i + 1:<4} " + " ".join(f"{labels[i][j]:<3}" for j in range(S))
            for i in range(S)
        ]
        return "\n".join([header] + rows)


def format_mask(mask: int, table: TransitionTable) -> str:
    """``mask`` as the S x S matrix of ``table``'s state pairs: row i,
    column j is 1 where the mask holds the transition i -> j."""
    S = table.n_states
    return "\n".join(
        "".join("1" if mask & table.arc_bit(i, j) else "0" for j in range(S))
        for i in range(S))


class _Memo(dict):
    """The rule memo of a code with more than 8 states: a dict that
    answers None for a mask not met yet, as the list memo does."""

    def __missing__(self, mask):
        return None


class LookupMasks:
    """The 3^2 label-constraint masks of a transition table.

    Indexed by ``(b1, b2)`` with each coordinate in {0, 1, UNKNOWN}.
    ``full`` is the unconstrained adjacency mask, ``info[b]`` keeps only
    transitions with information bit b, ``parity[b]`` only those with
    parity bit b.  ``row_masks[i]`` holds the two transitions leaving
    state i, row i of the state-pair matrix, and ``col_masks[j]`` the two
    entering state j, column j; so ``not mask & row_masks[i]`` tests for
    an all-zero row.

    ``memo[mask]`` is what the decoder derives from a step mask, as
    filled by :meth:`rule`, or None before the mask is first met.  Up to
    8 states it is a list with one slot per subset of ``full``'s 2S
    bits, since a list subscript is the cheapest lookup: 256 slots for
    the (7,5) code, 65,536 (0.5 MiB) for (13,15).  Past 8 states it is
    a dict that answers None for a missing mask, since 100 decoded
    K=1024 words of the 16-state (23,35) code met only about 2,350 of
    its 2^32 subsets.
    """

    def __init__(self, table: TransitionTable):
        S = table.n_states
        self.n_states = S
        self.table = table
        info, parity = [0, 0], [0, 0]
        for i, _, u, p in table.transitions():
            info[u] |= 1 << (2 * i + u)
            parity[p] |= 1 << (2 * i + u)
        self.full = info[0] | info[1]
        self.info, self.parity = tuple(info), tuple(parity)
        # Index UNKNOWN (2) of each list is the unconstrained mask.
        info.append(self.full)
        parity.append(self.full)
        self.by_constraint = {(c1, c2): info[c1] & parity[c2]
                              for c1 in (0, 1, UNKNOWN) for c2 in (0, 1, UNKNOWN)}
        self.row_masks = tuple(3 << (2 * i) for i in range(S))
        self.col_masks = tuple(
            sum(table.arc_bit(i, j) for i in range(S)) for j in range(S)
        )
        self.memo = [None] * (1 << (2 * S)) if S <= 8 else _Memo()

    def rule(self, mask: int) -> tuple[int, int, int]:
        """(keep_left, keep_right, info_bit) of a step mask; fills ``memo``.

        An empty row i of ``mask`` means no surviving transition leaves
        state i, so the previous step must not enter it: ``keep_left``
        ANDs out column i there.  Likewise an empty column j clears row j
        of the next step through ``keep_right``.  Either is 0 when it
        would remove nothing.  ``info_bit`` is b if every transition in
        ``mask`` carries information bit b, else UNKNOWN.
        """
        rows, cols = self.row_masks, self.col_masks
        gone_left = gone_right = 0
        for i in range(self.n_states):
            if not mask & rows[i]:
                gone_left |= cols[i]
            if not mask & cols[i]:
                gone_right |= rows[i]
        info_bit = UNKNOWN
        for b in (0, 1):
            if not mask & ~self.info[b]:
                info_bit = b
                break
        entry = (~gone_left if gone_left else 0,
                 ~gone_right if gone_right else 0, info_bit)
        self.memo[mask] = entry
        return entry

