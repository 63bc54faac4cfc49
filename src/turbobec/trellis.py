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

A transition mask is stored as a plain int: entry (i, j) of the
state-to-state matrix is bit ``i * n_states + j``.  The decoding loop is
logical ANDs plus the all-zero row/column checks of ``LookupMasks.rule``,
which run once per distinct mask and are looked up after that.
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


def format_mask(mask: int, n_states: int) -> str:
    rows = []
    for i in range(n_states):
        row = (mask >> (i * n_states)) & ((1 << n_states) - 1)
        rows.append("".join(str((row >> j) & 1) for j in range(n_states)))
    return "\n".join(rows)


class LookupMasks:
    """The 3^2 label-constraint masks of a transition table.

    Indexed by ``(b1, b2)`` with each coordinate in {0, 1, UNKNOWN}.
    ``full`` is the unconstrained adjacency mask, ``info[b]`` keeps only
    transitions with information bit b, ``parity[b]`` only those with
    parity bit b.  ``row_masks[i]`` and ``col_masks[j]`` select row i and
    column j, so ``not mask & row_masks[i]`` tests for an all-zero row.

    ``memo`` maps a step mask to what the decoder derives from it, as
    filled by :meth:`rule`.  It starts empty and grows by one entry per
    distinct mask met.  100 decoded K=1024 words met 50 of the 256
    subsets of ``full`` for the (7,5) code, 298 of 65,536 for (13,15)
    and about 2,350 for the 16-state (23,35) code, so no table over all
    subsets is ever built.
    """

    def __init__(self, table: TransitionTable):
        S = table.n_states
        self.n_states = S
        self.table = table
        by = {}
        for c1 in (0, 1, UNKNOWN):
            for c2 in (0, 1, UNKNOWN):
                m = 0
                for i, j, b1, b2 in table.transitions():
                    if c1 in (b1, UNKNOWN) and c2 in (b2, UNKNOWN):
                        m |= 1 << (i * S + j)
                by[(c1, c2)] = m
        self.by_constraint = by
        self.full = by[(UNKNOWN, UNKNOWN)]
        self.info = (by[(0, UNKNOWN)], by[(1, UNKNOWN)])
        self.parity = (by[(UNKNOWN, 0)], by[(UNKNOWN, 1)])
        full_row = (1 << S) - 1
        self.row_masks = tuple(full_row << (i * S) for i in range(S))
        self.col_masks = tuple(
            sum(1 << (i * S + j) for i in range(S)) for j in range(S)
        )
        self.memo: dict[int, tuple[int, int, int]] = {}

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

