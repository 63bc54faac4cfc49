"""Trellis model of rate-1/2 recursive systematic convolutional (RSC) codes.

Derives the state-transition table of an RSC constituent from its octal
generator polynomials, precomputes the 3^2 label-constraint lookup
masks used by the erasure decoder, and builds the boundary masks of a
terminated trellis.

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

    def taps(self, poly: int) -> tuple[int, ...]:
        """Coefficients of D^0 .. D^(L-1), low degree first."""
        L = self.constraint_length
        return tuple((poly >> (L - 1 - i)) & 1 for i in range(L))

    def step(self, state: int, info_bit: int) -> tuple[int, int]:
        """One shift-register step: returns (next_state, parity_bit).

        The register is read MSB-first, newest bit highest, so state i is
        the paper-style label e_{i+1} written in binary.
        """
        L = self.constraint_length
        f = self.taps(self.feedback_poly)
        g = self.taps(self.forward_poly)
        regs = [(state >> (L - 1 - i)) & 1 for i in range(1, L)]  # s_1 .. s_{L-1}
        a = info_bit
        for i in range(1, L):
            a ^= f[i] & regs[i - 1]
        parity = g[0] & a
        for i in range(1, L):
            parity ^= g[i] & regs[i - 1]
        next_state = (a << (L - 2)) | (state >> 1)
        return next_state, parity


class TransitionTable:
    """All state transitions of an RSC code between two trellis steps.

    ``next_state[s][u]`` and ``parity[s][u]`` describe the transition
    taken from state ``s`` on information bit ``u``; the label is
    ``(u, parity[s][u])``.
    """

    def __init__(self, spec: RscSpec):
        self.spec = spec
        S = spec.n_states
        self.n_states = S
        self.next_state = [[0, 0] for _ in range(S)]
        self.parity = [[0, 0] for _ in range(S)]
        for s in range(S):
            for u in (0, 1):
                nxt, p = spec.step(s, u)
                self.next_state[s][u] = nxt
                self.parity[s][u] = p
        indeg = [0] * S
        for s in range(S):
            if self.next_state[s][0] == self.next_state[s][1]:
                raise ValueError("degenerate recursion: both inputs reach one state")
            for u in (0, 1):
                indeg[self.next_state[s][u]] += 1
        if any(d != 2 for d in indeg):
            raise ValueError("transition table is not 2-in/2-out")

    def transitions(self):
        """Yields (from_state, to_state, info_bit, parity_bit)."""
        for s in range(self.n_states):
            for u in (0, 1):
                yield s, self.next_state[s][u], u, self.parity[s][u]

    def termination_input(self, state: int) -> int:
        """Information bit that shifts a zero into the register."""
        target = state >> 1
        for u in (0, 1):
            if self.next_state[state][u] == target:
                return u
        raise AssertionError("no zero-driving input; recursion is broken")

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
