"""Shared independent oracles and helpers for the test suite.

Everything here re-derives RSC behaviour from first principles (explicit
shift registers, exhaustive path enumeration and forward-backward
trellis pruning) without touching the library's transition tables, and
staircase peeling from explicit edge sets, read off the rows of the
code's parity-check matrix, without the decoder's Tanner graph or
counters, so the two sides of each comparison stay independent.  The
helpers at the end (a turbo test code, a spec's layout, seeded
generators, a trial that decodes the genuine codeword) use the library
and are not oracles.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from turbobec import RscSpec, Status, make_pr_interleaver, make_turbo_spec
from turbobec.harness import trial_rng


def octal_taps(poly_octal: int, length: int) -> list[int]:
    """Octal digits MSB-first -> coefficient list for D^0 .. D^(L-1)."""
    bits = format(poly_octal, "b").zfill(length)
    return [int(c) for c in bits]


class RegisterOracle:
    """Plain shift-register simulation of a rate-1/2 RSC code.

    The register is a list [s_1, ..., s_{L-1}], s_1 newest.
    """

    def __init__(self, feedback_octal: int, forward_octal: int, length: int):
        self.f = octal_taps(feedback_octal, length)
        self.g = octal_taps(forward_octal, length)
        self.length = length

    def step(self, regs: list[int], u: int) -> tuple[list[int], int]:
        a = u
        for tap, s in zip(self.f[1:], regs):
            a ^= tap & s
        parity = self.g[0] & a
        for tap, s in zip(self.g[1:], regs):
            parity ^= tap & s
        return [a] + regs[:-1], parity

    def state_index(self, regs: list[int]) -> int:
        idx = 0
        for s in regs:
            idx = (idx << 1) | s
        return idx

    def transitions(self) -> dict[tuple[int, int], tuple[int, int]]:
        """(from_state, to_state) -> (info_bit, parity_bit)."""
        out = {}
        m = self.length - 1
        for state in range(1 << m):
            regs = [(state >> (m - 1 - i)) & 1 for i in range(m)]
            for u in (0, 1):
                nxt, p = self.step(list(regs), u)
                out[(state, self.state_index(nxt))] = (u, p)
        return out

    def terminated_parity(self, info) -> tuple[list[int], list[int]]:
        """(parity bits of the info steps, termination info bits)."""
        regs = [0] * (self.length - 1)
        parity = []
        for u in info:
            regs, p = self.step(regs, int(u))
            parity.append(p)
        tail = []
        for _ in range(self.length - 1):
            # Zero-driving input cancels the feedback sum.
            u = 0
            for tap, s in zip(self.f[1:], regs):
                u ^= tap & s
            tail.append(u)
            regs, _ = self.step(regs, u)
        assert all(s == 0 for s in regs)
        return parity, tail


def enumerate_codeword_paths(oracle: RegisterOracle, k: int):
    """All 2^k terminated trellis paths as (info, labels, state_sequence).

    labels[t] = (b1, b2) for every step including the termination tail;
    states has one entry per trellis node, zero at both ends.
    """
    out = []
    for word in range(1 << k):
        info = [(word >> t) & 1 for t in range(k)]
        regs = [0] * (oracle.length - 1)
        states = [0]
        labels = []
        _, tail = oracle.terminated_parity(info)
        for u in info + tail:
            regs, p = oracle.step(regs, u)
            labels.append((u, p))
            states.append(oracle.state_index(regs))
        out.append((info, labels, states))
    return out


def trellis_fixpoint(oracle: RegisterOracle, pi, received, arc_bit):
    """Forward-backward closure of a turbo code's two trellises.

    ``received`` maps (stream, t) to a bit: stream 0 is information
    position t, streams 1 and 2 are the parity bits of step t of the
    first and second trellis.  The second trellis carries information
    position ``pi[t]`` at step t.  Each trellis has len(pi) information
    steps and L-1 tail steps with unconstrained labels.

    Alternates between the trellises until two passes in a row force no
    new bit.  A pass prunes one trellis to the arcs that lie on a path
    from state 0 to state 0 agreeing with its received parities and the
    known information bits, then records each bit on which all surviving
    arcs of its step agree.  Returns (masks, bits): per trellis the
    surviving arcs of each step as an int, the OR of ``arc_bit(i, j)``
    over its arcs i -> j, and per position the known bit or None.
    """
    k = len(pi)
    n_steps = k + oracle.length - 1
    arcs = {}  # (info bit or None, parity bit or None) -> allowed arcs
    for (i, j), (u, p) in oracle.transitions().items():
        for key in ((u, p), (u, None), (None, p), (None, None)):
            arcs.setdefault(key, []).append((i, j, u))
    bits = [received.get((0, t)) for t in range(k)]
    positions = (range(k), pi)
    masks = [None, None]
    d = idle = 0  # idle: passes in a row that forced no new bit
    while idle < 2:
        pos = positions[d]
        allowed = [arcs[(bits[pos[t]], received.get((d + 1, t)))]
                   for t in range(k)] + [arcs[(None, None)]] * (n_steps - k)
        reach = [1]  # per node, the states a path from state 0 can be in
        for step in allowed:
            r, nxt = reach[-1], 0
            for i, j, _ in step:
                if r >> i & 1:
                    nxt |= 1 << j
            reach.append(nxt)
        alive = 1  # the states at node t + 1 on a path to the end state 0
        chain = [0] * n_steps
        forced = False
        for t in reversed(range(n_steps)):
            r, back, mask, seen = reach[t], 0, 0, set()
            for i, j, u in allowed[t]:
                if r >> i & 1 and alive >> j & 1:
                    mask |= arc_bit(i, j)
                    back |= 1 << i
                    seen.add(u)
            chain[t], alive = mask, back
            if t < k and len(seen) == 1 and bits[pos[t]] is None:
                bits[pos[t]] = seen.pop()
                forced = True
        masks[d] = chain
        idle = 0 if forced else idle + 1
        d = 1 - d
    return masks, bits


def peel_oracle(code, received):
    """Edge-removal peeling, reimplemented from scratch.

    Keeps explicit residual edge sets per check, taken from the rows of
    ``code.parity_check_matrix()``, and strips them as variables become
    known; independent of the count-based decoder and its graph.
    """
    values = dict(received)
    edges = {i: set(np.flatnonzero(row).tolist())
             for i, row in enumerate(code.parity_check_matrix())}
    acc = {i: 0 for i in range(code.M)}
    changed = True
    while changed:
        changed = False
        for i in range(code.M):
            known = [v for v in edges[i] if v in values]
            for v in known:
                acc[i] ^= values[v]
                edges[i].discard(v)
                changed = True
            if len(edges[i]) == 1:
                (v,) = edges[i]
                if v not in values:
                    values[v] = acc[i]
                    changed = True
    return values


@pytest.fixture(scope="session")
def oracle75() -> RegisterOracle:
    return RegisterOracle(7, 5, 3)


@pytest.fixture(scope="session")
def paths75_k8(oracle75):
    return enumerate_codeword_paths(oracle75, 8)


def turbo_spec(k, rate=Fraction(1, 3), seed=1):
    """The (7,5) turbo code of K = ``k`` at ``rate`` with the
    pseudo-random interleaver of ``seed``."""
    return make_turbo_spec(RscSpec(0o7, 0o5, 3), k,
                           make_pr_interleaver(k, seed), rate=rate)


def layout(spec) -> list[tuple[int, int]]:
    """The (stream, step) pair of each transmitted symbol of a turbo
    spec, in transmission order."""
    return list(zip(spec.streams, spec.steps))


def rng_for(*seed) -> np.random.Generator:
    return np.random.default_rng(list(seed))


def genuine_trial(code, base_seed, index, trace):
    """A trial that decodes the genuine codeword: the same seeded draws
    as ``run_trial``, the information word encoded, and each symbol fed
    with its value.  Returns r_stop and fills ``trace`` with the
    decoder's known_count() after each reception."""
    rng = trial_rng(base_seed, index)
    codeword = code.encode(rng.integers(0, 2, code.K, dtype=np.uint8))
    order = rng.permutation(code.N)
    decoder = code.start_decoder()
    for r_stop in decoder.feed(zip(order.tolist(), codeword[order].tolist(),
                                   strict=True)):
        trace.append(decoder.known_count())
    assert decoder.outcome() is Status.SUCCESS
    return r_stop
