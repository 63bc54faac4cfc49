"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and the measured campaign values.
"""

from fractions import Fraction

import numpy as np
import pytest

from turbobec import (LookupMasks, RscSpec, Status, TransitionTable,
                      boundary_masks, build_regular_staircase, format_mask,
                      identity_interleaver, make_pr_interleaver,
                      make_turbo_spec, run_campaign, run_trial)
from turbobec.harness import trial_rng
from turbobec.turbo import PARITY1, SYSTEMATIC

from conftest import enumerate_codeword_paths, layout, oracle75, rng_for

RSC75 = RscSpec(0o7, 0o5, 3)
K_BIG = 1024
TRIALS = 1000
BASE_SEED = 99


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def turbo_spec(k, rate=Fraction(1, 3), seed=7):
    return make_turbo_spec(RSC75, k, make_pr_interleaver(k, seed), rate=rate)


@pytest.fixture(scope="module")
def turbo_campaigns():
    return {
        rate: run_campaign(turbo_spec(K_BIG, rate), TRIALS, BASE_SEED)
        for rate in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    }


@pytest.fixture(scope="module")
def ldpc_campaigns():
    return {
        rate: run_campaign(build_regular_staircase(K_BIG, rate, seed=5),
                           TRIALS, BASE_SEED)
        for rate in (Fraction(1, 3), Fraction(2, 3))
    }


def test_golden_structures():
    table = TransitionTable(RSC75)
    masks = LookupMasks(table)
    got = {(i, j): (b1, b2) for i, j, b1, b2 in table.transitions()}
    expect = {(0, 0): (0, 0), (0, 2): (1, 1), (1, 0): (1, 1), (1, 2): (0, 0),
              (2, 1): (1, 0), (2, 3): (0, 1), (3, 1): (0, 1), (3, 3): (1, 0)}
    ok = got == expect
    ok &= format_mask(masks.full, table) == "1010\n1010\n0101\n0101"
    ok &= format_mask(masks.info[0], table) == "1000\n0010\n0001\n0100"
    ok &= format_mask(masks.parity[0], table) == "1000\n0010\n0100\n0001"
    bm = boundary_masks(table, 100)
    ok &= format_mask(bm[0], table) == "1010\n0000\n0000\n0000"
    ok &= format_mask(bm[1], table) == "1010\n0000\n0101\n0000"
    ok &= format_mask(bm[100], table) == "1000\n1000\n0100\n0100"
    ok &= format_mask(bm[101], table) == "1000\n1000\n0000\n0000"
    report("golden structures: transition table, T and M matrices", ok)


def test_formula_identities():
    mu_av, rate = 1.076, Fraction(1, 3)
    p_th = 1.0 - mu_av * float(rate)
    gap = (1.0 - float(rate)) - p_th
    ok = abs(p_th + mu_av * float(rate) - 1.0) < 1e-12
    ok &= abs(p_th - 0.641) < 1e-3
    ok &= abs(gap - 0.025) < 1e-3
    report("formula identities: mu_av=1.076 at R=1/3 gives p_th=0.641, gap~0.025",
           ok, f"p_th={p_th:.6f} gap={gap:.6f}")


def test_turbo_rate_third_inefficiency(turbo_campaigns):
    stats = turbo_campaigns[Fraction(1, 3)]
    ok = 1.07 <= stats.mu_av <= 1.12
    report(f"rate-1/3 turbo K={K_BIG}, {TRIALS} trials: mu_av in [1.07, 1.12]",
           ok, f"mu_av={stats.mu_av:.4f} std={stats.mu_std:.4f}")


def test_ldpc_rate_third_inefficiency(ldpc_campaigns):
    stats = ldpc_campaigns[Fraction(1, 3)]
    ok = 1.13 <= stats.mu_av <= 1.19
    report(f"rate-1/3 regular staircase LDPC K={K_BIG}: mu_av in [1.13, 1.19]",
           ok, f"mu_av={stats.mu_av:.4f}")


def test_ldpc_rate_two_thirds_inefficiency(ldpc_campaigns):
    stats = ldpc_campaigns[Fraction(2, 3)]
    ok = 1.055 <= stats.mu_av <= 1.095
    report(f"rate-2/3 regular staircase LDPC K={K_BIG}: mu_av in [1.055, 1.095]",
           ok, f"mu_av={stats.mu_av:.4f}")


def staircase_bp_threshold(a: int) -> float:
    """The BP erasure threshold eps_BP of the regular staircase ensemble
    with column weight 4 and ``a`` information edges per check (a = 2,
    4, 8 at rates 1/3, 1/2, 2/3), to 1e-6, by density evolution.

    x and y are the erasure probabilities of the messages an
    information and a parity variable send, u that of a check's message
    to an information variable; a parity variable has two checks.
    """
    def decodes(eps):
        x = y = eps
        while x > 1e-12:
            u = 1 - (1 - x) ** (a - 1) * (1 - y) ** 2
            x_next = eps * u ** 3
            y_next = eps * (1 - (1 - x) ** a * (1 - y))
            if x - x_next < 1e-15 and abs(y - y_next) < 1e-15:
                return False  # stuck at a nonzero fixed point
            x, y = x_next, y_next
        return True

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if decodes(mid) else (lo, mid)
    return lo


EPS_BP = {Fraction(1, 3): 0.6144, Fraction(1, 2): 0.4451,
          Fraction(2, 3): 0.2847}


def test_staircase_density_evolution_thresholds():
    got = {rate: staircase_bp_threshold(int(4 * rate / (1 - rate)))
           for rate in EPS_BP}
    ok = all(abs(got[rate] - eps) <= 5e-4 for rate, eps in EPS_BP.items())
    report("density evolution: staircase eps_BP = 0.6144, 0.4451, 0.2847",
           ok, " ".join(f"{rate}: {eps:.4f}" for rate, eps in got.items()))


def test_ldpc_campaigns_above_asymptote(ldpc_campaigns):
    # A K=1024 campaign stays above the ensemble's large-K limit
    # mu_inf = (1 - eps_BP) / R; 0.005 allows for sampling noise.
    ok, details = True, []
    for rate, stats in ldpc_campaigns.items():
        mu_inf = (1 - EPS_BP[rate]) / float(rate)
        ok &= stats.mu_av >= mu_inf - 0.005
        details.append(f"{rate}: mu_av={stats.mu_av:.4f} mu_inf={mu_inf:.4f}")
    report(f"K={K_BIG} LDPC campaigns: mu_av >= (1 - eps_BP)/R - 0.005", ok,
           "; ".join(details))


def test_punctured_turbo_trend(turbo_campaigns):
    third = turbo_campaigns[Fraction(1, 3)].mu_av
    half = turbo_campaigns[Fraction(1, 2)].mu_av
    two_thirds = turbo_campaigns[Fraction(2, 3)].mu_av
    ok = two_thirds < third + 0.02
    ok &= all(mu < 1.15 for mu in (third, half, two_thirds))
    report("punctured turbo trend: mu_av(2/3) < mu_av(1/3)+0.02, all < 1.15",
           ok, f"1/3={third:.4f} 1/2={half:.4f} 2/3={two_thirds:.4f}")


# The campaigns above as a CSV row prints them, recorded while every
# trial still fed each symbol through ``feed``.  An untraced trial now
# receives its first K-1 arrivals as one batch, so these pin that path
# over all 5,000 trials.
PINNED_CAMPAIGNS = {
    ("turbo", Fraction(1, 3)): ("1.099741", "0.064316"),
    ("turbo", Fraction(1, 2)): ("1.088339", "0.067341"),
    ("turbo", Fraction(2, 3)): ("1.080558", "0.050904"),
    ("ldpc", Fraction(1, 3)): ("1.167965", "0.014923"),
    ("ldpc", Fraction(2, 3)): ("1.080253", "0.008858"),
}


def test_acceptance_campaigns_are_pinned(turbo_campaigns, ldpc_campaigns):
    got = {(family, rate): (f"{stats.mu_av:.6f}", f"{stats.mu_std:.6f}")
           for family, campaigns in (("turbo", turbo_campaigns),
                                     ("ldpc", ldpc_campaigns))
           for rate, stats in campaigns.items()}
    report(f"K={K_BIG} campaigns: mu_av and mu_std equal their recorded "
           f"values", got == PINNED_CAMPAIGNS,
           "; ".join(f"{family} {rate}: {mu} {std}"
                     for (family, rate), (mu, std) in got.items()))


def test_single_trellis_oracle_equivalence(oracle75):
    # Identity interleaver: the second trellis forces no information
    # bit, so chain 0 is the closure of one terminated trellis.
    k = 8
    spec = make_turbo_spec(RSC75, k, identity_interleaver(k))
    paths = enumerate_codeword_paths(oracle75, k)
    rng = rng_for(2025, 1)
    ok = True
    for _ in range(200):
        truth = paths[int(rng.integers(0, 1 << k))]
        positions = {(int(rng.integers(0, k)), int(rng.integers(0, 2)))
                     for _ in range(int(rng.integers(0, 2 * k + 1)))}
        received = [(t, pos, truth[1][t][pos]) for t, pos in positions]
        dec = spec.start_decoder()
        for t, pos, b in received:
            dec.receive(layout(spec).index(((SYSTEMATIC, PARITY1)[pos], t)), b)
        survivors = [
            (info, states) for info, labels, states in paths
            if all(labels[t][pos] == b for t, pos, b in received)
        ]
        for t in range(k + 2):
            expect = 0
            for _, states in survivors:
                expect |= spec.table.arc_bit(states[t], states[t + 1])
            ok &= dec.masks[0][t] == expect
        for t in range(k):
            agreed = {info[t] for info, _ in survivors}
            want = agreed.pop() if len(agreed) == 1 else None
            ok &= dec.determined_bits()[t] == want
        if not ok:
            break
    report("oracle equivalence: 200 single-trellis closures match "
           "path enumeration", ok)


def test_turbo_soundness_oracle():
    rng = rng_for(2025, 2)
    ok = True
    for _ in range(200):
        spec = turbo_spec(8, seed=int(rng.integers(0, 1 << 16)))
        info = rng.integers(0, 2, 8, dtype=np.uint8)
        cw = spec.encode(info)
        dec = spec.start_decoder()
        for idx in rng.permutation(spec.N):
            out = dec.receive(int(idx), int(cw[int(idx)]))
            ok &= all(b is None or b == info[t]
                      for t, b in enumerate(dec.determined_bits()))
            if out is Status.SUCCESS or not ok:
                break
        if not ok:
            break
    report("oracle equivalence: 200 turbo decodes sound after every reception", ok)


def test_order_independence():
    rng = rng_for(2025, 3)
    ok = True
    for _ in range(50):
        spec = turbo_spec(8, seed=int(rng.integers(0, 1 << 16)))
        info = rng.integers(0, 2, 8, dtype=np.uint8)
        cw = spec.encode(info)
        subset = [int(x) for x in
                  rng.permutation(spec.N)[: int(rng.integers(1, spec.N + 1))]]
        finals = []
        for _ in range(10):
            order = list(subset)
            rng.shuffle(order)
            dec = spec.start_decoder()
            for idx in order:
                dec.receive(idx, int(cw[idx]))
            finals.append((dec.masks[0], dec.masks[1],
                           tuple(dec.determined_bits())))
        ok &= all(f == finals[0] for f in finals)
        if not ok:
            break
    report("order independence: 50 instances x 10 reception orders", ok)


def test_completion_and_bounds():
    ok = True
    for rate in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        spec = turbo_spec(64, rate)
        for i in range(25):
            rec = run_trial(spec, 17, i)
            ok &= spec.K <= rec.r_stop <= spec.N
    code = build_regular_staircase(64, Fraction(1, 2), seed=3)
    for i in range(25):
        rec = run_trial(code, 17, i)
        ok &= code.K <= rec.r_stop <= code.N
    # full reception always succeeds
    rng = rng_for(2025, 4)
    for _ in range(10):
        spec = turbo_spec(16, seed=int(rng.integers(0, 1 << 16)))
        info = rng.integers(0, 2, 16, dtype=np.uint8)
        cw = spec.encode(info)
        dec = spec.start_decoder()
        out = dec.outcome()
        for i in range(spec.N):
            out = dec.receive(i, int(cw[i]))
        ok &= out is Status.SUCCESS
    report("completion and bounds: K <= r_stop <= N, full reception succeeds", ok)


def test_round_trips():
    rng = rng_for(2025, 5)
    ok = True
    for rate in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        spec = turbo_spec(32, rate)
        info = rng.integers(0, 2, 32, dtype=np.uint8)
        cw = spec.encode(info)
        dec = spec.start_decoder()
        for i in range(spec.N):
            dec.receive(i, int(cw[i]))
        ok &= dec.determined_bits() == list(info)
    for rate in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        code = build_regular_staircase(48, rate, seed=11)
        info = rng.integers(0, 2, 48, dtype=np.uint8)
        cw = code.encode(info)
        h = code.parity_check_matrix()
        ok &= not (h @ cw % 2).any()
        dec = code.start_decoder()
        for v in range(code.N):
            dec.receive(v, int(cw[v]))
        ok &= dec.determined_bits() == list(info)
    report("round trips: encode->decode identity (turbo, LDPC), H.c = 0", ok)
