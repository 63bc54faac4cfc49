"""Monte-Carlo inefficiency measurement.

A trial encodes a uniform random information word and feeds the codeword
symbols to the decoder in a uniform random order; r_stop is the number
of symbols consumed when decoding first succeeds, and mu = r_stop / K.
Campaign aggregates give the average inefficiency, the estimated
recovery threshold p_th = 1 - mu_av * R_c, and the gap to the channel
capacity p = 1 - R_c.

Per-trial seeds are SeedSequence([base_seed, trial_index]), so campaigns
are reproducible and order-independent under any parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .decoder import Status


@dataclass(frozen=True)
class TrialRecord:
    seed_index: int
    r_stop: int
    mu: float


@dataclass(frozen=True)
class RunStats:
    trials: int
    rate: Fraction
    mu_av: float
    mu_std: float

    @property
    def p_th_est(self) -> float:
        return 1.0 - self.mu_av * float(self.rate)

    @property
    def capacity_p(self) -> float:
        return 1.0 - float(self.rate)

    @property
    def gap(self) -> float:
        return self.capacity_p - self.p_th_est


def trial_rng(base_seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([base_seed, index])))


def run_trial(code, base_seed: int, index: int = 0,
              trace: list | None = None) -> TrialRecord:
    """One seeded encode / random-arrival decode; records r_stop.

    ``code`` is any object with K, N, encode() and start_decoder(),
    i.e. a TurboCodeSpec or a StaircaseCode.  The whole arrival order
    goes to one ``receive_many`` call, and r_stop is the count of
    symbols it took.  ``trace``, if given, collects the decoder's
    known_count() (determined information bits) after each reception,
    so the symbols then go in one per call.
    """
    rng = trial_rng(base_seed, index)
    info = rng.integers(0, 2, code.K, dtype=np.uint8)
    codeword = code.encode(info)
    order = rng.permutation(code.N)
    symbols, values = order.tolist(), codeword[order].tolist()
    decoder = code.start_decoder()
    if trace is None:
        r_stop = decoder.receive_many(symbols, values)
    else:
        r_stop = 0
        for sym, value in zip(symbols, values):
            r_stop += decoder.receive_many((sym,), (value,))
            trace.append(decoder.known_count())
            if decoder.outcome().status is not Status.IN_PROGRESS:
                break
    status = decoder.outcome().status
    if status is Status.CONTRADICTION:
        raise RuntimeError(
            "contradiction while decoding a genuine codeword; decoder bug"
        )
    if status is not Status.SUCCESS:
        raise RuntimeError("full reception did not reach success; decoder bug")
    return TrialRecord(index, r_stop, r_stop / code.K)


def run_campaign(code, trials: int, base_seed: int) -> RunStats:
    if trials < 1:
        raise ValueError("need at least one trial")
    mus = [run_trial(code, base_seed, i).mu for i in range(trials)]
    mu_av = sum(mus) / trials
    if trials > 1:
        var = sum((m - mu_av) ** 2 for m in mus) / (trials - 1)
    else:
        var = 0.0
    return RunStats(trials, code.rate, mu_av, math.sqrt(var))


CSV_HEADER = "code,rate,K,interleaver,trials,base_seed,mu_av,mu_std,p_th_est,gap"


def stats_row(code_name: str, rate: Fraction, k: int, interleaver: str,
              trials: int, base_seed: int, stats: RunStats) -> str:
    return ",".join([
        code_name,
        f"{rate.numerator}/{rate.denominator}",
        str(k),
        interleaver,
        str(trials),
        str(base_seed),
        f"{stats.mu_av:.6f}",
        f"{stats.mu_std:.6f}",
        f"{stats.p_th_est:.6f}",
        f"{stats.gap:.6f}",
    ])


def sweep(code_factory, k_list, rate_list, code_names, trials: int,
          base_seed: int) -> list[str]:
    """Cartesian product of sizes, rates and code families, as CSV rows.

    ``code_factory(code_name, k, rate)`` builds the code under test.
    """
    rows = [CSV_HEADER]
    for name in code_names:
        for rate in rate_list:
            for k in k_list:
                code, interleaver_tag = code_factory(name, k, Fraction(rate))
                stats = run_campaign(code, trials, base_seed)
                rows.append(stats_row(name, Fraction(rate), k, interleaver_tag,
                                      trials, base_seed, stats))
    return rows
