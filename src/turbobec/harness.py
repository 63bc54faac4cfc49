"""Monte-Carlo inefficiency measurement.

A trial feeds the symbols of a codeword to the decoder in a uniform
random order; r_stop is the number of symbols consumed when decoding
first succeeds, and mu = r_stop / K.  On the erasure channel a trial is
its arrival order, so it feeds the all-zero codeword; it still draws a
uniform information word first, which keeps every seed's r_stop and
every CSV byte-identical to those of a trial that encodes that word.
Campaign aggregates give the average inefficiency, the estimated
recovery threshold p_th = 1 - mu_av * R_c, and the gap to the channel
capacity p = 1 - R_c.

Both code families have dimension K, so no decode ends on fewer than K
symbols: r_stop >= K.  An untraced trial therefore receives its first
K-1 arrivals, the held prefix, as one checked batch, and feeds the rest
one symbol at a time.  Removals only shrink a decoder's state, so the
order of the held receptions does not matter, and r_stop is the one a
trial that feeds every symbol finds.

Per-trial seeds are SeedSequence([base_seed, trial_index]), so campaigns
are reproducible and order-independent under any parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

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
    return np.random.default_rng([base_seed, index])


def run_trial(code, base_seed: int, index: int = 0,
              trace: list | None = None) -> TrialRecord:
    """One seeded random-arrival decode; records r_stop.

    ``code`` is any object with K, N and start_decoder(), i.e. a
    TurboCodeSpec or a StaircaseCode.  A trial is its arrival order: the
    codes are linear and the channel erases, so what a prefix of
    arrivals determines depends on its positions alone, never on the
    word sent.  The trial therefore feeds the all-zero codeword.  It
    still draws the uniform information word first, so each seed's
    random stream, and with it the arrival order, is the one a genuine
    word's trial would use, and CSVs stay byte-identical.

    K-1 symbols determine at most K-1 of the K free information bits, so
    no decode ends within the first K-1 arrivals.  Without ``trace``,
    those arrivals, the held prefix, go to the decoder as one checked
    batch; the decode ending within them is a decoder bug and raises
    RuntimeError.  The rest of the order goes to the decoder's ``feed``
    one symbol at a time, and r_stop counts the held arrivals and the
    symbols ``feed`` took before it stopped.  ``trace``, if given,
    collects the decoder's known_count() (determined information bits)
    after each reception, and then every symbol goes through ``feed``.
    """
    rng = trial_rng(base_seed, index)
    rng.integers(0, 2, code.K, dtype=np.uint8)  # drawn to keep the seed's stream
    order = rng.permutation(code.N)
    decoder = code.start_decoder()
    held = 0 if trace is not None else code.K - 1
    if held:
        decoder._receive_batch(order[:held], np.zeros(held, np.intp))
        if decoder.outcome() in (Status.SUCCESS, Status.CONTRADICTION):
            raise RuntimeError(f"the decode ended within the first {held} "
                               f"symbols, fewer than K; decoder bug")
    for r in decoder.feed(zip(order[held:].tolist(), repeat(0))):
        if trace is not None:
            trace.append(decoder.known_count())
    status = decoder.outcome()
    if status is Status.CONTRADICTION:
        raise RuntimeError("contradiction while decoding a codeword; decoder bug")
    if status is not Status.SUCCESS:
        raise RuntimeError("full reception did not reach success; decoder bug")
    r_stop = held + r
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


def stats_row(code_name: str, k: int, interleaver: str, base_seed: int,
              stats: RunStats) -> str:
    return ",".join([
        code_name,
        f"{stats.rate.numerator}/{stats.rate.denominator}",
        str(k),
        interleaver,
        str(stats.trials),
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
    Every point's code is built before any campaign runs, so a point that
    cannot be built fails the sweep before it spends any trials.  Each
    point is dropped once its campaign is done, and with it the tables
    its trials built, so a sweep holds one point's tables at a time.
    """
    points = [(name, k, *code_factory(name, k, Fraction(rate)))
              for name in code_names for rate in rate_list for k in k_list]
    points.reverse()
    rows = [CSV_HEADER]
    while points:
        name, k, code, interleaver_tag = points.pop()
        rows.append(stats_row(name, k, interleaver_tag, base_seed,
                              run_campaign(code, trials, base_seed)))
    return rows
