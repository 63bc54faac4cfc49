"""The batch that receives a trial's held prefix, ``_receive_batch``, and
the untraced ``run_trial`` that uses it.

A batch takes only what a trial gives it: the all-zero word at distinct
positions of a decoder that has received nothing.  It refuses anything
else with a ValueError of its own and no state changed.  Settled, it
leaves a decoder where the same pairs fed one at a time leave it, so an
untraced trial, which receives its first K-1 arrivals as one batch,
stops where a traced one, which feeds every symbol, stops.
"""

import gc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from turbobec import (RscSpec, harness, build_irregular_staircase,
                      build_regular_staircase, make_pr_interleaver,
                      make_turbo_spec, run_trial)
from turbobec.cli import load_degree_distribution

from conftest import rng_for
from test_receive_many import BUILDERS, instance, snapshot, take

FAMILIES = {
    **BUILDERS,
    "turbo75-r23": lambda seed: make_turbo_spec(
        RscSpec(0o7, 0o5, 3), 64, make_pr_interleaver(64, seed),
        rate=Fraction(2, 3)),
    "ldpc-r23": lambda seed: build_regular_staircase(64, Fraction(2, 3), seed),
}
IRREGULAR = Path(__file__).resolve().parents[1] / "configs" / "irregular_example.txt"
REFUSED = "a batch takes a 1-D integer array of distinct indices"


def state(dec):
    """``snapshot`` with the whole slot list, sentinel included, and the
    decoder's undetermined count and contradiction flag."""
    return (snapshot(dec), list(getattr(dec, "_slots", ())), dec.unknown,
            dec.contradiction)


# Each case: the indices of a batch, from an arrival order o of a code
# of length n, and their array's dtype.
FAULTS = {
    "float-index": (lambda o, n: [o[0], o[1]], float),
    "object-index": (lambda o, n: [o[0], o[1]], object),
    "string-index": (lambda o, n: [o[0], "7"], str),
    "bool-index": (lambda o, n: [True, False], bool),
    "two-d": (lambda o, n: [[o[0], o[1]]], np.intp),
    "negative": (lambda o, n: [o[0], -1, o[1]], np.int64),
    "too-big": (lambda o, n: [o[0], o[1], n], np.intp),
    "huge": (lambda o, n: [o[0], 2**63 + 5], np.uint64),
    "repeat": (lambda o, n: [o[0], o[1], o[0]], np.intp),
    "repeat-uint8": (lambda o, n: [1, 1], np.uint8),
    # Two faults at once: still the batch's own ValueError, so the range
    # check runs before ``bincount``, which refuses a negative entry with
    # numpy's text.
    "repeat-before-range": (lambda o, n: [o[0], o[0], n], np.intp),
    "range-before-repeat": (lambda o, n: [o[0], -1, o[0]], np.int64),
}


@pytest.mark.parametrize("family", BUILDERS)
@pytest.mark.parametrize("fault", FAULTS)
def test_a_bad_batch_raises_and_changes_nothing(family, fault):
    code, _, order = instance(BUILDERS[family], rng_for(98), flips=0)
    pick, dtype = FAULTS[fault]
    dec = code.start_decoder()
    before = state(dec)
    with pytest.raises(ValueError, match=REFUSED):
        dec._receive_batch(np.array(pick(order, code.N), dtype=dtype))
    assert state(dec) == before


@pytest.mark.parametrize("family", BUILDERS)
@pytest.mark.parametrize("earlier", ["received", "contradiction", "batched"])
def test_a_batch_on_a_decoder_that_received_raises(family, earlier):
    # Five pairs of the word received one at a time, then, for
    # ``contradiction``, flipped symbols up to the first contradiction;
    # or, for ``batched``, five zeros received as a batch.
    code, cw, order = instance(BUILDERS[family], rng_for(99), flips=0)
    dec = code.start_decoder()
    if earlier == "batched":
        dec._receive_batch(np.array(order[:5], np.intp))
    else:
        take(dec, order[:5], [cw[i] for i in order[:5]])
    for idx in order[5:] if earlier == "contradiction" else ():
        dec.receive(idx, 1 - cw[idx])
        if dec.contradiction:
            break
    assert dec.contradiction is (earlier == "contradiction")
    before = state(dec)
    rest = [i for i in order if not dec._received[i]]
    for indices in (rest[:3], []):
        with pytest.raises(ValueError, match=REFUSED):
            dec._receive_batch(np.array(indices, np.intp))
        assert state(dec) == before


@pytest.mark.parametrize("family", FAMILIES)
def test_a_batch_reaches_the_state_of_one_pair_at_a_time(family):
    # Batches of the zero word on fresh decoders, of sizes up to the
    # whole word; a batch of K or more symbols can end the decode.
    rng = rng_for(101, list(FAMILIES).index(family))
    for _ in range(12):
        code, _, order = instance(FAMILIES[family], rng, flips=0)
        for h in (0, 1, code.K - 1, code.K, code.N):
            one = code.start_decoder()
            for idx in order[:h]:
                one.receive(idx, 0)
            batch = code.start_decoder()
            batch._receive_batch(np.array(order[:h], np.intp))
            assert state(batch) == state(one)
            kept = getattr(batch, "values", []) + getattr(batch, "_acc", [])
            assert all(type(v) is int for v in kept if v is not None)
            # The decode goes on from the batch as from the pairs fed singly.
            rest, zeros = order[h:], [0] * (code.N - h)
            assert take(batch, rest, zeros) == take(one, rest, zeros)
            assert state(batch) == state(one)


@pytest.mark.parametrize("family", BUILDERS)
def test_an_empty_batch_changes_nothing(family):
    dec = BUILDERS[family](102).start_decoder()
    before = state(dec)
    for dtype in (np.intp, np.uint8):
        dec._receive_batch(np.array([], dtype))
        assert state(dec) == before


TRIAL_CODES = {
    **FAMILIES,
    "turbo1315-r13": lambda seed: make_turbo_spec(
        RscSpec(0o13, 0o15, 4), 64, make_pr_interleaver(64, seed)),
    "irregular-r12": lambda seed: build_irregular_staircase(
        64, Fraction(1, 2), load_degree_distribution(IRREGULAR), seed),
    "turbo75-k1": lambda seed: make_turbo_spec(
        RscSpec(0o7, 0o5, 3), 1, make_pr_interleaver(1, seed)),
    "turbo75-k2": lambda seed: make_turbo_spec(
        RscSpec(0o7, 0o5, 3), 2, make_pr_interleaver(2, seed)),
}


@pytest.mark.parametrize("family", TRIAL_CODES)
def test_untraced_trials_stop_where_traced_ones_do(family):
    # A traced trial feeds every symbol through ``feed``; an untraced one
    # first receives its K-1 held arrivals as one batch.
    code = TRIAL_CODES[family](5)
    for index in range(40):
        trace = []
        traced = run_trial(code, 17, index, trace=trace)
        untraced = run_trial(code, 17, index)
        assert untraced == traced
        assert len(trace) == traced.r_stop >= code.K


class DecodesEarly:
    """A code whose decoders end their decode within the held prefix,
    in success or in a contradiction."""

    def __init__(self, code, contradiction):
        self.code, self.contradiction = code, contradiction
        self.K, self.N = code.K, code.N

    def start_decoder(self):
        dec = self.code.start_decoder()
        receive_batch = dec._receive_batch

        def broken(indices):
            receive_batch(indices)
            if self.contradiction:
                dec.contradiction = True
            else:
                dec.unknown = 0

        dec._receive_batch = broken
        return dec


@pytest.mark.parametrize("family", BUILDERS)
@pytest.mark.parametrize("contradiction", [False, True],
                         ids=["success", "contradiction"])
def test_a_decode_that_ends_in_the_held_prefix_raises(family, contradiction):
    code = DecodesEarly(BUILDERS[family](3), contradiction)
    with pytest.raises(RuntimeError, match="within the first 63 symbols"):
        run_trial(code, 1, 0)
    # A traced trial takes no batch, so the stub decodes as the code does.
    assert run_trial(code, 1, 0, trace=[]) == run_trial(code.code, 1, 0)


def settles_nothing(ops):
    """A ``_propagate`` that takes every op and determines nothing."""
    while True:
        yield


class FailsAfterThePrefix:
    """A code whose decoders, past the held prefix, end the decode in a
    contradiction at their first reception, or settle nothing and so run
    out of symbols without success."""

    def __init__(self, code, contradiction):
        self.code, self.contradiction = code, contradiction
        self.K, self.N = code.K, code.N

    def start_decoder(self):
        dec = self.code.start_decoder()
        if not self.contradiction:
            dec._propagate = settles_nothing
            return dec
        feed = dec.feed

        def contradicting(pairs):
            for r in feed(pairs):
                dec.contradiction = True
                yield r

        dec.feed = contradicting
        return dec


@pytest.mark.parametrize("family", BUILDERS)
@pytest.mark.parametrize("trace", [None, []], ids=["untraced", "traced"])
@pytest.mark.parametrize("contradiction, message", [
    (True, "contradiction while decoding a codeword; decoder bug"),
    (False, "full reception did not reach success; decoder bug"),
], ids=["contradiction", "runs-out"])
def test_a_decode_that_fails_after_the_held_prefix_raises(
        family, trace, contradiction, message):
    code = FailsAfterThePrefix(BUILDERS[family](3), contradiction)
    with pytest.raises(RuntimeError, match=message):
        run_trial(code, 1, 0, trace=trace)


@pytest.mark.parametrize("family", ["turbo75", "turbo1315", "turbo75-r23"])
def test_the_turbo_op_table_is_built_at_the_first_reception(family):
    # ``start_decoder`` does not build it, so a code's set-up does not
    # pay for it; then every decoder of the code shares it.
    code = FAMILIES[family](4)
    dec = code.start_decoder()
    assert "_reception_table" not in vars(code)
    dec.receive(0, 0)
    table = vars(code)["_reception_table"]
    run_trial(code, 1, 0)
    assert vars(code)["_reception_table"] is table
    assert len(table) == 2 * code.N


def test_a_sweep_drops_each_point_after_its_campaign(monkeypatch):
    # A turbo code keeps its op table, so a sweep that held every point
    # to its end would hold every point's table at once.
    refs = []

    def factory(name, k, rate):
        code = make_turbo_spec(RscSpec(0o7, 0o5, 3), k,
                               make_pr_interleaver(k, 1), rate=rate)
        refs.append(weakref.ref(code))
        return code, "pr:1"

    alive, campaign = [], harness.run_campaign

    def counting(code, trials, base_seed):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        return campaign(code, trials, base_seed)

    monkeypatch.setattr(harness, "run_campaign", counting)
    rows = harness.sweep(factory, [8, 16], ["1/3", "1/2"], ["turbo"], 2, 1)
    assert len(rows) == 5 and alive == [4, 3, 2, 1]
