"""The batch that receives a trial's held prefix, ``_receive_batch``, and
the untraced ``run_trial`` that uses it.

A batch takes what ``feed`` takes: it refuses each pair ``feed``
refuses, with ``feed``'s message for the first bad pair and no state
changed.  Settled, it leaves a decoder where the same pairs fed one at
a time leave it, so an untraced trial, which receives its first K-1
arrivals as one batch, stops where a traced one, which feeds every
symbol, stops.
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
from test_ldpc import StoppingPeel
from test_receive_many import BUILDERS, instance, snapshot, take

FAMILIES = {
    **BUILDERS,
    "turbo75-r23": lambda seed: make_turbo_spec(
        RscSpec(0o7, 0o5, 3), 64, make_pr_interleaver(64, seed),
        rate=Fraction(2, 3)),
    "ldpc-r23": lambda seed: build_regular_staircase(64, Fraction(2, 3), seed),
}
IRREGULAR = Path(__file__).resolve().parents[1] / "configs" / "irregular_example.txt"


def state(dec):
    """``snapshot`` with the whole slot list, sentinel included, and the
    decoder's undetermined count and contradiction flag."""
    return (snapshot(dec), list(getattr(dec, "_slots", ())), dec.unknown,
            dec.contradiction)


def received_for(code, cw, order, r, contradiction=False):
    """A decoder that took ``order[:r]`` one pair at a time; with
    ``contradiction``, then also a flipped symbol that ends its decode
    in a contradiction."""
    dec = code.start_decoder()
    take(dec, order[:r], [cw[i] for i in order[:r]])
    if contradiction:
        for idx in order[r:]:
            dec.receive(idx, 1 - cw[idx])
            if dec.contradiction:
                break
        assert dec.contradiction
    return dec


# Each case: (indices, values, index dtype) of a batch, from the word's
# order after the r = 5 pairs received before it; N stands for code.N.
FAULTS = {
    "float-index": (lambda o, n: [o[5], o[6]], [0, 0], float),
    "object-index": (lambda o, n: [o[5], 2.5, o[6]], [0, 0, 0], object),
    "string-index": (lambda o, n: [o[5], "7"], [0, 0], object),
    "negative": (lambda o, n: [o[5], -1, o[6]], [0, 0, 0], np.int64),
    "too-big": (lambda o, n: [o[5], o[6], n], [0, 0, 0], np.intp),
    "huge": (lambda o, n: [o[5], 2**63 + 5], [0, 0], np.uint64),
    "value": (lambda o, n: [o[5], o[6], o[7]], [0, 2, 0], np.intp),
    "negative-value": (lambda o, n: [o[5], o[6]], [0, -1], np.intp),
    "repeat": (lambda o, n: [o[5], o[6], o[5]], [0, 0, 0], np.intp),
    "earlier": (lambda o, n: [o[5], o[2], o[6]], [0, 0, 0], np.intp),
    "repeat-before-range": (lambda o, n: [o[5], o[5], n], [0, 0, 0], np.intp),
    "range-before-repeat": (lambda o, n: [o[5], n, o[5]], [0, 0, 0], np.intp),
    "value-before-earlier": (lambda o, n: [o[5], o[0]], [3, 0], np.intp),
}


@pytest.mark.parametrize("family", BUILDERS)
@pytest.mark.parametrize("fault", FAULTS)
def test_a_bad_batch_raises_feeds_message_and_changes_nothing(family, fault):
    code, cw, order = instance(BUILDERS[family], rng_for(98), flips=0)
    pick, values, dtype = FAULTS[fault]
    indices = pick(order, code.N)
    # The values, where not the fault, are the word's: the pairs before
    # the bad one are good.
    values = [v if v else (cw[i] if isinstance(i, int) and 0 <= i < code.N
                           else 0) for i, v in zip(indices, values)]
    indices = np.array(indices, dtype=dtype)
    values = np.array(values, dtype=np.intp)
    # ``feed`` of the arrays' items as Python objects is what the batch
    # stands for.
    expect = received_for(code, cw, order, 5)
    with pytest.raises(ValueError) as fed:
        take(expect, indices.tolist(), values.tolist())

    dec = received_for(code, cw, order, 5)
    before = state(dec)
    with pytest.raises(ValueError) as batched:
        dec._receive_batch(indices, values)
    assert str(batched.value) == str(fed.value)
    assert state(dec) == before


@pytest.mark.parametrize("family", BUILDERS)
def test_a_batch_after_a_contradiction_raises_feeds_message(family):
    code, cw, order = instance(BUILDERS[family], rng_for(99), flips=0)
    expect = received_for(code, cw, order, 5, contradiction=True)
    dec = received_for(code, cw, order, 5, contradiction=True)
    rest = [i for i in order if not dec._received[i]][:3]
    with pytest.raises(ValueError, match="contradiction state") as fed:
        take(expect, rest, [cw[i] for i in rest])
    before = state(dec)
    with pytest.raises(ValueError) as batched:
        dec._receive_batch(np.array(rest), np.array([cw[i] for i in rest]))
    assert str(batched.value) == str(fed.value)
    assert state(dec) == before
    # A bad index still comes first, as in ``feed``.
    with pytest.raises(ValueError, match="out of range"):
        dec._receive_batch(np.array([code.N, *rest]), np.zeros(4, np.intp))
    assert state(dec) == before


@pytest.mark.parametrize("family", BUILDERS)
def test_arrays_feed_takes_but_not_of_integers_raise_type_error(family):
    # A bool or object array holds pairs ``feed`` takes, but the batch
    # reads only integer arrays; it refuses them before any change.
    code, cw, order = instance(BUILDERS[family], rng_for(100), flips=0)
    dec = received_for(code, cw, order, 5)
    before = state(dec)
    pairs = order[5:8]
    for indices, values in [
            (np.array(pairs, dtype=object), np.zeros(3, np.intp)),
            (np.array(pairs), np.zeros(3, dtype=bool)),
            (np.array(pairs), np.zeros(3, dtype=float))]:
        with pytest.raises(TypeError, match="integer index and value arrays"):
            dec._receive_batch(indices, values)
        assert state(dec) == before
    for indices, values in [(np.array(pairs), np.zeros(2, np.intp)),
                            (np.array([pairs]), np.zeros((1, 3), np.intp))]:
        with pytest.raises(ValueError, match="two 1-D arrays of one length"):
            dec._receive_batch(indices, values)
        assert state(dec) == before


@pytest.mark.parametrize("family", FAMILIES)
def test_a_batch_reaches_the_state_of_one_pair_at_a_time(family):
    # Genuine words, so values are 0 and 1 alike; batches of several
    # sizes, after none or some pairs fed one at a time, up to the
    # whole word.
    rng = rng_for(101, list(FAMILIES).index(family))
    for trial in range(12):
        code, cw, order = instance(FAMILIES[family], rng, flips=0)
        lo = int(rng.integers(0, code.K)) if trial % 2 else 0
        hi = lo + [1, code.K - 1 - lo, code.K, code.N - lo][trial % 4]
        hi = max(lo, min(hi, code.N))
        one = received_for(code, cw, order, lo)
        for idx in order[lo:hi]:
            one.receive(idx, cw[idx])
        batch = received_for(code, cw, order, lo)
        batch._receive_batch(np.array(order[lo:hi]),
                             np.array([cw[i] for i in order[lo:hi]]))
        assert state(batch) == state(one)
        kept = getattr(batch, "values", []) + getattr(batch, "_acc", [])
        assert all(type(v) is int for v in kept if v is not None)
        # The decode goes on from the batch as from the pairs fed singly.
        rest = order[hi:]
        assert (take(batch, rest, [cw[i] for i in rest])
                == take(one, rest, [cw[i] for i in rest]))
        assert state(batch) == state(one)


@pytest.mark.parametrize("family", BUILDERS)
def test_an_empty_batch_changes_nothing(family):
    code, cw, order = instance(BUILDERS[family], rng_for(102), flips=0)
    dec = received_for(code, cw, order, 5, contradiction=True)
    before = state(dec)
    dec._receive_batch(np.array([], np.intp), np.array([], np.intp))
    assert state(dec) == before


def test_a_contradicting_op_drops_the_batch_ops_left():
    # A batch pushes every op before it settles any, so a reception that
    # disagrees with a peeled value can meet ops still on the stack
    # (with one pair at a time it never does).  The stack settles the
    # batch's last pair first: here that is the disagreeing one, so the
    # decoder keeps every value, count and accumulator it had.
    rng = rng_for(103)
    cases = 0
    for _ in range(30):
        code, cw, order = instance(BUILDERS["ldpc"], rng, flips=0)
        r = int(rng.integers(code.K // 2, code.K))
        dec = received_for(code, cw, order, r)
        peeled = [v for v in order[r:] if dec.values[v] is not None]
        open_ = [v for v in order[r:] if dec.values[v] is None]
        if not peeled or not open_:
            continue
        x, y = peeled[-1], open_[0]
        before = (list(dec.values), list(dec._unknown), list(dec._acc),
                  dec.unknown)
        dec._receive_batch(np.array([y, x]), np.array([cw[y], 1 - cw[x]]))
        assert dec.contradiction
        assert (list(dec.values), list(dec._unknown), list(dec._acc),
                dec.unknown) == before
        cases += 1
    assert cases >= 20


@pytest.mark.parametrize("build", [
    lambda seed: build_regular_staircase(32, Fraction(1, 3), seed),
    lambda seed: build_regular_staircase(32, Fraction(2, 3), seed),
    lambda seed: build_irregular_staircase(
        32, Fraction(1, 2), load_degree_distribution(IRREGULAR), seed),
], ids=["ldpc-r13", "ldpc-r23", "irregular-r12"])
def test_corrupted_batches_match_the_stopping_reference(build):
    # ``StoppingPeel`` peels in the same stack order and returns at the
    # first contradiction, so after a batch of corrupted pairs both
    # decoders hold the same values.
    rng = rng_for(104)
    contradictions = 0
    for _ in range(40):
        code, cw, order = instance(build, rng, flips=2)
        dec, ref = code.start_decoder(), StoppingPeel(code)
        cuts = sorted(rng.choice(code.N + 1, 3).tolist())
        for lo, hi in zip([0, *cuts], [*cuts, code.N]):
            if dec.contradiction:
                break
            indices = np.array(order[lo:hi], np.intp)
            values = np.array([cw[i] for i in order[lo:hi]], np.intp)
            dec._receive_batch(indices, values)
            ref._receive_batch(indices, values)
            assert dec.values == ref.values
            assert dec.contradiction == ref.contradiction
            assert dec.known_count() == ref.known_count()
        contradictions += dec.contradiction
    assert contradictions > 10


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

        def broken(indices, values):
            receive_batch(indices, values)
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
