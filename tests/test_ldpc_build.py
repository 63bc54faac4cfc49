"""The staircase builders' draw and their hand-off to the code.

``sequential_columns`` is the column draw as it read before the pool
was sorted once: every column in turn, a set and a sorted tuple each.
The builders' ``_assign_columns`` must give the same columns and leave
the generator in the same state, so every seed keeps its code.  A
builder hands the code the edge array it drew; that code must equal
the one the public constructor makes from the same columns.
"""

from fractions import Fraction

import numpy as np
import pytest

from turbobec import (StaircaseCode, build_irregular_staircase,
                      build_regular_staircase)
from turbobec.ldpc import _assign_columns, _cut


def sequential_columns(col_weights, m, rng):
    total = sum(col_weights)
    reps = -(-total // m)
    pool = rng.permutation(np.tile(np.arange(m), reps)).tolist()[:total]
    cols = []
    pos = 0
    for w in col_weights:
        col = set(pool[pos:pos + w])
        if len(col) == w:
            pos += w
            cols.append(tuple(sorted(col)))
            continue
        col = set()
        while len(col) < w:
            swap = next((s for s in range(pos, len(pool)) if pool[s] not in col),
                        None)
            if swap is None:
                extra = [r for r in rng.permutation(m).tolist() if r not in col]
                col.update(extra[: w - len(col)])
                pos = len(pool)
                break
            pool[pos], pool[swap] = pool[swap], pool[pos]
            col.add(pool[pos])
            pos += 1
        cols.append(tuple(sorted(col)))
    return cols


class CountingRng:
    """A generator that counts its ``permutation`` calls: more than one
    means the pool was spent and a column drew fresh checks."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def permutation(self, x):
        self.draws += 1
        return self.rng.permutation(x)


KINDS = ["regular", "irregular", "zeros", "dense", "spent", "large"]


def weight_lists(kind):
    """Seeded (weights, m) pairs of one kind."""
    rng = np.random.default_rng(KINDS.index(kind))
    for _ in range(20 if kind == "large" else 150):
        k = int(rng.integers(1, 60))
        m = int(rng.integers(2, 40))
        if kind == "regular":
            weights = [int(rng.integers(1, min(m, 8) + 1))] * k
        elif kind == "irregular":
            weights = rng.integers(1, min(m, 12) + 1, k).tolist()
        elif kind == "zeros":
            weights = (rng.integers(0, min(m, 6) + 1, k)
                       * (rng.random(k) < 0.6)).tolist()
        elif kind == "dense":
            weights = rng.integers(max(1, m - 3), m + 1, k).tolist()
        elif kind == "large":
            # Codes of the size campaigns use, with a dense law among them.
            k = int(rng.integers(200, 1100))
            m = int(rng.integers(k // 2, 2 * k))
            weights = rng.choice([2, 3, 4, 30], k, p=[.3, .2, .4, .1]).tolist()
        else:
            # Few checks, heavy columns: repairs reach the pool's end,
            # and zero-weight columns may follow.
            m = int(rng.integers(3, 9))
            weights = rng.integers(0, m + 1, int(rng.integers(2, 12))).tolist()
        yield weights, m


def edge_columns(edges, weights):
    var, chk = edges.tolist()
    cols = [[] for _ in weights]
    for v, c in zip(var, chk):
        cols[v].append(c)
    return [tuple(c) for c in cols]


@pytest.mark.parametrize("kind", KINDS)
def test_columns_and_generator_state_match_the_sequential_draw(kind):
    spent = 0
    for seed, (weights, m) in enumerate(weight_lists(kind)):
        new, old = CountingRng(seed), CountingRng(seed)
        edges = _assign_columns(weights, m, new)
        assert edges.dtype == np.intp
        assert edge_columns(edges, weights) == sequential_columns(weights, m, old)
        assert new.rng.bit_generator.state == old.rng.bit_generator.state
        assert new.draws == old.draws
        spent += old.draws > 1
    # Every kind but the large codes meets the fresh-draw branch.
    assert spent or kind == "large"


@pytest.mark.parametrize("kind", ["regular", "irregular", "zeros"])
def test_cut_gives_each_column_in_turn(kind):
    """Equal positive weights take ``_cut``'s zipped path, the others its
    slices; both give the columns the edges hold, as tuples of ints."""
    for seed, (weights, m) in enumerate(weight_lists(kind)):
        edges = _assign_columns(weights, m, np.random.default_rng(seed))
        cols = _cut(edges[1], np.asarray(weights, dtype=np.intp))
        assert cols == tuple(edge_columns(edges, weights))
        assert all(type(r) is int for c in cols for r in c)


BUILDS = {
    "regular": lambda k, rate: build_regular_staircase(k, rate, seed=5),
    "irregular": lambda k, rate: build_irregular_staircase(
        k, rate, {2: 0.3, 3: 0.4, 8: 0.3}, seed=3),
}


@pytest.mark.parametrize("rate", [Fraction(1, 3), Fraction(1, 2),
                                  Fraction(2, 3)], ids=["r13", "r12", "r23"])
@pytest.mark.parametrize("builder", BUILDS)
def test_builder_and_constructor_make_the_same_code(builder, rate):
    code = BUILDS[builder](1020, rate)
    ref = StaircaseCode(code.K, code.M, code.left_cols, code.kind)
    assert code == ref
    assert code._left_edges.dtype == ref._left_edges.dtype
    assert np.array_equal(code._left_edges, ref._left_edges)
    assert code.tanner == ref.tanner
    assert np.array_equal(code.parity_check_matrix(), ref.parity_check_matrix())
    assert code.fingerprint() == ref.fingerprint()
    assert all(type(c) is tuple for c in code.left_cols)
    assert all(type(r) is int for c in code.left_cols for r in c)


@pytest.mark.parametrize("cols, message", [
    (((1, 1), (2,)), "duplicate edge in a left column"),
    (((0,), (1, 4)), "check index out of range"),
], ids=["repeated-check", "check-out-of-range"])
def test_an_invalid_builder_edge_array_is_refused_as_the_public_path_does(
        cols, message):
    var = np.repeat(np.arange(len(cols)), [len(c) for c in cols])
    chk = np.fromiter((r for c in cols for r in c), np.intp)
    edges = np.stack([var, chk])
    valid = StaircaseCode(2, 4, ((0,), (1,)), kind="hand")
    assert not valid._edges_valid(edges)
    with pytest.raises(ValueError, match="^" + message + "$"):
        StaircaseCode._from_edges(4, edges, cols, kind="hand")
    with pytest.raises(ValueError, match="^" + message + "$"):
        StaircaseCode(2, 4, cols, kind="hand")
