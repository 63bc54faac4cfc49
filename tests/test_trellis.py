from collections import Counter

import pytest

from turbobec import LookupMasks, RscSpec, TransitionTable, UNKNOWN, format_mask

from conftest import RegisterOracle


def mask_rows(mask: int, table: TransitionTable) -> list[str]:
    return format_mask(mask, table).splitlines()


@pytest.fixture(scope="module")
def table75():
    return TransitionTable(RscSpec(0o7, 0o5, 3))


@pytest.fixture(scope="module")
def masks75(table75):
    return LookupMasks(table75)


@pytest.fixture(scope="module")
def every_table():
    """The table of every valid (feedback, forward) pair with L = 2..6:
    2,666 codes, each feedback polynomial with a D^0 term."""
    return [TransitionTable(RscSpec(fb, fw, length))
            for length in range(2, 7)
            for fb in range(1 << (length - 1), 1 << length)
            for fw in range(1, 1 << length)]


# Published table of the four-state (7,5)_8 code, 0-based states.
TABLE_75 = {
    (0, 0): (0, 0), (0, 2): (1, 1),
    (1, 0): (1, 1), (1, 2): (0, 0),
    (2, 1): (1, 0), (2, 3): (0, 1),
    (3, 1): (0, 1), (3, 3): (1, 0),
}


class TestTransitionTable:
    def test_published_table_75(self, table75):
        got = {(i, j): (b1, b2) for i, j, b1, b2 in table75.transitions()}
        assert got == TABLE_75

    def test_degrees_are_two(self, every_table):
        # Two arcs per state, all distinct: u=0 and u=1 never meet.
        for table in every_table:
            arcs = {(i, j) for i, j, _, _ in table.transitions()}
            two_each = dict.fromkeys(range(table.n_states), 2)
            assert len(arcs) == 2 * table.n_states, table.spec
            assert Counter(i for i, _ in arcs) == two_each, table.spec
            assert Counter(j for _, j in arcs) == two_each, table.spec

    def test_systematic_labels_distinct(self, table75):
        for fb, fw, length in [(0o7, 0o5, 3), (0o13, 0o15, 4)]:
            table = TransitionTable(RscSpec(fb, fw, length))
            for s in range(table.n_states):
                pair = [b1 for i, j, b1, b2 in table.transitions() if i == s]
                assert sorted(pair) == [0, 1]

    def test_matches_register_oracle(self, every_table):
        for table in every_table:
            spec = table.spec
            oracle = RegisterOracle(spec.feedback_poly, spec.forward_poly,
                                    spec.constraint_length)
            got = {(i, j): (b1, b2) for i, j, b1, b2 in table.transitions()}
            assert got == oracle.transitions(), spec

    def test_arc_bits_are_the_transitions(self, every_table):
        # Transition (i, u) is bit 2i + u: the 2S arcs take the 2S bits.
        for table in every_table:
            S = table.n_states
            got = {table.arc_bit(i, j): (i, u)
                   for i, j, u, _ in table.transitions()}
            assert got == {1 << (2 * i + u): (i, u)
                           for i in range(S) for u in (0, 1)}, table.spec

    def test_arc_bit_is_zero_off_the_trellis(self, table75):
        arcs = {(i, j) for i, j in TABLE_75}
        for i in range(4):
            for j in range(4):
                assert bool(table75.arc_bit(i, j)) == ((i, j) in arcs)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            RscSpec(0o7, 0o5, 1)          # constraint length too small
        with pytest.raises(ValueError):
            RscSpec(0o3, 0o5, 3)          # feedback constant term is zero
        with pytest.raises(ValueError):
            RscSpec(0o17, 0o5, 3)         # degree exceeds L-1
        with pytest.raises(ValueError):
            RscSpec(0o7, 0, 3)            # zero forward polynomial


class TestLookupMasks:
    def test_full_mask_published(self, masks75):
        assert mask_rows(masks75.full, masks75.table) == [
            "1010", "1010", "0101", "0101"]

    def test_info_and_parity_masks_published(self, masks75):
        assert mask_rows(masks75.info[0], masks75.table) == [
            "1000", "0010", "0001", "0100"]
        assert mask_rows(masks75.parity[0], masks75.table) == [
            "1000", "0010", "0100", "0001"]

    def test_nine_masks_total(self, masks75):
        assert len(masks75.by_constraint) == 9

    def test_known_pairs_are_intersections(self, masks75):
        for b1 in (0, 1):
            for b2 in (0, 1):
                assert masks75.by_constraint[(b1, b2)] == (
                    masks75.info[b1] & masks75.parity[b2])

    def test_fully_known_masks_partition_transitions(self):
        for fb, fw, length in [(0o7, 0o5, 3), (0o13, 0o15, 4)]:
            masks = LookupMasks(TransitionTable(RscSpec(fb, fw, length)))
            total = sum(masks.by_constraint[(b1, b2)].bit_count()
                        for b1 in (0, 1) for b2 in (0, 1))
            assert total == 1 << length  # 2^{k+L-1} with k=1

    def test_specific_constraint_is_subset(self, masks75):
        by = masks75.by_constraint
        for c1 in (0, 1, UNKNOWN):
            for c2 in (0, 1, UNKNOWN):
                for d1 in (c1, UNKNOWN):
                    for d2 in (c2, UNKNOWN):
                        assert by[(c1, c2)] & ~by[(d1, d2)] == 0

    def test_mask_and_algebra(self, masks75):
        m = masks75.by_constraint[(0, 1)]
        assert (m & masks75.full) == m
        assert (m & m) == m
        assert (masks75.info[0] & masks75.parity[1]) == m

    def test_figure_two_survivors(self, masks75):
        # b1=0 combined with b2=1 leaves e3->e4 and e4->e2.
        m = masks75.info[0] & masks75.parity[1]
        assert mask_rows(m, masks75.table) == ["0000", "0000", "0001", "0100"]

    def test_zero_rows_and_cols(self, masks75):
        # The decoder's all-zero tests: ``not mask & row_masks[i]``.
        def zero_rows(mask):
            return [i for i, rm in enumerate(masks75.row_masks) if not mask & rm]

        def zero_cols(mask):
            return [j for j, cm in enumerate(masks75.col_masks) if not mask & cm]

        m = masks75.info[0] & masks75.parity[1]
        assert zero_rows(m) == [0, 1]
        assert zero_cols(m) == [0, 2]
        assert zero_rows(masks75.full) == []
        assert zero_cols(masks75.full) == []
        assert zero_rows(0) == [0, 1, 2, 3]
        assert zero_cols(0) == [0, 1, 2, 3]

    def test_is_subset_info(self, masks75):
        # The decoder's bit test: ``not mask & ~info[b]``.
        def is_subset_info(mask, bit):
            return not mask & ~masks75.info[bit]

        survivors = masks75.info[0] & masks75.parity[1]
        assert is_subset_info(survivors, 0)
        assert not is_subset_info(survivors, 1)
        assert not is_subset_info(masks75.full, 0)
        assert is_subset_info(masks75.info[1], 1)


def subsets(mask: int):
    """Every sub-mask of ``mask``, each once."""
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    for pick in range(1 << len(bits)):
        yield sum(b for i, b in enumerate(bits) if pick >> i & 1)


class TestMemo:
    @pytest.mark.parametrize("fb, fw, length", [(0o7, 0o5, 3), (0o13, 0o15, 4)],
                             ids=["75", "1315"])
    def test_rule_matches_row_col_scan(self, fb, fw, length):
        lm = LookupMasks(TransitionTable(RscSpec(fb, fw, length)))
        assert all(lm.memo[m] is None for m in subsets(lm.full))
        count = 0
        for m in subsets(lm.full):
            gone_left = gone_right = 0
            for i in range(lm.n_states):
                if not m & lm.row_masks[i]:
                    gone_left |= lm.col_masks[i]
                if not m & lm.col_masks[i]:
                    gone_right |= lm.row_masks[i]
            bits = [b for b in (0, 1) if not m & ~lm.info[b]]
            expect = (~gone_left if gone_left else 0,
                      ~gone_right if gone_right else 0,
                      bits[0] if bits else UNKNOWN)
            assert lm.rule(m) == expect, format_mask(m, lm.table)
            assert lm.memo[m] == expect
            count += 1
        assert count == 1 << lm.full.bit_count()
        assert len(lm.memo) == count

    def test_sixteen_state_memo_fills_on_first_rule(self):
        # Past 8 states the memo is a dict; a missing mask reads as None.
        lm = LookupMasks(TransitionTable(RscSpec(0o23, 0o35, 5)))
        m = lm.info[0] & lm.parity[1]
        assert lm.memo[m] is None
        entry = lm.rule(m)
        assert lm.memo[m] == entry
        assert lm.memo[lm.full] is None
        assert len(lm.memo) == 1

    def test_keep_masks_clear_only_dead_states(self, masks75):
        # e3->e4 and e4->e2 survive: states e1, e2 have no successor here,
        # so the step before must not enter them; e1, e3 no predecessor,
        # so the step after must not leave them.
        keep_left, keep_right, info_bit = masks75.rule(
            masks75.info[0] & masks75.parity[1])
        assert mask_rows(masks75.full & keep_left, masks75.table) == [
            "0010", "0010", "0001", "0001"]
        assert mask_rows(masks75.full & keep_right, masks75.table) == [
            "0000", "1010", "0000", "0101"]
        assert info_bit == 0
        assert masks75.rule(masks75.full) == (0, 0, UNKNOWN)
