"""Tests pinning the table reproductions against the paper's values."""

import pytest

from repro.experiments.tables import (
    ALL_TABLES,
    PAPER_TABLE3,
    table1,
    table2,
    table3,
    table3_simulator_constants,
    table4,
    table5,
)


class TestTable1:
    def test_exact_match(self):
        assert table1().max_abs_error == 0.0

    def test_row_count(self):
        assert len(table1().measured_rows) == 3


class TestTable2:
    def test_within_quarter_ns(self):
        # The symmetric behavioural model reproduces the measured matrix to
        # within the paper's own measurement asymmetry.
        assert table2().max_abs_error < 0.25

    def test_six_by_six(self):
        cmp = table2()
        assert len(cmp.measured_rows) == 6
        assert len(cmp.measured_rows[0]) == 6


class TestTable3:
    def test_derived_within_two_cycles(self):
        assert table3().max_abs_error <= 2.0

    def test_simulator_uses_published_constants(self):
        assert table3_simulator_constants() == (
            (0.8, 1.00, 7, 9, 8),
            (0.9, 1.50, 11, 12, 9),
            (1.0, 1.80, 13, 15, 10),
            (1.1, 2.00, 14, 16, 11),
            (1.2, 2.25, 16, 18, 12),
        )
        assert table3_simulator_constants() == PAPER_TABLE3


class TestTable4:
    def test_five_features(self):
        cmp = table4()
        assert len(cmp.measured_rows) == 5
        assert cmp.max_abs_error == 0.0


class TestTable5:
    def test_close_match(self):
        assert table5().max_abs_error < 0.01

    def test_five_modes(self):
        assert len(table5().measured_rows) == 5


class TestRegistry:
    def test_all_tables_registered(self):
        assert set(ALL_TABLES) == {f"table{i}" for i in range(1, 6)}

    def test_all_callable(self):
        for fn in ALL_TABLES.values():
            cmp = fn()
            assert cmp.name
            assert cmp.measured_rows
