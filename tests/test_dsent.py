"""Tests for the DSENT-calibrated power model (Table V)."""

import pytest

from repro.core.modes import MODES
from repro.power.dsent import (
    ML_LABEL_ENERGY_5FEAT_PJ,
    ML_LABEL_ENERGY_41FEAT_PJ,
    dynamic_energy_pj,
    power_table,
    static_power_normalized,
    static_power_w,
)


class TestStaticPower:
    @pytest.mark.parametrize(
        "v,want", [(0.8, 0.036), (0.9, 0.041), (1.0, 0.045), (1.1, 0.050),
                    (1.2, 0.054)]
    )
    def test_table5_static_column(self, v, want):
        # Table V prints three decimals; the linear fit lands within the
        # printed rounding (0.0405 vs "0.041" etc.).
        assert static_power_w(v) == pytest.approx(want, abs=6e-4)

    def test_linear_in_voltage(self):
        assert static_power_w(1.0) == pytest.approx(2 * static_power_w(0.5))

    def test_zero_voltage_zero_power(self):
        assert static_power_w(0.0) == 0.0

    def test_negative_voltage_rejected(self):
        with pytest.raises(ValueError):
            static_power_w(-0.1)

    @pytest.mark.parametrize(
        "v,want", [(0.8, 0.667), (0.9, 0.750), (1.0, 0.833), (1.1, 0.917),
                    (1.2, 1.000)]
    )
    def test_table5_normalized_column(self, v, want):
        assert static_power_normalized(v) == pytest.approx(want, abs=1e-3)


class TestDynamicEnergy:
    @pytest.mark.parametrize(
        "v,want", [(0.8, 25.1), (0.9, 31.8), (1.0, 39.2), (1.1, 47.5),
                    (1.2, 56.5)]
    )
    def test_table5_dynamic_column(self, v, want):
        assert dynamic_energy_pj(v) == pytest.approx(want, rel=0.01)

    def test_quadratic_in_voltage(self):
        assert dynamic_energy_pj(1.0) == pytest.approx(4 * dynamic_energy_pj(0.5))

    def test_negative_voltage_rejected(self):
        with pytest.raises(ValueError):
            dynamic_energy_pj(-1.0)

    def test_mode3_vs_mode7_ratio(self):
        # Dynamic savings ceiling: (0.8/1.2)^2 = 44.4 % of mode-7 energy.
        ratio = dynamic_energy_pj(0.8) / dynamic_energy_pj(1.2)
        assert ratio == pytest.approx((0.8 / 1.2) ** 2)


class TestPowerTable:
    def test_one_row_per_mode(self):
        rows = power_table()
        assert [r.mode.index for r in rows] == [m.index for m in MODES]

    def test_rows_consistent_with_functions(self):
        for row in power_table():
            assert row.static_power_w == static_power_w(row.mode.voltage)
            assert row.dynamic_energy_pj == dynamic_energy_pj(row.mode.voltage)

    def test_monotone_costs(self):
        rows = power_table()
        stat = [r.static_power_w for r in rows]
        dyn = [r.dynamic_energy_pj for r in rows]
        assert stat == sorted(stat)
        assert dyn == sorted(dyn)


class TestMlOverheadConstants:
    def test_5feature_cost_is_5mul_4add(self):
        assert ML_LABEL_ENERGY_5FEAT_PJ == 5 * 1.1 + 4 * 0.4
        assert ML_LABEL_ENERGY_5FEAT_PJ == pytest.approx(7.1)

    def test_41feature_cost_from_paper(self):
        assert ML_LABEL_ENERGY_41FEAT_PJ == pytest.approx(61.1)

    def test_reduction_factor(self):
        assert ML_LABEL_ENERGY_41FEAT_PJ / ML_LABEL_ENERGY_5FEAT_PJ > 8
