"""Quick-scale tests for the sweep/ablation experiment functions."""

import pytest

from repro.experiments.figures import (
    EvalScale,
    buffer_depth_sweep,
    mode_ladder_ablation,
    t_idle_sweep,
)


@pytest.fixture(scope="module")
def scale():
    return EvalScale.quick()


class TestTIdleSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return t_idle_sweep(EvalScale.quick(), t_idles=(2, 4, 32))

    @pytest.fixture(scope="class")
    def points(self, sweep):
        return sweep.points

    def test_hands_back_its_baseline(self, sweep):
        # The baseline every point is normalized against: a reactive
        # baseline run of the sweep's own trace, default sim.
        from repro.exec.pool import SimTask, run_sim_tasks
        from repro.traffic.suite import build_suite

        scale = EvalScale.quick()
        trace = build_suite(
            num_cores=scale.sim.num_cores, duration_ns=scale.duration_ns,
            seed=scale.seed,
        ).test[1]
        assert sweep.benchmark == trace.name
        (base,) = run_sim_tasks(
            [SimTask(policy="baseline", trace=trace, sim=scale.sim)]
        )
        assert sweep.baseline == base
        assert sweep.baseline.static_pj > 0

    def test_point_order(self, points):
        assert [p.t_idle for p in points] == [2, 4, 32]

    def test_large_t_idle_gates_less(self, points):
        by_t = {p.t_idle: p for p in points}
        assert by_t[32].gated_fraction <= by_t[2].gated_fraction + 1e-9

    def test_fields_in_range(self, points):
        for p in points:
            assert 0.0 <= p.gated_fraction <= 1.0
            assert p.wake_events >= 0


class TestBufferDepthSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return buffer_depth_sweep(EvalScale.quick(), depths=(5, 16))

    def test_depths_respected(self, points):
        assert [p.buffer_depth for p in points] == [5, 16]

    def test_metrics_populated(self, points):
        for p in points:
            assert p.avg_latency_ns > 0
            assert -1.0 < p.throughput_loss < 1.0


class TestModeLadder:
    @pytest.fixture(scope="class")
    def points(self):
        return mode_ladder_ablation(
            EvalScale.quick(),
            ladders=(
                ("full", (3, 4, 5, 6, 7)),
                ("binary", (3, 7)),
                ("fixed", (7,)),
            ),
        )

    def test_labels(self, points):
        assert [p.label for p in points] == ["full", "binary", "fixed"]

    def test_fixed_ladder_saves_no_dynamic_beyond_gating(self, points):
        by_label = {p.label: p for p in points}
        # A single-mode ladder hops everything at 1.2 V: dynamic savings
        # are only from fewer in-flight... i.e. essentially zero.
        assert abs(by_label["fixed"].dynamic_savings) < 0.05

    def test_richer_ladders_save_at_least_as_much_dynamic(self, points):
        by_label = {p.label: p for p in points}
        assert (
            by_label["full"].dynamic_savings
            >= by_label["binary"].dynamic_savings - 1e-9
        )
        assert (
            by_label["binary"].dynamic_savings
            >= by_label["fixed"].dynamic_savings - 1e-9
        )
