"""Tests for Pareto utilities and the design-space explorer (Fig. 9 / Fig. 12)."""

import pytest

from repro.dse import DesignSpaceExplorer, is_dominated, pareto_front
from repro.flow import BackendSelection, SingleSideCTS
from repro.guard import SweepCrash
from repro.guard.validation import design_cache_key
from repro.insertion.concurrent import ConcurrentInserter
from repro.routing.hierarchical import HierarchicalClockRouter


class TestParetoUtilities:
    def test_is_dominated_basic(self):
        points = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0)]
        assert is_dominated((2.0, 2.0), points)
        assert not is_dominated((1.0, 1.0), points)
        assert not is_dominated((0.5, 3.0), points)

    def test_equal_points_do_not_dominate_each_other(self):
        points = [(1.0, 1.0), (1.0, 1.0)]
        assert not is_dominated((1.0, 1.0), points)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            is_dominated((1.0,), [(1.0, 2.0)])

    def test_pareto_front_extracts_non_dominated(self):
        items = [
            {"name": "a", "obj": (1.0, 5.0)},
            {"name": "b", "obj": (2.0, 2.0)},
            {"name": "c", "obj": (5.0, 1.0)},
            {"name": "d", "obj": (3.0, 3.0)},  # dominated by b
        ]
        front = pareto_front(items, lambda item: item["obj"])
        names = {item["name"] for item in front}
        assert names == {"a", "b", "c"}

    def test_pareto_front_of_empty_is_empty(self):
        assert pareto_front([], lambda item: item) == []

    def test_single_item_is_pareto_optimal(self):
        assert len(pareto_front([(1.0, 1.0)], lambda item: item)) == 1


class TestDesignSpaceExplorer:
    @pytest.fixture(scope="class")
    def sweep(self, pdk, small_design, small_config):
        explorer = DesignSpaceExplorer(pdk, small_config)
        return explorer.explore(small_design, fanout_thresholds=[0, 20, 10 ** 6])

    def test_one_point_per_threshold(self, sweep):
        assert len(sweep.points) == 3
        assert [p.parameter for p in sweep.points] == [0.0, 20.0, 10.0 ** 6]

    def test_zero_threshold_is_single_side(self, sweep):
        zero = next(p for p in sweep.points if p.parameter == 0.0)
        assert zero.metrics.ntsvs == 0

    def test_larger_threshold_allows_more_ntsvs(self, sweep):
        zero = next(p for p in sweep.points if p.parameter == 0.0)
        full = next(p for p in sweep.points if p.parameter == 10.0 ** 6)
        assert full.metrics.ntsvs >= zero.metrics.ntsvs

    def test_full_mode_latency_competitive_with_intra_side(self, sweep):
        """Full mode optimises the MOES, so it may trade a few ps of latency
        for fewer resources — but it must stay in the same ballpark while
        gaining access to the back side."""
        zero = next(p for p in sweep.points if p.parameter == 0.0)
        full = next(p for p in sweep.points if p.parameter == 10.0 ** 6)
        assert full.metrics.latency <= zero.metrics.latency * 1.10 + 1e-6

    def test_pareto_subset_of_points(self, sweep):
        front = sweep.pareto()
        assert front
        assert all(p in sweep.points for p in front)

    def test_best_latency_and_skew_helpers(self, sweep):
        assert sweep.best_latency().metrics.latency == min(
            p.metrics.latency for p in sweep.points
        )
        assert sweep.best_skew().metrics.skew == min(
            p.metrics.skew for p in sweep.points
        )

    def test_rows_are_flat_dicts(self, sweep):
        rows = sweep.rows()
        assert len(rows) == 3
        assert {"configuration", "parameter", "latency_ps", "resources"} <= set(rows[0])

    def test_baseline_sweeps(self, pdk, small_design, small_config):
        buffered = SingleSideCTS(pdk, small_config).run(small_design)
        explorer = DesignSpaceExplorer(pdk, small_config)
        fanout_sweep = explorer.sweep_fanout_baseline(
            buffered.tree, thresholds=[5, 1000], design_name="unit"
        )
        critical_sweep = explorer.sweep_critical_baseline(
            buffered.tree, fractions=[0.2, 0.8], design_name="unit"
        )
        veloso_point = explorer.veloso_point(buffered.tree, design_name="unit")
        assert len(fanout_sweep.points) == 2
        assert len(critical_sweep.points) == 2
        # [2] flips every trunk edge, so it uses at least as much back-side
        # wirelength as any fanout-threshold subset (nTSV counts can differ
        # either way because partial flips need vias at more boundaries).
        assert veloso_point.metrics.back_wirelength >= max(
            p.metrics.back_wirelength for p in fanout_sweep.points
        ) - 1e-6
        # Baselines keep the buffered tree's buffer count.
        assert all(
            p.metrics.buffers == buffered.metrics.buffers
            for p in fanout_sweep.points + critical_sweep.points
        )


class TestParallelExplore:
    def test_parallel_sweep_matches_serial(self, pdk, small_design, small_config):
        """A process-pool sweep returns the identical points in the same order."""
        explorer = DesignSpaceExplorer(pdk, small_config)
        thresholds = [0, 20, 10 ** 6]
        serial = explorer.explore(small_design, fanout_thresholds=thresholds)
        parallel = explorer.explore(
            small_design, fanout_thresholds=thresholds, workers=2
        )
        assert [p.parameter for p in parallel.points] == [
            p.parameter for p in serial.points
        ]
        for a, b in zip(serial.points, parallel.points):
            assert a.metrics.latency == pytest.approx(b.metrics.latency, abs=1e-9)
            assert a.metrics.skew == pytest.approx(b.metrics.skew, abs=1e-9)
            assert a.metrics.buffers == b.metrics.buffers
            assert a.metrics.ntsvs == b.metrics.ntsvs
            assert a.metrics.wirelength == pytest.approx(b.metrics.wirelength)

    def test_engine_choice_does_not_change_results(self, pdk, small_design, small_config):
        thresholds = [20]
        vec = DesignSpaceExplorer(
            pdk,
            small_config.with_updates(
                backends=BackendSelection(timing="vectorized")
            ),
        ).explore(small_design, fanout_thresholds=thresholds)
        ref = DesignSpaceExplorer(
            pdk,
            small_config.with_updates(
                backends=BackendSelection(timing="reference")
            ),
        ).explore(small_design, fanout_thresholds=thresholds)
        for a, b in zip(vec.points, ref.points):
            assert a.metrics.latency == pytest.approx(b.metrics.latency, abs=1e-6)
            assert a.metrics.skew == pytest.approx(b.metrics.skew, abs=1e-6)
            assert a.metrics.buffers == b.metrics.buffers
            assert a.metrics.ntsvs == b.metrics.ntsvs


class TestSweepConfig:
    def test_sweep_honours_config_backends(
        self, pdk, small_design, small_config, monkeypatch
    ):
        """Every sweep point's inserter runs on the configured backends."""
        seen = []
        original = ConcurrentInserter.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            seen.append((self.dp_backend, type(self._engine).__name__))

        monkeypatch.setattr(ConcurrentInserter, "__init__", spy)
        reference = BackendSelection(
            timing="reference", dp="reference", dme="reference"
        )
        explorer = DesignSpaceExplorer(
            pdk, small_config.with_updates(backends=reference)
        )
        result = explorer.explore(small_design, fanout_thresholds=[0, 20])
        assert len(result.points) == 2 and not result.failures
        assert seen == [("reference", "ElmoreTimingEngine")] * 2

    def test_points_run_on_private_copies(
        self, pdk, small_design, small_config, monkeypatch
    ):
        """Threshold order never changes a point, and the routed design the
        points start from is never mutated by them."""
        routed = []
        original = HierarchicalClockRouter.route_design

        def spy(self, clock_net):
            result = original(self, clock_net)
            routed.append((result.design, design_cache_key(result.design)))
            return result

        monkeypatch.setattr(HierarchicalClockRouter, "route_design", spy)
        explorer = DesignSpaceExplorer(pdk, small_config)
        thresholds = [0, 20, 10 ** 6]
        forward = explorer.explore(small_design, fanout_thresholds=thresholds)
        backward = explorer.explore(small_design, fanout_thresholds=thresholds[::-1])

        def rows(sweep):
            by_threshold = {}
            for row in sweep.rows():
                row.pop("runtime_s")
                by_threshold[row["parameter"]] = row
            return by_threshold

        assert rows(forward) == rows(backward)
        assert len(routed) == 2
        for design, key in routed:
            assert design_cache_key(design) == key


class TestSweepFailures:
    """A crashing sweep point is isolated, retried, and recorded — never fatal."""

    THRESHOLDS = [0, 20, 10 ** 6]

    def test_crashing_point_is_isolated_serial_and_parallel(
        self, pdk, small_design, small_config
    ):
        explorer = DesignSpaceExplorer(pdk, small_config)
        hook = SweepCrash(threshold=20)
        serial = explorer.explore(
            small_design, fanout_thresholds=self.THRESHOLDS, point_hook=hook
        )
        parallel = explorer.explore(
            small_design, fanout_thresholds=self.THRESHOLDS, workers=2, point_hook=hook
        )
        for sweep in (serial, parallel):
            # Every other point survives; the crash is recorded, not raised.
            assert [p.parameter for p in sweep.points] == [0.0, 10.0 ** 6]
            assert len(sweep.failures) == 1
            failure = sweep.failures[0]
            assert failure.parameter == 20.0
            assert "injected sweep crash" in failure.error
            assert "reference retry failed" in failure.error
        for a, b in zip(serial.points, parallel.points):
            assert a.metrics.latency == pytest.approx(b.metrics.latency, abs=1e-9)
            assert a.metrics.skew == pytest.approx(b.metrics.skew, abs=1e-9)
            assert a.metrics.buffers == b.metrics.buffers

    def test_reference_retry_recovers_the_point(self, pdk, small_design, small_config):
        # only_fast spares all-reference configurations, so the retry (which
        # swaps every backend to the executable spec) succeeds.
        explorer = DesignSpaceExplorer(pdk, small_config)
        crashed = explorer.explore(
            small_design,
            fanout_thresholds=self.THRESHOLDS,
            point_hook=SweepCrash(threshold=20, only_fast=True),
        )
        assert not crashed.failures
        assert [(p.parameter, p.retried) for p in crashed.points] == [
            (0.0, False),
            (20.0, True),
            (10.0 ** 6, False),
        ]
        clean = explorer.explore(small_design, fanout_thresholds=self.THRESHOLDS)
        for a, b in zip(crashed.points, clean.points):
            # The recovered point came off the reference backends, which are
            # decision-identical to the vectorized defaults.
            assert a.metrics.latency == pytest.approx(b.metrics.latency, abs=1e-6)
            assert a.metrics.skew == pytest.approx(b.metrics.skew, abs=1e-6)
            assert a.metrics.buffers == b.metrics.buffers
            assert a.metrics.ntsvs == b.metrics.ntsvs
