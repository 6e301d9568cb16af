"""Tests for the analytic timing model."""

import pytest

from repro.bench.paperdata import TABLE1_BASELINE
from repro.hw import PHI_5110P, PerfCounters, TimeModel


@pytest.fixture
def model():
    return TimeModel(PHI_5110P)


class TestIssueTime:
    def test_scales_with_instructions(self, model):
        a = model.issue_time(PerfCounters(vpu_instructions=1e9))
        b = model.issue_time(PerfCounters(vpu_instructions=2e9))
        assert b == pytest.approx(2 * a)

    def test_includes_scalar(self, model):
        a = model.issue_time(PerfCounters(vpu_instructions=1e9))
        b = model.issue_time(
            PerfCounters(vpu_instructions=1e9, scalar_instructions=1e9)
        )
        assert b == pytest.approx(2 * a)

    def test_thread_starvation_slows_issue(self, model):
        """Section 3.3.3: 120 of 240 threads halves usable issue rate."""
        c = PerfCounters(vpu_instructions=1e9)
        full = model.issue_time(c)
        starved = model.issue_time(c, threads=120)
        assert starved == pytest.approx(2 * full)

    def test_threads_above_total_do_not_speed_up(self, model):
        c = PerfCounters(vpu_instructions=1e9)
        assert model.issue_time(c, threads=999) == pytest.approx(
            model.issue_time(c)
        )

    def test_invalid_threads(self, model):
        with pytest.raises(ValueError):
            model.issue_time(PerfCounters(), threads=0)


class TestMemoryTerms:
    def test_bandwidth_time(self, model):
        c = PerfCounters(l2_misses=150e9 / 64)  # exactly 150 GB of lines
        assert model.bandwidth_time(c) == pytest.approx(1.0)

    def test_latency_divided_across_threads(self, model):
        c = PerfCounters(l2_misses=1e6)
        t_all = model.latency_time(c)
        t_half = model.latency_time(c, threads=120)
        assert t_half == pytest.approx(2 * t_all)

    def test_remote_hits_cheaper_than_dram(self, model):
        dram = model.latency_time(PerfCounters(l2_misses=1e6))
        remote = model.latency_time(PerfCounters(l2_remote_hits=1e6))
        assert remote < dram

    def test_paper_880ms_estimate(self, model):
        """Section 3.3.1: 709 M misses at ~300 ns over 240 threads
        'could be as high as ~880 ms'."""
        c = PerfCounters(l2_misses=TABLE1_BASELINE["matmul"][2])
        t = model.latency_time(c)
        assert 0.75 < t < 0.95


class TestEstimate:
    def test_latency_hiding_bounds(self, model):
        c = PerfCounters(vpu_instructions=1e9, l2_misses=1e8)
        full = model.estimate(c, latency_hiding=0.0)
        none = model.estimate(c, latency_hiding=1.0)
        assert none.elapsed < full.elapsed
        assert none.latency_exposed == 0.0
        assert full.latency_exposed == pytest.approx(full.latency_raw)

    def test_invalid_hiding(self, model):
        with pytest.raises(ValueError):
            model.estimate(PerfCounters(), latency_hiding=1.5)

    def test_elapsed_is_max_plus_exposed(self, model):
        c = PerfCounters(vpu_instructions=5e9, l2_misses=1e8)
        b = model.estimate(c, latency_hiding=0.5)
        assert b.elapsed == pytest.approx(
            max(b.issue, b.bandwidth) + b.latency_exposed
        )

    def test_bound_classification(self, model):
        compute = model.estimate(PerfCounters(vpu_instructions=1e12))
        memory = model.estimate(PerfCounters(l2_misses=1e9))
        assert compute.bound == "compute"
        assert memory.bound == "memory"

    def test_gflops(self, model):
        c = PerfCounters(vpu_instructions=1e9, flops=32e9)
        b = model.estimate(c, latency_hiding=1.0)
        assert model.gflops(c, b) == pytest.approx(
            32e9 / b.elapsed / 1e9
        )

    def test_issue_rate_parameter(self):
        c = PerfCounters(vpu_instructions=1e9)
        slow = TimeModel(PHI_5110P, issue_per_core_per_cycle=1.0)
        fast = TimeModel(PHI_5110P, issue_per_core_per_cycle=2.0)
        assert fast.issue_time(c) == pytest.approx(slow.issue_time(c) / 2)

    def test_bad_issue_rate(self):
        with pytest.raises(ValueError):
            TimeModel(PHI_5110P, issue_per_core_per_cycle=0)
