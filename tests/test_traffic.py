"""Traffic layer: arrival processes, tenants, sketches, admission."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.autoscale.admission import (
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import run_cells
from repro.experiments.runner import run_scenario, run_traffic
from repro.metrics.quantiles import LatencySketch, nearest_rank
from repro.sim.rng import RngRegistry
from repro.sla.policy import SLAPolicy
from repro.traffic import (
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
    Tenant,
    TraceArrivals,
    TrafficConfig,
    generate_invocations,
    trace_from_file,
)

PROCESSES = (
    PoissonArrivals(rate_per_s=5.0),
    DiurnalArrivals(base_rate_per_s=5.0, amplitude=0.7, period_s=30.0),
    OnOffArrivals(on_rate_per_s=10.0, mean_on_s=4.0, mean_off_s=6.0),
    TraceArrivals(times_s=(0.5, 1.5, 1.5, 7.25, 99.0)),
)


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("process", PROCESSES, ids=lambda p: type(p).__name__)
def test_arrival_process_deterministic(process):
    """Same RNG state -> byte-identical times, sorted, within horizon."""
    first = process.times(np.random.default_rng(7), 60.0)
    second = process.times(np.random.default_rng(7), 60.0)
    assert np.array_equal(first, second)
    assert np.all(np.diff(first) >= 0)
    assert np.all(first >= 0) and np.all(first < 60.0)


@pytest.mark.parametrize(
    "process", PROCESSES[:3], ids=lambda p: type(p).__name__
)
def test_arrival_process_rate_plausible(process):
    """Observed count is within a loose band of the process mean rate."""
    duration = 400.0
    times = process.times(np.random.default_rng(3), duration)
    expected = process.mean_rate() * duration
    assert 0.5 * expected < len(times) < 1.5 * expected


def test_diurnal_modulation_shapes_density():
    """Peak-phase arrivals outnumber trough-phase arrivals."""
    process = DiurnalArrivals(
        base_rate_per_s=20.0, amplitude=0.9, period_s=100.0
    )
    times = process.times(np.random.default_rng(0), 100.0)
    # sin peaks in the first half-period and dips in the second.
    peak = np.sum(times < 50.0)
    trough = np.sum(times >= 50.0)
    assert peak > 2 * trough


def test_onoff_has_silent_gaps():
    process = OnOffArrivals(
        on_rate_per_s=50.0, mean_on_s=2.0, mean_off_s=8.0
    )
    times = process.times(np.random.default_rng(1), 200.0)
    gaps = np.diff(times)
    # OFF phases show up as inter-arrival gaps far beyond 1/on_rate.
    assert np.max(gaps) > 2.0


def test_trace_arrivals_replay_and_files(tmp_path):
    process = TraceArrivals(times_s=(3.0, 1.0, 2.0))
    times = process.times(np.random.default_rng(0), 10.0)
    assert list(times) == [1.0, 2.0, 3.0]
    assert list(process.times(np.random.default_rng(0), 2.5)) == [1.0, 2.0]

    json_path = tmp_path / "trace.json"
    json_path.write_text(json.dumps([0.25, 4.0, 2.5]))
    assert trace_from_file(json_path).times_s == (0.25, 4.0, 2.5)
    txt_path = tmp_path / "trace.txt"
    txt_path.write_text("0.5\n1.5\n\n2.5\n")
    assert trace_from_file(txt_path).times_s == (0.5, 1.5, 2.5)


def test_arrival_process_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(rate_per_s=0.0)
    with pytest.raises(ValueError):
        DiurnalArrivals(base_rate_per_s=1.0, amplitude=1.5)
    with pytest.raises(ValueError):
        OnOffArrivals(on_rate_per_s=1.0, mean_on_s=0.0, mean_off_s=1.0)
    with pytest.raises(ValueError):
        TraceArrivals(times_s=())


# ----------------------------------------------------------------------
# Tenants and the merged stream
# ----------------------------------------------------------------------
def _tenant(name, arrivals, **kwargs):
    kwargs.setdefault("workloads", ("micro-python",))
    return Tenant(name=name, arrivals=arrivals, **kwargs)


def test_generate_invocations_total_order_tie_break():
    """Equal-time arrivals order by (tenant_index, seq), not list luck."""
    config = TrafficConfig(
        tenants=(
            _tenant("beta", TraceArrivals(times_s=(1.0, 1.0, 2.0))),
            _tenant("alpha", TraceArrivals(times_s=(1.0, 2.0))),
        ),
        duration_s=10.0,
    )
    invocations = generate_invocations(RngRegistry(0), config)
    order = [(i.at_s, i.tenant, i.seq) for i in invocations]
    assert order == [
        (1.0, "beta", 0),
        (1.0, "beta", 1),
        (1.0, "alpha", 0),
        (2.0, "beta", 2),
        (2.0, "alpha", 1),
    ]


def test_tenant_streams_are_isolated():
    """Adding a tenant does not perturb another tenant's arrivals."""
    alone = TrafficConfig(
        tenants=(_tenant("a", PoissonArrivals(5.0)),), duration_s=30.0
    )
    paired = TrafficConfig(
        tenants=(
            _tenant("b", PoissonArrivals(9.0)),
            _tenant("a", PoissonArrivals(5.0)),
        ),
        duration_s=30.0,
    )
    times_alone = [
        i.at_s for i in generate_invocations(RngRegistry(0), alone)
    ]
    times_paired = [
        i.at_s
        for i in generate_invocations(RngRegistry(0), paired)
        if i.tenant == "a"
    ]
    assert times_alone == times_paired


def test_tenant_validation():
    with pytest.raises(ValueError):
        _tenant("", PoissonArrivals(1.0))
    with pytest.raises(ValueError):
        _tenant("x", PoissonArrivals(1.0), workloads=())
    with pytest.raises(KeyError):
        _tenant("x", PoissonArrivals(1.0), workloads=("no-such-workload",))
    with pytest.raises(ValueError):
        TrafficConfig(tenants=(), duration_s=10.0)
    with pytest.raises(ValueError):
        TrafficConfig(
            tenants=(
                _tenant("dup", PoissonArrivals(1.0)),
                _tenant("dup", PoissonArrivals(2.0)),
            ),
            duration_s=10.0,
        )


# ----------------------------------------------------------------------
# Quantile sketch
# ----------------------------------------------------------------------
def test_sketch_accuracy_against_exact_quantiles():
    rng = np.random.default_rng(11)
    values = rng.lognormal(mean=0.0, sigma=1.0, size=5000)
    sketch = LatencySketch()
    sketch.extend(values)
    for q in (0.5, 0.9, 0.99, 0.999):
        exact = float(np.quantile(values, q))
        approx = sketch.quantile(q)
        assert abs(approx - exact) / exact < 0.05, (q, exact, approx)
    assert abs(sketch.mean - float(values.mean())) < 1e-9


def test_sketch_edge_cases_and_merge():
    sketch = LatencySketch()
    assert sketch.quantile(0.99) == 0.0
    sketch.add(2.5)
    # A single observation reads back exactly (clamped to observed range).
    assert sketch.p50() == 2.5 and sketch.p999() == 2.5
    other = LatencySketch()
    other.add(10.0)
    other.add(1e9)  # overflow bucket -> reports the observed max
    sketch.merge(other)
    assert sketch.count == 3
    assert sketch.quantile(1.0) == 1e9
    with pytest.raises(ValueError):
        sketch.add(-1.0)
    with pytest.raises(ValueError):
        sketch.merge(LatencySketch(growth=1.5))


def test_sketch_determinism():
    rng = np.random.default_rng(5)
    values = list(rng.exponential(2.0, size=2000))
    a, b = LatencySketch(), LatencySketch()
    a.extend(values)
    b.extend(values)
    assert a.quantile(0.99) == b.quantile(0.99)
    assert a._counts == b._counts


class TestNearestRank:
    """Regression: the rank must be exact ceiling arithmetic.

    The old ``int(q * count + 0.9999999999)`` fudge was off by one
    whenever the float product of an integral ``q*count`` plus the fudge
    crossed the next integer (e.g. ``q=0.5, count=10**7`` ranked
    5,000,001 instead of 5,000,000) and relied on the fudge being
    simultaneously big enough and small enough at every scale.
    """

    QS = (0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0)

    def test_integral_products_do_not_round_up(self):
        # q*count exactly integral: rank must be exactly q*count.
        assert nearest_rank(0.5, 10) == 5
        assert nearest_rank(0.99, 100) == 99
        assert nearest_rank(0.1, 10) == 1
        assert nearest_rank(1.0, 7) == 7
        # The documented pre-fix failure: the fudge pushed the exact
        # product 5e6 * ... across the next integer at count=10**7.
        count = 10**7
        assert nearest_rank(0.5, count) == 5_000_000
        old_rank = max(1, int(0.5 * count + 0.9999999999))
        assert old_rank == 5_000_001  # what the pre-fix code computed

    def test_count_one_every_q_ranks_first(self):
        for q in self.QS:
            assert nearest_rank(q, 1) == 1

    @pytest.mark.parametrize("count", (1, 10, 100, 10**6))
    def test_matches_numpy_inverted_cdf(self, count):
        # Nearest-rank on sorted data IS numpy's inverted_cdf method;
        # checking the selected element pins the rank at every boundary.
        values = np.arange(1, count + 1, dtype=float)
        for q in self.QS:
            expected = float(
                np.quantile(values, q, method="inverted_cdf")
            )
            assert values[nearest_rank(q, count) - 1] == expected, (q, count)

    def test_fractional_products_round_up(self):
        assert nearest_rank(0.5, 11) == 6      # ceil(5.5)
        assert nearest_rank(0.999, 1000) == 999
        assert nearest_rank(0.999, 1001) == 1000  # ceil(999.999...)

    def test_sketch_p99_of_100_distinct_values(self):
        # With 100 well-separated values p99 must surface the 99th, not
        # the 100th: the rank boundary the fuzzy formula could cross.
        sketch = LatencySketch()
        values = [1.1**i for i in range(100)]
        sketch.extend(values)
        p99 = sketch.quantile(0.99)
        exact = float(np.quantile(values, 0.99, method="inverted_cdf"))
        assert abs(p99 - exact) / exact < 0.02
        assert p99 < values[-1]  # strictly below the max


# ----------------------------------------------------------------------
# End-to-end traffic runs
# ----------------------------------------------------------------------
def _traffic_scenario(admission=None, duration=30.0):
    tenants = (
        _tenant(
            "a",
            PoissonArrivals(2.0),
            sla=SLAPolicy(deadline_s=25.0),
        ),
        _tenant(
            "b",
            OnOffArrivals(on_rate_per_s=6.0, mean_on_s=4.0, mean_off_s=8.0),
            sla=SLAPolicy(deadline_s=25.0),
        ),
    )
    return ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        error_rate=0.05,
        num_nodes=8,
        traffic=TrafficConfig(
            tenants=tenants, duration_s=duration, admission=admission
        ),
    )


def test_traffic_run_repeat_byte_identical():
    scenario = _traffic_scenario()
    first = run_traffic(scenario, seed=3)
    second = run_traffic(scenario, seed=3)
    assert asdict(first.summary) == asdict(second.summary)
    assert first.tenants == second.tenants
    assert first.scale_events == second.scale_events


def test_traffic_serial_vs_run_cells_byte_identical():
    scenario = _traffic_scenario()
    cells = [(scenario, seed) for seed in (0, 1)]
    serial = [run_traffic(s, seed) for s, seed in cells]
    fanned = run_cells(cells, jobs=2, runner=run_traffic)
    for a, b in zip(serial, fanned):
        assert asdict(a.summary) == asdict(b.summary)
        assert a.tenants == b.tenants


def test_traffic_records_latency_and_slo():
    result = run_traffic(_traffic_scenario(), seed=0)
    summary = result.summary
    assert summary.invocations_offered > 0
    assert summary.invocations_shed == 0  # no admission configured
    assert summary.latency_p50_s > 0
    assert summary.latency_p99_s >= summary.latency_p50_s
    assert summary.latency_p999_s >= summary.latency_p99_s
    total_completed = sum(
        row["completed"] for row in result.tenants.values()
    )
    assert total_completed == summary.invocations_offered


def test_traffic_disabled_keeps_summaries_identical():
    """traffic=None runs are byte-identical with the fields all zero."""
    scenario = ScenarioConfig(
        workload="graph-bfs", strategy="canary", error_rate=0.15,
        num_functions=20,
    )
    summary = run_scenario(scenario, seed=0)
    assert summary.invocations_offered == 0
    assert summary.latency_p99_s == 0.0
    assert summary.scale_outs == 0
    assert summary.nodes_peak == 0
    assert asdict(summary) == asdict(run_scenario(scenario, seed=0))


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_token_bucket_refill_and_cap():
    bucket = TokenBucket(rate_per_s=2.0, burst=4.0)
    for _ in range(4):
        assert bucket.try_take(0.0)
    assert not bucket.try_take(0.0)
    assert bucket.try_take(0.5)  # 1 token refilled
    assert not bucket.try_take(0.5)
    assert bucket.try_take(100.0)  # refill caps at burst, not 200 tokens
    assert bucket.tokens <= 4.0


def test_admission_fairness_hot_tenant_cannot_starve_others():
    """A hot tenant exhausts only its own bucket; quiet tenants sail."""
    admission = AdmissionConfig(tenant_rate_per_s=3.0, tenant_burst=5.0)
    tenants = (
        _tenant("hot", PoissonArrivals(30.0)),
        _tenant("quiet", PoissonArrivals(1.0)),
    )
    scenario = ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        error_rate=0.0,
        num_nodes=8,
        traffic=TrafficConfig(
            tenants=tenants, duration_s=20.0, admission=admission
        ),
    )
    result = run_traffic(scenario, seed=1)
    hot, quiet = result.tenants["hot"], result.tenants["quiet"]
    assert hot.get("shed", 0) > 0.5 * hot["offered"]
    assert quiet["shed"] == 0
    assert quiet["completed"] == quiet["offered"]


def test_global_shedding_bounds_admissions():
    admission = AdmissionConfig(queue_shed_depth=0)
    tenants = (_tenant("a", PoissonArrivals(20.0)),)
    scenario = ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        error_rate=0.0,
        num_nodes=2,
        traffic=TrafficConfig(
            tenants=tenants, duration_s=20.0, admission=admission
        ),
    )
    result = run_traffic(scenario, seed=0)
    row = result.tenants["a"]
    assert row["shed"] > 0
    assert row["admitted"] + row["shed"] == row["offered"]
    # Every admitted invocation still completed.
    assert row["completed"] == row["admitted"]


def test_admission_config_validation():
    with pytest.raises(ValueError):
        AdmissionConfig(tenant_rate_per_s=0.0)
    with pytest.raises(ValueError):
        AdmissionConfig(tenant_burst=0.5)
    with pytest.raises(ValueError):
        AdmissionConfig(queue_shed_depth=-1)


class TestAdmissionUnknownTenant:
    """Regression: tenants missing from the construction-time list.

    Tenants can surface mid-run (a replayed trace names them without any
    prior registration).  They used to get no token bucket at all — the
    ``.get(tenant)`` miss meant *unthrottled admission* — so a hot
    unknown tenant bypassed exactly the isolation the bucket exists for.
    """

    def test_hot_unknown_tenant_is_throttled_on_trace_replay(self):
        config = AdmissionConfig(tenant_rate_per_s=1.0, tenant_burst=2.0)
        controller = AdmissionController(config, ["registered"])
        # Replayed trace: the unknown tenant bursts 50 arrivals over 1 s
        # starting at t=100.  Pre-fix every single one was admitted.
        trace = [(100.0 + i * 0.02, "mystery") for i in range(50)]
        admitted = sum(
            controller.admit(tenant, at, backlog=0) for at, tenant in trace
        )
        # Burst (2) plus ~1 s of refill at 1/s: at most a handful.
        assert admitted <= 4
        assert controller.shed_throttled >= 46

    def test_unknown_tenant_bucket_anchored_at_first_seen_time(self):
        config = AdmissionConfig(tenant_rate_per_s=1.0, tenant_burst=2.0)
        controller = AdmissionController(config, [])
        assert controller.admit("late", 1000.0, backlog=0)
        bucket = controller._buckets["late"]
        # Refill anchored at first sight, not at virtual time 0.0.
        assert bucket._last_refill == 1000.0
        assert bucket.tokens == pytest.approx(1.0)  # burst minus one

    def test_known_and_unknown_tenants_throttled_alike(self):
        config = AdmissionConfig(tenant_rate_per_s=2.0, tenant_burst=3.0)
        controller = AdmissionController(config, ["known"])
        times = [50.0 + i * 0.01 for i in range(30)]
        known = sum(controller.admit("known", t, backlog=0) for t in times)
        unknown = sum(
            controller.admit("unknown", t, backlog=0) for t in times
        )
        assert known == unknown

    def test_unthrottled_config_needs_no_buckets(self):
        controller = AdmissionController(AdmissionConfig(), ["a"])
        assert controller.admit("never-seen", 5.0, backlog=0)
        assert controller._buckets == {}
