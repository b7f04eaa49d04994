"""Property-based tests (hypothesis) for core invariants."""

import dataclasses
import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.calibration.regression import fit_linear, fit_proportional
from repro.dbms.cache import effective_page_reads, miss_fraction
from repro.dbms.catalog import Index, Table
from repro.dbms.plans import ResourceUsage
from repro.core.models import LinearCostModel
from repro.core.problem import ResourceAllocation
from repro.monitoring.metrics import (
    degradation,
    relative_improvement,
    relative_modeling_error,
)
from repro.units import clamp, validate_fraction

finite_floats = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                          allow_infinity=False)
shares = st.floats(min_value=0.01, max_value=1.0)
counts = st.floats(min_value=0.0, max_value=1e7)


class TestCacheModelProperties:
    @given(working_set=counts, cache=counts)
    def test_miss_fraction_is_a_fraction(self, working_set, cache):
        fraction = miss_fraction(working_set, cache)
        assert 0.0 <= fraction <= 1.0

    @given(logical=counts, working_set=counts, cache=counts)
    def test_effective_reads_bounded_by_logical_reads(self, logical, working_set, cache):
        effective = effective_page_reads(logical, working_set, cache)
        assert 0.0 <= effective <= logical + 1e-9

    @given(working_set=counts, small=counts, extra=counts)
    def test_more_cache_never_increases_misses(self, working_set, small, extra):
        assert (miss_fraction(working_set, small + extra)
                <= miss_fraction(working_set, small) + 1e-12)


class TestResourceUsageProperties:
    usage_strategy = st.builds(
        ResourceUsage,
        tuples=counts, index_tuples=counts, operator_evals=counts,
        seq_pages=counts, random_pages=counts, pages_written=counts,
        sort_spill_pages=counts, rows_returned=counts, working_set_pages=counts,
    )

    @given(a=usage_strategy, b=usage_strategy)
    def test_addition_is_commutative(self, a, b):
        left = (a + b).as_dict()
        right = (b + a).as_dict()
        for key in left:
            assert left[key] == right[key]

    @given(usage=usage_strategy, factor=st.floats(min_value=0.0, max_value=100.0))
    def test_scaling_preserves_working_set_and_scales_the_rest(self, usage, factor):
        scaled = usage.scaled(factor)
        assert scaled.working_set_pages == usage.working_set_pages
        assert scaled.tuples == usage.tuples * factor
        assert math.isclose(
            scaled.page_reads,
            (usage.seq_pages + usage.random_pages) * factor,
            rel_tol=1e-9, abs_tol=1e-9,
        )

    @given(a=usage_strategy, b=usage_strategy,
           factor=st.floats(min_value=0.0, max_value=100.0))
    def test_methods_equal_a_field_by_field_reference(self, a, b, factor):
        names = [f.name for f in dataclasses.fields(ResourceUsage)]
        total = a + b
        scaled = a.scaled(factor)
        copied = a.copy()
        assert a.as_dict() == {name: getattr(a, name) for name in names}
        assert copied == a and copied is not a
        for name in names:
            assert getattr(total, name) == getattr(a, name) + getattr(b, name)
            expected = (a.working_set_pages if name == "working_set_pages"
                        else getattr(a, name) * factor)
            assert getattr(scaled, name) == expected


class TestCatalogProperties:
    @given(rows=st.integers(min_value=0, max_value=10**8),
           width=st.integers(min_value=1, max_value=4000))
    def test_table_pages_hold_all_rows(self, rows, width):
        table = Table(name="t", row_count=rows, row_width_bytes=width)
        assert table.pages * table.rows_per_page >= rows

    @given(rows=st.integers(min_value=1, max_value=10**8))
    def test_index_height_is_logarithmic(self, rows):
        table = Table(name="t", row_count=rows, row_width_bytes=100)
        index = Index(name="i", table="t", key_width_bytes=8)
        assert index.height(table) <= 6


class TestRegressionProperties:
    @given(slope=st.floats(min_value=-100, max_value=100),
           intercept=st.floats(min_value=-100, max_value=100),
           xs=st.lists(st.floats(min_value=0.1, max_value=100), min_size=2,
                       max_size=20, unique=True))
    def test_fit_linear_recovers_noise_free_lines(self, slope, intercept, xs):
        # Recovery is only well-posed when the design is well-conditioned:
        # ``unique=True`` still admits x values one ULP apart, for which
        # least squares cannot resolve slope from intercept.
        assume(max(xs) - min(xs) >= 1e-3)
        ys = [slope * x + intercept for x in xs]
        fit = fit_linear(xs, ys)
        assert math.isclose(fit.slope, slope, rel_tol=1e-6, abs_tol=1e-4)
        assert math.isclose(fit.intercept, intercept, rel_tol=1e-6, abs_tol=1e-4)

    @given(slope=st.floats(min_value=0.001, max_value=1000),
           xs=st.lists(st.floats(min_value=0.1, max_value=100), min_size=1,
                       max_size=20))
    def test_fit_proportional_recovers_slope(self, slope, xs):
        ys = [slope * x for x in xs]
        assert math.isclose(fit_proportional(xs, ys), slope, rel_tol=1e-9)


class TestCostModelProperties:
    @given(alpha=st.floats(min_value=0.0, max_value=1e6),
           beta=st.floats(min_value=0.0, max_value=1e6),
           first=shares, second=shares)
    def test_linear_model_monotone_in_share(self, alpha, beta, first, second):
        model = LinearCostModel(alpha=alpha, beta=beta)
        low, high = min(first, second), max(first, second)
        assert model.cost_at(high) <= model.cost_at(low) + 1e-9

    @given(alpha=st.floats(min_value=0.0, max_value=1e6),
           beta=st.floats(min_value=0.0, max_value=1e6),
           factor=st.floats(min_value=0.01, max_value=100.0), share=shares)
    def test_scaling_scales_cost_proportionally(self, alpha, beta, factor, share):
        model = LinearCostModel(alpha=alpha, beta=beta)
        assert math.isclose(model.scaled(factor).cost_at(share),
                            factor * model.cost_at(share),
                            rel_tol=1e-9, abs_tol=1e-12)


class TestMetricProperties:
    @given(cost=finite_floats, base=st.floats(min_value=1e-6, max_value=1e9))
    def test_degradation_non_negative(self, cost, base):
        assert degradation(cost, base) >= 0.0

    @given(default=st.floats(min_value=1e-6, max_value=1e9),
           new=st.floats(min_value=0.0, max_value=1e9))
    def test_relative_improvement_bounded_above_by_one(self, default, new):
        assert relative_improvement(default, new) <= 1.0

    @given(estimated=finite_floats, actual=st.floats(min_value=1e-6, max_value=1e9))
    def test_modeling_error_non_negative(self, estimated, actual):
        assert relative_modeling_error(estimated, actual) >= 0.0


class TestAllocationProperties:
    @given(cpu=st.floats(min_value=0.0, max_value=1.0),
           memory=st.floats(min_value=0.0, max_value=1.0),
           delta=st.floats(min_value=-0.5, max_value=0.5))
    def test_shifted_allocations_stay_valid_when_in_bounds(self, cpu, memory, delta):
        allocation = ResourceAllocation(cpu, memory)
        assume(0.0 <= cpu + delta <= 1.0)
        shifted = allocation.shifted("cpu", delta)
        assert math.isclose(shifted.cpu_share, cpu + delta, abs_tol=1e-12)
        assert shifted.memory_fraction == memory

    @given(value=st.floats(min_value=-10, max_value=10))
    def test_clamp_result_is_inside_interval(self, value):
        assert 0.0 <= clamp(value, 0.0, 1.0) <= 1.0

    @given(value=st.floats(min_value=0.0, max_value=1.0))
    def test_validate_fraction_is_identity_inside_bounds(self, value):
        assert validate_fraction(value) == value
