"""Tests for the pluggable cost-model seam (:mod:`repro.engine.cost_model`)."""

from __future__ import annotations

import pytest

from repro.calibrate import CostProfile, KernelMeasurement
from repro.engine import EngineConfig
from repro.engine.capabilities import backend_traits
from repro.engine.cost_model import (
    DENSE_BLAS_SPEEDUP,
    PYTHON_LOOP_PENALTY,
    STATIC_WEIGHTS,
    ProfiledCostModel,
    StaticCostModel,
    resolve_cost_model,
)
from repro.engine.planner import GraphStats, plan_all, plan_task
from repro.exceptions import ConfigurationError


def make_profile(**rates: float) -> CostProfile:
    return CostProfile(
        kernels={
            name: KernelMeasurement(kernel=name, seconds_per_op=rate, ops=100)
            for name, rate in rates.items()
        }
    )


class TestStaticCostModel:
    def test_weights_are_exactly_the_historical_constants(self):
        model = StaticCostModel()
        # Bit-identity matters, not approximation: the planner used to
        # divide by DENSE_BLAS_SPEEDUP and multiply by PYTHON_LOOP_PENALTY;
        # the weights must reproduce those floats exactly.
        assert model.weight("sparse_matvec") == 1.0
        assert model.weight("dense_gemm") == 1.0 / DENSE_BLAS_SPEEDUP
        assert model.weight("python_vertex_step") == PYTHON_LOOP_PENALTY
        for ops in (1, 7, 12345, 2**40 + 17):
            assert ops * model.weight("dense_gemm") == ops / DENSE_BLAS_SPEEDUP
            assert ops * model.weight("sparse_matvec") == float(ops)
            assert int(ops * model.weight("python_vertex_step")) == int(
                ops * PYTHON_LOOP_PENALTY
            )

    def test_everything_is_assumed_with_static_digest(self):
        model = StaticCostModel()
        for kernel in STATIC_WEIGHTS:
            assert model.provenance(kernel) == "assumed"
            assert model.seconds_per_op(kernel) is None
        assert model.digest() == "static"
        assert model.describe() == {"source": "static", "digest": "static"}

    def test_unknown_kernel_weight_defaults_to_unit(self):
        assert StaticCostModel().weight("warp_drive") == 1.0

    def test_series_kernel_follows_backend_traits(self):
        model = StaticCostModel()
        assert model.series_kernel(backend_traits("sparse")) == "sparse_matvec"
        assert model.series_kernel(backend_traits("dense")) == "dense_gemm"


class TestProfiledCostModel:
    def test_weights_normalise_to_the_sparse_unit(self):
        model = ProfiledCostModel(
            make_profile(sparse_matvec=2e-9, dense_gemm=5e-10)
        )
        assert model.weight("sparse_matvec") == 1.0
        assert model.weight("dense_gemm") == pytest.approx(0.25)
        assert model.provenance("dense_gemm") == "measured"
        assert model.seconds_per_op("dense_gemm") == 5e-10

    def test_unmeasured_kernel_falls_back_to_static_assumed(self):
        model = ProfiledCostModel(make_profile(sparse_matvec=1e-9))
        assert model.weight("python_vertex_step") == PYTHON_LOOP_PENALTY
        assert model.provenance("python_vertex_step") == "assumed"
        assert model.seconds_per_op("python_vertex_step") is None

    def test_profile_without_unit_kernel_stays_assumed(self):
        # Rates exist, but no sparse_matvec to normalise against: relative
        # weights would be fiction, so they fall back (and say so).
        model = ProfiledCostModel(make_profile(dense_gemm=1e-10))
        assert model.weight("dense_gemm") == 1.0 / DENSE_BLAS_SPEEDUP
        assert model.provenance("dense_gemm") == "assumed"
        # ... but absolute rates are still honest measurements.
        assert model.seconds_per_op("dense_gemm") == 1e-10

    def test_digest_is_the_profile_digest(self):
        profile = make_profile(sparse_matvec=1e-9)
        assert ProfiledCostModel(profile).digest() == profile.digest()


class TestResolveCostModel:
    def test_defaults_to_static(self, monkeypatch):
        monkeypatch.setenv("REPRO_COST_PROFILE", "static")
        model = resolve_cost_model(EngineConfig())
        assert isinstance(model, StaticCostModel)

    def test_config_path_resolves_profiled(self, tmp_path):
        path = make_profile(sparse_matvec=1e-9).save(tmp_path / "p.json")
        model = resolve_cost_model(EngineConfig(cost_profile=str(path)))
        assert isinstance(model, ProfiledCostModel)
        assert model.source == f"explicit:{path}"

    def test_config_static_sentinel_beats_env(self, tmp_path, monkeypatch):
        path = make_profile(sparse_matvec=1e-9).save(tmp_path / "p.json")
        monkeypatch.setenv("REPRO_COST_PROFILE", str(path))
        model = resolve_cost_model(EngineConfig(cost_profile="static"))
        assert isinstance(model, StaticCostModel)

    def test_config_bad_path_raises(self, tmp_path):
        config = EngineConfig(cost_profile=str(tmp_path / "missing.json"))
        with pytest.raises(ConfigurationError):
            resolve_cost_model(config)


class TestPlannerBitIdentity:
    """With no profile, plans must be bit-identical to the static weights."""

    CASES = [
        GraphStats(num_vertices=2048, num_edges=6144),
        GraphStats(num_vertices=64, num_edges=64 * 64 // 2),
        GraphStats(num_vertices=500, num_edges=2000, sharing_ratio=0.25),
    ]

    def test_explicit_static_model_matches_default_resolution(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_COST_PROFILE", "static")
        for stats in self.CASES:
            for config in (
                EngineConfig(),
                EngineConfig(method="oip-sr", iterations=5),
                EngineConfig(memory_budget=1024),
            ):
                default = plan_all(stats, config)
                pinned = plan_all(
                    stats, config, cost_model=StaticCostModel()
                )
                assert default == pinned

    def test_static_weighting_reproduces_legacy_arithmetic(self):
        # The per-vertex path computes `int(ops * PYTHON_LOOP_PENALTY)`;
        # the sharing solvers and psum run blocked CSR products and are
        # priced at the sparse_matvec weight instead, psum without the
        # sharing ratio.  Re-derive each from raw op counts and check the
        # planner's numbers match exactly.
        stats = GraphStats(num_vertices=500, num_edges=2000, sharing_ratio=0.5)
        baseline = 5 * stats.num_edges * stats.num_vertices
        shared = int(baseline * 0.5)
        for method, expected in (
            ("oip-sr", shared),
            ("oip-dsr", shared),
            ("psum", baseline),
        ):
            config = EngineConfig(method=method, iterations=5)
            plan = plan_task("all_pairs", stats, config)
            assert plan.estimated_ops == expected
            assert [kernel for kernel, _, _ in plan.constants] == ["sparse_matvec"]
        plan = plan_task("all_pairs", stats, EngineConfig(method="naive", iterations=5))
        assert plan.estimated_ops == int(baseline * PYTHON_LOOP_PENALTY)
        assert [kernel for kernel, _, _ in plan.constants] == ["python_vertex_step"]
        assert plan_task("all_pairs", stats, EngineConfig()).method == "matrix"

    def test_measured_profile_can_flip_the_backend_choice(self):
        # A host where dense BLAS is barely faster than CSR should keep
        # sparse even on graphs the static 8x guess would call dense.
        stats = GraphStats(num_vertices=64, num_edges=64 * 64 // 2)
        static_plan = plan_task("top_k", stats, EngineConfig())
        assert static_plan.backend == "dense"
        slow_blas = ProfiledCostModel(
            make_profile(sparse_matvec=1e-9, dense_gemm=9.9e-10)
        )
        measured_plan = plan_task(
            "top_k", stats, EngineConfig(), cost_model=slow_blas
        )
        assert measured_plan.backend == "sparse"

    def test_measured_constants_labelled_in_plan(self):
        model = ProfiledCostModel(
            make_profile(sparse_matvec=1e-9, dense_gemm=1e-10)
        )
        stats = GraphStats(num_vertices=256, num_edges=700)
        plan = plan_task("top_k", stats, EngineConfig(), cost_model=model)
        provenance = {kernel: prov for kernel, _, prov in plan.constants}
        assert provenance["sparse_matvec"] == "measured"
        assert provenance["dense_gemm"] == "measured"
        assert plan.estimated_seconds is not None
        assert plan.estimated_seconds > 0.0

    def test_static_plans_have_no_seconds_estimate(self):
        stats = GraphStats(num_vertices=256, num_edges=700)
        plan = plan_task(
            "top_k", stats, EngineConfig(), cost_model=StaticCostModel()
        )
        assert plan.estimated_seconds is None
        assert all(prov == "assumed" for _, _, prov in plan.constants)
