"""Injection-site registry: catalog, install discipline, inject fast path."""

import pytest

from repro.chaos import (
    ChaosError,
    FaultPlan,
    FaultRule,
    UnknownSiteError,
    active_plan,
    inject,
    installed,
    register_site,
    site_catalog,
)

# Importing the owning layers registers their sites, same as the CLI does.
import repro.io.store  # noqa: F401
import repro.parallel.arena  # noqa: F401
import repro.serve  # noqa: F401


def latency_plan(site, trigger=None):
    return FaultPlan(
        rules=[
            FaultRule(
                site=site,
                fault="latency",
                trigger=trigger if trigger is not None else {"always": True},
                params={"seconds": 0.0},
            )
        ]
    )


class TestCatalog:
    def test_known_sites_are_registered(self):
        names = set(site_catalog())
        assert {
            "io.artifact.read",
            "io.artifact.write",
            "io.store.read",
            "parallel.arena.attach",
            "parallel.pool.submit",
            "serve.builder.build",
            "serve.engine.run",
        } <= names

    def test_catalog_entries_are_documented(self):
        for site in site_catalog().values():
            assert site.layer in {"io", "parallel", "serve", "test"}
            assert site.description

    def test_undotted_name_rejected(self):
        with pytest.raises(ChaosError, match="dotted"):
            register_site("flat", layer="test", description="x")

    def test_reregistration_is_idempotent(self):
        name = register_site("test.registry.site", layer="test", description="first")
        assert register_site(name, layer="test", description="revised") == name
        assert site_catalog()[name].description == "revised"

    def test_layer_conflict_rejected(self):
        register_site("test.registry.owned", layer="test", description="x")
        with pytest.raises(ChaosError, match="already registered"):
            register_site("test.registry.owned", layer="io", description="steal")


class TestInstalled:
    def test_inject_is_a_no_op_without_a_plan(self):
        assert active_plan() is None
        inject("io.artifact.read", path="anything")  # must not raise or count

    def test_install_activates_and_uninstalls(self):
        plan = latency_plan("io.artifact.read")
        with installed(plan) as active:
            assert active is plan
            assert active_plan() is plan
        assert active_plan() is None

    def test_uninstalls_on_error(self):
        plan = latency_plan("io.artifact.read")
        with pytest.raises(RuntimeError, match="boom"):
            with installed(plan):
                raise RuntimeError("boom")
        assert active_plan() is None

    def test_strict_rejects_unregistered_sites(self):
        plan = latency_plan("no.such.site")
        with pytest.raises(UnknownSiteError, match="no.such.site"):
            with installed(plan):
                pass  # pragma: no cover - install must fail first
        assert active_plan() is None

    def test_strict_false_allows_unregistered_sites(self):
        with installed(latency_plan("no.such.site"), strict=False):
            pass

    def test_nested_installs_rejected(self):
        outer = latency_plan("io.artifact.read")
        with installed(outer):
            with pytest.raises(ChaosError, match="do not nest"):
                with installed(latency_plan("io.artifact.write")):
                    pass  # pragma: no cover
            assert active_plan() is outer  # failed nest must not evict the outer plan
        assert active_plan() is None

    def test_only_targeted_sites_are_counted(self):
        plan = latency_plan("io.artifact.read", trigger={})
        with installed(plan):
            inject("io.artifact.read", path="a")
            inject("io.artifact.write", path="b")  # untargeted: not even counted
        assert plan.calls("io.artifact.read") == 1
        assert plan.calls("io.artifact.write") == 0

    def test_context_kwargs_reach_the_fault(self):
        sleeps = []
        plan = FaultPlan(
            rules=[
                FaultRule(
                    site="io.artifact.read",
                    fault="latency",
                    trigger={"always": True},
                    params={"seconds": 0.25},
                )
            ]
        )
        with installed(plan):
            inject("io.artifact.read", path="a", sleep=sleeps.append)
        assert sleeps == [0.25]
        assert plan.fired == [("io.artifact.read", 1, "latency")]
