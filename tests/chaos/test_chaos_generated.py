"""Generated fault plans through every scenario harness.

Hypothesis draws plans (site × fault × trigger) restricted to the sites
a harness crosses and the faults valid there, and runs each through
:func:`repro.chaos.run_plan`: no hang, typed errors only, every
completed result bit-identical to the harness's fault-free reference,
and, in ``cold-start`` and ``serve``, every load or request that no
fault touched completed while a verified version existed.
A failure shrinks to a minimal plan whose JSON is printed with the
falsifying example; ``run_plan(HARNESSES[name],
FaultPlan.from_json(text))`` replays it.
"""

import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.chaos import HARNESSES, FaultPlan, FaultRule, run_plan

#: Examples per harness in tier-1; the ``chaos`` profile (conftest.py)
#: raises it for CI's chaos step.
TIER1_EXAMPLES = {"resume": 25, "resume-in-child": 8, "cold-start": 25, "campaign": 15, "serve": 20}

#: File names each harness writes and reads, for ``suffix`` triggers.
CHECKPOINTS = ["epoch_0002.npz", "epoch_0003.npz"]
VERSIONS = ["v0001.npz", "v0002.npz"]
SUFFIXES = {"resume": CHECKPOINTS, "resume-in-child": CHECKPOINTS,
            "cold-start": VERSIONS, "serve": VERSIONS}

PARAMS = {
    "bitflip": st.fixed_dictionaries({"flips": st.integers(1, 4)}),
    "truncate": st.fixed_dictionaries({"fraction": st.sampled_from([0.0, 0.3, 0.6, 0.95])}),
    "torn-write": st.fixed_dictionaries({"fraction": st.sampled_from([0.0, 0.4, 0.9])}),
    "raise": st.fixed_dictionaries(
        {"error": st.sampled_from(["artifact-corrupt", "transient-store"])}
    ),
    "latency": st.fixed_dictionaries({"seconds": st.sampled_from([0.0, 0.003])}),
    "crash": st.just({}),
    "sigkill-worker": st.fixed_dictionaries({"worker": st.integers(0, 1)}),
    "sigkill-self": st.just({}),
}


def triggers(site: str, suffixes: list):
    calls = st.integers(1, 6)
    base = st.one_of(
        calls.map(lambda c: {"call": c}),
        st.lists(calls, min_size=1, max_size=3, unique=True).map(lambda cs: {"calls": sorted(cs)}),
        st.just({"always": True}),
    )
    if not site.startswith("io.") or not suffixes:
        return base
    # Besides counted calls, with or without a file filter: every access
    # of one file, the shape of bit rot in a single artifact.
    return st.one_of(
        st.tuples(base, st.none() | st.sampled_from(suffixes)).map(
            lambda t: t[0] if t[1] is None else {**t[0], "suffix": t[1]}
        ),
        st.sampled_from(suffixes).map(lambda suffix: {"always": True, "suffix": suffix}),
    )


@st.composite
def plans(draw, harness):
    rules = []
    for _ in range(draw(st.integers(1, 2))):
        site = draw(st.sampled_from(sorted(harness.sites)))
        fault = draw(st.sampled_from(harness.sites[site]))
        trigger = draw(triggers(site, SUFFIXES.get(harness.name, [])))
        rules.append(FaultRule(site, fault, trigger, draw(PARAMS[fault])))
    return FaultPlan(seed=draw(st.integers(0, 2**16)), rules=rules, name=f"generated-{harness.name}")


def budget(name: str) -> settings:
    if settings.get_current_profile_name() == "chaos":
        return settings.get_profile("chaos")
    return settings(
        max_examples=TIER1_EXAMPLES[name],
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


def _property(name: str):
    harness = HARNESSES[name]

    @budget(name)
    @given(plan=plans(harness))
    def check(plan):
        note(plan.to_json())
        report = run_plan(harness, plan, quick=True)
        assert report.passed

    return check


def test_every_harness_is_covered():
    assert set(TIER1_EXAMPLES) == set(HARNESSES)
    sites = set().union(*(h.sites for h in HARNESSES.values()))
    assert {"serve.engine.run", "serve.builder.build", "parallel.pool.submit"} <= sites
    assert [n for n, h in HARNESSES.items() if "sigkill-self" in h.sites.get("io.artifact.write", ())] == [
        "resume-in-child"
    ]


@pytest.mark.parametrize("name", sorted(TIER1_EXAMPLES))
def test_generated_plans_recover(name):
    _property(name)()


#: Plans that exposed defects, replayed on every run: each fails against
#: the io layer before its fix, or (the last) against a store loader
#: that stops at its first quarantine.  Seed 11180 came from the
#: property run with a larger randomized budget; 161 and 152 from seed
#: searches over a single rule of the same kind.
REGRESSIONS = {
    # Bitflips in a checkpoint's zip central directory hid tensor entries
    # while every remaining entry passed its CRC: the file loaded,
    # latest() chose it, and resume raised a raw KeyError (weights) or
    # ValueError (velocity) instead of skipping it.
    "hidden-zip-entries-on-read": (
        "resume",
        '{"seed": 11180, "rules": [{"site": "io.artifact.read", "fault": "bitflip",'
        ' "trigger": {"always": true}}]}',
    ),
    "hidden-zip-entries-on-write": (
        "resume",
        '{"seed": 161, "rules": [{"site": "io.artifact.write", "fault": "bitflip",'
        ' "trigger": {"call": 3}}]}',
    ),
    # A bitflip renamed a checkpoint's __header__ entry in the central
    # directory: the read said "missing header" (a foreign file), so
    # latest() kept naming it and no resume could recover.
    "renamed-header-entry": (
        "resume",
        '{"seed": 152, "rules": [{"site": "io.artifact.read", "fault": "bitflip",'
        ' "trigger": {"always": true}}]}',
    ),
    # v2 is written truncated; the warm read then quarantines it with no
    # fault firing and must fall back to v1, which verifies.  A loader
    # that gives up after its first quarantine fails the must-complete
    # rule here, where typed errors alone would let it pass.
    "quarantine-then-fall-back": (
        "cold-start",
        '{"seed": 0, "rules": [{"site": "io.artifact.write", "fault": "truncate",'
        ' "trigger": {"suffix": "v0002.npz", "always": true}, "params": {"fraction": 0.6}}]}',
    ),
}


@pytest.mark.parametrize("case", sorted(REGRESSIONS))
def test_regression_plans_recover(case):
    name, text = REGRESSIONS[case]
    report = run_plan(HARNESSES[name], FaultPlan.from_json(text), quick=True)
    assert report.fired
