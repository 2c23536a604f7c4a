"""Hypothesis profile for the generated-plan property.

Tier-1 runs ``test_chaos_generated.py`` at its own small fixed budget.
CI's chaos step runs it again with a larger one::

    python -m pytest tests/chaos/test_chaos_generated.py --hypothesis-profile chaos
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "chaos",
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
