"""Hypothesis profile for the compiled engine's properties.

Tier-1 runs ``test_blocked_conv_matches_reference`` and
``test_average_pool_matches_reference`` at their own small fixed budget.
CI's engine step runs them again with a larger one::

    python -m pytest tests/core/test_engine_properties.py -k "blocked or average_pool" --hypothesis-profile engine
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "engine",
    max_examples=1500,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
