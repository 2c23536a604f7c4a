"""Hypothesis profile for the training-reference property.

Tier-1 runs ``test_training_reference.py`` at its own small fixed
budget.  CI's "Training properties" step runs it again with a larger
one::

    python -m pytest tests/nn/test_training_reference.py --hypothesis-profile train
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "train",
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
