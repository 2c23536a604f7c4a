"""Training against a frozen reference: three paths, one trajectory.

``tests/nn/reference_layers.py`` holds the seven planned layers' float
arithmetic as an independent copy.  Each property here trains one net
three ways from identical state -- reference classes swapped in, the
eager stack (``compiled=False``) and the compiled trainer
(``compiled=True``) -- and requires bitwise-equal losses, validation
errors, final weights and final gradients.  Without the reference, the
eager and compiled paths would be checked only against each other, and
they share their kernels.

Tier-1 runs the generated property at a small budget; CI runs it again
under the ``train`` profile (``tests/nn/conftest.py``)::

    python -m pytest tests/nn/test_training_reference.py --hypothesis-profile train
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import MFDFPConfig, run_algorithm1
from repro.core.mfdfp import MFDFPNetwork
from repro.nn import (
    SGD,
    ArrayDataset,
    AvgPool2D,
    CompiledTrainer,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    Trainer,
)
from repro.nn.layers import conv

from reference_layers import referencify

WAYS = ("reference", "eager", "compiled")
TIER1_EXAMPLES = 25


def budget() -> settings:
    if settings.get_current_profile_name() == "train":
        return settings.get_profile("train")
    return settings(max_examples=TIER1_EXAMPLES, deadline=None)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_arrays(want: dict, got: dict, what: str) -> None:
    assert set(want) == set(got)
    for name, a in want.items():
        b = got[name]
        assert a.dtype == b.dtype and a.shape == b.shape, f"{what} {name}"
        assert a.tobytes() == b.tobytes(), f"{what} {name} differs bitwise"


def assert_same_runs(runs: dict) -> None:
    ref = runs["reference"]
    for way in WAYS[1:]:
        got = runs[way]
        assert _bits(got["losses"]) == _bits(ref["losses"]), f"{way} losses"
        assert _bits(got["val"]) == _bits(ref["val"]), f"{way} val errors"
        assert_same_arrays(ref["weights"], got["weights"], f"{way} weight")
        assert_same_arrays(ref["grads"], got["grads"], f"{way} grad")
        assert_same_arrays(ref["logits"], got["logits"], f"{way} inference logits")


# -- generated nets --------------------------------------------------------------
_conv = st.fixed_dictionaries(
    {
        "groups": st.sampled_from([1, 2]),
        "kernel": st.sampled_from([1, 2, 3]),
        "stride": st.integers(1, 2),
        "pad": st.integers(0, 1),
        "bias": st.booleans(),
    }
)
_pool = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["max", "avg"]),
        "kernel": st.sampled_from([2, 3]),
        "stride": st.integers(1, 2),
        "pad": st.integers(0, 1),
        "ceil": st.booleans(),
    }
)
_spec = st.fixed_dictionaries(
    {
        "size": st.integers(5, 9),
        "in_c": st.sampled_from([2, 4]),
        "convs": st.lists(st.tuples(_conv, _pool), min_size=1, max_size=2),
        "dropout": st.sampled_from([0.0, 0.3]),
        "dtype": st.sampled_from([np.float32, np.float64]),
        "hooks": st.booleans(),
        "batch": st.integers(3, 6),
        "n_train": st.integers(7, 14),
    }
)


def build_net(spec, seed=0):
    """The drawn conv/pool stack, dropout, flatten and a dense head.

    Raises ``ValueError`` for a geometry with no output.
    """
    rng = np.random.default_rng(seed)
    dtype = spec["dtype"]
    c, size = spec["in_c"], spec["size"]
    shape = (c, size, size)
    layers = []
    for i, (conv, pool) in enumerate(spec["convs"]):
        g = conv["groups"]
        layer = Conv2D(
            shape[0], 2 * g, conv["kernel"], stride=conv["stride"], pad=conv["pad"],
            groups=g, bias=conv["bias"], dtype=dtype, rng=rng, name=f"c{i}",
        )
        pool_cls = MaxPool2D if pool["kind"] == "max" else AvgPool2D
        for new in (
            layer,
            ReLU(name=f"r{i}"),
            pool_cls(pool["kernel"], stride=pool["stride"], pad=pool["pad"],
                     ceil_mode=pool["ceil"], name=f"p{i}"),
        ):
            shape = new.output_shape(shape)
            layers.append(new)
    if spec["dropout"]:
        layers.append(Dropout(spec["dropout"], rng=np.random.default_rng(seed + 7), name="d"))
    layers += [Flatten(name="fl"), Dense(int(np.prod(shape)), 3, dtype=dtype, rng=rng, name="fc")]
    return Network(layers, input_shape=(c, size, size), name="drawn")


def make_data(spec, n, seed):
    rng = np.random.default_rng(seed)
    size = spec["size"]
    x = rng.normal(scale=0.7, size=(n, spec["in_c"], size, size)).astype(spec["dtype"])
    return ArrayDataset(x, rng.integers(0, 3, size=n))


def train_one(make_net, spec, train, val, way, epochs=2):
    net = make_net()
    if spec["hooks"]:
        net = MFDFPNetwork.from_float(net, train.x[:4]).net
    if way == "reference":
        referencify(net)
    trainer = Trainer(
        net,
        SGD(net.params, lr=0.02, momentum=0.9),
        batch_size=spec["batch"],
        rng=np.random.default_rng(11),
        compiled=way == "compiled",
    )
    history = trainer.fit(train, val, epochs=epochs)
    return {
        "losses": history.train_losses,
        "val": history.val_errors,
        "weights": {p.name: p.data for p in net.params},
        "grads": {p.name: p.grad for p in net.params},
        "logits": inference_logits(
            lambda x: trainer.forward_batch(x, training=False),
            lambda n: make_data(spec, n, seed=3).x,
        ),
    }


def inference_logits(forward, inputs) -> dict:
    """Logits of ``forward`` on ``inputs(n)`` at 2 blocks + 3 samples.

    The conv budget is patched to 1 and then 2 samples per block: the
    compiled trainer's blocked inference GEMMs must reproduce the
    whole-batch ones bit for bit.
    """
    logits = {}
    for block in (1, 2):
        with mock.patch.object(conv, "inference_block", lambda sample_bytes: block):
            logits[f"block{block}"] = forward(inputs(2 * block + 3)).copy()
    return logits


@given(spec=_spec)
@budget()
def test_generated_nets_train_like_the_reference(spec):
    try:
        build_net(spec)
    except ValueError:
        assume(False)
    train = make_data(spec, spec["n_train"], seed=1)
    val = make_data(spec, 5, seed=2)
    runs = {way: train_one(lambda: build_net(spec), spec, train, val, way) for way in WAYS}
    assert_same_runs(runs)


# -- Algorithm 1, phases 1 and 2 -------------------------------------------------
def tiny_net():
    rng = np.random.default_rng(0)
    return Network(
        [
            Conv2D(3, 4, 3, pad=1, rng=rng, name="c1"),
            ReLU(name="r1"),
            MaxPool2D(3, stride=2, name="p1"),
            Conv2D(4, 4, 3, pad=1, groups=2, rng=rng, name="c2"),
            ReLU(name="r2"),
            AvgPool2D(3, stride=2, name="p2"),
            Dropout(0.2, rng=np.random.default_rng(9), name="d1"),
            Flatten(name="fl"),
            Dense(16, 4, rng=rng, name="fc"),
        ],
        input_shape=(3, 8, 8),
        name="tiny",
    )


def test_run_algorithm1_matches_the_reference(monkeypatch):
    """Phase 1 and the phase-2 distillation, teacher included."""
    rng = np.random.default_rng(21)
    train = ArrayDataset(
        rng.normal(scale=0.5, size=(40, 3, 8, 8)).astype(np.float32), rng.integers(0, 4, 40)
    )
    val = ArrayDataset(
        rng.normal(scale=0.5, size=(20, 3, 8, 8)).astype(np.float32), rng.integers(0, 4, 20)
    )
    from_float = MFDFPNetwork.from_float.__func__
    real_classes = {}

    def reference_from_float(cls, net, *args, **kwargs):
        # Quantize the real layers (the planner reads layer types), then
        # hand the hooked student back on reference classes.  The
        # teacher was cloned from ``net`` while it was still referenced.
        for layer in net.layers:
            layer.__class__ = real_classes[layer.name]
        model = from_float(cls, net, *args, **kwargs)
        referencify(model.net)
        return model

    runs = {}
    for way in WAYS:
        net = tiny_net()
        with monkeypatch.context() as patch:
            if way == "reference":
                real_classes.update({layer.name: type(layer) for layer in net.layers})
                referencify(net)
                patch.setattr(MFDFPNetwork, "from_float", classmethod(reference_from_float))
            config = MFDFPConfig(
                phase1_epochs=2, phase2_epochs=2, lr=0.01, batch_size=16,
                compiled=way == "compiled",
            )
            result = run_algorithm1(
                net, train, val, train.x[:16], config, rng=np.random.default_rng(5)
            )
        assert type(result.mfdfp.net.layers[0]).__name__ == (
            "RefConv2D" if way == "reference" else "Conv2D"
        )
        student = result.mfdfp.net
        params = student.params
        runs[way] = {
            "losses": result.phase1.train_losses + result.phase2.train_losses,
            "val": result.phase1.val_errors + result.phase2.val_errors,
            "weights": {p.name: p.data for p in params},
            "grads": {p.name: p.grad for p in params},
            "logits": inference_logits(
                CompiledTrainer(student).logits if way == "compiled" else student.logits,
                lambda n: val.x[:n],
            ),
        }
    assert len(runs["reference"]["losses"]) == 4
    assert_same_runs(runs)


def test_referencify_refuses_unknown_layers():
    from repro.nn import Tanh

    with pytest.raises(TypeError, match="Tanh"):
        referencify(Network([Tanh()]))
