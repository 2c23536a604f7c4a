"""Property tests: BatchedEngine ≡ eager executor over random op spaces.

For every executable layer kind, seeded random draws of geometry
(shapes, kernels, strides, padding, groups), fraction lengths and 4-bit
weight codes build single-op deployed networks, and a ``chain`` draw
builds a six-op network that hands activations from kernel to kernel;
the compiled engine must match the eager reference bit-for-bit for
every batch size, and batching itself must not change any value (a
batch run equals the concatenation of solo runs).  The engine-cache hit
path is part of the property: equal-content artifacts must yield the
*same object* and the same outputs.

The compiled conv kernel gathers and multiplies its im2col operand in
blocks of output rows (:data:`repro.core.engine.BLOCK_BYTES`).  Small
test geometries fit one block, so a hypothesis property shrinks the
block size until every block is one output row, or the last block is
ragged, over 8- and 16-bit conv nets and engines on shared weight planes.

The compiled average pool divides and rounds in float; a second
hypothesis property draws average pools alone and after a conv over 2-
to 16-bit datapaths and radix shifts of -8 to +8, with inputs whose
quotients often land exactly on a half.

A conv's weight plane carries its route scale, and a conv followed by a
max pool leaves its rounding to the pool; a third hypothesis property
draws conv → max-pool pairs over 2- to 16-bit datapaths with fractions
at float32's normal and overflow edges, fed non-finite, huge and
nearly-half-code inputs in float32 and float64.
"""

import dataclasses
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, note, settings
from hypothesis import strategies as st

from repro.core import engine as engine_mod
from repro.core.engine import (
    BatchedEngine,
    EngineCache,
    engine_fingerprint,
    execute_deployed,
    op_dtypes,
)
from repro.core.mfdfp import DeployedLayer, DeployedMFDFP
from repro.hw.datapath import DatapathOverflowError, datapath_widths
from repro.nn.layers.pool import pool_output_size, pool_valid_counts
from repro.parallel import SharedWeightArena, attach_planes
from repro.parallel.arena import _ATTACHED

SEEDS = range(6)
BATCH_SIZES = (1, 3, 17, 64)


def _fracs(rng):
    return int(rng.integers(0, 8)), int(rng.integers(0, 8))


def _random_conv(rng):
    in_frac, out_frac = _fracs(rng)
    groups = int(rng.choice([1, 2]))
    cin = groups * int(rng.integers(1, 4))
    cout = groups * int(rng.integers(1, 4))
    h, w = (int(v) for v in rng.integers(5, 10, size=2))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, 3))
    op = DeployedLayer(
        kind="conv",
        name="conv_prop",
        in_frac=in_frac,
        out_frac=out_frac,
        weight_codes=rng.integers(0, 16, size=(cout, cin // groups, k, k)),
        bias_int=rng.integers(-4000, 4000, size=cout) if rng.integers(2) else None,
        activation=str(rng.choice(["none", "relu"])),
        in_channels=cin,
        out_channels=cout,
        kernel_size=k,
        stride=stride,
        pad=pad,
        groups=groups,
    )
    return [op], (cin, h, w)


def _random_dense(rng):
    in_frac, out_frac = _fracs(rng)
    fin = int(rng.integers(1, 40))
    fout = int(rng.integers(1, 10))
    op = DeployedLayer(
        kind="dense",
        name="dense_prop",
        in_frac=in_frac,
        out_frac=out_frac,
        weight_codes=rng.integers(0, 16, size=(fout, fin)),
        bias_int=rng.integers(-4000, 4000, size=fout) if rng.integers(2) else None,
        activation=str(rng.choice(["none", "relu"])),
        in_features=fin,
        out_features=fout,
    )
    return [op], (fin,)


def _random_pool(kind):
    def draw(rng):
        in_frac, out_frac = _fracs(rng)
        c = int(rng.integers(1, 4))
        h, w = (int(v) for v in rng.integers(5, 10, size=2))
        k = int(rng.integers(2, 4))
        op = DeployedLayer(
            kind=kind,
            name=f"{kind}_prop",
            in_frac=in_frac,
            out_frac=out_frac,
            kernel_size=k,
            stride=int(rng.integers(1, 3)),
            pad=int(rng.integers(0, 2)),
            ceil_mode=bool(rng.integers(2)),
        )
        return [op], (c, h, w)

    return draw


def _random_flatten(rng):
    in_frac = int(rng.integers(0, 8))
    c, h, w = (int(v) for v in rng.integers(2, 6, size=3))
    op = DeployedLayer(kind="flatten", name="flat_prop", in_frac=in_frac, out_frac=in_frac)
    return [op], (c, h, w)


def _random_chain(rng):
    """conv → maxpool → conv (groups 2) → avgpool (ceil mode) → flatten → dense.

    Exercises the kernels' layout handoff: every op after the first
    reads the previous kernel's output, not a fresh input batch.
    """
    fracs = [int(f) for f in rng.integers(0, 8, size=6)]
    c, h, w = int(rng.integers(1, 4)), *(int(v) for v in rng.integers(12, 17, size=2))
    ops = []

    def conv(name, in_frac, out_frac, cin, groups, spatial):
        cout = 2 * int(rng.integers(1, 4))
        k = min(int(rng.integers(1, 4)), *spatial)
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, k))
        ops.append(
            DeployedLayer(
                kind="conv",
                name=name,
                in_frac=in_frac,
                out_frac=out_frac,
                weight_codes=rng.integers(0, 16, size=(cout, cin // groups, k, k)),
                bias_int=rng.integers(-4000, 4000, size=cout) if rng.integers(2) else None,
                activation=str(rng.choice(["none", "relu"])),
                in_channels=cin,
                out_channels=cout,
                kernel_size=k,
                stride=stride,
                pad=pad,
                groups=groups,
            )
        )
        return cout, tuple((v + 2 * pad - k) // stride + 1 for v in spatial)

    def pool(kind, name, in_frac, out_frac, spatial, ceil_mode):
        k = min(int(rng.integers(2, 4)), *spatial)
        stride = int(rng.integers(1, min(k, 2) + 1))
        pad = int(rng.integers(0, k // 2 + 1))
        ops.append(
            DeployedLayer(
                kind=kind,
                name=name,
                in_frac=in_frac,
                out_frac=out_frac,
                kernel_size=k,
                stride=stride,
                pad=pad,
                ceil_mode=ceil_mode,
            )
        )
        return tuple(pool_output_size(v, k, stride, pad, ceil_mode) for v in spatial)

    c1, spatial = conv("conv1", fracs[0], fracs[1], c, 1, (h, w))
    spatial = pool("maxpool", "pool1", fracs[1], fracs[2], spatial, bool(rng.integers(2)))
    c2, spatial = conv("conv2", fracs[2], fracs[3], c1, 2, spatial)
    spatial = pool("avgpool", "pool2", fracs[3], fracs[4], spatial, True)
    ops.append(DeployedLayer(kind="flatten", name="flat", in_frac=fracs[4], out_frac=fracs[4]))
    fin, fout = c2 * spatial[0] * spatial[1], int(rng.integers(1, 10))
    ops.append(
        DeployedLayer(
            kind="dense",
            name="fc",
            in_frac=fracs[4],
            out_frac=fracs[5],
            weight_codes=rng.integers(0, 16, size=(fout, fin)),
            bias_int=rng.integers(-4000, 4000, size=fout) if rng.integers(2) else None,
            activation=str(rng.choice(["none", "relu"])),
            in_features=fin,
            out_features=fout,
        )
    )
    return ops, (c, h, w)


DRAWS = {
    "conv": _random_conv,
    "dense": _random_dense,
    "maxpool": _random_pool("maxpool"),
    "avgpool": _random_pool("avgpool"),
    "flatten": _random_flatten,
    "chain": _random_chain,
}


def _deployed(kind, seed):
    # stable per-kind offset (hash() is randomized across processes)
    rng = np.random.default_rng(1000 * seed + sum(kind.encode()))
    ops, in_shape = DRAWS[kind](rng)
    deployed = DeployedMFDFP(
        name=f"prop_{kind}_{seed}",
        input_shape=in_shape,
        input_frac=ops[0].in_frac,
        bits=8,
        ops=ops,
    )
    return deployed, rng


@pytest.mark.parametrize("kind", sorted(DRAWS))
@pytest.mark.parametrize("seed", SEEDS)
class TestEngineMatchesReference:
    def test_bit_identical_roundtrip(self, kind, seed):
        deployed, rng = _deployed(kind, seed)
        engine = BatchedEngine(deployed)
        for n in BATCH_SIZES:
            x = rng.uniform(-2.0, 2.0, size=(n,) + deployed.input_shape)
            reference = execute_deployed(deployed, x)
            codes = engine.run_codes(x)
            assert codes.dtype.kind in "iu"
            assert np.array_equal(codes, reference), f"{kind} seed={seed} N={n}"
            scale = 2.0 ** (-deployed.ops[-1].out_frac)
            assert np.array_equal(engine.run(x), codes.astype(np.float64) * scale)

    def test_batching_never_changes_values(self, kind, seed):
        deployed, rng = _deployed(kind, seed)
        engine = BatchedEngine(deployed)
        x = rng.uniform(-2.0, 2.0, size=(7,) + deployed.input_shape)
        solo = np.concatenate([engine.run_codes(x[i : i + 1]) for i in range(7)])
        assert np.array_equal(engine.run_codes(x), solo)


@pytest.mark.parametrize("kind", sorted(DRAWS))
class TestEngineCacheHitPath:
    def test_cache_hit_same_object_same_outputs(self, kind):
        deployed, rng = _deployed(kind, seed=0)
        cache = EngineCache()
        engine = cache.get(deployed)
        x = rng.uniform(-2.0, 2.0, size=(5,) + deployed.input_shape)
        baseline = engine.run(x)
        hit = cache.get(deployed)
        assert hit is engine
        assert np.array_equal(hit.run(x), baseline)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_equal_content_distinct_objects_share_engine(self, kind):
        first, _ = _deployed(kind, seed=0)
        rebuilt, rng = _deployed(kind, seed=0)
        assert first is not rebuilt
        assert engine_fingerprint(first) == engine_fingerprint(rebuilt)
        cache = EngineCache()
        engine = cache.get(first)
        assert cache.get(rebuilt) is engine
        x = rng.uniform(-2.0, 2.0, size=(4,) + first.input_shape)
        assert np.array_equal(engine.run(x), execute_deployed(rebuilt, x) * 2.0 ** (-rebuilt.ops[-1].out_frac))

    def test_different_content_gets_different_engine(self, kind):
        a, _ = _deployed(kind, seed=1)
        b, _ = _deployed(kind, seed=2)
        assert engine_fingerprint(a) != engine_fingerprint(b)
        cache = EngineCache()
        assert cache.get(a) is not cache.get(b)


def test_cache_hit_accounting_is_exact_under_threads():
    """Regression (lock-discipline): the hit counter is bumped inside
    the cache mutex (``_lookup_locked``), so N concurrent lookups of a
    compiled engine record exactly N-1 hits and 1 miss — no dropped
    increments from racing read-modify-writes."""
    from concurrent.futures import ThreadPoolExecutor

    deployed, _ = _deployed("dense", seed=0)
    cache = EngineCache()
    total = 64
    with ThreadPoolExecutor(8) as pool:
        engines = list(pool.map(lambda _: cache.get(deployed), range(total)))
    assert all(e is engines[0] for e in engines)
    assert cache.misses == 1
    assert cache.hits == total - 1


def test_fingerprint_memo_is_not_inherited_by_mutated_copies():
    """Regression: the fault injector deep-copies then mutates; the copy
    must not reuse the original's memoized digest (stale-cache hazard)."""
    import copy

    deployed, _ = _deployed("dense", seed=3)
    original = engine_fingerprint(deployed)
    faulty = copy.deepcopy(deployed)
    faulty.ops[0].weight_codes = faulty.ops[0].weight_codes ^ 1  # flip LSBs
    assert engine_fingerprint(faulty) != original
    assert engine_fingerprint(deployed) == original  # memo still intact
    cache = EngineCache()
    assert cache.get(deployed) is not cache.get(faulty)


# -- blocked conv kernel -----------------------------------------------------------

#: Examples in tier-1; the ``engine`` profile (conftest.py) raises it
#: for CI's engine step.
TIER1_BLOCK_EXAMPLES = 100

#: Batch sizes of the block property: empty, solo, odd, one past 64.
BLOCK_BATCHES = (0, 1, 3, 17, 64, 65)


def block_budget() -> settings:
    if settings.get_current_profile_name() == "engine":
        return settings.get_profile("engine")
    return settings(
        max_examples=TIER1_BLOCK_EXAMPLES,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@st.composite
def conv_specs(draw):
    """One or two stacked conv ops as plain values (``@example``-able).

    16-bit nets get 3x3 kernels, a fan-in of at least 9, so each of
    their convs can sum past 2^24 and runs in float64; inputs are at least 7 pixels
    high, so the first conv has at least 3 output rows (a ragged split
    exists).
    """
    bits = draw(st.sampled_from([8, 16]))
    layers, cin = [], draw(st.integers(1, 3))
    for _ in range(draw(st.integers(1, 2))):
        groups = draw(st.sampled_from([1, 2]))
        if not layers:
            cin *= groups
        elif cin % groups:
            groups = 1
        k = draw(st.integers(3 if bits == 16 else 1, 3))
        layers.append(
            dict(
                groups=groups,
                cin=cin,
                cout=groups * draw(st.integers(1, 3)),
                k=k,
                stride=draw(st.integers(1, 2)),
                pad=draw(st.integers(0, k - 1)),
                bias=draw(st.booleans()),
                relu=draw(st.booleans()),
            )
        )
        cin = layers[-1]["cout"]
    return dict(
        bits=bits,
        hw=(draw(st.integers(7, 14)), draw(st.integers(7, 14))),
        fracs=draw(st.lists(st.integers(0, 7), min_size=len(layers) + 1, max_size=len(layers) + 1)),
        layers=layers,
        seed=draw(st.integers(0, 2**16)),
    )


def _conv_net(spec) -> DeployedMFDFP:
    rng = np.random.default_rng(spec["seed"])
    ops, fracs = [], spec["fracs"]
    for i, layer in enumerate(spec["layers"]):
        cin, cout, g, k = layer["cin"], layer["cout"], layer["groups"], layer["k"]
        ops.append(
            DeployedLayer(
                kind="conv",
                name=f"conv{i + 1}",
                in_frac=fracs[i],
                out_frac=fracs[i + 1],
                weight_codes=rng.integers(0, 16, size=(cout, cin // g, k, k)),
                bias_int=rng.integers(-4000, 4000, size=cout) if layer["bias"] else None,
                activation="relu" if layer["relu"] else "none",
                in_channels=cin,
                out_channels=cout,
                kernel_size=k,
                stride=layer["stride"],
                pad=layer["pad"],
                groups=g,
            )
        )
    c = spec["layers"][0]["cin"]
    return DeployedMFDFP(
        name="blocks", input_shape=(c, *spec["hw"]), input_frac=fracs[0], bits=spec["bits"], ops=ops
    )


def _ragged_block_bytes(deployed: DeployedMFDFP, n: int) -> int:
    """A block size that cuts the first conv's output rows unevenly."""
    op = deployed.ops[0]
    c, h, w = deployed.input_shape
    k, s, p = op.kernel_size, op.stride, op.pad
    oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    rows = max(r for r in range(2, oh) if oh % r)
    return rows * c * k * k * ow * op_dtypes(deployed)[0].itemsize * n


def _shared_codes(deployed: DeployedMFDFP, x: np.ndarray) -> np.ndarray:
    """Run ``x`` on an engine over shared-memory weight planes.

    The segment is unmapped only after a clean run: a failing kernel's
    traceback still holds views of it.
    """
    with SharedWeightArena(prefix=f"repro-blocks-{os.getpid()}") as arena:
        spec = arena.publish(deployed)
        codes = BatchedEngine(deployed, weight_planes=attach_planes(spec)).run_codes(x)
        _ATTACHED.pop(spec.segment)[0].close()
    return codes


@block_budget()
@given(
    spec=conv_specs(),
    n=st.sampled_from(BLOCK_BATCHES),
    split=st.sampled_from(["row", "ragged"]),
    shared=st.booleans(),
)
@example(
    spec=dict(
        bits=8,
        hw=(9, 11),
        fracs=[3, 5, 2],
        layers=[
            dict(groups=2, cin=4, cout=6, k=3, stride=2, pad=1, bias=True, relu=True),
            dict(groups=2, cin=6, cout=4, k=2, stride=1, pad=0, bias=False, relu=False),
        ],
        seed=7,
    ),
    n=65,
    split="ragged",
    shared=True,
)
def test_blocked_conv_matches_reference(spec, n, split, shared):
    """Every block split of every conv equals ``execute_deployed`` bit for bit."""
    note(repr(spec))
    deployed = _conv_net(spec)
    if spec["bits"] == 16:
        assert set(op_dtypes(deployed)) == {np.dtype(np.float64)}
    x = np.random.default_rng(spec["seed"]).uniform(-2.0, 2.0, size=(n,) + deployed.input_shape)
    block_bytes = 1 if split == "row" else _ragged_block_bytes(deployed, n)
    splits = []
    blocks = engine_mod._im2col_blocks

    def recorded(*key):
        splits.append((key[-1], [hi - lo for lo, hi, _ in blocks(*key)]))
        return blocks(*key)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "BLOCK_BYTES", block_bytes)
        mp.setattr(engine_mod, "_im2col_blocks", recorded)
        codes = _shared_codes(deployed, x) if shared else BatchedEngine(deployed).run_codes(x)
    assert np.array_equal(codes, execute_deployed(deployed, x))
    assert len(splits) == len(deployed.ops)
    if n == 0:
        return
    if split == "row":
        assert [rows for rows, _ in splits] == [1] * len(splits)
    else:
        sizes = splits[0][1]
        assert len(sizes) > 1 and sizes[-1] < sizes[0]


# -- average pool ------------------------------------------------------------------


@st.composite
def average_pool_specs(draw):
    """An average pool, alone or after a conv, as plain values (``@example``-able).

    ``shift`` moves the radix by -8 to +8, or puts the pool's output
    fraction anywhere in [-64, 64]; the input fraction reaches [-64, 64]
    too.  Past the float64 bound the engine must refuse the pool.
    """
    bits = draw(st.integers(2, 16))
    k = draw(st.integers(1, 5))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, min(2, k // 2)))
    conv = draw(
        st.none()
        | st.fixed_dictionaries(
            dict(cin=st.integers(1, 2), k=st.integers(1, 3), out_frac=st.integers(0, 8), relu=st.booleans())
        )
    )
    in_frac = draw(st.integers(0, 8) | st.integers(-64, 64))
    pool_in_frac = conv["out_frac"] if conv else in_frac
    shift = draw(st.integers(-8, 8) | st.integers(-64, 64).map(lambda out: out - pool_in_frac))
    c = conv["cin"] if conv else draw(st.integers(1, 2))
    h, w = draw(st.integers(max(1, k - 2 * pad), k + 6)), draw(st.integers(max(1, k - 2 * pad), k + 6))
    if conv:
        h, w = h + conv["k"] - 1, w + conv["k"] - 1
    return dict(
        bits=bits,
        k=k,
        stride=stride,
        pad=pad,
        ceil_mode=draw(st.booleans()),
        shift=shift,
        in_frac=in_frac,
        conv=conv,
        shape=(c, h, w),
        seed=draw(st.integers(0, 2**16)),
    )


def _average_pool_net(spec) -> DeployedMFDFP:
    rng = np.random.default_rng(spec["seed"])
    ops, frac = [], spec["in_frac"]
    if spec["conv"]:
        conv, cout = spec["conv"], 2
        ops.append(
            DeployedLayer(
                kind="conv",
                name="conv",
                in_frac=frac,
                out_frac=conv["out_frac"],
                weight_codes=rng.integers(0, 16, size=(cout, conv["cin"], conv["k"], conv["k"])),
                activation="relu" if conv["relu"] else "none",
                in_channels=conv["cin"],
                out_channels=cout,
                kernel_size=conv["k"],
            )
        )
        frac = conv["out_frac"]
    ops.append(
        DeployedLayer(
            kind="avgpool",
            name="avgpool",
            in_frac=frac,
            out_frac=frac + spec["shift"],
            kernel_size=spec["k"],
            stride=spec["stride"],
            pad=spec["pad"],
            ceil_mode=spec["ceil_mode"],
        )
    )
    return DeployedMFDFP(
        name="avgpool", input_shape=spec["shape"], input_frac=spec["in_frac"], bits=spec["bits"], ops=ops
    )


def _tie_prone_codes(rng, n: int, shape: tuple, code_max: int, shift: int) -> np.ndarray:
    """Input codes mixing the full range, the saturation edge and tiny values.

    Tiny values keep window sums near small multiples of the window
    count, so some quotients land exactly on a half; the edge drives the
    numerator to its bound.  The last sample sits just inside one edge,
    so its window sums are near the bound with varied low bits.  Under a
    negative ``shift`` the first sample is one constant ``v``, an odd
    multiple of ``2^(-shift-1)``: every window's quotient is then
    ``v * 2^shift``, a half.
    """
    pick = rng.integers(0, 4, size=(n,) + shape)
    tiny = rng.integers(-3, 4, size=pick.shape)
    edge = np.sign(tiny + 0.5).astype(np.int64) * (code_max - rng.integers(0, 2, size=pick.shape))
    full = rng.integers(-code_max, code_max + 1, size=pick.shape)
    codes = np.choose(pick, [full, edge, tiny, tiny * 2])
    codes[-1:] = rng.choice([-1, 1]) * (code_max - rng.integers(0, min(8, code_max + 1), size=shape))
    half = 1 << max(-shift - 1, 0)
    if n and shift < 0 and half <= code_max:
        codes[0] = (2 * rng.integers(0, (code_max // half + 1) // 2) + 1) * half * rng.choice([-1, 1])
    return codes


def _half_quotients(deployed: DeployedMFDFP, x: np.ndarray) -> int:
    """How many of the pool's exact quotients are odd multiples of 1/2."""
    op = deployed.ops[-1]
    codes = execute_deployed(dataclasses.replace(deployed, ops=deployed.ops[:-1]), x)
    win, _, _ = engine_mod._pool_windows(codes, op, fill=0)
    counts = pool_valid_counts(*codes.shape[2:], op.kernel_size, op.stride, op.pad, op.ceil_mode)
    shift = op.out_frac - op.in_frac
    num = win.sum(axis=(-1, -2)).astype(object) << max(shift, 0)
    den = counts.astype(np.int64).astype(object) << max(-shift, 0)
    return int(((2 * num) % (2 * den) == den).sum())


# Pinned: half quotients under a negative shift, a draw on which
# multiplying by ``1 / den`` in place of dividing goes wrong, and a
# 16-bit conv chain whose pool runs in float64.
@block_budget()
@given(spec=average_pool_specs(), n=st.sampled_from(BATCH_SIZES))
@example(
    spec=dict(
        bits=8, k=2, stride=2, pad=1, ceil_mode=True, shift=-1, in_frac=3, conv=None, shape=(2, 7, 6), seed=5
    ),
    n=3,
)
@example(
    spec=dict(
        bits=5, k=5, stride=1, pad=1, ceil_mode=False, shift=-1, in_frac=0, conv=None, shape=(1, 3, 5), seed=0
    ),
    n=3,
)
@example(
    spec=dict(
        bits=16, k=5, stride=1, pad=2, ceil_mode=False, shift=8, in_frac=0,
        conv=dict(cin=2, k=3, out_frac=8, relu=False), shape=(2, 9, 9), seed=11,
    ),
    n=17,
)
def test_average_pool_matches_reference(spec, n):
    """The float divide-and-``rint`` pool equals the integer ``div_round_half_even`` spec.

    No step may warn: a divisor that overflows its dtype, or a shift that
    leaves int64, fails the draw.
    """
    note(repr(spec))
    deployed = _average_pool_net(spec)
    rng = np.random.default_rng(spec["seed"])
    code_max = datapath_widths(spec["bits"]).code_max
    x = _tie_prone_codes(rng, n, deployed.input_shape, code_max, spec["shift"]) * 2.0 ** -spec["in_frac"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        event(f"half quotients: {'some' if _half_quotients(deployed, x) else 'none'}")
        want = execute_deployed(deployed, x)
        if (2 * spec["k"] ** 2 * code_max << max(spec["shift"], 0)) >= 1 << 53:
            event("refused: past the float64 bound")
            with pytest.raises(DatapathOverflowError, match="avgpool"):
                BatchedEngine(deployed)
            return
        got = BatchedEngine(deployed).run_codes(x)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("in_frac, out_frac", [(64, -64), (40, -30), (0, 63), (-64, 64)])
def test_average_pool_reference_is_exact_at_wide_shifts(in_frac, out_frac):
    """A 1x1 max pool, then a 2x2 average pool, against Python's exact rounding."""
    from fractions import Fraction

    ops = [
        DeployedLayer(kind="maxpool", name="max", in_frac=in_frac, out_frac=in_frac, kernel_size=1, stride=1),
        DeployedLayer(kind="avgpool", name="avg", in_frac=in_frac, out_frac=out_frac, kernel_size=2, stride=2),
    ]
    deployed = DeployedMFDFP(name="wide", input_shape=(1, 4, 4), input_frac=in_frac, bits=8, ops=ops)
    codes = np.random.default_rng(0).integers(-20, 21, size=(2, 1, 4, 4))
    sums = codes.reshape(2, 1, 2, 2, 2, 2).sum(axis=(3, 5))
    scale = Fraction(2) ** (out_frac - in_frac) / 4
    want = [max(-127, min(127, round(int(s) * scale))) for s in sums.flat]
    got = execute_deployed(deployed, codes * 2.0**-in_frac)
    assert got.ravel().tolist() == want


# -- conv then max pool: folded scale, deferred route ------------------------------


@st.composite
def conv_max_pool_specs(draw):
    """A conv and the max pool after it, as plain values (``@example``-able).

    ``edge`` picks the conv's route exponent ``e = out_frac - in_frac -
    7``: ``near`` keeps it where codes vary, ``wide`` draws both
    fractions over [-64, 64], ``normal`` sits at float32's smallest
    normal (``e`` of -126 or -127) and ``overflow`` where the scaled
    bound reaches 2^128 (one exponent inside or past it).  The pool
    shifts the radix either way; ``pool_pad`` reaches the kernel size,
    where a window reads padding alone.
    """
    bits = draw(st.integers(2, 16))
    cin, cout, k = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pool_k = draw(st.integers(1, 3))
    bias = draw(st.none() | st.lists(st.integers(-4000, 4000), min_size=cout, max_size=cout))
    bound = cin * k * k * (datapath_widths(bits).code_max << 7) + max((abs(b) for b in bias or ()), default=0)
    edge = draw(st.sampled_from(["near", "wide", "normal", "overflow"]))
    if edge == "near":
        in_frac = draw(st.integers(-8, 8))
        out_frac = in_frac + 7 + draw(st.integers(-24, 4))
    elif edge == "wide":
        in_frac, out_frac = draw(st.integers(-64, 64)), draw(st.integers(-64, 64))
    elif edge == "normal":
        in_frac = draw(st.integers(56, 64))
        out_frac = in_frac + 7 - draw(st.sampled_from([126, 127]))
    else:
        e = 128 - bound.bit_length() + draw(st.sampled_from([0, 1]))
        in_frac = draw(st.integers(-64, 57 - e))
        out_frac = in_frac + 7 + e
    side = st.integers(k + pool_k - 1, k + pool_k + 5)  # the conv's output covers a pool window
    hw = (draw(side), draw(side))
    return dict(
        bits=bits,
        cin=cin,
        cout=cout,
        k=k,
        pad=draw(st.integers(0, k - 1)),
        relu=draw(st.booleans()),
        bias=bias,
        fracs=(in_frac, out_frac, out_frac + draw(st.integers(-8, 8))),
        pool_k=pool_k,
        pool_stride=draw(st.integers(1, 3)),
        pool_pad=draw(st.sampled_from([*range(pool_k)] * 3 + [pool_k])),
        ceil_mode=draw(st.booleans()),
        hw=hw,
        dtype=draw(st.sampled_from(["float32", "float64"])),
        seed=draw(st.integers(0, 2**16)),
    )


def _conv_max_pool_net(spec) -> DeployedMFDFP:
    rng = np.random.default_rng(spec["seed"])
    in_frac, conv_frac, pool_frac = spec["fracs"]
    cin, cout, k = spec["cin"], spec["cout"], spec["k"]
    ops = [
        DeployedLayer(
            kind="conv",
            name="conv",
            in_frac=in_frac,
            out_frac=conv_frac,
            weight_codes=rng.integers(0, 16, size=(cout, cin, k, k)),
            bias_int=None if spec["bias"] is None else np.array(spec["bias"], dtype=np.int64),
            activation="relu" if spec["relu"] else "none",
            in_channels=cin,
            out_channels=cout,
            kernel_size=k,
            pad=spec["pad"],
        ),
        DeployedLayer(
            kind="maxpool",
            name="pool",
            in_frac=conv_frac,
            out_frac=pool_frac,
            kernel_size=spec["pool_k"],
            stride=spec["pool_stride"],
            pad=spec["pool_pad"],
            ceil_mode=spec["ceil_mode"],
        ),
    ]
    return DeployedMFDFP(
        name="conv_pool", input_shape=(cin, *spec["hw"]), input_frac=in_frac, bits=spec["bits"], ops=ops
    )


def _hostile_inputs(rng, n: int, shape: tuple, code_max: int, in_frac: int, dtype: str) -> np.ndarray:
    """Codes on, at and within 2^-30 of a half, plus ±inf, NaN and ±1e300, scaled to the input grid.

    A float64 value within 2^-30 of a half code lands on the half if it
    is cast to float32 before rounding.
    """
    codes = rng.integers(-code_max, code_max + 1, size=(n,) + shape).astype(np.float64)
    offsets = np.array([0.0, 0.5, 0.5 - 2.0**-30, 0.5 + 2.0**-30, -0.5 + 2.0**-30, 0.25])
    x = (codes + rng.choice(offsets, size=codes.shape)) * 2.0**-in_frac
    special = rng.random(codes.shape) < 0.05
    x[special] = rng.choice([np.inf, -np.inf, np.nan, 1e300, -1e300], size=int(special.sum()))
    with np.errstate(over="ignore"):
        return x.astype(dtype)


# Pinned: a ReLU conv whose sums round (e < 0) before a stride-2 pool
# that shifts left, at float32's smallest normal, and at the overflow edge.
@block_budget()
@given(spec=conv_max_pool_specs(), n=st.sampled_from(BATCH_SIZES))
@example(
    spec=dict(
        bits=8, cin=2, cout=3, k=3, pad=1, relu=True, bias=[-3000, 17, 2500], fracs=(3, 0, 2), pool_k=2,
        pool_stride=2, pool_pad=0, ceil_mode=True, hw=(7, 6), dtype="float64", seed=3,
    ),
    n=17,
)
@example(
    spec=dict(
        bits=16, cin=1, cout=2, k=2, pad=0, relu=False, bias=None, fracs=(64, -55, -57), pool_k=3,
        pool_stride=2, pool_pad=1, ceil_mode=False, hw=(6, 6), dtype="float32", seed=4,
    ),
    n=3,
)
@example(
    spec=dict(
        bits=2, cin=1, cout=1, k=1, pad=0, relu=True, bias=None, fracs=(-64, 64, 60), pool_k=2,
        pool_stride=3, pool_pad=2, ceil_mode=True, hw=(5, 5), dtype="float32", seed=5,
    ),
    n=64,
)
def test_conv_max_pool_matches_reference(spec, n):
    """A folded-scale conv and the max pool that rounds it equal ``execute_deployed`` bit for bit."""
    note(repr(spec))
    deployed = _conv_max_pool_net(spec)
    conv = deployed.ops[0]
    deferred = spec["pool_pad"] < spec["pool_k"]
    event(f"conv dtype {op_dtypes(deployed)[0]}, route {'deferred' if deferred else 'in conv'}")
    rng = np.random.default_rng(spec["seed"])
    code_max = datapath_widths(spec["bits"]).code_max
    x = _hostile_inputs(rng, n, deployed.input_shape, code_max, conv.in_frac, spec["dtype"])
    assert np.array_equal(BatchedEngine(deployed).run_codes(x), execute_deployed(deployed, x))
