"""Training throughput: compiled fast path vs the seed eager trainer.

Training is the paper's dominant cost (Algorithm 1 is fine-tuning), and
until this PR it ran entirely on the eager layer stack: fresh
im2col/col2im allocations per conv per step, einsum dispatch per GEMM, a
``kh*kw`` Python scatter loop in ``col2im``, re-derived pooling counts,
and full weight requantization on every validation batch.  The compiled
training fast path (:mod:`repro.nn.compiled`) plans workspaces once per
(geometry, batch size) and replays the identical op sequence through
``out=`` kernels.

Two properties are gated here, matching the PR's acceptance criteria:

* **speedup** — steady-state MF-DFP fine-tuning through
  ``Trainer(compiled=True)`` must deliver at least 2x the samples/sec
  of the *seed* eager trainer.  The seed baseline is reconstructed
  inline below (the pre-PR ``col2im`` tap loop, per-forward pooling
  count rebuilds, tuple-indexed maxpool scatter, allocating dense bias
  add) the same way ``bench_campaign_throughput.py`` reconstructs its
  pre-refactor baseline; the current (post-satellite) eager stack is
  also timed for context.
* **bit identity** — the loss/val-error curve and the final master
  weights of a fixed-seed fine-tune must be *exactly* equal across the
  seed layers, the current eager stack, and the compiled fast path.
  The training set size is divisible by the batch size so the seed
  trainer's unweighted batch-loss mean coincides with the exact sample
  mean the fixed trainer reports.
"""

import time

import numpy as np
import pytest

from repro.core.mfdfp import MFDFPNetwork
from repro.datasets import cifar10_surrogate
from repro.nn import SGD, Trainer
from repro.nn.layers.conv import Conv2D, conv_output_size, im2col
from repro.nn.layers.dense import Dense
from repro.nn.layers.pool import AvgPool2D, MaxPool2D
from repro.zoo import cifar10_small

BATCH = 32
GATE = 2.0
FINETUNE_LR = 5e-3


# -- the seed eager implementations, reconstructed for the baseline --------------
def _seed_col2im(cols, x_shape, kh, kw, stride, pad):
    """The pre-PR col2im: a kh*kw Python loop of strided adds."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    dx = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols[
                :, :, i, j
            ]
    if pad:
        dx = dx[:, :, pad : hp - pad, pad : wp - pad]
    return dx


class _SeedConv2D(Conv2D):
    def forward(self, x):
        """The seed forward: the GEMM through ``np.einsum`` dispatch."""
        n = x.shape[0]
        k, s, p = self.kernel_size, self.stride, self.pad
        g = self.groups
        cols, out_h, out_w = im2col(x, k, k, s, p)
        cols_g = cols.reshape(n, g, (self.in_channels // g) * k * k, -1)
        w_mat = self.effective_weight().reshape(g, self.out_channels // g, -1)
        y = np.einsum("gfk,ngkp->ngfp", w_mat, cols_g, optimize=True)
        y = y.reshape(n, self.out_channels, -1)
        if self.bias is not None:
            y += self.bias.data[None, :, None]
        self._cache = (x.shape, cols_g, w_mat)
        return self._quantize_output(y.reshape(n, self.out_channels, out_h, out_w))

    def backward(self, grad):
        x_shape, cols_g, w_mat = self._cache
        n = grad.shape[0]
        k, s, p = self.kernel_size, self.stride, self.pad
        g = self.groups
        gr = grad.reshape(n, g, self.out_channels // g, -1)
        dw = np.einsum("ngfp,ngkp->gfk", gr, cols_g, optimize=True)
        self.weight.grad = dw.reshape(self.weight.data.shape).astype(self.weight.data.dtype)
        if self.bias is not None:
            self.bias.grad = gr.sum(axis=(0, 3)).reshape(-1).astype(self.bias.data.dtype)
        dcols = np.einsum("gfk,ngfp->ngkp", w_mat, gr, optimize=True)
        dcols = dcols.reshape(n, -1, dcols.shape[-1])
        return _seed_col2im(dcols, x_shape, k, k, s, p)


class _SeedMaxPool2D(MaxPool2D):
    def backward(self, grad):
        x_shape, xp_shape, arg, oh, ow = self._cache
        n, c, h, w = x_shape
        k, s, p = self.kernel_size, self.stride, self.pad
        ki, kj = arg // k, arg % k
        rows = np.arange(oh)[None, None, :, None] * s + ki
        cols = np.arange(ow)[None, None, None, :] * s + kj
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        dxp = np.zeros(xp_shape, dtype=grad.dtype)
        np.add.at(dxp, (nn, cc, rows, cols), grad)
        return dxp[:, :, p : p + h, p : p + w]


class _SeedAvgPool2D(AvgPool2D):
    def _valid_counts(self, x_shape, oh, ow):
        _, _, h, w = x_shape
        ones = np.ones((1, 1, h, w), dtype=np.float64)
        win, _, _, _ = self._windows(ones, fill=0.0)
        return win.sum(axis=(-1, -2))[0, 0]


class _SeedDense(Dense):
    def forward(self, x):
        w = self.effective_weight()
        y = x @ w.T
        if self.bias is not None:
            y = y + self.bias.data[None, :]
        self._cache = (x, w)
        return self._quantize_output(y)

    def backward(self, grad):
        x, w = self._cache
        self.weight.grad = (grad.T @ x).astype(self.weight.data.dtype)
        if self.bias is not None:
            self.bias.grad = grad.sum(axis=0).astype(self.bias.data.dtype)
        return grad @ w


_SEED_CLASSES = {
    Conv2D: _SeedConv2D,
    MaxPool2D: _SeedMaxPool2D,
    AvgPool2D: _SeedAvgPool2D,
    Dense: _SeedDense,
}


def _seedify(net):
    """Swap layer classes for their seed implementations, in place."""
    for layer in net.layers:
        seed_cls = _SEED_CLASSES.get(type(layer))
        if seed_cls is not None:
            layer.__class__ = seed_cls
    return net


# -- workload --------------------------------------------------------------------
@pytest.fixture(scope="module")
def problem(quick):
    """A pre-trained float surrogate net plus train/test data."""
    n_train, n_test, epochs = (128, 64, 1) if quick else (512, 512, 2)
    train, test = cifar10_surrogate(n_train=n_train, n_test=n_test, size=16, noise=0.7, seed=2)
    net = cifar10_small(size=16, rng=np.random.default_rng(0))
    Trainer(
        net,
        SGD(net.params, lr=0.02, momentum=0.9),
        batch_size=BATCH,
        rng=np.random.default_rng(1),
        compiled=False,
    ).fit(train, test, epochs=epochs)
    return {"net": net, "train": train, "test": test}


def _make_trainer(problem, *, compiled, seed_layers=False):
    """A fresh MF-DFP fine-tuning trainer (the paper's phase-1 workload)."""
    net = problem["net"].clone()
    if seed_layers:
        _seedify(net)
    mfdfp = MFDFPNetwork.from_float(net, problem["train"].x[:256])
    return Trainer(
        mfdfp.net,
        SGD(mfdfp.params, lr=FINETUNE_LR, momentum=0.9),
        batch_size=BATCH,
        rng=np.random.default_rng(3),
        compiled=compiled,
    )


def _finetune(problem, *, compiled, seed_layers=False, epochs=3):
    trainer = _make_trainer(problem, compiled=compiled, seed_layers=seed_layers)
    history = trainer.fit(problem["train"], problem["test"], epochs=epochs)
    return history, trainer.net.get_weights(), trainer


def _steady_epoch_s(problem, variants, epochs=3, repeats=7):
    """Best steady-state epoch seconds per variant, interleaved.

    Each repeat times every variant back to back (warm trainers, trace
    batches excluded), so clock-frequency or load drift hits all
    variants alike instead of biasing whichever was measured last.
    Seven repeats of three epochs (about 30 s on a 2-vCPU host) give the
    best-of a better chance to catch the host at full speed; best of
    3 × 2 read compiled 1912 and 2245 samples/s back to back.
    """
    trainers = {}
    for name, kwargs in variants.items():
        trainer = _make_trainer(problem, **kwargs)
        trainer.fit(problem["train"], problem["test"], epochs=1)  # warm / trace
        trainers[name] = trainer
    best = {name: float("inf") for name in variants}
    for _ in range(repeats):
        for name, trainer in trainers.items():
            t0 = time.perf_counter()
            trainer.fit(problem["train"], problem["test"], epochs=epochs)
            best[name] = min(best[name], (time.perf_counter() - t0) / epochs)
    return best


# -- benchmarks ------------------------------------------------------------------
def test_bench_seed_eager_finetune(problem, benchmark):
    history, _, _ = benchmark(_finetune, problem, compiled=False, seed_layers=True, epochs=1)
    assert history.epochs


def test_bench_compiled_finetune(problem, benchmark):
    history, _, _ = benchmark(_finetune, problem, compiled=True, epochs=1)
    assert history.epochs


# -- bit identity ----------------------------------------------------------------
def test_finetune_bit_identical_across_paths(problem):
    """Seed layers, current eager stack, and compiled path: one curve."""
    h_seed, w_seed, _ = _finetune(problem, compiled=False, seed_layers=True)
    h_eager, w_eager, _ = _finetune(problem, compiled=False)
    h_fast, w_fast, tr = _finetune(problem, compiled=True)
    assert tr.executor is not None and tr.executor.plan_count() >= 1

    assert h_seed.train_losses == h_eager.train_losses == h_fast.train_losses
    assert h_seed.val_errors == h_eager.val_errors == h_fast.val_errors
    for name in w_seed:
        assert np.array_equal(w_seed[name], w_fast[name]), f"{name} drifted (compiled)"
        assert np.array_equal(w_seed[name], w_eager[name]), f"{name} drifted (eager)"


def test_quantized_snapshot_served_from_cache(problem):
    """After fit, a quantized snapshot is cache hits, not requantization.

    Two epochs so the evaluation plan is past its eager trace batch: the
    final epoch's validation sweep then runs compiled and leaves the
    cache holding the current masters' quantizations.
    """
    _, _, trainer = _finetune(problem, compiled=True, epochs=2)
    cache = trainer.executor.quant_cache
    misses_before = cache.misses
    snapshot = trainer.quantized_weights()
    assert cache.misses == misses_before  # pure hits
    eager = {
        layer.name: layer.effective_weight()
        for layer in trainer.net.layers
        if layer.effective_weight() is not None
    }
    assert set(snapshot) == set(eager)
    for name in eager:
        assert np.array_equal(snapshot[name], eager[name])


# -- the acceptance gate ---------------------------------------------------------
def test_train_throughput_2x_seed_eager(problem, full_only, bench_metrics):
    """Gate: >= 2x steady-state samples/sec over the seed eager trainer."""
    n_train = len(problem["train"])
    timings = _steady_epoch_s(
        problem,
        {
            "seed": {"compiled": False, "seed_layers": True},
            "eager": {"compiled": False},
            "compiled": {"compiled": True},
        },
    )
    seed_s, eager_s, fast_s = timings["seed"], timings["eager"], timings["compiled"]

    speedup_seed = seed_s / fast_s
    speedup_eager = eager_s / fast_s
    bench_metrics.update(
        {
            "batch_size": BATCH,
            "train_samples": n_train,
            "seed_eager_samples_per_s": round(n_train / seed_s, 1),
            "eager_samples_per_s": round(n_train / eager_s, 1),
            "compiled_samples_per_s": round(n_train / fast_s, 1),
            "speedup_vs_seed_eager": round(speedup_seed, 2),
            "speedup_vs_current_eager": round(speedup_eager, 2),
            "gate": GATE,
        }
    )
    print(
        f"\nMF-DFP fine-tune, batch {BATCH}, {n_train} samples/epoch: "
        f"seed eager {n_train / seed_s:.0f} samples/s, "
        f"current eager {n_train / eager_s:.0f} samples/s, "
        f"compiled {n_train / fast_s:.0f} samples/s "
        f"({speedup_seed:.2f}x vs seed, {speedup_eager:.2f}x vs current)"
    )
    assert speedup_seed >= GATE, (
        f"compiled trainer only {speedup_seed:.2f}x over the seed eager trainer"
    )
