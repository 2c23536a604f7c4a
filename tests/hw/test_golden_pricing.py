"""Golden bills: the explorer's cost metrics, pinned as exact literals.

Every value was recorded from ``_cost_metrics`` before the explorer was
moved onto :class:`repro.hw.accelerator.Accelerator`; any change to the
cost model, the tile scheduler or the pricing path that moves a bill by
one ulp fails here.  The hardware CLI's printed tables are pinned the
same way by ``golden_hw_cli.txt`` beside this file.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.explore.explorer import _cost_metrics
from repro.explore.space import DesignPoint
from repro.zoo import cifar10_small

#: (bits, num_pus, technology) -> (area_mm2, power_mw, latency_us, energy_uj)
GOLDEN = {
    (3, 1, "65nm"): (1.6435592211831163, 108.49197942331939, 2.156, 0.23390870763667662),
    (3, 2, "65nm"): (3.22233555132384, 214.11626037398878, 2.156, 0.46163465736631987),
    (8, 1, "65nm"): (1.9436767610855081, 138.28704792099003, 2.156, 0.29814687531765455),
    (8, 2, "65nm"): (3.822570631128624, 273.70639736933, 2.156, 0.5901109927282755),
    (16, 1, "65nm"): (2.423864824929335, 185.9591575172631, 2.156, 0.4009279436072193),
    (16, 2, "65nm"): (4.782946758816276, 369.0506165618761, 2.156, 0.795673129307405),
    (3, 1, "28nm"): (1.6743038688648968, 111.75065445067946, 2.156, 0.24093441099566495),
    (3, 2, "28nm"): (3.29181228478873, 220.8302381739552, 2.156, 0.47610999350304745),
    (8, 1, "28nm"): (2.043503762475925, 144.36531838918773, 2.156, 0.31125162644708876),
    (8, 2, "28nm"): (4.030212072010786, 286.0595660509718, 2.156, 0.6167444244058953),
    (16, 1, "28nm"): (2.6342235922535706, 196.548780690801, 2.156, 0.423759171169367),
    (16, 2, "28nm"): (5.211651731566077, 390.42649065419835, 2.156, 0.8417595138504518),
}

GOLDEN_CLI = Path(__file__).parent / "golden_hw_cli.txt"


@pytest.fixture(scope="module")
def net():
    return cifar10_small(size=8, width=4, rng=np.random.default_rng(0))


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"b{k[0]}-pu{k[1]}-{k[2]}")
def test_cost_metrics_bit_identical(net, key):
    bits, num_pus, tech = key
    point = DesignPoint(
        index=0, bits=bits, min_exp=-7, weight_mode="deterministic", num_pus=num_pus,
        technology=tech,
    )
    assert _cost_metrics(net, point, {}) == GOLDEN[key]


def test_hw_cli_output_byte_identical(capsys):
    main(["table1"])
    main(["schedule"])
    assert capsys.readouterr().out == GOLDEN_CLI.read_text()
