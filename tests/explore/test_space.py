"""DesignSpace: canonical enumeration, spec round-trip, validation."""

import numpy as np
import pytest

from repro.explore import DesignPoint, DesignSpace, DesignSpaceError


class TestEnumeration:
    def test_lexicographic_order_and_indexes(self):
        space = DesignSpace(
            bits=(4, 8),
            min_exps=(-7, -9),
            weight_modes=("deterministic",),
            num_pus=(1, 2),
            technologies=("65nm",),
        )
        points = space.points()
        assert len(points) == len(space) == 8
        assert [p.index for p in points] == list(range(8))
        # bits is the slowest axis, technologies the fastest
        assert [p.bits for p in points] == [4, 4, 4, 4, 8, 8, 8, 8]
        assert [p.min_exp for p in points[:4]] == [-7, -7, -9, -9]
        assert [p.num_pus for p in points[:4]] == [1, 2, 1, 2]

    def test_points_are_reproducible(self):
        space = DesignSpace()
        assert space.points() == space.points()

    def test_labels_are_unique(self):
        points = DesignSpace(
            bits=(4, 8), min_exps=(-7, -9), num_pus=(1, 2), technologies=("65nm", "28nm")
        ).points()
        assert len({p.label for p in points}) == len(points)

    def test_point_is_frozen(self):
        p = DesignSpace().points()[0]
        assert isinstance(p, DesignPoint)
        with pytest.raises(AttributeError):
            p.bits = 16


class TestSpecRoundTrip:
    def test_round_trip_identity(self):
        space = DesignSpace(
            bits=(4, 6, 8),
            min_exps=(-5, -7),
            weight_modes=("deterministic", "stochastic"),
            num_pus=(1, 2),
            technologies=("65nm", "45nm"),
        )
        assert DesignSpace.from_spec(space.spec()) == space
        assert DesignSpace.from_spec(space.spec()).points() == space.points()

    def test_spec_is_json_like(self):
        import json

        spec = DesignSpace().spec()
        assert json.loads(json.dumps(spec)) == spec

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(DesignSpaceError, match="dict"):
            DesignSpace.from_spec([1, 2])
        with pytest.raises(DesignSpaceError, match="missing axes"):
            DesignSpace.from_spec({"bits": [8]})


class TestValidation:
    def test_empty_axis_rejected(self):
        for axis in ("bits", "min_exps", "weight_modes", "num_pus", "technologies"):
            with pytest.raises(DesignSpaceError, match="empty"):
                DesignSpace(**{axis: ()})

    def test_out_of_range_bits_rejected(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace(bits=(0,))
        with pytest.raises(DesignSpaceError):
            DesignSpace(bits=(1,))
        with pytest.raises(DesignSpaceError):
            DesignSpace(bits=(17,))

    def test_nonnegative_min_exp_rejected(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace(min_exps=(0,))
        with pytest.raises(DesignSpaceError):
            DesignSpace(min_exps=(-33,))

    def test_unknown_mode_and_technology_rejected(self):
        with pytest.raises(DesignSpaceError, match="weight mode"):
            DesignSpace(weight_modes=("nearest",))
        with pytest.raises(DesignSpaceError, match="technology"):
            DesignSpace(technologies=("7nm",))

    def test_duplicates_rejected(self):
        with pytest.raises(DesignSpaceError, match="duplicate"):
            DesignSpace(bits=(8, 8))
        with pytest.raises(DesignSpaceError, match="duplicate"):
            DesignSpace(technologies=("65nm", "65nm"))

    def test_non_integer_values_rejected(self):
        with pytest.raises(DesignSpaceError, match="integer"):
            DesignSpace(bits=(8.5,))
        with pytest.raises(DesignSpaceError, match="integer"):
            DesignSpace(num_pus=(True,))

    def test_numpy_integers_normalized(self):
        space = DesignSpace(bits=(np.int64(4), np.int64(8)))
        assert space.bits == (4, 8)
        assert all(type(b) is int for b in space.bits)
