import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sc.encodings import (
    bipolar_decode,
    bipolar_encode,
    count_from_thermometer_bits,
    thermometer_bits_from_count,
    thermometer_decode_counts,
    thermometer_encode_counts,
    thermometer_levels,
    unipolar_decode,
    unipolar_encode,
)
from repro.utils.numeric import round_half_away_from_zero


class TestUnipolarBipolar:
    def test_unipolar_roundtrip(self):
        values = np.linspace(0, 1, 11)
        assert np.allclose(unipolar_decode(unipolar_encode(values)), values)

    def test_unipolar_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            unipolar_encode([1.2])

    def test_bipolar_roundtrip(self):
        values = np.linspace(-1, 1, 11)
        assert np.allclose(bipolar_decode(bipolar_encode(values)), values)

    def test_bipolar_mapping(self):
        assert bipolar_encode(np.array([-1.0, 0.0, 1.0])) == pytest.approx([0.0, 0.5, 1.0])

    def test_bipolar_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bipolar_encode([-1.5])


class TestThermometerLevels:
    def test_level_count(self):
        assert thermometer_levels(8, 0.5).size == 9

    def test_levels_symmetric(self):
        levels = thermometer_levels(8, 0.5)
        assert levels[0] == pytest.approx(-levels[-1])
        assert 0.0 in levels

    def test_level_spacing_is_scale(self):
        levels = thermometer_levels(16, 0.25)
        assert np.allclose(np.diff(levels), 0.25)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            thermometer_levels(8, 0.0)


class TestThermometerCounts:
    def test_roundtrip_on_grid(self):
        length, scale = 16, 0.5
        values = thermometer_levels(length, scale)
        counts = thermometer_encode_counts(values, length, scale)
        decoded = thermometer_decode_counts(counts, length, scale)
        assert np.allclose(decoded, values)

    def test_saturation(self):
        counts = thermometer_encode_counts(np.array([100.0, -100.0]), 8, 0.5)
        assert counts[0] == 8 and counts[1] == 0

    def test_quantisation_error_bounded(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-2, 2, 100)
        counts = thermometer_encode_counts(values, 16, 0.25)
        decoded = thermometer_decode_counts(counts, 16, 0.25)
        assert np.max(np.abs(decoded - values)) <= 0.25 / 2 + 1e-12

    def test_decode_rejects_invalid_counts(self):
        with pytest.raises(ValueError):
            thermometer_decode_counts(np.array([9]), 8, 1.0)

    @given(
        value=st.floats(-4, 4, allow_nan=False),
        length=st.sampled_from([2, 4, 8, 16, 64]),
        scale=st.floats(0.01, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip_error_bounded_by_half_scale(self, value, length, scale):
        counts = thermometer_encode_counts(np.array([value]), length, scale)
        decoded = thermometer_decode_counts(counts, length, scale)
        max_abs = scale * length / 2
        if abs(value) <= max_abs:
            assert abs(decoded[0] - value) <= scale / 2 + 1e-9
        else:
            # saturation: decoded value sits at the representable extreme
            assert abs(decoded[0]) == pytest.approx(max_abs)


def clipped_half_away_counts(values, length, scale):
    """The general form: round half away from zero, then saturate."""
    shifted = np.asarray(values, dtype=float) / scale + length / 2.0
    return np.clip(round_half_away_from_zero(shifted), 0, length).astype(np.int64)


class TestThermometerEncodeShortForm:
    """``clip(floor(v + 0.5))`` equals the clipped half-away-from-zero rounding."""

    @pytest.mark.parametrize("length", [7, 8])
    def test_ties_signed_zero_infinities_and_subnormals(self, length):
        ties = np.arange(-length - 3, length + 3) + 0.5
        tiny = np.finfo(float).tiny
        specials = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, tiny / 2, -tiny / 2]
        shifted = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
        values = np.concatenate([shifted - length / 2.0, specials, np.array(specials) - length / 2.0])
        assert np.array_equal(
            thermometer_encode_counts(values, length, 1.0),
            clipped_half_away_counts(values, length, 1.0),
        )

    @given(
        values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=16),
        length=st.integers(1, 64),
        scale=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_matches_general_form(self, values, length, scale):
        with np.errstate(over="ignore"):  # huge values / small scales saturate via inf
            assert np.array_equal(
                thermometer_encode_counts(values, length, scale),
                clipped_half_away_counts(values, length, scale),
            )


class TestThermometerBits:
    def test_bits_from_count(self):
        assert np.array_equal(thermometer_bits_from_count(3, 6), [1, 1, 1, 0, 0, 0])

    def test_count_from_bits_roundtrip(self):
        for count in range(9):
            bits = thermometer_bits_from_count(count, 8)
            assert count_from_thermometer_bits(bits) == count

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            count_from_thermometer_bits(np.array([1, 0, 1, 0]))

    def test_count_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            thermometer_bits_from_count(9, 8)
