"""Unit tests for affine probe calibration."""

import pytest

from repro.sensors import Calibration


def test_affine_apply_and_invert_round_trip():
    cal = Calibration(gain=2.0, offset=-1.0)
    assert cal.apply(3.0) == 5.0
    assert cal.invert(5.0) == 3.0
    for raw in (-10.0, 0.0, 0.123, 42.0):
        assert cal.invert(cal.apply(raw)) == pytest.approx(raw)


def test_identity_is_the_default():
    cal = Calibration()
    assert cal.apply(7.5) == 7.5


def test_zero_gain_rejected():
    with pytest.raises(ValueError):
        Calibration(gain=0.0)

