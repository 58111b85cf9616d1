"""Probe calibration — mapping raw transducer output to engineering units.

An affine :class:`Calibration` (gain/offset). The probe applies calibration
before quantization; the paper lists data calibration among the
sensor-specific concerns the probe hides (§V.B).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Calibration"]


@dataclass(frozen=True)
class Calibration:
    """Affine calibration: ``actual = gain * raw + offset``."""

    gain: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.gain == 0:
            raise ValueError("gain must be non-zero")

    def apply(self, raw: float) -> float:
        return self.gain * raw + self.offset

    def invert(self, actual: float) -> float:
        return (actual - self.offset) / self.gain
