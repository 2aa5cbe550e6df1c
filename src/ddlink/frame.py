"""Frame geometry: delay-Doppler grid dimensions and derived spacings."""

from dataclasses import dataclass

SPEED_OF_LIGHT = 3e8  # m/s


@dataclass(frozen=True)
class FrameConfig:
    """Geometry of one transmission frame.

    M delay bins by N Doppler bins, a cyclic prefix of cp_len samples,
    and the sample-rate/carrier pair from which the physical bin
    spacings derive.
    """

    M: int
    N: int
    cp_len: int = 0
    bandwidth_hz: float = 7.68e6
    carrier_hz: float = 5.9e9

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise ValueError(f"grid dimensions must be >= 1, got M={self.M}, N={self.N}")
        if self.cp_len < 0:
            raise ValueError(f"cp_len must be >= 0, got {self.cp_len}")
        if self.cp_len >= self.M * self.N:
            raise ValueError(f"cp_len must be < M*N = {self.M * self.N}, got {self.cp_len}")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.carrier_hz <= 0:
            raise ValueError("carrier_hz must be positive")

    @property
    def grid_size(self) -> int:
        """Samples per frame, excluding the cyclic prefix."""
        return self.M * self.N

    @property
    def frame_len(self) -> int:
        """Samples per frame, including the cyclic prefix."""
        return self.M * self.N + self.cp_len

    @property
    def delay_spacing(self) -> float:
        """Delay-bin spacing in seconds (one sample period)."""
        return 1.0 / self.bandwidth_hz

    @property
    def block_duration(self) -> float:
        """Duration of one M-sample block in seconds."""
        return self.M * self.delay_spacing

    @property
    def doppler_spacing(self) -> float:
        """Doppler-bin spacing in Hz."""
        return 1.0 / (self.N * self.block_duration)
