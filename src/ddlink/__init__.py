"""ddlink: delay-Doppler link-level simulation.

OTFS and SC-IFDMA modems in equivalent direct and DFT-spread structures,
linear time-varying channel simulation with exact delay-Doppler channel
matrices, impulse-pilot synchronization and channel estimation, MMSE
equalization by banded Cholesky on the channel's delay diagonals (the
dense direct and LSMR equalizers are its oracles), multiuser uplink
composition, and a seeded Monte-Carlo experiment harness with a CLI.
"""

__version__ = "0.1.0"

from .frame import FrameConfig
from .modem import (DelayDopplerGrid, TimeSignal, Waveform, demodulate_direct,
                    demodulate_spread, modulate_direct, modulate_spread)
from .channel import (ChannelTap, DdChannelMatrix, LtvChannel, NoiseSpec,
                      apply_channel, build_dd_matrix, eva_channel,
                      linearized_io)
from .sync import Impairments, SyncEstimate, estimate_sync
from .chanest import EstimatedChannel, PilotConfig, embed_pilot, estimate_channel
from .equalize import equalize_iterative, equalize_mmse
from .multiuser import Allocation, UserBins, compound_uplink, place_user
from .config import ExperimentSpec, load_spec
from .harness import ResultRow, run, seed_stream

__all__ = [
    "FrameConfig", "DelayDopplerGrid", "TimeSignal", "Waveform",
    "modulate_direct", "modulate_spread", "demodulate_direct",
    "demodulate_spread", "ChannelTap", "LtvChannel", "NoiseSpec",
    "DdChannelMatrix", "apply_channel", "build_dd_matrix", "eva_channel",
    "linearized_io", "Impairments", "SyncEstimate", "estimate_sync",
    "PilotConfig", "EstimatedChannel", "embed_pilot", "estimate_channel",
    "equalize_mmse", "equalize_iterative", "Allocation", "UserBins",
    "place_user", "compound_uplink", "ExperimentSpec", "load_spec",
    "ResultRow", "run", "seed_stream",
]
