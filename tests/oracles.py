"""Dense reference computations shared by several test modules."""

from ddlink.channel import ChannelTap, DdChannelMatrix, LtvChannel
from ddlink.modem import demodulate_direct
from ddlink.multiuser import compound_matrix, detect_users


def dense_detect(received, channels, alloc, waveform, noise_var):
    """Joint detection on the demodulated record with the dense compound
    delay-Doppler matrix; a ``None`` channel leaves its user's columns
    zero."""
    stand_in = LtvChannel((ChannelTap(0, 1.0, 0.0),), received.frame)
    H = compound_matrix([stand_in if ch is None else ch for ch in channels],
                        alloc, waveform).matrix
    for q, ch in enumerate(channels):
        if ch is None:
            H[:, alloc.vec_indices(q)] = 0.0
    return detect_users(demodulate_direct(received, waveform),
                        DdChannelMatrix(H, waveform), alloc, noise_var)
