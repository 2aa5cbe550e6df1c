"""Hypothesis strategies shared by several test modules."""

from hypothesis import settings
from hypothesis import strategies as st

from ddlink.channel import ChannelTap, LtvChannel
from ddlink.frame import FrameConfig


@st.composite
def channels(draw):
    """Random geometry and taps: cp_len 0 allowed, delays up to past the
    whole CP-included frame, fractional Doppler of either sign."""
    M = draw(st.integers(1, 8))
    N = draw(st.integers(1, 8))
    frame = FrameConfig(M, N, cp_len=draw(st.integers(0, M * N - 1)))
    finite = st.floats(-2.0, 2.0, allow_nan=False)
    taps = draw(st.lists(
        st.builds(ChannelTap,
                  delay=st.integers(0, frame.frame_len),
                  gain=st.builds(complex, finite, finite),
                  doppler=st.floats(-N, N, allow_nan=False)),
        min_size=1, max_size=5))
    return LtvChannel(tuple(taps), frame)


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
