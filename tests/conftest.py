import contextlib
import math
import signal

import numpy as np
import pytest

from hypack.geometry import HPoint


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_point(rng, m=2, max_radius=10.0):
    r = rng.uniform(0.0, max_radius)
    d = rng.standard_normal(m)
    return HPoint.from_polar(r, d / np.linalg.norm(d))


def random_unit(rng, m):
    d = rng.standard_normal(m)
    return d / np.linalg.norm(d)


def poincare_at(p):
    """The Poincare chart at one point, in scalar arithmetic."""
    return min(math.tanh(0.5 * p.r), 1.0 - 1e-15) * p.direction


class TimeLimitExceeded(Exception):
    """Raised by :func:`time_limit`; not an OSError, so the CLI cannot swallow it."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeLimitExceeded in the enclosed block once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
