import contextlib
import math
import signal

import numpy as np
import pytest

from hypack.geometry import HPoint
from hypack.maps import LipschitzMapHandle
from hypack.packing import packing_angle


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


#: The Hausdorff search the pinwheel map is made for: m = 3, r = 1,
#: epsilon = 0.5, so C = 8, on the one rung R = 2C + 2 = 18.
PINWHEEL_C = 8.0
PINWHEEL_R_MAX = 2.0 * PINWHEEL_C + 2.0


def pinwheel_map():
    """A map H^3 -> R^2 whose images agree at the packing centers but whose
    ball images do not, so that a Hausdorff search falls back to the
    augmented ladder.

    F(p) = 0.6 d(p) (cos N theta, sin N theta), with d(p) =
    asinh(sinh(p.r) u_3) the signed distance of p to the plane x_3 = 0 that
    holds the packing circle (u the direction of p), theta = atan2(u_2, u_1)
    and N = pi / (4 alpha) for the packing angle alpha of the one rung.  The
    centers lie in the plane, so every center maps to 0 and the plain
    pigeonhole puts them all in one fiber.  The image of a radius-1 ball is
    a segment of length 1.2 through 0 at angle N theta_i, and center i sits
    at theta_i = 2 i alpha, so the segments of two balls coincide only when
    their index lag is even (for two centers on one side of the cut below).

    The declared L = 0.6 holds where |d| N <= sinh(s), s the distance to the
    x_3-axis, away from the cut theta = +-pi: there the gradients of d and of
    N theta (of norm N / sinh(s)) are orthogonal.  That covers the radius-1
    balls about the packing circle, of radius 10 (|d| <= 1, s >= 9, and the
    cut lies 0.116 rad from every center, the balls under 3e-4 rad wide),
    which are all the search and the certificate evaluate.  Near the axis,
    where theta turns fast, the map is not 0.6-Lipschitz.
    """
    N = math.pi / (4.0 * packing_angle(PINWHEEL_C, PINWHEEL_R_MAX))

    def fn(pts):
        u = pts.dirs
        d = np.arcsinh(np.sinh(pts.r) * u[:, 2])
        theta = N * np.arctan2(u[:, 1], u[:, 0])
        return (0.6 * d)[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])

    return LipschitzMapHandle(fn=fn, L=0.6, n=2, m=3, label="pinwheel")


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
