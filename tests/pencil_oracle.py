"""The pencil solve of the cutoff, kept as a test oracle.

The bound operator (T - 1) + s (1 - B) is PSD exactly when s is at least
the top eigenvalue s_min(a, b) of the pencil (1 - T, 1 - B) on the range of
1 - B, provided 1 - T vanishes on its kernel. The largest s_min over a grid
gives I* = 1 - sin^2 theta / max s_min. ``certify.find_cutoff`` takes I*
from ``pipeline.vertex_cutoff`` instead; the tests hold the two together.
"""

import math

import numpy as np

from diqc import certify
from diqc.certify import VERIFY_TOL, ChannelFamilyError, slope_and_intercept

# eigenvalues of 1 - B up to this multiple of its norm count as its kernel;
# genuine ones near the ideal point reach down to about 1e-13
KERNEL_RTOL = 1e-15


def pencil_table(ev):
    """The (6, 6, 20) table of the pencil (1 - T, 1 - B), its two tables side by side."""
    t, b, e = ev._table
    return np.concatenate([e - t, e - b], axis=-1)


def slopes(ev, a, b):
    """Smallest slope s whose bound operator is PSD, per angle pair.

    That is the top eigenvalue of the pencil (Q, P) = (1 - T, 1 - B) on the
    range of P, after whitening Q there. Eigenvalues of P at roundoff level
    relative to its norm count as its kernel, where Q must vanish; any other
    kernel direction is a ChannelFamilyError that names the first such
    pair. Takes the angles as ``ev.operators`` does.
    """
    q, p = ev.operators(pencil_table(ev), a, b)
    w, v = np.linalg.eigh(p)
    g = v.swapaxes(-1, -2) @ q @ v
    kernel = w <= KERNEL_RTOL * w[..., -1:]
    if kernel.any():
        leak = kernel & (g.diagonal(0, -2, -1) > VERIFY_TOL)
        if leak.any():
            *at, _ = np.argwhere(leak)[0]
            a, b = (x[tuple(at)] for x in np.broadcast_arrays(a, b))
            raise ChannelFamilyError(
                f"1 - T does not vanish on the kernel of 1 - B at (a={a:.6f}, b={b:.6f}) "
                f"for {ev.kind.family} at theta={ev.theta}")
        # the kernel gets the whitening weight 1 / sqrt(inf) = 0
        w = np.where(kernel, np.inf, w)
    r = 1.0 / np.sqrt(w)
    return np.linalg.eigvalsh(r[..., :, None] * g * r[..., None, :])[..., -1]


def cutoff(ev, s):
    """Smallest float I below one whose slope covers the pencil slope s, stepping up."""
    i_star = 1.0 - (1.0 - math.cos(ev.theta) ** 2) / s
    while slope_and_intercept(ev.theta, i_star)[0] < s:
        i_star = math.nextafter(i_star, 1.0)
    return i_star


def corner_cutoff(theta, family):
    """The oracle's I* from the pencil at the two corners a = 0 alone."""
    ev = certify._MarginEvaluator(theta, family)
    return cutoff(ev, float(slopes(ev, np.array([[0.0]]), np.array([[0.0, np.pi / 2]])).max()))
