"""Small derivative-free search helpers shared by the geometry modules."""

from __future__ import annotations

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0


def golden_max(fn, lo, hi):
    """Golden-section maximization (at most 70 steps), vectorized over
    independent brackets.  It stops early at the brackets' fixed point, since
    a step that moves no end leaves every later step the same.

    Each step evaluates its two probes in one call: ``fn`` gets them as one
    ``(2, *shape)`` float array, ``shape`` that of the brackets (``(1,)`` for
    a scalar bracket), and must return an equally shaped array of values, so
    it must broadcast over that leading axis.  The final call gets the
    midpoints alone.  Returns ``(argmax, max)`` arrays (scalars collapse).
    Unimodality inside each bracket is the caller's responsibility; on
    multimodal slices this still returns a local maximum.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    scalar = lo.ndim == 0
    lo = np.atleast_1d(lo)
    hi = np.atleast_1d(hi)
    for _ in range(70):
        c = lo + _INVPHI2 * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        v = np.asarray(fn(np.stack([c, d])))
        keep_left = v[0] >= v[1]
        if np.where(keep_left, d == hi, c == lo).all():
            break  # the end that would move is there already
        hi = np.where(keep_left, d, hi)
        lo = np.where(keep_left, lo, c)
    mid = 0.5 * (lo + hi)
    val = np.asarray(fn(mid))
    if scalar:
        return float(mid[0]), float(val.reshape(-1)[0])
    return mid, val


def golden_min(fn, lo, hi):
    """Golden-section minimization; see :func:`golden_max`."""
    arg, neg = golden_max(lambda t: -np.asarray(fn(t)), lo, hi)
    return arg, -neg

