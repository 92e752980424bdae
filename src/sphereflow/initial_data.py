"""Unit-sphere boundary and initial data for the square-domain benchmark.

Boundary values always come from the inverse stereographic projection;
interior values are exact, perturbed-then-normalized, or drawn in spherical
coordinates from a deterministic 64-bit generator so that a seed fully
reproduces the draws on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INIT_KINDS = ("exact", "perturbed", "random")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator (splitmix state advance).

    The state advances by the odd constant gamma and the output is a
    two-round xor-multiply mix of the state, so draw k (k = 1, 2, ...)
    is mix(seed + k * gamma mod 2**64) and any stretch of the stream can
    be computed at once (:meth:`floats`).  Uniform doubles use the top 53
    bits.
    """

    def __init__(self, seed):
        self.state = int(seed) & _MASK64

    def next_u64(self):
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self):
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo, hi):
        return _uniform(lo, hi, self.next_float())

    def floats(self, count):
        """The next ``count`` doubles of :meth:`next_float`, bit for bit, as one array.

        Computed on numpy uint64 arrays, whose arithmetic wraps mod 2**64
        as the stream's does; the state advances by ``count * gamma``.
        """
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self.state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self.state = (self.state + count * _GOLDEN) & _MASK64
        return (z >> np.uint64(11)) * 2.0**-53


def _uniform(lo, hi, f):
    """Uniform draw in [lo, hi) from a draw (or array of draws) ``f`` in [0, 1)."""
    return lo + (hi - lo) * f


@dataclass(frozen=True)
class InitSpec:
    """How to fill interior nodal values.

    kind : "exact", "perturbed" or "random"
    seed : generator seed, used for perturbed/random kinds
    perturb_amplitude : scale of the additive perturbation (perturbed kind)
    """

    kind: str = "exact"
    seed: int = 1
    perturb_amplitude: float = 0.0

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ValueError(f"kind must be one of {INIT_KINDS}, got {self.kind!r}")
        # a NaN or infinite amplitude would give NaN rows, which no flow can start from
        if not (math.isfinite(self.perturb_amplitude) and self.perturb_amplitude >= 0):
            raise ValueError(f"perturbation amplitude must be nonnegative and finite, got {self.perturb_amplitude}")


def inverse_stereographic(x):
    """Map plane points to the unit sphere: (2x, 1-|x|^2) / (|x|^2 + 1).

    Accepts a single point or an (..., 2) array; returns matching (..., 3).
    """
    x = np.asarray(x, dtype=float)
    r_sq = np.sum(x * x, axis=-1)
    denom = r_sq + 1.0
    out = np.empty(x.shape[:-1] + (3,))
    out[..., 0] = 2.0 * x[..., 0] / denom
    out[..., 1] = 2.0 * x[..., 1] / denom
    out[..., 2] = (1.0 - r_sq) / denom
    return out


def _normalize_rows(values):
    # a finite row whose norm overflows is scaled by its largest entry first
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(values, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero vector")
    huge = np.isinf(norms)
    if huge.any():
        values[huge] /= np.abs(values[huge]).max(axis=1, keepdims=True)
        norms[huge] = np.linalg.norm(values[huge], axis=1)
    return values / norms[:, None]


def _perturbed(exact, amp, gen):
    """Rows ``exact + amp * xi``, xi three uniform draws in (-1, 1) per row from ``gen``, in row order.

    A row whose sum has norm at most 1e-12 takes the next three draws
    instead, which shifts every later row by three draws.
    """
    count = len(exact)
    out = np.empty_like(exact)
    # one row of draws per try, in stream order; each failed try appends one
    done = tries = 0  # first unsettled row, and the draws of its next try
    xi = _uniform(-1.0, 1.0, gen.floats(3 * count)).reshape(count, 3)
    while done < count:
        v = exact[done:] + amp * xi[tries:]
        with np.errstate(over="ignore"):  # an overflowing norm is not degenerate
            bad = np.flatnonzero(np.linalg.norm(v, axis=1) <= 1e-12)
        if not bad.size:
            out[done:] = v
            break
        out[done : done + bad[0]] = v[: bad[0]]
        done, tries = done + bad[0], tries + bad[0] + 1
        xi = np.concatenate([xi, _uniform(-1.0, 1.0, gen.floats(3)).reshape(1, 3)])
    return out


def make_initial(mesh, spec):
    """Construct the initial nodal field for a mesh.

    Boundary nodes always carry the stereographic boundary data regardless
    of kind and seed.  Interior nodes follow ``spec``:

    - exact: stereographic values.
    - random: unit vectors from spherical angles a1 in (-pi/2, pi/2) and
      a2 in (-pi, pi), two draws per node in node order.
    - perturbed: normalize(exact + amplitude * xi) with xi componentwise
      uniform in (-1, 1), three draws per node; a degenerate sum retries
      with fresh draws.

    The draws come from :class:`SplitMix64` seeded with ``spec.seed``,
    draw k = mix(seed + k * gamma), all drawn in one pass.  Every returned
    row has unit length to machine precision.
    """
    values = inverse_stereographic(mesh.vertices)
    interior = np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_nodes)

    if spec.kind == "random":
        draws = SplitMix64(spec.seed).floats(2 * len(interior)).reshape(-1, 2)
        a1 = _uniform(-0.5 * math.pi, 0.5 * math.pi, draws[:, 0])
        a2 = _uniform(-math.pi, math.pi, draws[:, 1])
        cos_a1 = np.cos(a1)
        values[interior] = np.column_stack([cos_a1 * np.cos(a2), cos_a1 * np.sin(a2), np.sin(a1)])
    elif spec.kind == "perturbed":
        values[interior] = _perturbed(values[interior], spec.perturb_amplitude, SplitMix64(spec.seed))

    return _normalize_rows(values)
