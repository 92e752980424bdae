"""Unit-sphere boundary and initial data for the square-domain benchmark.

Boundary values always come from the inverse stereographic projection;
interior values are exact, perturbed-then-normalized, or drawn in spherical
coordinates from a deterministic 64-bit generator so that a seed fully
reproduces the field on any platform.
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

    The state advances by a fixed odd constant and the output is a two-round
    xor-multiply mix; uniform doubles use the top 53 bits.
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
        return lo + (hi - lo) * self.next_float()


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
        # a NaN amplitude would never leave the retry loop of make_initial
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
    norms = np.linalg.norm(values, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return values / norms[:, None]


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

    Every returned row has unit length to machine precision.
    """
    values = inverse_stereographic(mesh.vertices)
    interior = np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_nodes)

    if spec.kind == "random":
        gen = SplitMix64(spec.seed)
        for z in interior:
            a1 = gen.uniform(-0.5 * math.pi, 0.5 * math.pi)
            a2 = gen.uniform(-math.pi, math.pi)
            values[z] = (
                math.cos(a1) * math.cos(a2),
                math.cos(a1) * math.sin(a2),
                math.sin(a1),
            )
    elif spec.kind == "perturbed":
        gen = SplitMix64(spec.seed)
        amp = spec.perturb_amplitude
        for z in interior:
            while True:
                xi = np.array([gen.uniform(-1.0, 1.0) for _ in range(3)])
                v = values[z] + amp * xi
                if np.linalg.norm(v) > 1e-12:
                    break
            values[z] = v

    return _normalize_rows(values)
