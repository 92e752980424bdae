"""Unit-sphere boundary and initial data for the square-domain benchmark.

Boundary values always come from the inverse stereographic projection;
interior values are exact, perturbed-then-normalized, or drawn in spherical
coordinates.  The draws come from the splitmix64 stream of a 64-bit seed, so
a seed fully reproduces them on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import free_nodes

INIT_KINDS = ("exact", "perturbed", "random")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _draws(seed, count):
    """Draws 1, ..., ``count`` of the splitmix64 stream of ``seed``, as doubles in [0, 1).

    Draw k is mix(seed + k * gamma mod 2**64), a two-round xor-multiply mix
    of the k-th state, and keeps its top 53 bits.  numpy's uint64
    arithmetic wraps mod 2**64 as the stream's does.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(int(seed) & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


@dataclass(frozen=True)
class InitSpec:
    """How to fill interior nodal values.

    kind : "exact", "perturbed" or "random"
    seed : generator seed, used for perturbed/random kinds
    perturb_amplitude : scale of the additive perturbation (perturbed kind)
    """

    kind: str = "exact"
    seed: int = 1
    perturb_amplitude: float = 0.5

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


# the exact field's Dirichlet energy on [-1/2, 1/2]^2: |grad u|^2 = 8 / (1 + |x|^2)^2, so
# E = 4 int int (1 + |x|^2)^-2 dx in closed form (scipy's dblquad agrees to 9e-16)
EXACT_ENERGY = 16 / math.sqrt(5) * math.atan(1 / math.sqrt(5))


def _normalize_rows(values):
    """Rows scaled to unit length; a row of length at most 1e-12 raises ``ValueError`` naming its node."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(values, axis=1)
    degenerate = np.flatnonzero(norms <= 1e-12)
    if degenerate.size:
        z = degenerate[0]
        raise ValueError(f"cannot normalize the value at node {z}: its length {norms[z]:.3e} is at most 1e-12")
    # a finite row whose norm overflows is scaled by its largest entry first
    huge = np.isinf(norms)
    if huge.any():
        values[huge] /= np.abs(values[huge]).max(axis=1, keepdims=True)
        norms[huge] = np.linalg.norm(values[huge], axis=1)
    return values / norms[:, None]


def make_initial(mesh, spec):
    """Construct the initial nodal field for a mesh.

    Boundary nodes always carry the stereographic boundary data regardless
    of kind and seed.  Interior nodes (:func:`free_nodes`) follow ``spec``:

    - exact: stereographic values.
    - random: unit vectors from spherical angles a1 in (-pi/2, pi/2) and
      a2 in (-pi, pi), two draws per node in node order.
    - perturbed: normalize(exact + amplitude * xi) with xi componentwise
      uniform in (-1, 1), three draws per node in node order.  A node
      whose sum has length at most 1e-12 is a ``ValueError`` naming it.

    The draws are the first ones of the splitmix64 stream of ``spec.seed``
    (:func:`_draws`), all drawn in one pass.  Every returned row has unit
    length to machine precision.
    """
    values = inverse_stereographic(mesh.vertices)
    interior = free_nodes(mesh)

    if spec.kind == "random":
        draws = _draws(spec.seed, 2 * len(interior)).reshape(-1, 2)
        a1 = -0.5 * math.pi + math.pi * draws[:, 0]
        a2 = -math.pi + 2.0 * math.pi * draws[:, 1]
        cos_a1 = np.cos(a1)
        values[interior] = np.column_stack([cos_a1 * np.cos(a2), cos_a1 * np.sin(a2), np.sin(a1)])
    elif spec.kind == "perturbed":
        xi = -1.0 + 2.0 * _draws(spec.seed, 3 * len(interior)).reshape(-1, 3)
        values[interior] += spec.perturb_amplitude * xi

    return _normalize_rows(values)
