"""Stereographic data, the seeded generator, and field construction."""

import math

import numpy as np
import pytest

from sphereflow.fem import assemble_stiffness
from sphereflow.initial_data import (
    InitSpec,
    SplitMix64,
    inverse_stereographic,
    make_initial,
)
from sphereflow.mesh import build_square_mesh


def test_inverse_stereographic_values():
    assert np.allclose(inverse_stereographic([0.0, 0.0]), [0.0, 0.0, 1.0])
    assert np.allclose(inverse_stereographic([0.5, 0.0]), [0.8, 0.0, 0.6])
    assert np.allclose(inverse_stereographic([1.0, 1.0]), [2 / 3, 2 / 3, -1 / 3])


def test_inverse_stereographic_vectorized_unit():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, size=(200, 2))
    out = inverse_stereographic(pts)
    assert out.shape == (200, 3)
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-15


def test_splitmix_reference_stream():
    # first outputs for seed 0 pin the documented state-advance algorithm
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_floats_in_unit_interval():
    gen = SplitMix64(123456789)
    values = [gen.next_float() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    # crude uniformity sanity
    assert 0.4 < np.mean(values) < 0.6


def test_splitmix_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


@pytest.mark.parametrize("kind,amp", [("exact", 0.0), ("perturbed", 0.7), ("random", 0.0)])
def test_all_kinds_are_unit(kind, amp):
    mesh = build_square_mesh(6, lower_left=(-0.5, -0.5), side=1.0)
    u = make_initial(mesh, InitSpec(kind, seed=5, perturb_amplitude=amp))
    assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-15


def test_exact_matches_stereographic():
    mesh = build_square_mesh(4, lower_left=(-0.5, -0.5), side=1.0)
    u = make_initial(mesh, InitSpec("exact"))
    expected = inverse_stereographic(mesh.vertices)
    expected /= np.linalg.norm(expected, axis=1)[:, None]
    assert np.array_equal(u, expected)


def test_random_is_seed_deterministic():
    mesh = build_square_mesh(5, lower_left=(-0.5, -0.5), side=1.0)
    spec = InitSpec("random", seed=99)
    assert np.array_equal(make_initial(mesh, spec), make_initial(mesh, spec))
    other = make_initial(mesh, InitSpec("random", seed=100))
    assert not np.array_equal(make_initial(mesh, spec), other)


def test_boundary_values_independent_of_kind_and_seed():
    mesh = build_square_mesh(5, lower_left=(-0.5, -0.5), side=1.0)
    fields = [
        make_initial(mesh, InitSpec("exact")),
        make_initial(mesh, InitSpec("random", seed=1)),
        make_initial(mesh, InitSpec("random", seed=77)),
        make_initial(mesh, InitSpec("perturbed", seed=3, perturb_amplitude=1.5)),
    ]
    boundary = mesh.boundary_nodes
    for field in fields[1:]:
        assert np.array_equal(field[boundary], fields[0][boundary])


def test_perturbed_zero_amplitude_equals_exact():
    mesh = build_square_mesh(4, lower_left=(-0.5, -0.5), side=1.0)
    exact = make_initial(mesh, InitSpec("exact"))
    perturbed = make_initial(mesh, InitSpec("perturbed", seed=11, perturb_amplitude=0.0))
    assert np.array_equal(exact, perturbed)


def test_large_perturbation_raises_energy():
    mesh = build_square_mesh(64, lower_left=(-0.5, -0.5), side=1.0)
    u = make_initial(mesh, InitSpec("perturbed", seed=1, perturb_amplitude=2.0))
    assert 0.5 * np.sum(u * (assemble_stiffness(mesh) @ u)) > 15.0


def test_invalid_spec():
    with pytest.raises(ValueError):
        InitSpec("bogus")
    with pytest.raises(ValueError):
        InitSpec("perturbed", perturb_amplitude=-1.0)
    for amplitude in (math.nan, math.inf):
        with pytest.raises(ValueError):
            InitSpec("perturbed", perturb_amplitude=amplitude)
