"""Stereographic data, the seeded generator, and field construction."""

import math

import numpy as np
import pytest

import oracles
from oracles import SplitMix64
from sphereflow import initial_data
from sphereflow.fem import assemble_p1
from sphereflow.initial_data import InitSpec, _draws, inverse_stereographic, make_initial
from sphereflow.mesh import build_square_mesh, free_nodes


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
    mesh = build_square_mesh(6)
    u = make_initial(mesh, InitSpec(kind, seed=5, perturb_amplitude=amp))
    assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-15


def test_exact_matches_stereographic():
    mesh = build_square_mesh(4)
    u = make_initial(mesh, InitSpec("exact"))
    expected = inverse_stereographic(mesh.vertices)
    expected /= np.linalg.norm(expected, axis=1)[:, None]
    assert np.array_equal(u, expected)


def test_random_is_seed_deterministic():
    mesh = build_square_mesh(5)
    spec = InitSpec("random", seed=99)
    assert np.array_equal(make_initial(mesh, spec), make_initial(mesh, spec))
    other = make_initial(mesh, InitSpec("random", seed=100))
    assert not np.array_equal(make_initial(mesh, spec), other)


def test_boundary_values_independent_of_kind_and_seed():
    mesh = build_square_mesh(5)
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
    mesh = build_square_mesh(4)
    exact = make_initial(mesh, InitSpec("exact"))
    perturbed = make_initial(mesh, InitSpec("perturbed", seed=11, perturb_amplitude=0.0))
    assert np.array_equal(exact, perturbed)


def test_large_perturbation_raises_energy():
    mesh = build_square_mesh(64)
    u = make_initial(mesh, InitSpec("perturbed", seed=1, perturb_amplitude=2.0))
    assert 0.5 * np.sum(u * (assemble_p1(mesh)[0] @ u)) > 15.0


def test_invalid_spec():
    with pytest.raises(ValueError):
        InitSpec("bogus")
    with pytest.raises(ValueError):
        InitSpec("perturbed", perturb_amplitude=-1.0)
    for amplitude in (math.nan, math.inf):
        with pytest.raises(ValueError):
            InitSpec("perturbed", perturb_amplitude=amplitude)


SEEDS = (0, 1, 7, -3, 2**64 - 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_floats_match_next_float(seed):
    for count in (0, 1, 5):
        drawn = _draws(seed, count)
        assert drawn.dtype == np.float64 and drawn.shape == (count,)
        scalars = SplitMix64(seed)
        assert drawn.tolist() == [scalars.next_float() for _ in range(count)]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32, 64])
@pytest.mark.parametrize("kind", ["exact", "perturbed", "random"])
def test_make_initial_matches_loop_oracle(kind, n):
    mesh = build_square_mesh(n)
    for seed in (*SEEDS, 12345):
        for amplitude in (0.0, 0.5, 3.0):
            spec = InitSpec(kind, seed=seed, perturb_amplitude=amplitude)
            assert np.array_equal(make_initial(mesh, spec), oracles.make_initial(mesh, spec))


def test_degenerate_perturbed_node_raises(monkeypatch):
    # the draws of interior node 4 cancel its exact value: -1 + 2 f = -exact
    mesh = build_square_mesh(4)
    interior = free_nodes(mesh)
    exact = inverse_stereographic(mesh.vertices)[interior]
    draws = _draws(7, 3 * len(interior)).reshape(-1, 3)
    draws[4] = (1.0 - exact[4]) / 2.0
    monkeypatch.setattr(initial_data, "_draws", lambda seed, count: draws.ravel())
    with pytest.raises(ValueError, match=f"node {interior[4]}: its length 0.000e\\+00 is at most 1e-12"):
        make_initial(mesh, InitSpec("perturbed", seed=7, perturb_amplitude=1.0))


def test_huge_amplitude_normalizes_without_overflow():
    # |exact + amplitude * xi| overflows; the direction of xi survives
    mesh = build_square_mesh(4)
    huge = make_initial(mesh, InitSpec("perturbed", seed=3, perturb_amplitude=1e308))
    large = make_initial(mesh, InitSpec("perturbed", seed=3, perturb_amplitude=1e150))
    assert np.all(np.isfinite(huge))
    assert np.abs(np.linalg.norm(huge, axis=1) - 1.0).max() <= 1e-15
    assert np.allclose(huge, large, rtol=0.0, atol=1e-15)
    assert np.array_equal(huge[mesh.boundary_nodes], large[mesh.boundary_nodes])
