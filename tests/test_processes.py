"""Driver sampling, grids, replay and spectral assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyint import rng
from levyint.errors import (
    DimensionMismatch,
    GridMismatch,
    IndexOutOfRange,
    NonNormalizable,
    SpecMismatch,
    ZeroJumpSize,
)
from levyint.processes import (
    JUMP,
    KIND_NAMES,
    SCHEDULED,
    PathBlock,
    PathSampler,
    StandardLevySpec,
    TimeGrid,
    assemble_levy,
    coordinate_view,
    make_standard_specs,
    project_standard,
    replay_path,
    spec_from_preset,
    transport_levy,
)
from levyint.spaces import build_eigen_isometry, make_covariance

MIXED = {"preset": "mixed", "sigma": 0.7071067811865476, "a": 1.0}


# ---------------------------------------------------------------------------
# addressed random streams


def test_stream_addressing_is_reproducible_and_disjoint():
    a = rng.stream(5, 0, 0, rng.BROWNIAN).standard_normal(4)
    assert np.array_equal(a, rng.stream(5, 0, 0, rng.BROWNIAN).standard_normal(4))
    for other in (rng.stream(5, 1, 0, rng.BROWNIAN),
                  rng.stream(5, 0, 1, rng.BROWNIAN),
                  rng.stream(5, 0, 0, rng.JUMPS),
                  rng.stream(6, 0, 0, rng.BROWNIAN)):
        assert not np.array_equal(a, other.standard_normal(4))
    with pytest.raises(ValueError):
        rng.stream(5, -1)


# ---------------------------------------------------------------------------
# driver presets and normalization


def test_presets_frozen_values():
    b = spec_from_preset("brownian")
    assert b.sigma == 1.0 and b.jumps == ()
    p = spec_from_preset({"preset": "poisson", "a": 0.5})
    assert p.sigma == 0.0 and p.jumps == ((0.5, 4.0),)
    m = spec_from_preset(MIXED)
    assert m.sigma == MIXED["sigma"]
    (size, intensity), = m.jumps
    assert size == 1.0
    assert abs(intensity - 0.5) <= 1e-15


def test_explicit_driver_rescales_intensities():
    spec = spec_from_preset({"sigma": 0.6, "jumps": [[0.5, 1.0], [-0.25, 2.0]]})
    (a1, n1), (a2, n2) = spec.jumps
    assert (a1, a2) == (0.5, -0.25)
    # relative intensities survive the rescale
    assert abs(n2 / n1 - 2.0) <= 1e-12
    rate = spec.sigma ** 2 + a1 * a1 * n1 + a2 * a2 * n2
    assert abs(rate - 1.0) <= 1e-12


def test_driver_validation_errors():
    with pytest.raises(NonNormalizable):
        StandardLevySpec(sigma=0.5)
    with pytest.raises(ZeroJumpSize):
        StandardLevySpec(sigma=0.0, jumps=((0.0, 1.0),))
    with pytest.raises(ZeroJumpSize):
        spec_from_preset({"preset": "poisson", "a": 0.0})
    with pytest.raises(ZeroJumpSize):
        spec_from_preset({"sigma": 0.0, "jumps": [[0.0, 1.0]]})
    with pytest.raises(NonNormalizable):
        spec_from_preset({"preset": "mixed", "sigma": 1.0, "a": 1.0})
    with pytest.raises(NonNormalizable):
        spec_from_preset({"preset": "unknown"})
    with pytest.raises(NonNormalizable):
        spec_from_preset("poisson")
    with pytest.raises(NonNormalizable):
        spec_from_preset({"sigma": 1.0, "jumps": [[1.0, 1.0]]})
    with pytest.raises(NonNormalizable):
        spec_from_preset({"sigma": 0.5})
    with pytest.raises(NonNormalizable):
        spec_from_preset({"sigma": -0.1, "jumps": [[1.0, 1.0]]})


def test_make_standard_specs_cycles_recipes():
    specs = make_standard_specs(5, ("brownian", {"preset": "poisson", "a": 0.5}))
    assert [s.sigma for s in specs] == [1.0, 0.0, 1.0, 0.0, 1.0]
    same = make_standard_specs(3, "brownian")
    assert all(s == same[0] for s in same)
    with pytest.raises(DimensionMismatch):
        make_standard_specs(0, "brownian")
    with pytest.raises(NonNormalizable):
        make_standard_specs(2, ())


@given(sigma=st.floats(0.0, 0.95),
       jumps=st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.1, 5.0)),
                      min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_normalization_always_hits_unit_rate(sigma, jumps):
    spec = spec_from_preset({"sigma": sigma, "jumps": jumps})
    rate = math.fsum([spec.sigma ** 2]
                     + [a * a * nu for a, nu in spec.jumps])
    assert abs(rate - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# grids and sampled paths


def test_brownian_only_grid_is_the_scheduled_grid():
    sampler = PathSampler(make_standard_specs(1, "brownian"), 1.0, 8)
    path = sampler.sample(1, 0)
    assert np.array_equal(path.grid.times, np.linspace(0.0, 1.0, 9)[None])
    assert np.all(path.grid.kind == SCHEDULED)
    assert path.increments.shape == (1, 1, 8)
    assert path.n_nodes.tolist() == [9]
    assert path.cumulative[0, 0, 0] == 0.0
    assert abs(path.cumulative[0, 0, -1]
               - path.increments[0, 0].sum()) <= 1e-12


def test_sampling_is_deterministic_per_address():
    specs = make_standard_specs(2, ("brownian", {"preset": "poisson", "a": 0.5}))
    sampler = PathSampler(specs, 1.0, 8)
    p1 = sampler.sample(7, 3)
    p2 = sampler.sample(7, 3)
    assert np.array_equal(p1.grid.times, p2.grid.times)
    assert np.array_equal(p1.increments, p2.increments)
    p3 = sampler.sample(7, 4)
    assert not (p1.grid.times.size == p3.grid.times.size
                and np.array_equal(p1.increments, p3.increments))


def test_jump_grid_structure_and_compensation():
    sampler = PathSampler(make_standard_specs(1, {"preset": "poisson", "a": 0.5}),
                          1.0, 8)
    path = sampler.sample(11, 2)
    times = path.grid.times[0]
    assert times[0] == 0.0 and times[-1] == 1.0
    assert np.all(np.diff(times) > 0)
    # redraw the jumps in the documented order: draw 0 of the component's
    # JUMPS address is the Poisson count of its first term, draws 1..n the
    # uniform jump times
    key = rng.keys(11, rng.JUMPS, [0], [2])[0, 0]
    n_jumps = int(rng.PoissonTable([4.0 * 1.0]).counts(
        rng.words(key, np.zeros(1, dtype=np.uint64)))[0])
    drawn = np.sort(1.0 * rng.uniforms(
        rng.words(key, np.arange(1, n_jumps + 1, dtype=np.uint64))))
    assert n_jumps > 0
    assert np.array_equal(times[path.grid.kind[0] == JUMP], drawn)
    # compensated sum: a * N_T - a * nu * T
    assert abs(path.cumulative[0, 0, -1]
               - (0.5 * n_jumps - 0.5 * 4.0 * 1.0)) <= 1e-10
    # the increments are exactly compensator plus a at the jump nodes
    oracle = -0.5 * 4.0 * path.grid.dt[0]
    for t in drawn:
        oracle[path.node_at(t)[0] - 1] += 0.5
    assert np.max(np.abs(path.increments[0, 0] - oracle)) <= 1e-12


def test_extra_times_join_the_grid():
    sampler = PathSampler(make_standard_specs(1, "brownian"), 1.0, 4,
                          extra_times=(0.3,))
    path = sampler.sample(1, 0)
    assert 0.3 in path.grid.times
    with pytest.raises(DimensionMismatch):
        PathSampler(make_standard_specs(1, "brownian"), 1.0, 4,
                    extra_times=(1.5,))
    with pytest.raises(DimensionMismatch):
        PathSampler(make_standard_specs(1, "brownian"), 1.0, 0)


def test_node_lookup_semantics():
    # two paths, the second padded with a repeated horizon
    grid = TimeGrid(np.array([[0.0, 0.25, 0.5, 1.0], [0.0, 0.5, 1.0, 1.0]]),
                    np.zeros((2, 4), dtype=np.uint8))
    path = PathBlock(grid, np.zeros((2, 1, 3)), np.array([4, 3]))
    assert grid.n_nodes == 4
    assert np.array_equal(grid.dt, np.array([[0.25, 0.25, 0.5],
                                             [0.5, 0.5, 0.0]]))
    for k, t in enumerate(grid.times[0]):
        assert path.node_at(float(t))[0] == k
    assert path.node_at(0.3).tolist() == [1, 0]
    assert path.node_at(0.5).tolist() == [2, 1]
    with pytest.raises(IndexOutOfRange):
        path.node_at(-0.1)
    with pytest.raises(IndexOutOfRange):
        path.node_at(1.1)


def test_replay_round_trip_is_exact():
    sampler = PathSampler(make_standard_specs(2, ("brownian", MIXED)), 1.0, 8)
    path = sampler.sample(3, 5)
    names = [KIND_NAMES[k] for k in path.grid.kind[0]]
    back = replay_path(path.grid.times[0], path.increments[0], names)
    assert back.n_nodes.tolist() == path.n_nodes.tolist()
    assert np.array_equal(back.grid.times, path.grid.times)
    assert np.array_equal(back.grid.kind, path.grid.kind)
    assert np.array_equal(back.increments, path.increments)
    assert np.array_equal(back.cumulative, path.cumulative)


def test_replay_validation():
    with pytest.raises(GridMismatch):
        replay_path([0.5, 1.0], [[1.0]])
    with pytest.raises(GridMismatch):
        replay_path([0.0], [[]])
    with pytest.raises(GridMismatch):
        replay_path([0.0, 0.5, 0.5], [[1.0, 2.0]])
    with pytest.raises(GridMismatch):
        replay_path([0.0, 0.5, 1.0], [[1.0]])
    with pytest.raises(GridMismatch):
        replay_path([0.0, 1.0], [[1.0]], kinds=["scheduled"])
    # kinds are names of KIND_NAMES or their indices, nothing else
    assert replay_path([0.0, 1.0], [[1.0]], kinds=[0, "jump"]).grid.kind.tolist() \
        == [[SCHEDULED, JUMP]]
    for kinds in (["scheduled", "bogus"], [0, 7], [0, [1]], 3):
        with pytest.raises(GridMismatch, match="kinds"):
            replay_path([0.0, 1.0], [[1.0]], kinds=kinds)


# ---------------------------------------------------------------------------
# spectral assembly


def test_assembled_path_coordinates_frozen_case():
    spec = make_covariance((0.5, 0.25))
    driver = replay_path([0.0, 0.5, 1.0], [[0.6, 0.4], [1.5, 0.5]])
    levy = assemble_levy(spec, driver)
    half = levy.coords[0, :, driver.node_at(0.5)[0]]
    assert half[0] == math.sqrt(0.5) * 0.6
    assert half[1] == 0.75
    end = levy.coords[0, :, -1]
    assert end[0] == math.sqrt(0.5)
    assert end[1] == 1.0
    with pytest.raises(DimensionMismatch):
        assemble_levy(make_covariance((0.5, 0.25, 0.125)), driver)


def test_project_standard_identity_basis_is_bit_exact():
    spec = make_covariance((0.5, 0.25))
    driver = replay_path([0.0, 0.5, 1.0], [[0.6, 0.4], [1.5, 0.5]])
    levy = assemble_levy(spec, driver)
    assert np.array_equal(project_standard(levy), driver.increments)


def test_project_standard_recovers_components_under_rotation():
    spec = make_covariance((0.5, 0.25), {"seed": 3})
    sampler = PathSampler(make_standard_specs(2, ("brownian", MIXED)), 1.0, 8)
    driver = sampler.sample(2, 0)
    levy = assemble_levy(spec, driver)
    standard = project_standard(levy)
    assert standard.shape == driver.increments.shape
    assert np.max(np.abs(standard - driver.increments)) <= 1e-12
    # a block projects row by row
    block = sampler.sample_block(2, range(5))
    rows = project_standard(assemble_levy(spec, block))
    for i in range(5):
        single = project_standard(assemble_levy(spec, sampler.sample(2, i)))
        n = int(block.n_nodes[i]) - 1
        assert np.max(np.abs(rows[i, :, :n] - single[0])) <= 1e-15
        assert np.all(rows[i, :, n:] == 0.0)
    view = coordinate_view(levy)
    dev = np.max(np.abs(np.cumsum(view.increments, axis=-1)
                        - levy.coords[..., 1:]))
    assert dev <= 1e-12


def test_coordinate_view_identity_basis_is_exact():
    spec = make_covariance((0.25, 0.0625))
    driver = replay_path([0.0, 0.5, 1.0], [[0.6, 0.4], [1.5, 0.5]])
    view = coordinate_view(assemble_levy(spec, driver))
    assert isinstance(view, PathBlock)
    assert np.array_equal(view.increments,
                          spec.sqrt_eigenvalues[:, None] * driver.increments)


# ---------------------------------------------------------------------------
# second moments


def test_empirical_covariance_unexcited_direction_is_exactly_zero():
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    spec = make_covariance((0.5, 0.25), basis)
    sampler = PathSampler(make_standard_specs(2, "brownian"), 1.0, 4)
    coords = assemble_levy(spec, sampler.sample_block(0, range(16))).coords
    assert coords.shape == (16, 3, 5)
    # the third reference direction carries no variance, so every product
    # with it, and its empirical covariance with any probe, is zero
    assert np.all(coords[:, 2] == 0.0)


def test_empirical_covariance_matches_analytic_value():
    spec = make_covariance((1.0,))
    sampler = PathSampler(make_standard_specs(1, "brownian"), 1.0, 4)
    coords = assemble_levy(spec, sampler.sample_block(21, range(4000))).coords
    z = coords[:, 0, -1] * coords[:, 0, -1]
    se = float(np.std(z, ddof=1)) / math.sqrt(z.size)
    assert se > 0.0
    # E[<L_1, e0>^2] = min(1, 1) <Q e0, e0> = 1; at time zero it is exactly 0
    assert abs(float(np.mean(z)) - 1.0) <= 4.0 * se
    assert np.all(coords[:, 0, 0] == 0.0)


# ---------------------------------------------------------------------------
# transport along component isometries


def test_transport_swaps_components_exactly():
    lam = (0.25, 0.25)
    spec = make_covariance(lam)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    iso = build_eigen_isometry(spec, lam, {0.25: swap})
    drivers = make_standard_specs(2, ({"preset": "poisson", "a": 0.5},
                                      {"preset": "poisson", "a": 1.0}))
    driver = PathSampler(drivers, 1.0, 8).sample(13, 1)
    moved = transport_levy(assemble_levy(spec, driver), iso)
    assert np.array_equal(moved.driver.increments,
                          driver.increments[:, ::-1])
    assert moved.spec.identity_basis


def test_transport_rejects_wrong_source():
    spec = make_covariance((0.5, 0.25))
    iso = build_eigen_isometry(spec, (0.5, 0.25))
    other = make_covariance((0.25, 0.25))
    driver = replay_path([0.0, 1.0], [[1.0], [2.0]])
    with pytest.raises(SpecMismatch):
        transport_levy(assemble_levy(other, driver), iso)


# ---------------------------------------------------------------------------
# block sampling

DESK = make_standard_specs(6, (
    "brownian", {"preset": "poisson", "a": 0.5}, MIXED,
    "brownian", {"preset": "poisson", "a": 0.25},
    {"preset": "mixed", "sigma": 0.5, "a": 0.5}))
JUMP_DENSE = make_standard_specs(6, (
    {"preset": "poisson", "a": 0.15}, {"preset": "mixed", "sigma": 0.5, "a": 0.12},
    {"preset": "poisson", "a": 0.25}, {"preset": "mixed", "sigma": 0.3, "a": 0.1},
    {"preset": "poisson", "a": 0.2}, {"preset": "mixed", "sigma": 0.7, "a": 0.2}))


@pytest.mark.parametrize("specs", [DESK, JUMP_DENSE], ids=["desk", "jump_dense"])
def test_block_rows_equal_single_path_samples(specs):
    from levyint.stats import CHUNK_SIZE

    sampler = PathSampler(specs, 1.0, 64)
    # a block straddling a chunk boundary, and a block of one
    for indices in (range(CHUNK_SIZE - 5, CHUNK_SIZE + 6), (17,)):
        block = sampler.sample_block(20260816, indices)
        assert block.n_paths == len(indices)
        width = block.grid.n_nodes
        assert width == int(block.n_nodes.max())
        for row, p in enumerate(indices):
            single = sampler.sample(20260816, p)
            n = int(block.n_nodes[row])
            assert single.n_nodes.tolist() == [n]
            assert single.grid.n_nodes == n
            assert np.array_equal(block.grid.times[row, :n],
                                  single.grid.times[0])
            assert np.array_equal(block.grid.kind[row, :n],
                                  single.grid.kind[0])
            assert np.array_equal(block.increments[row, :, :n - 1],
                                  single.increments[0])
            # padding: the horizon repeated, zero-length cells, no increments
            assert np.all(block.grid.times[row, n:] == 1.0)
            assert np.all(block.grid.dt[row, n - 1:] == 0.0)
            assert np.all(block.increments[row, :, n - 1:] == 0.0)
            assert np.array_equal(block.cumulative[row, :, n - 1:],
                                  np.repeat(single.cumulative[0, :, -1:],
                                            width - n + 1, axis=1))


ONE_MIXED = make_standard_specs(1, MIXED)


@pytest.mark.parametrize("specs", [DESK, JUMP_DENSE, ONE_MIXED],
                         ids=["desk", "jump_dense", "one_mixed"])
def test_a_block_head_is_the_block_sampled_alone(specs):
    # bit for bit, with the padding cut to the head's longest grid; a head
    # of the one-mixed sampler (half a jump per path) often has no jump
    sampler = PathSampler(specs, 1.0, 64, (0.3,))
    block = sampler.sample_block(20260816, range(40, 86))
    assert block.head(46) is block
    for n in (1, 2, 5, 18, 45):
        head, alone = block.head(n), sampler.sample_block(20260816,
                                                          range(40, 40 + n))
        for a, b in ((head.grid.times, alone.grid.times),
                     (head.grid.kind, alone.grid.kind),
                     (head.increments, alone.increments),
                     (head.n_nodes, alone.n_nodes),
                     (head.grid.dt, alone.grid.dt),
                     (head.cumulative, alone.cumulative)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_sampled_blocks_are_read_only():
    block = PathSampler(DESK, 1.0, 64).sample_block(20260816, range(8))
    for b in (block, block.head(3)):
        for a in (b.grid.times, b.grid.kind, b.grid.dt, b.increments,
                  b.n_nodes, b.cumulative):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

