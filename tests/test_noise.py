import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import ndtri

import diffmon
from diffmon import NoiseSource, draw_wiener
from diffmon.errors import ValidationError
from diffmon.noise import lattice_normals


def test_mean_within_clt_bound():
    src = NoiseSource(123, 0, 2)
    dt = 1e-3
    dws = src.draw_block(500_000, dt)
    bound = 4.0 * np.sqrt(dt / dws.shape[0])
    assert np.max(np.abs(dws.mean(axis=0))) < bound


def test_covariance_close_to_dt_identity():
    src = NoiseSource(123, 1, 2)
    dt = 1e-3
    dws = src.draw_block(500_000, dt)
    cov = dws.T @ dws / dws.shape[0]
    assert np.max(np.abs(np.diag(cov) / dt - 1.0)) < 0.01
    assert abs(cov[0, 1]) < 0.01 * dt


def test_replay_is_bit_identical():
    a = NoiseSource(9, 4, 3).draw_block(100, 0.01)
    b = NoiseSource(9, 4, 3).draw_block(100, 0.01)
    assert np.array_equal(a, b)


def test_streams_differ():
    a = NoiseSource(9, 0, 3).draw_block(10, 0.01)
    b = NoiseSource(9, 1, 3).draw_block(10, 0.01)
    c = NoiseSource(10, 0, 3).draw_block(10, 0.01)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_block_split_matches_single_block():
    whole = NoiseSource(5, 2, 2).draw_block(17, 0.05)
    src = NoiseSource(5, 2, 2)
    parts = np.vstack([src.draw_block(10, 0.05), src.draw_block(7, 0.05)])
    assert np.array_equal(whole, parts)
    assert src.step == 17


def test_skip_advances_stream():
    whole = NoiseSource(5, 3, 2).draw_block(6, 0.1)
    src = NoiseSource(5, 3, 2)
    src.skip(5)
    assert np.array_equal(src.draw_wiener(0.1), whole[5])


def test_draw_wiener_helper():
    a = draw_wiener(NoiseSource(1, 1, 4), 0.2)
    b = NoiseSource(1, 1, 4).draw_block(1, 0.2)[0]
    assert np.array_equal(a, b)


def test_argument_validation():
    with pytest.raises(ValidationError):
        NoiseSource(-1, 0, 2)
    with pytest.raises(ValidationError):
        NoiseSource(0, 0, 0)
    with pytest.raises(ValidationError):
        NoiseSource(0, 0, 2).draw_block(3, 0.0)


def test_noise_dim_must_be_a_positive_integer():
    for dim in (2.5, 2.0, "2", 0, -1):
        with pytest.raises(ValidationError, match="dim must be a positive integer"):
            NoiseSource(0, 0, dim)
    assert NoiseSource(0, 0, np.int64(3)).dim == 3


def test_increments_scale_with_dt():
    z1 = NoiseSource(7, 7, 1).draw_block(5, 1.0)
    z2 = NoiseSource(7, 7, 1).draw_block(5, 4.0)
    assert np.allclose(z2, 2.0 * z1, atol=1e-15)


LATTICE = 1 << 53


def test_lattice_map_is_finite_and_odd_at_the_ends():
    ends = np.array([0, 1, 2, LATTICE - 3, LATTICE - 2, LATTICE - 1], dtype=np.uint64)
    z = lattice_normals(ends)
    assert np.all(np.isfinite(z))
    assert z[0] == pytest.approx(-8.2924, abs=1e-4)
    k = np.concatenate(
        [ends, np.random.default_rng(3).integers(0, LATTICE, 10**5, dtype=np.uint64)]
    )
    assert np.array_equal(lattice_normals(k), -lattice_normals(np.uint64(LATTICE - 1) - k))


def test_lattice_map_matches_scipy_ndtri():
    edge = np.arange(1000, dtype=np.uint64)
    k = np.concatenate(
        [
            np.random.default_rng(11).integers(0, LATTICE, 10**6, dtype=np.uint64),
            edge,
            np.uint64(LATTICE - 1) - edge,
        ]
    )
    # ndtri at the exact midpoint: (j + 1/2) / 2^53 is a double for j < 2^52,
    # and the upper half follows from ndtri(1 - u) = -ndtri(u).
    upper = k >= np.uint64(LATTICE // 2)
    j = np.where(upper, np.uint64(LATTICE - 1) - k, k)
    want = ndtri((j.astype(np.float64) + 0.5) / LATTICE)
    want[upper] *= -1.0
    got = lattice_normals(k)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


def test_lattice_map_is_elementwise():
    gen = np.random.default_rng(12)
    # Mostly tail values, so the logarithm's path is covered too.
    k = np.concatenate(
        [
            gen.integers(0, LATTICE // 8, 800, dtype=np.uint64),
            gen.integers(0, 10**6, 100, dtype=np.uint64),
            gen.integers(0, LATTICE, 800, dtype=np.uint64),
        ]
    )
    one_by_one = np.array([lattice_normals(k[i : i + 1])[0] for i in range(k.size)])
    assert np.array_equal(lattice_normals(k), one_by_one)
    assert np.array_equal(lattice_normals(k.reshape(2, -1, 1)).reshape(-1), one_by_one)


def test_lattice_block_is_the_generator_integer_stream():
    for base_seed, stream_id in ((0, 0), (123, 7), (2**63 + 5, 2**40)):
        src = NoiseSource(base_seed, stream_id, 3)
        got = src.lattice_block(4000)
        gen = Generator(Philox(key=base_seed + (stream_id << 64)))
        want = gen.integers(0, LATTICE, size=12000, dtype=np.uint64)
        assert np.array_equal(got.reshape(-1), want)
        assert src.step == 4000


def _raw_lattice(base_seed, stream_id, n):
    """The first n lattice integers of a stream, from a freshly keyed generator."""
    return Philox(key=base_seed + (stream_id << 64)).random_raw(n) >> np.uint64(11)


def test_interleaved_sources_resume_mid_counter():
    # dim 3 with blocks of 1, 2 and 5 steps puts most draws at an offset that
    # is not a multiple of Philox's four outputs per counter value.
    a, b = NoiseSource(21, 4, 3), NoiseSource(21, 5, 3)
    got = {4: [], 5: []}
    for n in (1, 2, 5, 1, 1, 2, 5, 5, 1, 2):
        for src in (a, b, a):
            got[src.stream_id].append(src.lattice_block(n).reshape(-1))
    for stream_id, src in ((4, a), (5, b)):
        drawn = np.concatenate(got[stream_id])
        assert src.step * 3 == drawn.size
        assert np.array_equal(drawn, _raw_lattice(21, stream_id, drawn.size))


def test_threads_drawing_different_streams():
    # More threads than cores, switching often, all on the one shared
    # generator: a draw that lost its state to another thread's would differ.
    sizes = [1, 2, 5, 3, 7] * 80
    n_threads = 4
    barrier = threading.Barrier(n_threads)
    got = {}

    def draw(stream_id):
        src = NoiseSource(33, stream_id, 3)
        barrier.wait()
        got[stream_id] = np.concatenate([src.lattice_block(n).reshape(-1) for n in sizes])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(n_threads):
        assert np.array_equal(got[k], _raw_lattice(33, k, 3 * sum(sizes)))


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf, -np.inf, "abc"])
def test_draw_block_rejects_bad_dt(dt):
    src = NoiseSource(0, 0, 2)
    with pytest.raises(ValidationError, match="dt must be positive"):
        src.draw_block(3, dt)
    assert src.step == 0


def test_lattice_block_rejects_bad_lengths():
    # -1 used to end in a bare ValueError from numpy, 1.5 in a TypeError.
    src = NoiseSource(0, 0, 2)
    for n_steps in (-1, 1.5):
        with pytest.raises(ValidationError, match="n_steps must be a non-negative integer"):
            src.lattice_block(n_steps)
    assert src.lattice_block(0).shape == (0, 2)
    assert src.step == 0


def test_generator_construction_count():
    # One Philox serves every stream: importing the CLI builds none, and a
    # run builds at most one, whatever its number of trajectories.
    code = """
import numpy as np
import numpy.random

built = []
real = numpy.random.Philox

def counting(*args, **kwargs):
    built.append(args)
    return real(*args, **kwargs)

numpy.random.Philox = counting
import diffmon.cli
print(len(built))
from diffmon import LindbladModel, SimulationConfig, heterodyne_mrep, simulate_ensemble
from diffmon.noise import _shared_bits

model = LindbladModel(hamiltonian=np.zeros((2, 2)), lindblads=[[0, 0], [1, 0]])
for n in (1, 40, 300):
    _shared_bits.cache_clear()
    before = len(built)
    config = SimulationConfig(dt=1e-3, steps=3, n_traj=n, seed=n)
    simulate_ensemble(model, heterodyne_mrep(0.8), np.diag([1.0, 0.0]), config)
    print(len(built) - before)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(diffmon.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "1", "1", "1"]
