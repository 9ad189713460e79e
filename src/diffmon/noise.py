"""Reproducible Wiener increments from counter-based random streams.

Each trajectory owns one stream, keyed by (base seed, stream id) through a
Philox counter-based generator.  Every variate is a 53-bit lattice integer k,
the top bits of one raw 64-bit Philox output, mapped to a standard normal by
the inverse normal CDF at the lattice midpoint (k + 1/2) / 2^53.  The map
(``lattice_normals``) is Wichura's algorithm AS241 (PPND16, Appl. Statist. 37,
477-484, 1988) in numpy, with its arguments formed from k exactly: the
central argument (k - 2^52 + 1/2) / 2^53 and the tail probability
(min(k, 2^53 - 1 - k) + 1/2) / 2^53, which is never 0.  So both ends of the
lattice map to finite values (about -/+8.29), the map is exactly odd under
k <-> 2^53 - 1 - k, and it is elementwise: replay is exact whatever the
grouping of draws into blocks.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy.random import Philox

from .errors import ValidationError, check_dt, is_integer

_LATTICE = 1 << 53
_HALF = float(1 << 52)
_CHUNK = 1 << 15
_STREAMS = 256  # streams per buffer of raw outputs
_MASK = (1 << 64) - 1

# AS241 (PPND16) coefficients, lowest order first: numerator and denominator
# of the central rational function in r = 0.180625 - q^2 (|q| <= 0.425), of
# the near tail in r - 1.6 and of the far tail in r - 5, r = sqrt(-log p).
_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _ratio(num: tuple, den: tuple, r: np.ndarray) -> np.ndarray:
    """num(r) / den(r) for polynomials given lowest order first (Horner form)."""
    p = np.full_like(r, num[-1])
    s = np.full_like(r, den[-1])
    for a, b in zip(num[-2::-1], den[-2::-1]):
        p *= r
        p += a
        s *= r
        s += b
    p /= s
    return p


def _normals(kf: np.ndarray, z: np.ndarray) -> None:
    """AS241 at the lattice midpoints of a flat float64 array of integers, into ``z``."""
    q = kf - _HALF
    q += 0.5
    q /= _LATTICE
    # The central ratio stays finite for every |q| < 1/2 (its denominator is
    # above 0.002), so it is evaluated everywhere and the tails overwritten.
    np.multiply(q, _ratio(_A, _B, 0.180625 - q * q), out=z)
    # Index lists, not masks: a masked gather and scatter cost more than the tail's maths.
    tail = np.flatnonzero(np.abs(q) > 0.425)
    r = kf.take(tail)
    np.minimum(r, (_LATTICE - 1) - r, out=r)
    r += 0.5
    r /= _LATTICE
    np.sqrt(np.negative(np.log(r, out=r), out=r), out=r)
    zt = _ratio(_C, _D, r - 1.6)
    far = np.flatnonzero(r > 5.0)
    if far.size:
        zt.put(far, _ratio(_E, _F, r.take(far) - 5.0))
    z.put(tail, np.copysign(zt, q.take(tail), out=zt))


def lattice_normals(k: np.ndarray) -> np.ndarray:
    """Standard normals at the midpoints (k + 1/2) / 2^53 of 53-bit integers k (or their floats).

    Elementwise and shape-preserving; defined for k in [0, 2^53) only, where
    the result is finite and exactly odd under k <-> 2^53 - 1 - k.
    """
    flat = np.asarray(k, dtype=np.float64).reshape(-1)
    z = np.empty(flat.shape)
    # Chunks of 256 KB keep the Horner temporaries in cache.
    for i in range(0, flat.size, _CHUNK):
        _normals(flat[i : i + _CHUNK], z[i : i + _CHUNK])
    return z.reshape(np.shape(k))


@cache
def _shared_bits() -> Philox:
    """The one Philox every stream draws from, built at the first draw.

    Each stream's draw sets the whole state (key, counter, buffer) under the
    generator's lock, so a draw depends only on its stream and position.
    """
    return Philox(0)


def _check_streams(base_seed, first_stream, n_streams: int) -> tuple[int, int]:
    """(base_seed, first_stream) as ints, once the seed and the stream ids fit in 64 bits."""
    for name, value in (("base_seed", base_seed), ("stream_id", first_stream)):
        if not is_integer(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    base_seed, first_stream = int(base_seed), int(first_stream)
    if not (0 <= base_seed < (1 << 64)):
        raise ValidationError("base_seed must fit in an unsigned 64-bit integer")
    if not (0 <= first_stream and first_stream + n_streams <= (1 << 64)):
        raise ValidationError("stream_id must fit in an unsigned 64-bit integer")
    return base_seed, first_stream


def lattice_streams(base_seed: int, first_stream: int, step: int, out: np.ndarray) -> np.ndarray:
    """Lattice integers of consecutive streams from ``step`` on, into ``out`` (n_steps, dim, n).

    ``out[i, j, k]`` is component j of step ``step + i`` of the stream keyed by
    (base_seed, first_stream + k): the top 53 bits of its raw outputs, which are
    ``Generator.integers(0, 2**53, dtype=np.uint64)`` on that stream (a power-of-two
    range never rejects).  Each chunk of streams is drawn into one uint64 buffer,
    shifted at once and stored with one transposing, converting copy.
    """
    n_steps, dim, n = out.shape
    base_seed, first_stream = _check_streams(base_seed, first_stream, n)
    # Philox makes four outputs per counter value and steps the counter
    # before it makes them: output j comes from counter value j // 4 + 1,
    # so a counter of j // 4 and an empty buffer resume at output j - j % 4.
    block, skip = divmod(step * dim, 4)
    key, width = [base_seed, 0], skip + n_steps * dim
    state = {
        "bit_generator": "Philox", "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
        "uinteger": 0, "state": {"counter": [block & _MASK, block >> 64, 0, 0], "key": key},
    }
    raw = np.empty((min(n, _STREAMS), width), dtype=np.uint64)
    bits = _shared_bits()
    for lo in range(0, n, _STREAMS):
        rows = raw[: min(_STREAMS, n - lo)]
        with bits.lock:
            for k in range(len(rows)):
                key[1] = first_stream + lo + k
                bits.state = state
                rows[k] = bits.random_raw(width)
        np.right_shift(rows, np.uint64(11), out=rows)
        ints = rows[:, skip:].reshape(len(rows), n_steps, dim)
        out[..., lo : lo + len(rows)] = ints.transpose(1, 2, 0)
    return out


class NoiseSource:
    """Deterministic stream of Wiener increments for one trajectory.

    The same (base_seed, stream_id) always reproduces the same increment
    sequence, independent of how draws are grouped into blocks: the raw
    outputs of ``Philox(key=base_seed + (stream_id << 64))``.  A source holds
    only its key and position, and draws as the one stream of ``lattice_streams``.
    """

    def __init__(self, base_seed: int, stream_id: int, dim: int):
        self.base_seed, self.stream_id = _check_streams(base_seed, stream_id, 1)
        if not (is_integer(dim) and dim >= 1):
            raise ValidationError(f"dim must be a positive integer, got {dim!r}")
        self.dim = int(dim)
        self.step = 0

    def lattice_block(self, n_steps: int) -> np.ndarray:
        """Lattice integers of the next ``n_steps`` steps, shape (n_steps, dim)."""
        if not (is_integer(n_steps) and n_steps >= 0):
            raise ValidationError(f"n_steps must be a non-negative integer, got {n_steps!r}")
        out = np.empty((n_steps, self.dim, 1), dtype=np.uint64)
        lattice_streams(self.base_seed, self.stream_id, self.step, out)
        self.step += n_steps
        return out[..., 0]

    def draw_block(self, n_steps: int, dt: float) -> np.ndarray:
        """Increments for the next ``n_steps`` steps, shape (n_steps, dim)."""
        dt = check_dt(dt)
        return lattice_normals(self.lattice_block(n_steps)) * np.sqrt(dt)
