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

from .errors import ValidationError, check_dt

_LATTICE = 1 << 53
_HALF = float(1 << 52)
_CHUNK = 1 << 15
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


def _normals(kf: np.ndarray) -> np.ndarray:
    """AS241 at the lattice midpoints of a flat float64 array of integers."""
    q = (kf - _HALF + 0.5) / _LATTICE
    # The central ratio stays finite for every |q| < 1/2 (its denominator is
    # above 0.002), so it is evaluated everywhere and the tails overwritten.
    z = q * _ratio(_A, _B, 0.180625 - q * q)
    tail = np.abs(q) > 0.425
    kt = kf[tail]
    r = np.sqrt(-np.log((np.minimum(kt, (_LATTICE - 1) - kt) + 0.5) / _LATTICE))
    zt = _ratio(_C, _D, r - 1.6)
    far = r > 5.0
    if far.any():
        zt[far] = _ratio(_E, _F, r[far] - 5.0)
    z[tail] = np.copysign(zt, q[tail])
    return z


def lattice_normals(k: np.ndarray) -> np.ndarray:
    """Standard normals at the midpoints (k + 1/2) / 2^53 of 53-bit integers k.

    Elementwise and shape-preserving; the result is finite for every k in
    [0, 2^53) and exactly odd under k <-> 2^53 - 1 - k.
    """
    k = np.asarray(k, dtype=np.uint64)
    flat = k.reshape(-1)
    z = np.empty(flat.shape)
    # Chunks of 256 KB keep the Horner temporaries in cache.
    for i in range(0, flat.size, _CHUNK):
        z[i : i + _CHUNK] = _normals(flat[i : i + _CHUNK].astype(np.float64))
    return z.reshape(k.shape)


@cache
def _shared_bits() -> Philox:
    """The one Philox every stream draws from, built at the first draw.

    Each draw sets the whole state (key, counter, buffer) under the
    generator's lock, so a draw depends only on its stream and position.
    """
    return Philox(0)


class NoiseSource:
    """Deterministic stream of Wiener increments for one trajectory.

    The same (base_seed, stream_id) always reproduces the same increment
    sequence, independent of how draws are grouped into blocks: the raw
    outputs of ``Philox(key=base_seed + (stream_id << 64))``.  A source holds
    only its key and position; its draws come from one shared generator whose
    state is set per draw (about 2 us, against about 13 us to key a generator
    of its own, on a 2-core x86-64 machine).
    """

    def __init__(self, base_seed: int, stream_id: int, dim: int):
        base_seed = int(base_seed)
        stream_id = int(stream_id)
        if not (0 <= base_seed < (1 << 64)):
            raise ValidationError("base_seed must fit in an unsigned 64-bit integer")
        if not (0 <= stream_id < (1 << 64)):
            raise ValidationError("stream_id must fit in an unsigned 64-bit integer")
        if not (isinstance(dim, (int, np.integer)) and dim >= 1):
            raise ValidationError(f"dim must be a positive integer, got {dim!r}")
        self.base_seed = base_seed
        self.stream_id = stream_id
        self.dim = int(dim)
        self.step = 0

    def lattice_block(self, n_steps: int) -> np.ndarray:
        """Lattice integers of the next ``n_steps`` steps, shape (n_steps, dim).

        The top 53 bits of each raw output: the same integers as
        ``Generator.integers(0, 2**53, dtype=np.uint64)`` on this stream, which
        never rejects for a power-of-two range.
        """
        if not (isinstance(n_steps, (int, np.integer)) and n_steps >= 0):
            raise ValidationError(f"n_steps must be a non-negative integer, got {n_steps!r}")
        # Philox makes four outputs per counter value and steps the counter
        # before it makes them: output j comes from counter value j // 4 + 1,
        # so a counter of j // 4 and an empty buffer resume at output j - j % 4.
        block, skip = divmod(self.step * self.dim, 4)
        state = {
            "bit_generator": "Philox",
            "state": {
                "counter": [block & _MASK, block >> 64, 0, 0],
                "key": [self.base_seed, self.stream_id],
            },
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        bits = _shared_bits()
        with bits.lock:
            bits.state = state
            raw = bits.random_raw(skip + n_steps * self.dim)
        self.step += n_steps
        return (raw[skip:] >> np.uint64(11)).reshape(n_steps, self.dim)

    def draw_block(self, n_steps: int, dt: float) -> np.ndarray:
        """Increments for the next ``n_steps`` steps, shape (n_steps, dim)."""
        dt = check_dt(dt)
        return lattice_normals(self.lattice_block(n_steps)) * np.sqrt(dt)

    def draw_wiener(self, dt: float) -> np.ndarray:
        """Increments for a single step, shape (dim,)."""
        return self.draw_block(1, dt)[0]

    def skip(self, n_steps: int) -> None:
        """Advance past ``n_steps`` steps without returning their increments."""
        self.lattice_block(n_steps)


def draw_wiener(source: NoiseSource, dt: float) -> np.ndarray:
    """Module-level convenience alias for ``source.draw_wiener(dt)``."""
    return source.draw_wiener(dt)
