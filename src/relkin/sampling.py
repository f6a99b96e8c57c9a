"""Seeded random generators for well-conditioned test data.

Every function takes a numpy Generator, so a fixed seed reproduces the same
objects bit for bit.  Samplers reject ill-conditioned draws (near-null
vectors, near-degenerate link denominators) with generous margins so that
downstream identities hold comfortably inside the default tolerances.

:func:`rng_for` defines the stream of a key (seed, stream, ...).
:class:`RngBlock` holds the streams (seed, stream, i) of many indices i,
of one stream or several, seeded in one bulk pass, with the same bits.
"""

from __future__ import annotations

import numpy as np

from .errors import DrawsExhaustedError
from .isometry import isometry_from_bivector
from .kinematics import Observer, Velocity3
from .linker import LinkProblem
from .metric_core import MetricSpace, SimpleBivector, Vector, _fresh, maxabs, scalar_product

__all__ = [
    "RngBlock",
    "SIGNATURES",
    "make_space",
    "metric_for",
    "random_admissible_bivector",
    "random_link_triple",
    "random_nonnull_vector",
    "random_observer",
    "random_observed_velocity",
    "random_stabilizer_bivector",
    "random_vector",
    "rng_for",
]

SIGNATURES = ("euclidean", "lorentzian", "split")

_MAX_TRIES = 1000


def _exhausted(sampler: str) -> DrawsExhaustedError:
    return DrawsExhaustedError(f"{sampler} accepted none of its {_MAX_TRIES} draws")


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream...); used per sample index."""
    return np.random.default_rng([int(seed), *map(int, stream)])


# NumPy's SeedSequence (numpy/random/bit_generator.pyx): the hash constants
# of its entropy pool and of generate_state, and its mix multipliers; and
# the 128-bit LCG multiplier of PCG64 (pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_WORD = 1 << 32
_MASK_128 = (1 << 128) - 1


def _hash_keys(init: int, mult: int):
    """The (xor, multiplier) pairs of successive hashmix calls: the hash
    constant starts at ``init`` and is multiplied by ``mult`` on each call."""
    const = init
    while True:
        nxt = const * mult % _WORD
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hashmix(value: np.ndarray, keys) -> np.ndarray:
    xor, mult = next(keys)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> _XSHIFT)


def _pcg64_states(seed: int, stream, indices) -> list:
    """``rng_for(seed, stream, i).bit_generator.state`` for each index ``i``;
    ``stream`` is one word or one word per index, and every key word must
    fit in one uint32.

    SeedSequence([seed, stream, i]) hashes its three words and a zero into a
    pool of four, mixes every pool word into every other, and hashes the
    pool into generate_state(4, uint64).  Those steps run here as uint32
    array operations over all indices, wrapping as the C code does.  PCG64
    then seeds itself from the four uint64 words with
    pcg_setseq_128_srandom_r, here in Python ints.
    """
    i = np.asarray(indices, dtype=np.uint32)
    keys = _hash_keys(_INIT_A, _MULT_A)
    stream = np.broadcast_to(np.asarray(stream, dtype=np.uint32), i.shape)
    pool = [_hashmix(word, keys) for word in (np.full_like(i, seed), stream, i, np.zeros_like(i))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], keys))
    keys = _hash_keys(_INIT_B, _MULT_B)
    words = [_hashmix(pool[k % 4], keys).astype(np.uint64) for k in range(8)]
    # generate_state pairs the uint32 words little-endian.  PCG64 reads the
    # first two uint64 words as its initial state and the last two as its
    # stream selector, each high word first.
    init_hi, init_lo, seq_hi, seq_lo = ((words[k] | (words[k + 1] << np.uint64(32))).tolist()
                                        for k in range(0, 8, 2))
    states = []
    for i_hi, i_lo, s_hi, s_lo in zip(init_hi, init_lo, seq_hi, seq_lo):
        inc = ((((s_hi << 64) | s_lo) << 1) | 1) & _MASK_128
        state = ((inc + ((i_hi << 64) | i_lo)) * _PCG_MULT + inc) & _MASK_128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


# A key whose words fill a uint32 each, checked against rng_for on first use.
_PROBE = (_WORD - 1, 2, _WORD - 1)
_bulk_ok = None


def _bulk_agrees() -> bool:
    """Whether this NumPy seeds ``rng_for``'s streams as :func:`_pcg64_states`
    does; checked once per process."""
    global _bulk_ok
    if _bulk_ok is None:
        seed, stream, index = _PROBE
        _bulk_ok = rng_for(*_PROBE).bit_generator.state == _pcg64_states(seed, stream, [index])[0]
    return _bulk_ok


class RngBlock:
    """The generators ``rng_for(seed, stream, i)`` for ``i < count``.

    ``stream`` and ``count`` may also be equal-length tuples, one entry per
    part: the block then holds each part's generators after those of the
    parts before it, so with two parts position ``count[0] + i`` holds
    ``rng_for(seed, stream[1], i)``.

    All states are seeded in one bulk pass (:func:`_pcg64_states`), and
    every position draws through one reused Generator: set its state, draw,
    save its state.  So each position continues its own stream, bit for
    bit, whatever order the positions draw in.  Where a key word does not
    fit in one uint32 (a negative seed or stream, or one of 2**32 or more),
    or this NumPy seeds otherwise, the block holds one ``rng_for``
    generator per position, which also raises ``rng_for``'s errors.
    """

    def __init__(self, seed, stream, count):
        parts = list(zip(stream, count)) if isinstance(stream, tuple) else [(stream, count)]
        counts = [n for _, n in parts]
        bulk = (0 < sum(counts) and all(0 <= n <= _WORD for n in counts)
                and all(isinstance(word, (int, np.integer)) and 0 <= word < _WORD
                        for word in (seed, *(word for word, _ in parts)))
                and _bulk_agrees())
        if bulk:
            self._rngs = None
            self._gen = np.random.Generator(np.random.PCG64(0))
            self._states = _pcg64_states(int(seed), np.repeat([w for w, _ in parts], counts),
                                         np.concatenate([np.arange(n) for n in counts]))
        else:
            self._rngs = [rng_for(seed, word, i) for word, n in parts for i in range(n)]

    def draw(self, indices, fn) -> list:
        """``fn(rng)`` with the generator of each position in ``indices``, in
        order; each call continues its position's stream.  ``fn`` must not
        keep ``rng``, which the next position reuses."""
        if self._rngs is not None:
            return [fn(self._rngs[i]) for i in indices]
        gen, states = self._gen, self._states
        bits = gen.bit_generator
        out = []
        for i in indices:
            bits.state = states[i]
            out.append(fn(gen))
            states[i] = bits.state
        return out


def metric_for(dim: int, kind: str) -> np.ndarray:
    """Diagonal metric of the named signature family."""
    diag = np.ones(dim)
    if kind == "lorentzian":
        diag[0] = -1.0
    elif kind == "split":
        diag[0] = -1.0
        diag[1 % dim] = -1.0
    elif kind != "euclidean":
        raise ValueError(f"unknown signature kind {kind!r}")
    return np.diag(diag)


def make_space(dim: int, kind: str = "lorentzian") -> MetricSpace:
    """The space of the named signature family, with the default tolerances."""
    return MetricSpace.from_metric(metric_for(dim, kind))


def random_vector(space: MetricSpace, rng: np.random.Generator,
                  scale: float = 1.0) -> Vector:
    return _fresh(Vector, rng.normal(size=space.dim) * scale, space)


def random_nonnull_vector(space: MetricSpace, rng: np.random.Generator,
                          min_square: float = 0.1) -> Vector:
    for _ in range(_MAX_TRIES):
        v = random_vector(space, rng)
        if abs(v.square()) >= min_square:
            return v
    raise _exhausted("random_nonnull_vector")


def _capped(b: SimpleBivector, m2: float) -> SimpleBivector | None:
    """P^Q, of square ``m2``, with Q rescaled so that the square lies in
    [-9, 0.9]; None when the rescaled square still exceeds 0.9.

    The cap keeps gamma between about 0.3 and sqrt(10), so the binomial
    operator and its inverse stay well-conditioned.
    """
    if m2 > 0.9:
        b = SimpleBivector(b.first, float(np.sqrt(0.8 / m2)) * b.second)
    elif m2 < -9.0:
        b = SimpleBivector(b.first, float(np.sqrt(8.0 / -m2)) * b.second)
    return b if b.square() <= 0.9 else None


def random_admissible_bivector(space: MetricSpace,
                               rng: np.random.Generator) -> SimpleBivector:
    """Simple bivector with squared magnitude in [-9, 0.9]."""
    for _ in range(_MAX_TRIES):
        b = SimpleBivector(random_vector(space, rng), random_vector(space, rng))
        b = _capped(b, b.square())
        if b is not None:
            return b
    raise _exhausted("random_admissible_bivector")


def random_link_triple(space: MetricSpace, rng: np.random.Generator,
                       margin: float = 0.05) -> LinkProblem:
    """Admissible (R, S, P) with comfortable genericity margins.

    S is produced by applying a random generated isometry to R, so the
    magnitudes match to rounding error.
    """
    for _ in range(_MAX_TRIES):
        r = random_nonnull_vector(space, rng)
        iso = isometry_from_bivector(random_admissible_bivector(space, rng))
        s = iso.apply(r)
        d = r - s
        if abs(d.square()) < margin * max(1.0, maxabs(d.components) ** 2):
            continue
        problem = LinkProblem(r, s, random_vector(space, rng))
        t = problem._terms
        if not (t.generic and t.p_transversal):
            continue
        if abs(t.psum) < margin or abs(t.denominator) < margin:
            continue
        return problem
    raise _exhausted("random_link_triple")


def random_observer(space: MetricSpace, rng: np.random.Generator,
                    max_rapidity: float = 1.5) -> Observer:
    """Future unit time-like vector for a diagonal Lorentzian metric."""
    chi = rng.uniform(0.0, max_rapidity)
    n = rng.normal(size=space.dim - 1)
    n /= np.linalg.norm(n)
    return Observer(_fresh(Vector, np.concatenate(([np.cosh(chi)], np.sinh(chi) * n)), space))


def random_observed_velocity(p: Observer, rng: np.random.Generator,
                             c: float = 1.0, beta_min: float = 0.05,
                             beta_max: float = 0.85) -> Velocity3:
    """Spatial velocity orthogonal to the observer with |v| in (beta_min,
    beta_max) times c."""
    space = p.space
    for _ in range(_MAX_TRIES):
        y = random_vector(space, rng)
        w = p.rest_projection(y)
        w2 = w.square()
        if w2 <= space.tol_abs:
            continue
        beta = rng.uniform(beta_min, beta_max)
        return Velocity3((beta * c / float(np.sqrt(w2))) * w, p, c)
    raise _exhausted("random_observed_velocity")


def random_stabilizer_bivector(r: Vector, rng: np.random.Generator) -> SimpleBivector:
    """Admissible bivector with both legs orthogonal to a non-null R."""
    space = r.space
    r2 = r.square()
    for _ in range(_MAX_TRIES):
        legs = []
        for _ in range(2):
            y = random_vector(space, rng)
            legs.append(y - (scalar_product(r, y) / r2) * r)
        b = SimpleBivector(*legs)
        m2 = b.square()
        if abs(m2) <= space.tol_abs:
            continue
        b = _capped(b, m2)
        if b is not None:
            return b
    raise _exhausted("random_stabilizer_bivector")
