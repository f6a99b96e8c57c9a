"""Seeded random generators for well-conditioned test data.

Every function takes a numpy Generator, so a fixed seed reproduces the same
objects bit for bit.  Samplers reject ill-conditioned draws (near-null
vectors, near-degenerate link denominators) with generous margins so that
downstream identities hold comfortably inside the default tolerances.

:func:`rng_for` defines the stream of a key (seed, stream, ...).
:class:`RngBlock` holds the streams (seed, stream, i) of many indices i,
of one stream or several, seeded in one bulk pass, with the same bits; it
draws their first normals in one array pass, as NumPy's fast path would.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from .errors import DrawsExhaustedError
from .isometry import isometry_from_bivector
from .kinematics import Observer, Velocity3
from .linker import LinkProblem
from .metric_core import (SIGNATURES, MetricSpace, SimpleBivector, Vector, _fresh, maxabs,
                          metric_for, scalar_product)

__all__ = [
    "Normals",
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
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_WORD = 1 << 32
_MASK_128 = (1 << 128) - 1

# PCG64's 128-bit arithmetic on arrays: a value is four 32-bit limbs, least
# significant first, along axis 0 of a uint64 array.  A product of two limbs
# fits one uint64, and so does a sum of a few of their 32-bit halves.
_LIMB = np.uint64(32)
_LIMB_MASK = np.uint64(_WORD - 1)


def _limbs(values) -> np.ndarray:
    """Python ints in [0, 2**128) as a (4, n) limb array."""
    return np.array([[v >> shift & (_WORD - 1) for v in values] for shift in (0, 32, 64, 96)],
                    dtype=np.uint64)


def _int_at(limbs: np.ndarray, k) -> int:
    """Column k of a limb array as a Python int."""
    a, b, c, d = limbs[:, k].tolist()
    return a | b << 32 | c << 64 | d << 96


def _columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column sums of the limb products of a and b (broadcast), whose
    carried total is a b mod 2**128; each sums at most seven uint32s."""
    cols = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
    for j in range(4):  # limb i of a times limb j of b lands in column i + j
        prod = a[:4 - j] * b[j]
        cols[j:] += prod & _LIMB_MASK
        if j < 3:
            cols[j + 1:] += prod[:3 - j] >> _LIMB
    return cols


def _carried(cols: np.ndarray) -> np.ndarray:
    """The limbs, mod 2**128, of the total of column sums below 2**63; in place."""
    for k in range(3):
        cols[k + 1] += cols[k] >> _LIMB
    cols &= _LIMB_MASK
    return cols


def _hash_keys(init: int, mult: int, count: int) -> tuple:
    """The (xor, multiplier) columns of ``count`` successive hashmix calls:
    the hash constant starts at ``init`` and is multiplied by ``mult`` on
    each call."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult % _WORD)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# The pool hashes its 4 words in, and then 12 in its mix; 8 words are hashed out.
_POOL_KEYS = _hash_keys(_INIT_A, _MULT_A, 16)
_STATE_KEYS = _hash_keys(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> _XSHIFT)


def _pcg64_states(seed: int, stream, indices) -> _PcgStates:
    """The streams ``rng_for(seed, stream, i)`` of the ``indices``, as a
    :class:`_PcgStates`, which equals the list of their
    ``bit_generator.state``; ``stream`` is one word or one word per index,
    and every key word must fit in one uint32.

    SeedSequence([seed, stream, i]) hashes its three words and a zero into a
    pool of four, mixes every pool word into every other, and hashes the
    pool into generate_state(4, uint64).  Those steps run here as uint32
    array operations over all indices, wrapping as the C code does.  PCG64
    then seeds itself from the four uint64 words with
    pcg_setseq_128_srandom_r, here in 32-bit limbs.
    """
    i = np.asarray(indices, dtype=np.uint32)
    stream = np.broadcast_to(np.asarray(stream, dtype=np.uint32), i.shape)
    xor, mult = _POOL_KEYS
    pool = _hashmix(np.stack([np.full_like(i, seed), stream, i, np.zeros_like(i)]),
                    xor[:4], mult[:4])
    for src in range(4):  # pool[src] is hashed into every other word, in order
        dst, keys = [k for k in range(4) if k != src], slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[keys], mult[keys]))
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_STATE_KEYS).astype(np.uint64)
    # generate_state pairs the uint32 words little-endian.  PCG64 reads the
    # first two uint64 words as its initial state and the last two as its
    # stream selector, each high word first: so the limbs of the initial
    # state are words 2, 3, 0, 1 and those of the selector words 6, 7, 4, 5.
    init, seq = words[[2, 3, 0, 1]], words[[6, 7, 4, 5]]
    # inc = 2 seq + 1, and state = (init + inc) mult + inc.
    inc = (seq << np.uint64(1)) & _LIMB_MASK
    inc[1:] |= seq[:-1] >> np.uint64(31)
    inc[0] |= np.uint64(1)
    state = _carried(_columns(_carried(init + inc), _limbs([_PCG_MULT])) + inc)
    return _PcgStates(state, inc)


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


def _pcg_state(state: int, inc: int) -> dict:
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@functools.lru_cache(maxsize=64)
def _jump(mult: int, steps: int) -> tuple:
    """(a, c) such that ``steps`` LCG steps take state s to a s + c inc,
    mod 2**128: a = mult**steps and c = the sum of mult**i for i < steps."""
    a, c = 1, 0
    for _ in range(steps):
        a, c = a * mult & _MASK_128, (c * mult + 1) & _MASK_128
    return a, c


@functools.lru_cache(maxsize=16)
def _jumps(mult: int, k: int) -> tuple:
    """The limbs of :func:`_jump`'s (a, c) for steps 1..k, each (4, k, 1)."""
    a, c = zip(*(_jump(mult, steps) for steps in range(1, k + 1)))
    return _limbs(a)[..., None], _limbs(c)[..., None]


class _PcgStates(Sequence):
    """PCG64 streams as the limb arrays ``state`` and ``inc``, each (4, n).
    Item k is stream k's ``bit_generator.state``, and the whole equals the
    list of those dicts."""

    def __init__(self, state: np.ndarray, inc: np.ndarray):
        self.state, self.inc = state, inc

    def __len__(self):
        return self.state.shape[1]

    def __getitem__(self, k):
        return self.at(k)

    def at(self, k, steps: int = 0) -> dict:
        """Stream k's ``bit_generator.state`` after ``steps`` uint64 outputs."""
        state, inc = _int_at(self.state, k), _int_at(self.inc, k)
        if steps:
            a, c = _jump(_PCG_MULT, steps)
            state = (a * state + c * inc) & _MASK_128
        return _pcg_state(state, inc)

    def __eq__(self, other):
        return list(self) == other


def _first_normals(state: np.ndarray, inc: np.ndarray, k: int) -> tuple:
    """The first k ``normal()`` draws of the PCG64 streams of limb arrays
    ``state`` and ``inc``, as far as NumPy's fast path gives them.

    Returns (values, leading): ``values`` is (n, k), and stream p's first
    ``leading[p]`` draws took NumPy's fast path, one output each, so that
    ``values[p, :leading[p]]`` are its draws.  The state after output j
    comes by jump-ahead from the seed state (:func:`_jump`); PCG64's
    XSL-RR output xors the state's two 64-bit halves and rotates the result
    right by its top 6 bits.
    """
    a, c = _jumps(_PCG_MULT, k)
    s = _carried(_columns(a, state[:, None]) + _columns(c, inc[:, None]))
    x = ((s[3] << _LIMB) | s[2]) ^ ((s[1] << _LIMB) | s[0])
    rot = s[3] >> np.uint64(26)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    # standard_normal's fast path (Marsaglia & Tsang's ziggurat): the low
    # 8 bits pick the layer, the next bit the sign and the 52 bits above
    # the magnitude, and a magnitude below the layer's ki is accepted.
    wi, ki = _ziggurat()
    layer = out & np.uint64(0xFF)
    rabs = (out >> np.uint64(9)) & np.uint64((1 << 52) - 1)
    values = rabs.astype(np.float64) * wi[layer]
    np.negative(values, out=values, where=(out & np.uint64(0x100)).astype(bool))
    values += 0.0  # normal() returns loc + scale * x: 0.0 + 1.0 * -0.0 is 0.0
    leading = np.cumprod(rabs < ki[layer], axis=0).sum(axis=0)
    return values.T, leading


def _lined_up(output: int, then_zero: bool = False) -> tuple:
    """A PCG64 (state, inc) whose next output is ``output`` (below 2**64),
    and whose output after that is 0 where ``then_zero``.

    The state after the step is ``output`` itself: its high half is 0, so
    XSL-RR neither xors nor rotates it.  The step after lands on state 0
    where inc = -mult output.
    """
    inc = -_PCG_MULT * output & _MASK_128 if then_zero else 1
    return (output - inc) * _PCG_MULT_INV & _MASK_128, inc


def _numpy_normal(gen: np.random.Generator, state: int, inc: int) -> tuple:
    """``gen.normal()`` from PCG64 (state, inc), and whether it took one output."""
    gen.bit_generator.state = _pcg_state(state, inc)
    x = gen.normal()
    return x, gen.bit_generator.state["state"]["state"] == (state * _PCG_MULT + inc) & _MASK_128


# NumPy's normal ziggurat, (wi, ki), read from the installed NumPy on first use.
_ZIGGURAT = None
# ki of layers 2-255 is estimated to within 0.5; a magnitude this close to
# the estimate is left to the Generator.
_KI_BAND = 4


def _ziggurat() -> tuple:
    """NumPy's ``standard_normal`` tables: ``wi`` (float64) scales a layer's
    52-bit magnitude to the draw, and a magnitude below ``ki[layer]``
    (uint64) is on the fast path.

    Read through states whose next output is chosen (:func:`_lined_up`):
    magnitude 1 draws ``wi[layer]``.  Layer 1 has no fast path (its ki is
    0), but its slow path accepts that draw when the uniform after it is 0.
    For layers i >= 2, ki[i] is 2**52 wi[i - 1] / wi[i] to within 0.5, and
    the bound kept here lies ``_KI_BAND`` below that estimate.  Layer 0's ki
    is found by bisection: the least magnitude whose draw takes more than
    one output.
    """
    global _ZIGGURAT
    if _ZIGGURAT is None:
        gen = np.random.Generator(np.random.PCG64(0))

        def normal(layer, rabs, then_zero=False):
            return _numpy_normal(gen, *_lined_up(layer | rabs << 9, then_zero))

        wi = np.array([normal(layer, 1, then_zero=layer == 1)[0] for layer in range(256)])
        ki = np.zeros(256, dtype=np.uint64)
        ki[2:] = np.floor(2.0**52 * wi[1:-1] / wi[2:]) - _KI_BAND
        lo, hi = 0, 1 << 52
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if normal(0, mid)[1] else (lo, mid)
        ki[0] = hi
        wi.flags.writeable = ki.flags.writeable = False
        _ZIGGURAT = wi, ki
    return _ZIGGURAT


_normals_ok = None


def _normals_agree() -> bool:
    """Whether :func:`_first_normals` draws what NumPy draws; checked once
    per process.

    Every layer with a fast path draws its largest fast magnitude, which
    must give NumPy's value in one output, and the first 6 draws of 16
    ``rng_for`` streams of the probe key must be those of ``rng_for``.
    """
    global _normals_ok
    if _normals_ok is None:
        wi, ki = _ziggurat()
        layers = np.flatnonzero(ki).tolist()
        lined = [_lined_up(layer | (layer & 1) << 8 | min(int(ki[layer]) - 1, (1 << 52) - 1) << 9)
                 for layer in layers]
        gen = np.random.Generator(np.random.PCG64(0))
        values, leading = _first_normals(*(_limbs(column) for column in zip(*lined)), 1)
        ok = (leading.tolist() == [1] * len(layers)
              and [_numpy_normal(gen, *pair) for pair in lined]
              == [(x, True) for x in values[:, 0].tolist()])
        rngs = [rng_for(*_PROBE[:2], i) for i in range(16)]
        states = [rng.bit_generator.state["state"] for rng in rngs]
        values, leading = _first_normals(_limbs([st["state"] for st in states]),
                                         _limbs([st["inc"] for st in states]), 6)
        _normals_ok = ok and all(
            row[:n].tolist() == rng.normal(size=6)[:n].tolist()
            for row, n, rng in zip(values, leading.tolist(), rngs))
    return _normals_ok


class Normals:
    """The draw ``rng.normal(size=size)``, in a form :meth:`RngBlock.draw`
    knows: it gives a block's first such draws from the array pass."""

    def __init__(self, size: int):
        self.size = int(size)

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(size=self.size)


# Positions per array pass of RngBlock's first draws, which bounds its temporaries.
_CHUNK = 4096


class RngBlock:
    """The generators ``rng_for(seed, stream, i)`` for ``i < count``.

    ``stream`` and ``count`` may also be equal-length tuples, one entry per
    part: the block then holds each part's generators after those of the
    parts before it, so with two parts position ``count[0] + i`` holds
    ``rng_for(seed, stream[1], i)``.

    All states are seeded in one bulk pass (:func:`_pcg64_states`), as
    128-bit limb arrays.  A :class:`Normals` draw of a position that has
    not drawn yet comes from one array pass over the whole block
    (:func:`_first_normals`) when all of its normals take NumPy's fast path.
    Every other draw goes through one reused Generator: set the position's
    state, draw, save the state.  So each position continues its own
    stream, bit for bit, whatever order the positions draw in.  Where a key
    word does not fit in one uint32 (a negative seed or stream, or one of
    2**32 or more), or this NumPy seeds otherwise, the block holds one
    ``rng_for`` generator per position, which also raises ``rng_for``'s
    errors; where this NumPy draws normals otherwise, every draw goes
    through the Generator.
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
            # The outputs each position drew in the array pass, and -1 once it
            # drew through the Generator, whose state for it is then saved.
            self._taken = np.zeros(len(self._states), dtype=np.intp)
            self._saved = {}
            self._first = None
        else:
            self._rngs = [rng_for(seed, word, i) for word, n in parts for i in range(n)]

    def draw(self, indices, fn):
        """``fn(rng)`` with the generator of each position in ``indices``, in
        order; each call continues its position's stream.  ``fn`` must not
        keep ``rng``, which the next position reuses.  Returns one entry
        per position: a list, or an (m, size) array where a :class:`Normals`
        ``fn`` takes the array pass."""
        if self._rngs is not None:
            return [fn(self._rngs[i]) for i in indices]
        if not (type(fn) is Normals and len(indices) and _normals_agree()):
            return [self._draw_one(i, fn) for i in indices]
        indices = np.asarray(indices, dtype=np.intp)
        values, leading = self._first_draws(fn.size)
        rows = values[indices, :fn.size]
        # Only a position's first occurrence in ``indices`` can be its first draw.
        first = np.zeros(len(indices), dtype=bool)
        first[np.unique(indices, return_index=True)[1]] = True
        fast = first & (self._taken[indices] == 0) & (leading[indices] >= fn.size)
        self._taken[indices[fast]] = fn.size
        for k in np.flatnonzero(~fast):
            rows[k] = self._draw_one(indices[k], fn)
        return rows

    def _first_draws(self, k: int) -> tuple:
        """:func:`_first_normals` of every position, at least k draws each."""
        if self._first is None or self._first[0].shape[1] < k:
            state, inc = self._states.state, self._states.inc
            parts = [_first_normals(state[:, at:at + _CHUNK], inc[:, at:at + _CHUNK], k)
                     for at in range(0, state.shape[1], _CHUNK)]
            self._first = tuple(np.concatenate(column) for column in zip(*parts))
        return self._first

    def _draw_one(self, i, fn):
        bits, taken = self._gen.bit_generator, int(self._taken[i])
        bits.state = self._saved[i] if taken < 0 else self._states.at(i, taken)
        out = fn(self._gen)
        self._saved[i] = bits.state
        self._taken[i] = -1
        return out


def make_space(dim: int, kind: str = "lorentzian") -> MetricSpace:
    """The space of the named signature family, with the default tolerances."""
    return MetricSpace.from_metric(metric_for(dim, kind))


def random_vector(space: MetricSpace, rng: np.random.Generator,
                  scale: float = 1.0) -> Vector:
    values = rng.normal(size=space.dim)
    return _fresh(Vector, values if scale == 1.0 else values * scale, space)  # x * 1.0 is x


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
