"""Link formulas for one preferred ray and for stacked rays, and the stacked
pairings that every formula of the library reads.

The object API (:mod:`relkin.linker`, :class:`relkin.isometry.Isometry`)
evaluates one ray at a time on Python floats; a ray scan evaluates many rays
of one link problem as the rows of an (N, d) array.  Each combination
formula below is written once and serves both: its per-ray arguments are
floats for one ray, or arrays with one entry per ray.  The ``*_rows``
kernels repeat the scalar arithmetic operation for operation, so every row
is bit-identical to the value the object API computes for that ray, up to
the sign of a NaN, which depends on the order of two NaN operands.  The
terms of a scan's rays take one :func:`pairing_rows` pass
(``linker._Terms.of``).  One pair of vectors takes the space's float
pairing (``MetricSpace._float_pairing``, see :func:`float_pairing`), with
the bits of this pass: one object's formulas, one link problem's terms and
the groupoid comparison included.  These are the two pairing paths: one
pair on Python floats and stacked rows on arrays.

A reduction over one row runs the same ufunc reduction over the same
contiguous entries as the scalar one, which keeps the rows exact.  On a
diagonal metric a pairing adds only the terms that reduction would find
non-zero, nested as it nests them, to the same bits, on arrays for a large
batch and on Python floats for one pair, unless an entry is non-finite or
an off-diagonal term could overflow.  Powers are written as products, which
round alike on floats and arrays and overflow to inf instead of raising.

The planarity witness, the largest component of P^R^S, has one definition,
:func:`trivector_rows`.  A planarity flag needs only whether it lies within
its bound, so :func:`trivector_triple_rows` forms the components i < j < k
first, with the bits of their entries in the full array: a row whose
largest one exceeds the bound is not planar, and only the other rows take
the full d^3 witness (``linker._planar_rows``).

Every check of the library compares with one rule, :func:`within`, and a
link's checks run through one runner, :func:`run_checks`, on floats or rows.
"""

from __future__ import annotations

import functools
from itertools import combinations, repeat

import numpy as np

__all__ = [
    "GAMMA_MESSAGE",
    "LAW_MESSAGE",
    "LINK_MESSAGE",
    "bivector_pairing",
    "float_pairing",
    "identity_entries",
    "is_null",
    "larger",
    "law_defect",
    "link_covectors",
    "link_entries",
    "link_mu",
    "link_terms",
    "maxabs_rows",
    "pairing_rows",
    "run_checks",
    "trivector_rows",
    "trivector_triple_rows",
    "velocity_sum",
    "wedge_maxabs",
    "wedge_maxabs_rows",
    "within",
]

LAW_MESSAGE = "operator fails the isometry law, residual {:.3e}"
GAMMA_MESSAGE = "gamma record inconsistent with generator, defect {:.3e}"
LINK_MESSAGE = "link fails LR = S, residual {:.3e}"


def larger(*values):
    """Python's ``max(*values)`` entrywise, for values that broadcast together.

    A later value replaces the running one only when it is greater, so a NaN
    in first place is kept and a later NaN is passed over, as with ``max``:
    ``fmax`` passes over a NaN ``v``, and ``maximum`` keeps a NaN ``out``.
    """
    out = values[0]
    for v in values[1:]:
        out = np.maximum(out, np.fmax(v, out))
    return out


def within(value, tol, *scales):
    """Whether ``value <= tol * max(1.0, *scales)``, the bound of every check.

    Entrywise for stacked rows (an array ``value``), with the ``max`` of
    :func:`larger`; as with ``max``, a NaN scale is passed over.  False for
    a NaN value and for an infinite bound: a verification fails unless
    ``within`` holds, and a degeneracy test refuses when it holds.
    """
    if isinstance(value, np.ndarray):
        bound = tol * larger(1.0, *scales)
        return (value <= bound) & (bound < np.inf)
    bound = tol * max(1.0, *scales) if scales else tol
    return value <= bound < np.inf


def run_checks(*checks, rows=None):
    """Run ``checks``, each (failed, error type, message, value), in order.

    One result raises the first failed check's error, ``message.format(value)``.
    For ``rows`` stacked rows, ``failed`` is a mask (or one bool for all rows)
    and ``value`` has one entry per row: return the number of rows before the
    first failing row, and that row's first error (None if no row fails)."""
    if rows is None:
        for failed, kind, message, value in checks:
            if failed:
                raise kind(message.format(value))
        return None
    n, error = rows, None
    for failed, kind, message, value in checks:
        mask = failed[:n] if np.ndim(failed) else failed
        hit = np.flatnonzero(np.broadcast_to(mask, (n,)))
        if hit.size:
            n = int(hit[0])
            error = kind(message.format(value[n] if np.ndim(value) else value))
    return n, error


# -- combination formulas: floats for one ray, arrays for stacked rays ------

def link_terms(psum, pp, pr, ps, pd, p_max, wedge_max, d2, d_max, u_max,
               r_max, s_max, tol):
    """The derived terms of a link problem, for one ray or stacked rays.

    Takes the pairings of P with R + S, P, R, S and R - S, the largest
    component of P and of the wedge P^(R-S), and the terms that do not
    depend on the ray.  Returns the degeneracy scale of P.(R+S), the wedge
    square {P^(R-S)}^2 = P.P (R-S)^2 - {P.(R-S)}^2, the denominator
    D = P.P (R-S)^2 + 4 (P.R)(P.S), the transversality flag (P.(R+S) != 0,
    and P^(R-S) != 0 both squared and entrywise) and the largest component
    of P, R and S.
    """
    top = larger if isinstance(p_max, np.ndarray) else max
    sum_scale = top(1.0, p_max * u_max)
    leg_scale = p_max * d_max
    leg_bound = tol * top(1.0, leg_scale * leg_scale)
    transversal = ((abs(psum) > tol * sum_scale)
                   & (wedge_max * wedge_max > leg_bound * leg_bound)
                   & (wedge_max > tol * top(1.0, leg_scale)))
    return (sum_scale, pp * d2 - pd * pd, pp * d2 + 4.0 * pr * ps, transversal,
            top(p_max, r_max, s_max))


def velocity_sum(u, v, vv, vu, gam, c2):
    """u (+) v for velocities u and v, with v.v, v.u and gamma_v given, and
    its gap to the fully vectorial form that cross-checks it:

        u (+) v = (u + gamma_v v) / (gamma_v (1 + v.u/c^2))
                  + gamma_v/(gamma_v+1) (v.u) v / (c^2 + v.u)
                = (u + v) / (1 + v.u/c^2)
                  + gamma_v/(gamma_v+1) ((v.u) v - (v.v) u) / (c^2 + v.u).

    For one pair the scalars are floats and u, v vectors; for stacked pairs
    the scalars are (N, 1) columns and u, v (N, d) rows.
    """
    w = ((u + v * gam) * (1.0 / (gam * (1.0 + vu / c2)))
         + v * ((gam / (gam + 1.0)) * (vu / (c2 + vu))))
    alt = ((u + v) * (1.0 / (1.0 + vu / c2))
           + (v * vu - u * vv) * ((gam / (gam + 1.0)) * (1.0 / (c2 + vu))))
    return w, w - alt


def is_null(square, comp_max, tol):
    """Whether a vector of square ``square`` and largest component ``comp_max``
    is null to tolerance ``tol``, relative to its component scale."""
    return within(abs(square), tol, comp_max * comp_max)


def link_mu(psum, wedge_denom):
    """mu = 2 P.(R+S) / ({P^(R-S)}^2 + {P.(R+S)}^2)."""
    return 2.0 * psum / wedge_denom


def link_covectors(d2, pp, pr, ps, denominator, gp, gd):
    """alpha and beta of the link L = id - P (x) alpha - (R-S) (x) beta.

    For stacked rays the per-ray scalars are (N, 1) columns and ``gp`` the
    (N, d) rows gP.
    """
    alpha = 2.0 * (d2 * gp - 2.0 * pr * gd) / denominator
    beta = (2.0 * pp * gd + 4.0 * ps * gp) / denominator
    return alpha, beta


def link_entries(p, d, alpha, beta):
    """id - P (x) alpha - (R-S) (x) beta, for one ray or stacked rays."""
    return (identity_entries(p.shape[-1])
            - p[..., :, None] * alpha[..., None, :]
            - d[..., :, None] * beta[..., None, :])


@functools.lru_cache(maxsize=32)
def identity_entries(dim: int) -> np.ndarray:
    """The entries of the d x d identity, read-only, one array per dimension."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def law_defect(g, entries):
    """L* g L - g, for one operator or stacked operators."""
    return entries.swapaxes(-1, -2) @ g @ entries - g


# -- stacked kernels: one row per ray ----------------------------------------

def maxabs_rows(values) -> np.ndarray:
    """Largest absolute entry of each row (``maxabs`` row by row)."""
    return np.maximum.reduce(np.abs(values), axis=tuple(range(1, np.ndim(values))))


def wedge_maxabs_rows(a, b) -> np.ndarray:
    """Largest component of each a^b = a (x) b - b (x) a, the components of
    ``SimpleBivector``, for stacked a or b broadcast over the leading axes."""
    return maxabs_rows(a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :])


def wedge_maxabs(a, b, a_max: float, b_max: float):
    """:func:`wedge_maxabs_rows` of one pair, given as lists of floats with no
    NaN and largest components ``a_max`` and ``b_max``; None unless a_max
    b_max < 2^1022, so that no product a_i b_j overflows and no component is
    inf - inf, a NaN that ``max`` would pass over.  The components a_i b_j -
    b_i a_j with i > j are those with i < j negated, and with i = j zero."""
    if not a_max * b_max < _PAIRING_LIMIT:
        return None
    return _compiled_wedge(len(a))(a, b)


@functools.cache
def _compiled_wedge(dim: int):
    """The largest |a_i b_j - b_i a_j| over i < j in the order of
    ``itertools.combinations``, compiled once per dimension, as
    :func:`_compiled_sums` compiles the pairings."""
    terms = ", ".join(f"abs(a[{i}] * b[{j}] - b[{i}] * a[{j}])"
                      for i, j in combinations(range(dim), 2))
    return eval(f"lambda a, b: {terms if dim == 2 else f'max({terms})'}")


def pairing_rows(g, a, b) -> np.ndarray:
    """Metric pairings a.b of stacked vectors, broadcast over the leading axes.

    The arithmetic of ``scalar_product``: the symmetrized outer product, g
    times it, and one sum over each pair's d^2 entries, halved.  On a metric
    without off-diagonal entries, a batch where a or b has at least
    ``_DIAGONAL_ENTRIES`` entries adds only the d diagonal terms, to the same
    bits (:func:`_diagonal_sum`), unless an entry is non-finite or so large
    that an off-diagonal term could overflow.  One pair takes the float
    pairing of :func:`float_pairing` instead (``metric_core._pairing``).
    """
    if ((a.size >= _DIAGONAL_ENTRIES or b.size >= _DIAGONAL_ENTRIES)
            and np.count_nonzero(g) == np.count_nonzero(np.diagonal(g))
            and float(np.max(np.abs(a))) * float(np.max(np.abs(b))) < _PAIRING_LIMIT
            and (order := _diagonal_order(len(g))) is not None):
        return _diagonal_sum(np.diagonal(g), a, b, order)
    return _square_sum(g, a, b)


def float_pairing(g):
    """:func:`pairing_rows` of one pair on Python floats for the metric ``g``,
    resolved once: a function of ``a.tolist()`` and ``b.tolist()`` for
    float64 d-vectors a and b that returns their pairing, to the same bits,
    or None where an entry is non-finite, an off-diagonal term could
    overflow or the pairing is NaN.  None in place of the function for a
    metric that is not float64, has an entry off the diagonal or whose
    dimension failed its probe."""
    if (g.dtype is not _FLOAT64 or g.ndim != 2
            or (diagonal := _diagonal_of(g.tobytes(), g.shape)) is None
            or (order := _diagonal_order(len(diagonal))) is None):
        return None
    return functools.partial(order[1], diagonal)


def _square_sum(g, a, b) -> np.ndarray:
    """The pairings of :func:`pairing_rows`, each summed from its d^2 terms."""
    sym = a[..., :, None] * b[..., None, :]
    sym = sym + sym.swapaxes(-1, -2)
    return 0.5 * np.add.reduce(g * sym, axis=(-2, -1))


# The fewest entries of a batch for which the d diagonal terms, with the
# tests that allow them, cost less than the d^2 terms: 256 rows at d = 4,
# 171 at d = 6.  At d = 3-6 (one core, NumPy 2.4.6) the diagonal terms ran
# 0.94-0.97 times as fast at 128 rows, 1.1-1.9 times at 256 and 1.9-2.9
# times at 512.  Counting entries, not rows, keeps the test cheap for the
# batches below it, the one-object pairings that the float pairing refuses
# included, which fail it first.
_DIAGONAL_ENTRIES = 1024
# Below this bound on max|a| max|b| no term a_i b_j + a_j b_i overflows, so
# every off-diagonal term of a diagonal metric is 0 times a finite number.
# The bound is tested on Python floats, which overflow to inf without a
# warning; an inf or NaN entry makes the product inf or NaN and fails it.
_PAIRING_LIMIT = 2.0 ** 1022
_FLOAT64 = np.dtype(np.float64)
# dim -> the sums of _diagonal_order(dim), or None where their probe failed.
_diagonal_orders = {}


@functools.lru_cache(maxsize=32)
def _diagonal_of(key: bytes, shape):
    """The diagonal, as floats, of the square float64 metric whose bytes are
    ``key`` when it has no entry off the diagonal, else None; cached by
    content, as fresh spaces hold new arrays of the same metrics."""
    g = np.frombuffer(key).reshape(shape)
    diagonal = np.diagonal(g)
    if shape[0] != shape[1] or not g.size or np.count_nonzero(g) != np.count_nonzero(diagonal):
        return None
    return tuple(diagonal.tolist())


def _diagonal_sum(diagonal, a, b, order) -> np.ndarray:
    """The pairings of :func:`pairing_rows` on the metric diag(``diagonal``).

    The d^2 sum adds the terms g_ij (a_i b_j + a_j b_i) to +0.0 in NumPy's
    pairwise order.  With finite terms every off-diagonal one is a signed
    zero, which leaves a non-zero partial sum as it is, and the leading
    +0.0 makes the sign of a zero total +0.0.  So the d diagonal terms,
    added as ``_pairwise_order`` nests them (``order[0]``), give the same bits.
    """
    return order[0](diagonal, np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0))


def _compiled_sums(dim: int, order):
    """The sum of the d terms g_i (x_i y_i + x_i y_i) nested as ``order``, plus
    +0.0, halved, compiled for arrays and for floats, where it is None unless
    (x.x)(y.y) is finite, which keeps every |x_i y_j| below 2^513, and the sum
    is not NaN.  Walking ``order`` per call would cost several times as much."""
    def total(node):
        if isinstance(node, int):
            return f"g[{node}] * ((p{node} := x[{node}] * y[{node}]) + p{node})"
        return f"({total(node[0])} + {total(node[1])})"

    pairing = f"0.5 * ({total(order)} + 0.0)"
    bound = " * ".join(f"({' + '.join(f'{v}[{i}] * {v}[{i}]' for i in range(dim))})"
                       for v in "xy")
    return (eval(f"lambda g, x, y: {pairing}"),
            eval(f"lambda g, x, y: (v if (v := {pairing}) == v else None) "
                 f"if {bound} < inf else None", {"inf": np.inf}))


def _pairwise_order(dim: int):
    """How NumPy's pairwise sum of the d^2 entries of a (d, d) array nests its
    d diagonal entries, as nested pairs of diagonal indices.

    The sum (``pairwise_sum`` in NumPy's loops_utils.h.src) adds fewer than
    8 entries one by one; up to 128 entries it keeps 8 accumulators, entry k
    going to accumulator k % 8, joins them as ((0+1)+(2+3))+((4+5)+(6+7))
    and adds the entries past the last multiple of 8 one by one; above 128
    it splits at half, rounded down to a multiple of 8.  Off-diagonal
    entries are left out.
    """
    def join(x, y):
        return y if x is None else x if y is None else (x, y)

    def chain(entries):
        total = None
        for entry in entries:
            total = join(total, entry)
        return total

    def entry(k):
        i, off = divmod(k, dim + 1)
        return None if off else i

    def pairwise(start, n):
        if n < 8:
            return chain(entry(k) for k in range(start, start + n))
        if n <= 128:
            full = start + n - n % 8
            acc = [chain(entry(k) for k in range(start + j, full, 8)) for j in range(8)]
            head = join(join(join(acc[0], acc[1]), join(acc[2], acc[3])),
                        join(join(acc[4], acc[5]), join(acc[6], acc[7])))
            return chain([head, *(entry(k) for k in range(full, start + n))])
        half = n // 2 - n // 2 % 8
        return join(pairwise(start, half), pairwise(start + half, n - half))

    return pairwise(0, dim * dim)


def _diagonal_order(dim: int):
    """The sums compiled from ``_pairwise_order(dim)`` once their probe holds,
    else None; compiled and probed on first use of each dimension in a process."""
    if dim not in _diagonal_orders:
        order = _compiled_sums(dim, _pairwise_order(dim))
        _diagonal_orders[dim] = order if _diagonal_agrees(dim, order) else None
    return _diagonal_orders[dim]


def _diagonal_agrees(dim: int, order) -> bool:
    """Whether :func:`_diagonal_sum` with ``order`` gives the bits of the d^2
    sum on probe rows, on arrays and row by row on Python floats: entries
    from 1e-40 to 1e40 and of both signs, signed zeros, and pairs that cancel,
    in every shape the callers pass, on a unit and a scaled diagonal metric."""
    gen = np.random.Generator(np.random.PCG64(dim))
    a = gen.normal(size=(64, dim)) * 10.0 ** gen.integers(-40, 41, size=(64, dim))
    b = gen.normal(size=(64, dim)) * 10.0 ** gen.integers(-40, 41, size=(64, dim))
    a[gen.random(a.shape) < 0.2] = 0.0
    b[gen.random(b.shape) < 0.2] = -0.0
    a[::4] = b[::4] = 0.75
    for diagonal in (np.where(np.arange(dim) % 3 == 0, -1.0, 1.0),
                     gen.normal(size=dim) * 10.0 ** gen.integers(-5, 6, size=dim)):
        g = np.diag(diagonal)
        for x, y in ((a, b), (a, a), (a, b[0]), (a.reshape(4, 16, dim), b.reshape(4, 16, dim))):
            if not np.array_equal(_diagonal_sum(diagonal, x, y, order).view(np.int64),
                                  _square_sum(g, x, y).view(np.int64)):
                return False
        floats = map(order[1], repeat(tuple(diagonal.tolist())), a.tolist(), b.tolist())
        if not np.array_equal(np.array(list(floats), dtype=float).view(np.int64),
                              _square_sum(g, a, b).view(np.int64)):
            return False
    return True


def bivector_pairing(g, a, b, p, q):
    """(A^B).(P^Q) = (A.P)(B.Q) - (A.Q)(B.P), with each pairing evaluated as
    ``scalar_product`` does; the four legs are vectors or rows of one shape."""
    ap, bq, aq, bp = pairing_rows(g, np.array([a, b, a, b]), np.array([p, q, q, p]))
    return ap * bq - aq * bp


def trivector_rows(a, b, c) -> np.ndarray:
    """Largest component of a^b^c for each row (the planarity witness).

    Each argument is (N, d) rows or one d-vector, at least one of them rows.
    Component ijk is a_i b_j c_k + b_i c_j a_k + c_i a_j b_k - a_i c_j b_k
    - b_i a_j c_k - c_i b_j a_k, added in that order, with each product
    (x_i y_j) z_k rounded as written.  The last three are the first three
    with i and j exchanged, since x_i y_j = y_j x_i.  The rows are taken in
    blocks of ``_WITNESS_ENTRIES`` components, so the (rows, d, d, d)
    temporaries stay within a cache.
    """
    a, b, c = np.broadcast_arrays(a, b, c)
    worst = np.empty(len(a))
    rows = max(1, _WITNESS_ENTRIES // a.shape[1] ** 3)
    for start in range(0, len(a), rows):
        x, y, z = (v[start:start + rows] for v in (a, b, c))
        xyz, yzx, zxy = (np.multiply((u[:, :, None] * v[:, None, :])[..., None],
                                     w[:, None, None, :])
                         for u, v, w in ((x, y, z), (y, z, x), (z, x, y)))
        total = xyz + yzx
        total += zxy
        total -= zxy.swapaxes(1, 2)
        total -= xyz.swapaxes(1, 2)
        total -= yzx.swapaxes(1, 2)
        worst[start:start + len(x)] = np.maximum.reduce(np.abs(total, out=total),
                                                      axis=(1, 2, 3))
    return worst


def trivector_triple_rows(a, b, c) -> np.ndarray:
    """Largest |component ijk| of a^b^c over the triples i < j < k, for each
    row; 0.0 for d < 3, where there are none.

    Arguments as for :func:`trivector_rows`.  Each component repeats that
    entry of the full array operation for operation, to the same bits
    (:func:`_triple_components`).  They are 1/27 to 1/11 of the d^3
    components at d = 3-6, and no component of the full array is left out
    of its maximum, so a row whose value here exceeds a bound has a witness
    that exceeds it too.  The rows are taken in blocks of
    ``_WITNESS_ENTRIES`` components.
    """
    n = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(c))[0]
    worst = np.empty(n)
    rows = max(1, _WITNESS_ENTRIES // max(1, _triples(np.shape(a)[-1]).shape[1]))
    for start in range(0, n, rows):
        total = _triple_components(*(v[start:start + rows] if np.ndim(v) == 2 else v
                                     for v in (a, b, c)))
        worst[start:start + rows] = np.maximum.reduce(np.abs(total, out=total),
                                                     axis=-1, initial=0.0)
    return worst


def _triple_components(x, y, z) -> np.ndarray:
    """The components ijk of x^y^z with i < j < k, one column per triple,
    each added and rounded as :func:`trivector_rows` forms it."""
    i, j, k = _triples(np.shape(x)[-1])
    xi, xj, xk, yi, yj, yk, zi, zj, zk = (v[..., m] for v in (x, y, z) for m in (i, j, k))
    total = (xi * yj) * zk + (yi * zj) * xk
    total += (zi * xj) * yk
    total -= (zj * xi) * yk
    total -= (xj * yi) * zk
    total -= (yj * zi) * xk
    return total


@functools.cache
def _triples(dim: int):
    """The indices i, j and k of the triples i < j < k of a dimension, in
    the order of ``itertools.combinations``, built on first use."""
    triples = np.array(list(combinations(range(dim), 3)), dtype=np.intp).reshape(-1, 3)
    triples.setflags(write=False)
    return triples.T


# Components per block of the planarity witness, 64 KB per temporary: 303
# rows at d = 3, 128 at d = 4, 37 at d = 6.  At d = 3-6 and 200-4096 rows,
# blocks of 128 rows ran 1.25-1.8 times as fast as the pass by first index
# they replaced, and blocks of 8192 components 0.95-1.4 times as fast as
# blocks of 128 rows, with a lower peak memory at d = 5 and 6.
_WITNESS_ENTRIES = 8192
