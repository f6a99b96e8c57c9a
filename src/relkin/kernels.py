"""Link formulas for one preferred ray and for stacked rays.

The object API (:mod:`relkin.linker`, :class:`relkin.isometry.Isometry`)
evaluates one ray at a time on Python floats; a ray scan evaluates many rays
of one link problem as the rows of an (N, d) array.  Each combination
formula below is written once and serves both: its per-ray arguments are
floats for one ray, or arrays with one entry per ray.  The ``*_rows``
kernels repeat the scalar arithmetic operation for operation, so every row
is bit-identical to the value the object API computes for that ray.

Two details keep the rows exact.  A reduction over one row runs the same
ufunc reduction over the same contiguous entries as the scalar one, and
``x ** n`` on array entries goes through Python floats, because NumPy's
power and square do not always round as the C library's ``pow`` that a
Python float uses.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GAMMA_MESSAGE",
    "LAW_MESSAGE",
    "LINK_MESSAGE",
    "bivector_pairing",
    "gamma_defect",
    "is_null",
    "larger",
    "law_bound",
    "law_defect",
    "link_bound",
    "link_covectors",
    "link_entries",
    "link_mu",
    "link_terms",
    "maxabs_rows",
    "pairing_rows",
    "planar_bound",
    "power",
    "trivector_rows",
    "wedge_denominator",
]

LAW_MESSAGE = "operator fails the isometry law, residual {:.3e}"
GAMMA_MESSAGE = "gamma record inconsistent with generator, defect {:.3e}"
LINK_MESSAGE = "link fails LR = S, residual {:.3e}"


def larger(*values):
    """Python's ``max(*values)`` entrywise, for values that broadcast together.

    A later value replaces the running one only when it is greater, so a NaN
    in first place is kept and a later NaN is passed over, as with ``max``.
    """
    out = values[0]
    for v in values[1:]:
        out = np.where(v > out, v, out)
    return out


def power(x, n):
    """``x ** n`` as a Python float evaluates it, entrywise for arrays."""
    return np.array([v ** n for v in x.tolist()], dtype=float).reshape(x.shape)


def _ops(x):
    """``max`` and ``pow`` for one ray's float ``x``, or entrywise for stacked rays."""
    return (larger, power) if isinstance(x, np.ndarray) else (max, pow)


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
    top, pw = _ops(p_max)
    sum_scale = top(1.0, p_max * u_max)
    leg_scale = p_max * d_max
    transversal = ((abs(psum) > tol * sum_scale)
                   & (pw(wedge_max, 2) > pw(tol * top(1.0, pw(leg_scale, 2)), 2))
                   & (wedge_max > tol * top(1.0, leg_scale)))
    return (sum_scale, pp * d2 - pd * pd, pp * d2 + 4.0 * pr * ps, transversal,
            top(p_max, r_max, s_max))


def is_null(square, comp_max, tol):
    """Whether a vector of square ``square`` and largest component ``comp_max``
    is null to tolerance ``tol``, relative to its component scale."""
    return abs(square) <= tol * max(1.0, comp_max ** 2)


def planar_bound(tol, norms):
    """Largest planarity witness P^R^S of a planar ray, for component scale ``norms``."""
    top, pw = _ops(norms)
    return tol * top(1.0, pw(norms, 3))


def wedge_denominator(psum, w2, tol):
    """{P^(R-S)}^2 + {P.(R+S)}^2, and whether it vanishes to tolerance."""
    top, _ = _ops(psum)
    psum2 = psum * psum
    denom = w2 + psum2
    return denom, abs(denom) <= tol * top(1.0, abs(w2), psum2)


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
    return (np.eye(p.shape[-1])
            - p[..., :, None] * alpha[..., None, :]
            - d[..., :, None] * beta[..., None, :])


def law_defect(g, entries):
    """L* g L - g, for one operator or stacked operators."""
    return entries.swapaxes(-1, -2) @ g @ entries - g


def law_bound(tol_rel, g_max, entries_max):
    """The largest isometry-law residual accepted for an operator of that size."""
    top, pw = _ops(entries_max)
    return tol_rel * top(1.0, g_max * pw(entries_max, 2))


def gamma_defect(gamma, m2, tol_rel):
    """|gamma^2 - (1 - m2)| of a generator record, and its bound."""
    top, pw = _ops(gamma)
    gamma2 = pw(gamma, 2)
    return abs(gamma2 - (1.0 - m2)), tol_rel * top(1.0, abs(m2), gamma2)


def link_bound(tol_rel, s_max):
    """The largest LR = S residual accepted for a target of largest component ``s_max``."""
    return tol_rel * max(1.0, s_max)


# -- stacked kernels: one row per ray ----------------------------------------

def maxabs_rows(values) -> np.ndarray:
    """Largest absolute entry of each row (``maxabs`` row by row)."""
    return np.maximum.reduce(np.abs(values), axis=tuple(range(1, np.ndim(values))))


def pairing_rows(g, a, b) -> np.ndarray:
    """Metric pairings a.b of stacked vectors, broadcast over the leading axes.

    The arithmetic of ``scalar_product``: the symmetrized outer product, g
    times it, and one sum over each pair's d^2 entries, halved.
    """
    sym = a[..., :, None] * b[..., None, :]
    sym = sym + sym.swapaxes(-1, -2)
    return 0.5 * np.add.reduce(g * sym, axis=(-2, -1))


def bivector_pairing(g, a, b, p, q):
    """(A^B).(P^Q) = (A.P)(B.Q) - (A.Q)(B.P), with each pairing evaluated as
    ``scalar_product`` does; the four legs are vectors or rows of one shape."""
    ap, bq, aq, bp = pairing_rows(g, np.array([a, b, a, b]), np.array([p, q, q, p]))
    return ap * bq - aq * bp


def trivector_rows(a, b, c) -> np.ndarray:
    """Largest component of a^b^c for each row (the planarity witness).

    Each argument is (N, d) rows or one d-vector, at least one of them rows.
    Every component is the sum of the six signed products that
    ``trivector_maxabs`` adds, in its order, with each product
    (x_i y_j) z_k rounded as there.  The components are built one first
    index i at a time, so the temporaries stay (N, d, d).
    """
    a, b, c = np.broadcast_arrays(a, b, c)
    ab = a[:, :, None] * b[:, None, :]
    bc = b[:, :, None] * c[:, None, :]
    ca = c[:, :, None] * a[:, None, :]
    total = np.empty_like(ab)
    term = np.empty_like(ab)
    worst = None
    for i in range(a.shape[1]):
        # x_i y_j for the pairs (a, c), (b, a) and (c, b) are the
        # transposes of ca, ab and bc.
        np.multiply(ab[:, i, :, None], c[:, None, :], out=total)
        total += np.multiply(bc[:, i, :, None], a[:, None, :], out=term)
        total += np.multiply(ca[:, i, :, None], b[:, None, :], out=term)
        total -= np.multiply(ca[:, :, i, None], b[:, None, :], out=term)
        total -= np.multiply(ab[:, :, i, None], c[:, None, :], out=term)
        total -= np.multiply(bc[:, :, i, None], a[:, None, :], out=term)
        row = maxabs_rows(np.abs(total, out=total))
        worst = row if worst is None else np.maximum(worst, row)
    return worst
