"""Each check of a link has one definition, which one link and the stacked
rows of a ray scan both run through ``kernels.run_checks``.

Every check is forced to fail on one ray of a batch, by construction or by
perturbing the one kernel both paths read.  The batch must keep the rays
before that ray, bit for bit as ``p_link`` builds them, and carry the error
that ``p_link`` (or ``gamma_of_link``) raises for that ray, with its type
and message.
"""

import numpy as np
import pytest

from relkin import (
    DegenerateLinkError,
    InternalConsistencyError,
    LinkProblem,
    ZeroMuError,
    gamma_of_link,
    kernels,
    linker,
    maxabs,
    mu_scalar,
    p_link,
)

# Rays that link the golden problem R = e0, S = (1.25, 0.75, 0, 0).
GOOD = [[0.3, 0.1, 0.9, 0.0], [0.5, -0.2, 0.1, 0.7], [0.1, 0.6, -0.4, 0.2]]
BAD = [0.2, 0.4, -0.3, 0.1]
ZERO_MU = [1.0, 3.0, 0.0, 0.0]  # P.(R+S) = 0


def _batch(r, s, rays):
    problem = LinkProblem(r, s)
    return linker._link_rows(problem, linker._Terms.stacked(problem, np.array(rays)))


def _assert_stops_at(r, s, rays, bad, kind, words, refuse=p_link):
    """The batch keeps rays[:bad] as p_link builds them, and its error is what
    ``refuse`` raises for rays[bad]: of type ``kind``, naming ``words``."""
    links = _batch(r, s, rays)
    assert len(links.entries) == len(links.gamma) == len(links.residual) == bad
    for row in range(bad):
        link = p_link(LinkProblem(r, s, r.space.vector(rays[row])))
        assert np.array_equal(links.entries[row], link.mapping.entries)
        assert links.gamma[row] == link.gamma
        assert links.residual[row] == maxabs(link.apply(r).components - s.components)
    with pytest.raises(kind) as one:
        refuse(LinkProblem(r, s, r.space.vector(rays[bad])))
    assert words in str(one.value)
    assert type(links.error) is kind and str(links.error) == str(one.value)


def _force_terms(monkeypatch, space, r, s, ray, field, value):
    """Make ``kernels.link_terms`` return value(psum, old) as its output
    ``field`` for ``ray``, which is told apart by its P.(R+S)."""
    target = LinkProblem(r, s, space.vector(ray))._terms.psum
    true_terms = kernels.link_terms

    def forced(psum, *args):
        out = list(true_terms(psum, *args))
        hit = psum == target
        new = value(psum, out[field])
        out[field] = np.where(hit, new, out[field]) if np.ndim(hit) else (
            new if hit else out[field])
        return tuple(out)

    monkeypatch.setattr(kernels, "link_terms", forced)


def _force_entries(monkeypatch, ray, change):
    """Make ``kernels.link_entries`` return change(entries) for ``ray``."""
    true_entries = kernels.link_entries

    def forced(p, d, alpha, beta):
        entries = true_entries(p, d, alpha, beta)
        dim = p.shape[-1]
        flat = entries.reshape(-1, dim, dim)
        for row, comps in enumerate(np.reshape(p, (-1, dim))):
            if np.array_equal(comps, ray):
                flat[row] = change(flat[row])
        return entries

    monkeypatch.setattr(kernels, "link_entries", forced)


class TestRunChecks:
    CHECKS = ((False, ZeroMuError, "never", None),
              (True, DegenerateLinkError, "first {:.1f}", 1.0),
              (True, InternalConsistencyError, "second", None))

    def test_one_result_raises_its_first_failure(self):
        with pytest.raises(DegenerateLinkError, match="^first 1.0$"):
            kernels.run_checks(*self.CHECKS)
        assert kernels.run_checks(self.CHECKS[0]) is None

    def test_rows_stop_at_the_first_failing_row_with_its_first_error(self):
        checks = ((np.array([False, False, False, True]), ZeroMuError, "mu {}", None),
                  (np.array([False, False, True, True]), DegenerateLinkError,
                   "row {:.0f}", np.arange(4.0)),
                  (np.array([False, False, True, False]), InternalConsistencyError,
                   "later", None))
        n, error = kernels.run_checks(*checks, rows=4)
        assert n == 2
        assert type(error) is DegenerateLinkError and str(error) == "row 2"

    def test_one_bool_holds_for_every_row_and_no_failure_keeps_them_all(self):
        n, error = kernels.run_checks((True, ZeroMuError, "all", None), rows=3)
        assert (n, type(error), str(error)) == (0, ZeroMuError, "all")
        assert kernels.run_checks((np.zeros(3, dtype=bool), ZeroMuError, "x", None),
                                  (False, ZeroMuError, "y", None), rows=3) == (3, None)


class TestEachCheckStopsTheBatchAsTheObjectPathRefuses:
    """One test per check, in the order a link runs them.  The ray after the
    refused one has P.(R+S) = 0, which an earlier check refuses: the batch
    still reports the first refused ray's own first error."""

    def test_r_minus_s_null(self, mink4):
        r, s = mink4.vector([0.0, 1.0, 0.0, 0.0]), mink4.vector([1.0, 1.0, 1.0, 0.0])
        assert LinkProblem(r, s)._terms.d2 == 0.0
        _assert_stops_at(r, s, [BAD, *GOOD], 0, DegenerateLinkError, "(R-S)^2 = 0")

    def test_zero_mu(self, golden):
        _, r, s = golden
        _assert_stops_at(r, s, [*GOOD[:2], ZERO_MU, GOOD[2]], 2, ZeroMuError, "P.(R+S) = 0")

    def test_not_transversal(self, golden, monkeypatch):
        space, r, s = golden
        _force_terms(monkeypatch, space, r, s, BAD, 3, lambda psum, old: False)
        _assert_stops_at(r, s, [*GOOD[:2], BAD, GOOD[2], ZERO_MU], 2,
                         DegenerateLinkError, "not transversal")

    def test_vanishing_mu_denominator(self, golden, monkeypatch):
        space, r, s = golden
        _force_terms(monkeypatch, space, r, s, BAD, 1, lambda psum, old: -(psum * psum))
        rays = [*GOOD[:2], BAD, GOOD[2], ZERO_MU]
        _assert_stops_at(r, s, rays, 2, DegenerateLinkError, "degenerate link denominator")
        _assert_stops_at(r, s, rays, 2, DegenerateLinkError, "degenerate link denominator",
                         refuse=gamma_of_link)

    def test_vanishing_d(self, golden, monkeypatch):
        space, r, s = golden
        _force_terms(monkeypatch, space, r, s, BAD, 2, lambda psum, old: 0.0)
        mu_scalar(LinkProblem(r, s, space.vector(BAD)))  # mu's own refusals pass
        _assert_stops_at(r, s, [*GOOD[:2], BAD, GOOD[2], ZERO_MU], 2,
                         DegenerateLinkError, "degenerate link denominator")

    def test_isometry_law(self, golden, monkeypatch):
        _, r, s = golden
        _force_entries(monkeypatch, BAD, lambda entries: entries * (1.0 + 1e-3))
        _assert_stops_at(r, s, [*GOOD[:2], BAD, GOOD[2], ZERO_MU], 2,
                         InternalConsistencyError, "isometry law")

    def test_gamma_record(self, golden, monkeypatch):
        # A larger wedge square moves mu and the recorded gamma but not the
        # operator, whose entries read D: the law and LR = S still hold.
        space, r, s = golden
        _force_terms(monkeypatch, space, r, s, BAD, 1, lambda psum, old: old * (1.0 + 1e-3))
        _assert_stops_at(r, s, [*GOOD[:2], BAD, GOOD[2], ZERO_MU], 2,
                         InternalConsistencyError, "gamma record")

    def test_lr_equals_s(self, golden, monkeypatch):
        # The identity is an isometry, and the gamma record does not read the
        # entries, so only LR = S fails.
        _, r, s = golden
        _force_entries(monkeypatch, BAD, lambda entries: np.eye(len(entries)))
        _assert_stops_at(r, s, [*GOOD[:2], BAD, GOOD[2], ZERO_MU], 2,
                         InternalConsistencyError, "LR = S, residual 7.500e-01")
