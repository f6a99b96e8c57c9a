"""Bulk-seeded streams against ``rng_for``, bit for bit.

``RngBlock(seed, stream, count)`` holds the streams ``rng_for(seed, stream,
i)`` of the indices i < count.  It seeds them in bulk where every key word
fits in one uint32 and falls back to ``rng_for`` elsewhere, so that a bad
seed raises what ``rng_for`` raises.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relkin import checks, sampling
from relkin.sampling import RngBlock, rng_for
from relkin.scenario import load as load_scenario

DATA = Path(__file__).parent / "data"
WORD = 2**32

words = st.one_of(st.integers(0, WORD - 1), st.sampled_from([0, 1, WORD - 1]))
keys = st.one_of(words, st.sampled_from([WORD, 2**64, -1]), st.integers(-2**70, 2**70))


def _normals(rng):
    return rng.normal(size=3)


@st.composite
def draw_plans(draw):
    """A block size and the indices that draw, round by round."""
    count = draw(st.integers(0, 6))
    if not count:
        return 0, []
    indices = st.lists(st.integers(0, count - 1), min_size=1, max_size=2 * count)
    return count, draw(st.lists(indices, max_size=3))


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # a bad key raises what rng_for raises
        return type(exc), str(exc)


def _reference(seed, stream, count, rounds):
    """What each index draws from its own ``rng_for`` generator, round by round."""
    rngs = [rng_for(seed, stream, i) for i in range(count)]
    return [[_normals(rngs[i]).tolist() for i in indices] for indices in rounds]


def _block(seed, stream, count, rounds):
    block = RngBlock(seed, stream, count)
    return [[row.tolist() for row in block.draw(indices, _normals)] for indices in rounds]


class TestBulkStates:
    @settings(max_examples=60, deadline=None)
    @given(seed=words, stream=words,
           indices=st.lists(st.integers(0, WORD - 1), min_size=1, max_size=8))
    @example(seed=0, stream=0, indices=[0])
    @example(seed=WORD - 1, stream=WORD - 1, indices=[WORD - 1, 0])
    def test_states_are_those_of_rng_for(self, seed, stream, indices):
        states = sampling._pcg64_states(seed, stream, indices)
        assert states == [rng_for(seed, stream, i).bit_generator.state for i in indices]

    def test_two_thousand_indices(self):
        for seed, stream in ((7, 1), (WORD - 1, 2)):
            assert (sampling._pcg64_states(seed, stream, np.arange(2000))
                    == [rng_for(seed, stream, i).bit_generator.state for i in range(2000)])


class TestDraws:
    @settings(max_examples=60, deadline=None)
    @given(seed=keys, stream=keys, plan=draw_plans())
    @example(seed=0, stream=1, plan=(3, [[0, 1, 2], [2, 0]]))
    @example(seed=WORD - 1, stream=2, plan=(3, [[0, 1, 2], [2, 0]]))
    @example(seed=WORD, stream=1, plan=(3, [[0, 1, 2], [2, 0]]))
    @example(seed=2**64, stream=1, plan=(3, [[0, 1, 2], [2, 0]]))
    @example(seed=-1, stream=1, plan=(3, [[0, 1, 2], [2, 0]]))
    @example(seed=3, stream=WORD, plan=(2, [[1, 0]]))
    def test_draws_continue_each_stream(self, seed, stream, plan):
        """Every index draws what its own rng_for generator draws, in
        whatever order and however often the indices draw; a key that
        rng_for refuses raises the same error."""
        assert (_outcome(lambda: _block(seed, stream, *plan))
                == _outcome(lambda: _reference(seed, stream, *plan)))

    @pytest.mark.parametrize("seed, bulk", [(0, True), (WORD - 1, True), (WORD, False),
                                            (2**64, False), (1.0, False)])
    def test_only_keys_that_fit_a_word_are_seeded_in_bulk(self, seed, bulk):
        assert (RngBlock(seed, 1, 2)._rngs is None) is bulk

    def test_an_empty_block_checks_nothing(self):
        assert RngBlock("not a seed", 1, 0).draw([], _normals) == []


class TestFirstUseCheck:
    def test_a_mismatch_falls_back_to_rng_for(self, monkeypatch):
        """When the probe key's bulk state differs from rng_for's, every
        block of the process uses rng_for, and the scan is unchanged."""
        golden = load_scenario(str(DATA / "golden_scan.json"))
        space = golden.build_space()
        r, s = golden.vector(space, "R"), golden.vector(space, "S")
        expected = repr(checks.link_ray_scan(r, s, seed=4, n_general=60, n_planar=10))
        monkeypatch.setattr(sampling, "_bulk_ok", None)
        monkeypatch.setattr(sampling, "_PCG_MULT", sampling._PCG_MULT + 2)
        assert RngBlock(4, 1, 3)._rngs is not None
        assert sampling._bulk_ok is False
        assert repr(checks.link_ray_scan(r, s, seed=4, n_general=60, n_planar=10)) == expected

    def test_the_check_runs_once(self, monkeypatch):
        calls = []
        true_states = sampling._pcg64_states

        def counted(*args):
            calls.append(args)
            return true_states(*args)

        monkeypatch.setattr(sampling, "_bulk_ok", None)
        monkeypatch.setattr(sampling, "_pcg64_states", counted)
        for seed in (0, 1):
            assert RngBlock(seed, 1, 2)._rngs is None
        assert [args[0] for args in calls] == [WORD - 1, 0, 1]  # the probe, then each block


class TestMixedStreams:
    """One block, and one bulk pass, for the streams of several parts: the
    link scan's general rays (stream 1) and planar rays (stream 2)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=words, keys=st.lists(st.tuples(words, st.integers(0, WORD - 1)),
                                     min_size=1, max_size=8))
    @example(seed=WORD - 1, keys=[(1, 0), (2, 0), (WORD - 1, WORD - 1)])
    def test_per_index_streams_are_those_of_rng_for(self, seed, keys):
        streams, indices = (np.array(column) for column in zip(*keys))
        assert (sampling._pcg64_states(seed, streams, indices)
                == [rng_for(seed, stream, i).bit_generator.state for stream, i in keys])

    @settings(max_examples=60, deadline=None)
    @given(seed=keys, stream=keys, counts=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           data=st.data())
    @example(seed=WORD - 1, stream=2, counts=(3, 2), data=None)
    @example(seed=WORD, stream=2, counts=(3, 2), data=None)
    @example(seed=2**64, stream=2, counts=(3, 2), data=None)
    @example(seed=-1, stream=2, counts=(3, 2), data=None)
    def test_parts_follow_one_another(self, seed, stream, counts, data):
        """Position counts[0] + i of a two-part block draws what
        rng_for(seed, stream, i) draws, in any order."""
        total = sum(counts)
        if data is None:
            rounds = [list(range(total)), list(range(total))[::-1]]
        else:
            rounds = data.draw(st.lists(st.lists(st.integers(0, max(total - 1, 0)),
                                                 max_size=2 * total) if total else
                                        st.just([]), max_size=3))

        def reference():
            rngs = ([rng_for(seed, 1, i) for i in range(counts[0])]
                    + [rng_for(seed, stream, i) for i in range(counts[1])])
            return [[_normals(rngs[k]).tolist() for k in ks] for ks in rounds]

        def block():
            block = RngBlock(seed, (1, stream), counts)
            return [[row.tolist() for row in block.draw(ks, _normals)] for ks in rounds]

        assert _outcome(block) == _outcome(reference)

    @pytest.mark.parametrize("seed, bulk", [(0, True), (WORD - 1, True), (WORD, False),
                                            (2**64, False)])
    def test_only_keys_that_fit_a_word_are_seeded_in_bulk(self, seed, bulk):
        assert (RngBlock(seed, (1, 2), (3, 2))._rngs is None) is bulk
        assert (RngBlock(0, (1, seed), (3, 2))._rngs is None) is bulk


class _PerIndexBlock:
    """RngBlock's contract, one rng_for generator per position."""

    def __init__(self, seed, stream, count):
        self.rngs = [rng_for(seed, word, i) for word, n in zip(stream, count)
                     for i in range(n)]

    def draw(self, indices, fn):
        return [fn(self.rngs[i]) for i in indices]


class TestScanSeeding:
    @pytest.fixture
    def golden(self):
        golden = load_scenario(str(DATA / "golden_scan.json"))
        space = golden.build_space()
        return golden.vector(space, "R"), golden.vector(space, "S")

    def test_one_bulk_pass_seeds_both_streams(self, golden, monkeypatch):
        r, s = golden
        sampling._bulk_agrees()
        calls = []
        true_states = sampling._pcg64_states

        def counted(seed, stream, indices):
            calls.append((seed, np.array(stream).tolist(), np.array(indices).tolist()))
            return true_states(seed, stream, indices)

        monkeypatch.setattr(sampling, "_pcg64_states", counted)
        checks.link_ray_scan(r, s, seed=WORD - 1, n_general=5, n_planar=3)
        assert calls == [(WORD - 1, [1] * 5 + [2] * 3, [0, 1, 2, 3, 4, 0, 1, 2])]

    @pytest.mark.parametrize("seed", [0, 3, WORD - 1, WORD, 2**64, -1])
    def test_the_scan_is_that_of_per_index_generators(self, golden, monkeypatch, seed):
        """Bulk-seeded or fallen back, the scan draws what one rng_for
        generator per index draws, and a refused seed raises the same."""
        r, s = golden

        def scan():
            return repr(checks.link_ray_scan(r, s, seed=seed, n_general=30, n_planar=8))

        expected = _outcome(scan)
        monkeypatch.setattr(checks, "RngBlock", _PerIndexBlock)
        assert _outcome(scan) == expected
        if seed == -1:
            assert expected[0] is ValueError
