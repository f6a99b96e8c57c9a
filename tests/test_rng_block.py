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
from relkin.sampling import Normals, RngBlock, rng_for
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


# -- the array pass: every stream's first normals as uint64 arithmetic --------

def _next_output(state):
    """PCG64's next uint64 from a ``bit_generator.state`` dict, in Python
    ints: one LCG step, then XSL-RR (the halves xored, rotated right by the
    top 6 bits)."""
    s = (state["state"]["state"] * sampling._PCG_MULT + state["state"]["inc"]) % 2**128
    x, rot = (s >> 64) ^ (s % 2**64), s >> 122
    return (x >> rot | x << (64 - rot)) % 2**64


def _layer_and_magnitude(output):
    return output & 0xFF, output >> 9 & (2**52 - 1)


def _block_rows(seed, streams, counts, rounds):
    """Each round's (indices, k) drawn as Normals(k) from one block."""
    block = RngBlock(seed, streams, counts)
    return block, [np.asarray(block.draw(indices, Normals(k))).tolist() for indices, k in rounds]


def _reference_rows(seed, streams, counts, rounds):
    """What each position's own rng_for generator draws, round by round."""
    rngs = {}
    for indices, _ in rounds:
        for p in indices:
            if p not in rngs:
                part = int(p >= counts[0])
                rngs[p] = rng_for(seed, streams[part], p - part * counts[0])
    return [[rngs[p].normal(size=k).tolist() for p in indices] for indices, k in rounds]


@st.composite
def normal_plans(draw):
    """Block counts, then rounds of (indices, k): any positions, repeats
    included, or the first round every position once, in any order."""
    counts = draw(st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(sum))
    total = sum(counts)
    any_positions = st.lists(st.integers(0, total - 1), max_size=2 * total)
    rounds = [draw(st.one_of(st.permutations(range(total)), any_positions))]
    rounds += draw(st.lists(any_positions, max_size=2))
    return counts, [(indices, draw(st.integers(2, 6))) for indices in rounds]


class TestArrayDraws:
    """A block's first Normals draws come from one array pass, and every
    row is what the position's own rng_for generator draws."""

    @settings(max_examples=60, deadline=None)
    @given(seed=words, streams=st.tuples(words, words), plan=normal_plans())
    @example(seed=0, streams=(1, 2), plan=((3, 2), [([4, 0, 4, 1, 2, 0, 3], 4), ([4, 4, 0], 2)]))
    @example(seed=WORD - 1, streams=(1, 2), plan=((40, 40), [(list(range(80)), 6)]))
    def test_rows_are_those_of_rng_for(self, seed, streams, plan):
        counts, rounds = plan
        _, rows = _block_rows(seed, streams, counts, rounds)
        assert rows == _reference_rows(seed, streams, counts, rounds)

    def test_only_positions_off_the_fast_path_hold_a_state(self):
        block, _ = _block_rows(9, (1, 2), (200, 20), [(range(220), 4)])
        _, leading = block._first
        assert 0 < len(block._saved) < 30
        assert set(block._saved) == set(np.flatnonzero(leading < 4).tolist())

    def test_a_million_normals_over_keyed_streams(self):
        """42,000 keyed streams of 24 normals each: 1,008,000 draws.  About
        1.5% of the draws leave the fast path, so about 30% of the streams
        draw through the Generator."""
        counts, k = (40_000, 2_000), 24
        block = RngBlock(11, (1, 2), counts)
        rows = block.draw(range(sum(counts)), Normals(k))
        assert rows.shape == (42_000, 24)
        expected = [rng_for(11, stream, i).normal(size=k)
                    for stream, n in zip((1, 2), counts) for i in range(n)]
        assert np.array_equal(rows, expected)
        assert 0.2 < len(block._saved) / len(rows) < 0.4


class TestOffTheFastPath:
    """Streams whose first draw leaves NumPy's fast path, found by search:
    in layer 0 (the tail layer) beyond its ki, in layer 1 (where ki is 0)
    and in a layer 2-255 beyond its ki.  Such a position draws through the
    Generator from its seed state, and later draws continue it."""

    SEED, SEARCHED = 5, 30_000

    @pytest.fixture(scope="class")
    def found(self):
        _, ki = sampling._ziggurat()
        found = {}
        for stream in (1, 2):
            states = sampling._pcg64_states(self.SEED, stream, np.arange(self.SEARCHED))
            for i, state in enumerate(states):
                layer, rabs = _layer_and_magnitude(_next_output(state))
                if rabs >= ki[layer]:
                    kind = {0: "tail", 1: "layer 1"}.get(layer, "layers 2-255")
                    found.setdefault((kind, stream), i)
        return found

    def test_the_search_finds_every_kind_in_both_streams(self, found):
        assert sorted(found) == [(kind, stream) for kind in ("layer 1", "layers 2-255", "tail")
                                 for stream in (1, 2)]

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_such_streams_draw_what_rng_for_draws(self, found, k):
        """The found positions draw with their neighbours, then again in
        reverse order, then once more with k = 2."""
        general = sorted(i for (_, stream), i in found.items() if stream == 1)
        planar = sorted(i for (_, stream), i in found.items() if stream == 2)
        counts = (general[-1] + 1, planar[-1] + 1)
        positions = general + [counts[0] + j for j in planar]
        neighbours = [p - 1 for p in positions if p > 0 and p - 1 not in positions]
        rounds = [(positions + neighbours, k), (positions[::-1], k), (positions, 2)]
        block, rows = _block_rows(self.SEED, (1, 2), counts, rounds)
        assert rows == _reference_rows(self.SEED, (1, 2), counts, rounds)
        assert set(positions) <= set(block._saved)


class TestFastPathGuard:
    """ki of layers 2-255 comes from an estimate, less a band; the exact ki,
    bisected here through NumPy's own draws, never lies below it."""

    @staticmethod
    def _takes_one_output(gen, output):
        inc = 1
        state = (output - inc) * pow(sampling._PCG_MULT, -1, 2**128) % 2**128
        gen.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        gen.normal()
        return (gen.bit_generator.state["state"]["state"]
                == (state * sampling._PCG_MULT + inc) % 2**128)

    def test_the_kept_bound_never_exceeds_the_exact_one(self):
        gen = np.random.Generator(np.random.PCG64(0))
        exact = []
        for layer in range(256):
            lo, hi = -1, 2**52  # magnitude lo is fast (none at -1), hi is not
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if self._takes_one_output(gen, layer | mid << 9) else (lo, mid)
            exact.append(hi)
        _, ki = sampling._ziggurat()
        kept = [int(v) for v in ki]
        assert exact[1] == kept[1] == 0
        assert exact[0] == kept[0]
        assert all(exact[i] - 2 * sampling._KI_BAND <= kept[i] <= exact[i]
                   for i in range(2, 256))


class TestNormalsProbe:
    @pytest.fixture
    def golden(self):
        golden = load_scenario(str(DATA / "golden_scan.json"))
        space = golden.build_space()
        return golden.vector(space, "R"), golden.vector(space, "S")

    @pytest.mark.parametrize("table, layer, factor", [(0, 37, 1 + 1e-12), (0, 0, 1 - 1e-12),
                                                      (1, 200, 1 + 1e-6)])
    def test_a_mismatch_draws_every_position_through_the_generator(
            self, golden, monkeypatch, table, layer, factor):
        """With one table entry changed (a wider fast path where ki grows),
        the first-use probe fails, no block draws in the array pass, and the
        scan is unchanged."""
        r, s = golden

        def scan():
            return repr(checks.link_ray_scan(r, s, seed=4, n_general=60, n_planar=10))

        expected = scan()
        tables = [column.copy() for column in sampling._ziggurat()]
        tables[table][layer] = tables[table][layer] * factor
        monkeypatch.setattr(sampling, "_ZIGGURAT", tuple(tables))
        monkeypatch.setattr(sampling, "_normals_ok", None)
        assert not sampling._normals_agree()
        calls = []
        monkeypatch.setattr(sampling, "_first_normals", lambda *args: calls.append(args))
        block = RngBlock(4, (1, 2), (30, 5))
        rows = block.draw(range(35), Normals(3))
        assert isinstance(rows, list) and len(block._saved) == 35
        assert scan() == expected
        assert calls == []

    def test_the_probe_holds_on_this_numpy(self):
        assert sampling._bulk_agrees() and sampling._normals_agree()


class TestGoldenScanAtScale:
    def test_ten_thousand_rays_are_those_of_per_index_generators(self, monkeypatch):
        """About 6% of the golden scan's indices draw off the fast path in
        round 1 at dim 4, so this covers the mixed round at scale."""
        golden = load_scenario(str(DATA / "golden_scan.json"))
        space = golden.build_space()
        r, s = golden.vector(space, "R"), golden.vector(space, "S")
        first_draws_off = []
        true_draw_one = RngBlock._draw_one

        def counted(block, i, fn):
            if block._taken[i] == 0:
                first_draws_off.append(i)
            return true_draw_one(block, i, fn)

        monkeypatch.setattr(RngBlock, "_draw_one", counted)
        scan = checks.link_ray_scan(r, s, seed=0, n_general=10_000, n_planar=100)
        assert 100 < len(first_draws_off) < 1000
        monkeypatch.setattr(checks, "RngBlock", _PerIndexBlock)
        assert checks.link_ray_scan(r, s, seed=0, n_general=10_000, n_planar=100)["records"] \
            == scan["records"]
