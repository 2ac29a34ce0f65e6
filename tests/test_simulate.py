import random

import numpy as np
import pytest
from _enumeration import random_weighted_tree
from _scalar_walk import estimate_from_steps, scalar_estimate_hitting, scalar_trial_steps

from treewalk import simulate
from treewalk.errors import GraphError
from treewalk.graphs import WeightedGraph, path_graph, star_graph
from treewalk.simulate import Xorshift64Star, estimate_hitting, mix64
from treewalk.walks import hitting_matrix


class TestGenerator:
    def test_mix64_matches_published_splitmix64(self):
        # reference outputs of splitmix64 seeded at 1234567
        golden = 0x9E3779B97F4A7C15
        outs = [mix64((1234567 + i * golden) & (2**64 - 1)) for i in range(3)]
        assert outs == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_mix64_frozen_values(self):
        # frozen from the verified recurrence; guards cross-platform drift
        assert mix64(0) == 16294208416658607535
        assert mix64(1) == 10451216379200822465
        assert mix64(2) == 10905525725756348110

    def test_stream_reference_values(self):
        rng = Xorshift64Star(0)
        assert [rng.next_u64() for _ in range(3)] == [
            8916199331640804048,
            16032783972208265725,
            12954103179475586193,
        ]

    def test_floats_in_unit_interval(self):
        rng = Xorshift64Star(123)
        for _ in range(10_000):
            x = rng.next_float()
            assert 0.0 <= x < 1.0

    def test_distinct_seeds_distinct_streams(self):
        a = Xorshift64Star(1)
        b = Xorshift64Star(2)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


class TestEstimate:
    def test_k2_forced_step(self):
        est = estimate_hitting(path_graph([1.0]), 0, 1, 500, seed=9)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_same_source_and_target(self):
        est = estimate_hitting(path_graph([1, 1]), 1, 1, 10, seed=1)
        assert est.mean == 0.0

    def test_path3_within_four_stderr(self):
        est = estimate_hitting(path_graph([1, 1]), 0, 2, 100_000, seed=20260808)
        assert abs(est.mean - 4.0) <= 4 * est.stderr

    def test_star_within_four_stderr(self):
        est = estimate_hitting(star_graph([1, 1, 1]), 0, 1, 100_000, seed=20260808)
        assert abs(est.mean - 5.0) <= 4 * est.stderr

    def test_weighted_graph_matches_exact(self):
        g = random_weighted_tree(random.Random(5), 6)
        exact = hitting_matrix(g)[2, 0]
        est = estimate_hitting(g, 2, 0, 100_000, seed=31337)
        assert abs(est.mean - exact) <= 4 * est.stderr

    def test_bit_identical_reruns(self):
        g = path_graph([2.0, 1.0])
        a = estimate_hitting(g, 0, 2, 5_000, seed=77)
        b = estimate_hitting(g, 0, 2, 5_000, seed=77)
        assert a == b

    def test_seed_changes_estimate(self):
        g = path_graph([1, 1])
        a = estimate_hitting(g, 0, 2, 2_000, seed=1)
        b = estimate_hitting(g, 0, 2, 2_000, seed=2)
        assert a.mean != b.mean

    def test_invalid_trials(self):
        with pytest.raises(GraphError):
            estimate_hitting(path_graph([1]), 0, 1, 0, seed=0)


MASK64 = simulate._MASK
LOCKSTEP_SEEDS = (0, -1, 2**64 - 1, 20260808)
TAIL = simulate.TAIL_TRIALS
# one trial; a tail-only count; around the tail threshold; at and past one block
LOCKSTEP_TRIALS = (1, 64, TAIL - 1, TAIL, TAIL + 1, 2**14, 2**14 + 1)
CHORDED_CYCLE = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 2.5), (2, 3, 0.5), (3, 4, 4.0), (4, 0, 1.5), (1, 3, 0.75)))


def _lockstep_corpus():
    # the heavy spoke keeps walks through the 200-wide center row short
    star200 = star_graph([1.0] * 199 + [200.0])
    cases = [
        ("path3", path_graph([1, 1]), 0, 2),
        ("path6", path_graph([1] * 5), 0, 5),
        ("star200", star200, 0, 200),
        ("star200-leaf", star200, 1, 200),
        ("chorded-cycle", CHORDED_CYCLE, 2, 4),
        ("single-vertex", WeightedGraph(1, ()), 0, 0),
        ("start-is-target", path_graph([1, 1]), 1, 1),
    ]
    for s in range(3):
        g = random_weighted_tree(random.Random(s), 4 + s, low=0.5, high=2.0)
        cases.append((f"wtree{s}", g, 0, g.n - 1))
    return [pytest.param(g, start, target, id=name) for name, g, start, target in cases]


def _unshift(y, shift):
    """Invert y = x ^ (x >> shift) (shift > 0) or x ^ (x << -shift) on 64 bits."""
    x = y
    for _ in range(64):
        x = y ^ ((x >> shift) if shift > 0 else ((x << -shift) & MASK64))
    return x


def _unmix64(z):
    x = _unshift(z, 31) * pow(simulate._MIX2, -1, 2**64) & MASK64
    x = _unshift(x, 27) * pow(simulate._MIX1, -1, 2**64) & MASK64
    return (_unshift(x, 30) - simulate._GOLDEN) & MASK64


def _seed_with_first_float(u):
    """A seed whose trial 0 draws the float u (a multiple of 2^-53) first."""
    out = (int(u * 2**53) << 11) * pow(simulate._STAR, -1, 2**64) & MASK64
    state = _unshift(_unshift(_unshift(out, 27), -25), 12)
    seed = _unmix64(_unmix64(state))
    assert Xorshift64Star(mix64(seed) ^ 0).next_float() == u
    return seed


class TestLockstep:
    @pytest.mark.parametrize("g, start, target", _lockstep_corpus())
    def test_matches_scalar_reference(self, g, start, target):
        for seed in LOCKSTEP_SEEDS:
            steps = scalar_trial_steps(g, start, target, max(LOCKSTEP_TRIALS), seed)
            for trials in LOCKSTEP_TRIALS:
                got = estimate_hitting(g, start, target, trials, seed)
                want = estimate_from_steps(steps[:trials], seed)
                assert (got.mean, got.stderr, got.trials, got.seed) == (want.mean, want.stderr, want.trials, want.seed), (
                    seed, trials)
                assert type(got.mean) is float

    def test_frozen_path3_estimate(self):
        # the values the scalar walker gave before the lockstep rewrite
        frozen = (3.975, 0.01998371130285543, 20_000, 7)
        for walk in (estimate_hitting, scalar_estimate_hitting):
            est = walk(path_graph([1, 1]), 0, 2, 20_000, seed=7)
            assert (est.mean, est.stderr, est.trials, est.seed) == frozen

    @pytest.mark.parametrize("trials", [1, TAIL])
    def test_draw_on_a_running_sum_goes_right(self, trials):
        # x = 0.5 * 2.0 lands exactly on the running sum 1.0 of the middle
        # vertex's row [1.0, 2.0]: bisect_right picks the second neighbour
        g, seed = path_graph([1, 1]), _seed_with_first_float(0.5)
        assert scalar_trial_steps(g, 1, 2, 1, seed) == [1]
        assert estimate_hitting(g, 1, 2, trials, seed) == scalar_estimate_hitting(g, 1, 2, trials, seed)

    @pytest.mark.parametrize("trials", [10_000, 1])
    def test_step_cap(self, monkeypatch, trials):
        # 10,000 trials trip the cap in lockstep, one trial in the tail
        monkeypatch.setattr(simulate, "STEP_CAP", 3)
        with pytest.raises(GraphError, match="exceeded 3 steps"):
            estimate_hitting(path_graph([1] * 5), 0, 5, trials, seed=0)

    def test_block_memory_is_bounded(self, monkeypatch):
        # a billion trials only ever allocate one block before the cap trips
        monkeypatch.setattr(simulate, "STEP_CAP", 3)
        with pytest.raises(GraphError, match="exceeded 3 steps"):
            estimate_hitting(path_graph([1] * 5), 0, 5, 10**9, seed=0)


class TestTail:
    @pytest.mark.parametrize("width", [1, 2, 3, 100, simulate.TAIL_DRAWS])
    def test_states_ahead_follow_each_stream(self, width):
        states = [mix64(i) for i in range(3)]
        ahead = simulate._states_ahead(np.array(states, dtype=np.uint64), width)
        for state, row in zip(states, ahead.tolist()):
            want = []
            for _ in range(width):
                state = simulate._xorshift(state)
                want.append(state)
            assert row == want

    def test_jump_tables_are_powers_of_the_update(self):
        words = [mix64(i) for i in range(50)]
        for j, table in enumerate(simulate._jump_tables()):
            got = simulate._apply(table, np.array(words, dtype=np.uint64)).tolist()
            want = []
            for w in words:
                for _ in range(2**j):
                    w = simulate._xorshift(w)
                want.append(w)
            assert got == want, j

    @pytest.mark.parametrize("g", [random_weighted_tree(random.Random(8), 30), star_graph([1.0] * 200)])
    def test_guide_entries_hold_for_every_draw_they_cover(self, g):
        walk = simulate._Tables(g)
        span = 53 - walk.bits
        rng = random.Random(3)
        for v in range(g.n):
            for lead in range(1 << walk.bits):
                lo = lead << span
                draws = [lo, lo + (1 << span) - 1] + [lo + rng.randrange(1 << span) for _ in range(8)]
                picked = walk.nbr[walk.pick(np.full(len(draws), v), np.array(draws, dtype=np.uint64))]
                entry = walk.guide[(v << walk.bits) + lead]
                if entry >= 0:
                    assert (picked == entry).all(), (v, lead)
                else:  # only where the two ends of the range differ
                    assert picked[0] != picked[1], (v, lead)

    @pytest.mark.parametrize("trials", [1, 300, 1000])
    def test_heavy_tail_matches_scalar_reference(self, trials):
        # from the next-to-end vertex of a 30-vertex path, about half the
        # walks hit at once and the rest wander for up to thousands of steps:
        # the tail runs many rounds, widening each one; the uneven weights
        # leave guide entries that the draw's leading bits do not settle
        g = path_graph([1.0, 1.3] * 14 + [1.0])
        for seed in (0, 5):
            got = estimate_hitting(g, 1, 0, trials, seed)
            assert got == scalar_estimate_hitting(g, 1, 0, trials, seed), seed

    @pytest.mark.parametrize("trials", [300, 1000])
    def test_step_cap_is_exact_in_the_tail(self, monkeypatch, trials):
        g = path_graph([1.0, 1.3] * 14 + [1.0])
        longest = max(scalar_trial_steps(g, 1, 0, trials, seed=3))
        monkeypatch.setattr(simulate, "STEP_CAP", longest)
        assert estimate_hitting(g, 1, 0, trials, seed=3) == scalar_estimate_hitting(g, 1, 0, trials, seed=3)
        monkeypatch.setattr(simulate, "STEP_CAP", longest - 1)
        with pytest.raises(GraphError, match=f"exceeded {longest - 1} steps"):
            estimate_hitting(g, 1, 0, trials, seed=3)
