import random

import pytest

from _enumeration import random_weighted_tree
from treewalk import forests
from treewalk.graphs import (
    cycle_graph,
    enumerate_free_trees,
    path_graph,
    star_graph,
)
from treewalk.spectral import laplacian_spectra, stats
from treewalk.walks import walk_stats

P3 = path_graph([1, 1])
K2 = path_graph([1])
STAR4 = star_graph([1, 1, 1])


class TestSpectra:
    def test_unit_path_spectra(self):
        s = laplacian_spectra(P3)
        assert s.combinatorial == pytest.approx((0.0, 1.0, 3.0), abs=1e-9)
        assert s.normalized == pytest.approx((0.0, 1.0, 2.0), abs=1e-9)

    def test_k2(self):
        s = laplacian_spectra(K2)
        assert s.combinatorial == pytest.approx((0.0, 2.0), abs=1e-12)
        assert s.normalized == pytest.approx((0.0, 2.0), abs=1e-12)

    def test_unit_star(self):
        s = laplacian_spectra(STAR4)
        assert s.combinatorial == pytest.approx((0.0, 1.0, 1.0, 4.0), abs=1e-9)

    def test_trace_identities(self):
        rng = random.Random(43)
        for _ in range(15):
            g = random_weighted_tree(rng, rng.randint(2, 10))
            s = laplacian_spectra(g)
            assert sum(s.combinatorial) == pytest.approx(g.vol, rel=1e-9)
            assert sum(s.normalized) == pytest.approx(g.n, rel=1e-9)

    def test_normalized_range(self):
        rng = random.Random(47)
        for _ in range(10):
            g = random_weighted_tree(rng, rng.randint(2, 10))
            s = laplacian_spectra(g)
            assert s.normalized[0] >= -1e-9
            assert s.normalized[-1] <= 2.0 + 1e-9


class TestScalars:
    def test_unit_path_alpha(self):
        assert stats(P3)[0] == pytest.approx(16 / 9, rel=1e-10)

    def test_k2_alpha(self):
        assert stats(K2)[0] == pytest.approx(0.5, rel=1e-12)

    def test_star_alpha(self):
        assert stats(STAR4)[0] == pytest.approx(27 / 8, rel=1e-10)

    def test_unit_path_kappa(self):
        assert stats(P3)[1] == pytest.approx(3 / 2, rel=1e-10)

    def test_k2_kappa(self):
        assert stats(K2)[1] == pytest.approx(0.5, rel=1e-12)

    def test_p4_kappa_matches_forest(self):
        p4 = path_graph([1, 1, 1])
        assert stats(p4)[1] == pytest.approx(19 / 6, rel=1e-10)
        assert stats(p4)[1] == pytest.approx(forests.stats(p4)[1], rel=1e-10)

    def test_triple_agreement_free_trees(self):
        for n in range(2, 8):
            for t in enumerate_free_trees(n):
                exact = walk_stats(t)
                assert forests.stats(t) == pytest.approx(exact, rel=1e-7)
                assert stats(t) == pytest.approx(exact, rel=1e-7)

    def test_triple_agreement_random_weighted(self):
        rng = random.Random(53)
        for _ in range(30):
            t = random_weighted_tree(rng, rng.randint(2, 10))
            exact = walk_stats(t)
            assert forests.stats(t) == pytest.approx(exact, rel=1e-7)
            assert stats(t) == pytest.approx(exact, rel=1e-7)

    def test_agreement_on_cycles(self):
        for n in range(3, 7):
            c = cycle_graph(n)
            assert stats(c) == pytest.approx(walk_stats(c), rel=1e-7)
