import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from hyperchrome import constructions as cons
from hyperchrome import exact
from hyperchrome.core import canonical_form, is_hyperforest, is_linear

from oracles import pool_random_3graph, reference_gq


class TestComplete:
    def test_k4_matches_named(self):
        assert cons.complete(4).edge_set() == cons.named("k4").edge_set()

    def test_counts(self):
        G = cons.complete(5)
        assert len(G.edges) == 10
        assert all(G.degree(v) == math.comb(4, 2) for v in range(5))

    def test_chi_k7(self):
        assert exact.chromatic_number(cons.complete(7)) == 4

    def test_too_small(self):
        with pytest.raises(ValueError):
            cons.complete(2)


class TestLooseCyclePath:
    def test_cycle3(self):
        G = cons.loose_cycle(3)
        assert G.n == 6 and len(G.edges) == 3
        degs = sorted(G.degrees())
        assert degs == [1, 1, 1, 2, 2, 2]
        assert not is_hyperforest(G)

    def test_path(self):
        G = cons.loose_path(3)
        assert G.n == 7 and len(G.edges) == 3
        assert is_hyperforest(G)

    def test_path_single_edge(self):
        assert cons.loose_path(1).edges == ((0, 1, 2),)

    def test_consecutive_overlap(self):
        for l in (3, 4, 5):
            G = cons.loose_cycle(l)
            for e, f in combinations(G.edges, 2):
                assert len(set(e) & set(f)) <= 1

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            cons.loose_cycle(2)
        with pytest.raises(ValueError):
            cons.loose_path(0)


class TestNamed:
    def test_k4(self):
        G = cons.named("k4")
        assert G.n == 4 and len(G.edges) == 4

    def test_sunflower7(self):
        G = cons.named("sunflower7")
        assert G.n == 7 and len(G.edges) == 4
        assert G.degree(0) == 3  # the center

    def test_k4_minus_and_linear_pair(self):
        assert len(cons.named("k4_minus").edges) == 3
        assert cons.named("linear_pair").edges == ((0, 1, 2), (0, 1, 3))

    def test_neighborhood5(self):
        G = cons.named("neighborhood5")
        assert G.n == 5 and len(G.edges) == 4
        assert G.degree(0) == G.degree(1) == 3

    def test_fano(self):
        G = cons.named("fano")
        assert G.n == 7 and len(G.edges) == 7
        assert is_linear(G)
        # every pair of vertices lies in exactly one line
        seen = {}
        for e in G.edges:
            for p in combinations(e, 2):
                seen[p] = seen.get(p, 0) + 1
        assert all(v == 1 for v in seen.values())
        assert len(seen) == math.comb(7, 2)

    def test_unknown(self):
        with pytest.raises(ValueError):
            cons.named("petersen")


class TestPartitionExample:
    def test_r2_t3_all_triples(self):
        G = cons.partition_example(2, 3)
        assert G.n == 4 and len(G.edges) == 4

    def test_single_part(self):
        G = cons.partition_example(1, 4)
        assert G.n == 3 and G.edges == ()

    def test_alpha_chi(self):
        G = cons.partition_example(3, 3)
        assert exact.independence_number(G) == 2
        assert exact.chromatic_number(G) == 3

    def test_parts_are_maximal_independent(self):
        r, t = 3, 4
        G = cons.partition_example(r, t)
        for i in range(r):
            part = set(range(i * (t - 1), (i + 1) * (t - 1)))
            assert not any(set(e) <= part for e in G.edges)
            for v in set(range(G.n)) - part:
                bigger = part | {v}
                assert any(set(e) <= bigger for e in G.edges)


class TestGq:
    def test_gq2_structure(self):
        G = cons.gq(2)
        assert G.n == 15 and len(G.edges) == 15 and G.k == 3
        assert set(G.degrees()) == {3}
        assert is_linear(G)
        assert cons.gq_axiom_holds(G)

    def test_gq2_no_line_triangle(self):
        # three pairwise-meeting lines must be concurrent in a quadrangle
        G = cons.gq(2)
        lines = [set(e) for e in G.edges]
        for a, b, c in combinations(range(len(lines)), 3):
            pab = lines[a] & lines[b]
            pbc = lines[b] & lines[c]
            pac = lines[a] & lines[c]
            if pab and pbc and pac:
                assert pab == pbc == pac

    def test_gq3_structure(self):
        G = cons.gq(3)
        assert G.n == 40 and len(G.edges) == 40 and G.k == 4
        assert set(G.degrees()) == {4}
        assert is_linear(G)
        assert cons.gq_axiom_holds(G)

    def test_counts_formula(self):
        for q in (2, 3):
            G = cons.gq(q)
            assert G.n == q ** 3 + q ** 2 + q + 1
            assert len(G.edges) == G.n

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            cons.gq(4)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_same_labelling_as_first_sight_scan(self, q):
        # pins the point order, and so every vertex label, for q = 5 and 7
        assert cons.gq(q) == reference_gq(q)


class TestFqBlowup:
    def test_small(self):
        G = cons.fq_blowup(cons.BlowupSpec(5, 1, 123))
        assert G.n == 5 and len(G.edges) == 4

    def test_minimal_sizes(self):
        G = cons.fq_blowup(cons.BlowupSpec(8, 2, 9))
        assert len(G.edges) == 4  # all side sets are singletons

    def test_deterministic(self):
        spec = cons.BlowupSpec(12, 2, 77)
        assert cons.fq_blowup(spec).edges == cons.fq_blowup(spec).edges

    def test_edge_structure(self):
        # rebuild the split and check each edge hits grid, S_i and T_j
        m, tau, seed = 14, 2, 5
        G = cons.fq_blowup(cons.BlowupSpec(m, tau, seed))
        rng = random.Random(seed)
        perm = list(range(m))
        rng.shuffle(perm)
        grid = set(perm[:tau * tau])
        sides = perm[tau * tau:]
        total_s = 0
        total_t = 0
        base, extra = divmod(len(sides), 2 * tau)
        sizes = [base + (1 if i < extra else 0) for i in range(2 * tau)]
        for i, size in enumerate(sizes):
            if i % 2 == 0:
                total_s += size
            else:
                total_t += size
        assert len(G.edges) == total_s * total_t
        for e in G.edges:
            assert sum(1 for v in e if v in grid) == 1

    def test_too_small(self):
        with pytest.raises(ValueError):
            cons.BlowupSpec(7, 2, 0)


class TestBlowUp:
    def test_single_edge_matches_fq(self):
        from hyperchrome.core import Hypergraph
        base = Hypergraph(5, 5, ((0, 1, 2, 3, 4),))
        out = cons.blow_up(base, 1, 99)
        ref = cons.fq_blowup(cons.BlowupSpec(5, 1, cons.mix_seed(99, 0)))
        assert canonical_form(out) == canonical_form(ref)

    def test_disjoint_edges_add(self):
        from hyperchrome.core import Hypergraph
        base = Hypergraph(10, 5, ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)))
        out = cons.blow_up(base, 1, 3)
        a = cons.fq_blowup(cons.BlowupSpec(5, 1, cons.mix_seed(3, 0)))
        b = cons.fq_blowup(cons.BlowupSpec(5, 1, cons.mix_seed(3, 1)))
        assert len(out.edges) == len(a.edges) + len(b.edges)

    def test_gq2_degenerate(self):
        out = cons.blow_up(cons.gq(2), 1, 17)
        assert len(out.edges) == 15

    def test_uniformity_too_small(self):
        with pytest.raises(ValueError):
            cons.blow_up(cons.gq(2), 2, 0)


class TestRandomGenerators:
    def test_unique_triple(self):
        assert cons.random_3graph(3, 1, 5).edges == ((0, 1, 2),)

    def test_empty(self):
        assert cons.random_3graph(10, 0, 5).edges == ()

    def test_deterministic(self):
        assert cons.random_3graph(10, 20, 9).edges == \
            cons.random_3graph(10, 20, 9).edges

    def test_too_many(self):
        with pytest.raises(ValueError):
            cons.random_3graph(4, 5, 0)

    def test_matches_sampling_from_all_triples(self):
        cases = [(n, m, seed) for n in range(14) for seed in range(3)
                 for m in {0, 1, math.comb(n, 3) // 2, math.comb(n, 3) - 1,
                           math.comb(n, 3)} if 0 <= m <= math.comb(n, 3)]
        cases += [(40, 9000, 1), (60, 34220, 2), (100, 400, 3)]
        for n, m, seed in cases:
            assert cons.random_3graph(n, m, seed).edges == \
                pool_random_3graph(n, m, seed), (n, m, seed)

    def test_large_sparse_in_bounded_memory(self):
        # all C(10^4, 3) triples would take terabytes; the child process is
        # capped at 512 MB of address space, so building them fails fast
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
            "from hyperchrome.constructions import random_3graph\n"
            "E = random_3graph(10_000, 100_000, 11).edges\n"
            "assert len(E) == 100_000\n"
            "assert all(0 <= a < b < c < 10_000 for a, b, c in E)\n"
            "assert all(e < f for e, f in zip(E, E[1:]))\n")
        src = str(Path(cons.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-500:]

    def test_hypertree_single(self):
        assert cons.random_hypertree(1, 0).edges == ((0, 1, 2),)

    def test_hypertree_counts(self):
        T = cons.random_hypertree(3, 4)
        assert T.n == 7 and len(T.edges) == 3

    def test_hypertree_always_hyperforest(self):
        for seed in range(30):
            T = cons.random_hypertree(1 + seed % 6, seed)
            assert is_hyperforest(T)
