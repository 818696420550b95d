"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Each test prints one pass/fail line (visible with -v via the test name and
on stdout via the summary print); runtime budgets are asserted against the
stated limits.
"""

import random
import time
from fractions import Fraction

from conftest import random_configuration
from flipbraid.braids import (BraidLetter, LoopGeometry, canonical_setup,
                              generator_trajectories, invariant, parse_word,
                              verify_relations, word_from_pairs)
from flipbraid.delaunay import FlipEvent, build_delaunay
from flipbraid.fixtures import (run_loop_suite, run_pentagon_suite,
                                run_two_flip_suite)
from flipbraid.flips import (build_flip_matrix, pentagon_cycle_product,
                             sequence_product)
from flipbraid.kinetics import extract_flip_sequence
from flipbraid.linalg import Matrix

F = Fraction


class Budget:
    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        print(f"criterion {self.number:2d} ({self.label}): "
              f"PASS in {elapsed:.2f}s (budget {self.seconds}s)", flush=True)
        assert elapsed < self.seconds, (
            f"criterion {self.number} exceeded its {self.seconds}s budget")


def random_distinct_labels(rng, count):
    while True:
        vals = [F(rng.randint(-900, 900), rng.randint(1, 60))
                for _ in range(count)]
        if len(set(vals)) == count:
            return vals


def test_criterion_01_pentagon_identity():
    budget = Budget(1, "pentagon identity", 1)
    assert pentagon_cycle_product([F(i) for i in (1, 2, 3, 4, 5)]) \
        == Matrix.identity(3)
    rng = random.Random(2024)
    for _ in range(100):
        labels = random_distinct_labels(rng, 5)
        assert pentagon_cycle_product(labels) == Matrix.identity(3)
    budget.done()


def test_criterion_02_bundled_loop_products():
    budget = Budget(2, "11x11 loop products", 1)
    results = run_loop_suite()
    assert [r.name for r in results] == ["loop 4-8", "loop 5-7",
                                         "loop commutation"]
    for res in results:
        assert res.ok, f"{res.name}: {res.detail}"
    budget.done()


def test_criterion_03_two_flip_commutation():
    budget = Budget(3, "7x7 two-flip pair", 1)
    res = run_two_flip_suite()
    assert res.ok, res.detail
    assert run_pentagon_suite().ok
    budget.done()


def test_criterion_04_column_sums():
    budget = Budget(4, "column sums over 10^4 matrices", 30)
    rng = random.Random(7)
    generated = 0
    while generated < 10_000:
        indices = rng.sample(range(1, 12), rng.choice((4, 5, 6)))
        labels = random_distinct_labels(rng, len(indices))
        zeta = dict(zip(sorted(indices), labels))
        event = FlipEvent(tuple(indices[:2]), tuple(indices[2:4]))
        shared = []
        if len(indices) > 4:
            shared.append(tuple(sorted(indices[2:5])))
        if len(indices) > 5:
            shared.append(tuple(sorted([indices[0], indices[4],
                                        indices[5]])))
        shared = [t for t in set(shared)
                  if t not in event.removed_triangles()
                  and t not in event.inserted_triangles()]
        old = sorted(list(event.removed_triangles()) + shared)
        new = sorted(list(event.inserted_triangles()) + shared)
        m = build_flip_matrix(event, old, new, zeta)
        assert all(s == 1 for s in m.column_sums())
        generated += 1
    assert generated >= 10_000
    budget.done()


def test_criterion_05_inverse_relation():
    budget = Budget(5, "inverse relation", 30)
    rng = random.Random(55)
    for _ in range(1000):
        indices = rng.sample(range(1, 10), 4)
        labels = random_distinct_labels(rng, 4)
        zeta = dict(zip(sorted(indices), labels))
        event = FlipEvent(tuple(indices[:2]), tuple(indices[2:]))
        old = sorted(event.removed_triangles())
        new = sorted(event.inserted_triangles())
        fwd = build_flip_matrix(event, old, new, zeta)
        back = build_flip_matrix(event.reversed(), new, old, zeta)
        assert (fwd * back).is_identity()
        assert (back * fwd).is_identity()
    for n in range(2, 5):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                word = parse_word(f"b({i},{j}) b({i},{j})^-1", n)
                assert invariant(word).matrix == Matrix.identity(2 * n + 1)
    budget.done()


def test_criterion_06_triangle_counts():
    budget = Budget(6, "triangle count 2n+1", 5)
    for n in range(9):
        t = build_delaunay(canonical_setup(n).config)
        assert len(t) == 2 * n + 1
    rng = random.Random(66)
    for _ in range(100):
        n = rng.randint(1, 6)
        config = random_configuration(rng, n)
        assert len(build_delaunay(config)) == 2 * n + 1
    budget.done()


def test_criterion_07_presentation_suite():
    budget = Budget(7, "PB_n presentation", 600)
    report = verify_relations(4, "pb_all")
    assert report.ok, [inst.name for inst in report.failures()]
    assert len(report.instances) == 11

    # sampled instances at n = 5
    def mat(pairs):
        return invariant(word_from_pairs(5, pairs)).matrix

    assert mat([(1, 5), (2, 4)]) == mat([(2, 4), (1, 5)])      # nested
    assert mat([(4, 5), (1, 2)]) == mat([(1, 2), (4, 5)])      # disjoint
    m1 = mat([(3, 4), (3, 5), (4, 5)])
    m2 = mat([(4, 5), (3, 4), (3, 5)])
    m3 = mat([(3, 5), (4, 5), (3, 4)])
    assert m1 == m2 == m3
    assert mat([(3, 5), (4, 5), (2, 4), (3, 4)]) \
        == mat([(4, 5), (2, 4), (3, 4), (3, 5)])
    budget.done()


def test_criterion_08_isotopy_invariance():
    budget = Budget(8, "isotopy invariance", 60)
    word = parse_word("b(1,3)", 3)
    geometries = (LoopGeometry.make(1, F(1, 2), F(1, 4)),
                  LoopGeometry.make(F(3, 2), F(1, 2), F(1, 8)))
    steps = (F(1, 64), F(1, 128))
    matrices = [invariant(word, geometry=g, step=s).matrix
                for g in geometries for s in steps]
    assert all(m == matrices[0] for m in matrices)
    budget.done()


def test_criterion_09_oracle_equivalence():
    budget = Budget(9, "dense-sampling oracle", 300)
    for n in (2, 3):
        setup = canonical_setup(n)
        home = build_delaunay(setup.config)
        zeta = setup.config.zeta_map()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                ts = generator_trajectories(setup, BraidLetter(i, j, 1))
                adaptive = extract_flip_sequence(ts)
                dense = extract_flip_sequence(ts, step=F(1, 10 ** 4),
                                              floor=F(1, 10 ** 4))
                m_fast, _ = sequence_product(adaptive, home, zeta)
                m_dense, _ = sequence_product(dense, home, zeta)
                assert m_fast == m_dense, f"b({i},{j}) at n={n}"
    budget.done()


def test_criterion_10_nontriviality():
    budget = Budget(10, "generator nontriviality", 10)
    res = invariant(parse_word("b(1,2)", 2))
    assert res.matrix != Matrix.identity(5)
    budget.done()
