import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import winding_number
from flipbraid.braids import (BraidLetter, BraidWord, CanonicalSetup,
                              LoopGeometry, WordSyntaxError, canonical_setup,
                              generator_trajectories, invariant, parse_word,
                              verify_relations, word_from_pairs)
from flipbraid.braids import LoopClearanceError
from flipbraid.delaunay import build_delaunay
from flipbraid.geometry import (Configuration, LabeledPoint,
                                validate_general_position)
from flipbraid.kinetics import configuration_at
from flipbraid.linalg import Matrix, mat_inverse

F = Fraction


def test_parse_word_examples():
    word = parse_word("b(1,3) b(2,4)^-1", 4)
    assert word.letters == (BraidLetter(1, 3, 1), BraidLetter(2, 4, -1))
    assert parse_word("", 3).letters == ()
    assert str(word) == "b(1,3) b(2,4)^-1"


def test_parse_word_errors():
    with pytest.raises(WordSyntaxError, match="i < j"):
        parse_word("b(3,1)", 3)
    with pytest.raises(WordSyntaxError, match="token 2.*malformed"):
        parse_word("b(1,2) c(1,2)", 3)
    with pytest.raises(WordSyntaxError, match="exceeds n=3"):
        parse_word("b(1,4)", 3)
    with pytest.raises(WordSyntaxError, match="token 3"):
        parse_word("b(1,2) b(1,3) b(2,2)", 3)


def test_canonical_setup_shapes():
    s1 = canonical_setup(1)
    assert len(s1.config.points) == 4
    assert len(build_delaunay(s1.config)) == 3
    s5 = canonical_setup(5)
    assert len(s5.config.points) == 8
    assert [p.zeta for p in s5.config.points] == [F(i) for i in range(1, 9)]
    assert len(build_delaunay(s5.config)) == 11


def test_canonical_setup_general_position():
    for n in range(13):
        assert validate_general_position(canonical_setup(n).config) == []


def test_generator_trajectories_static_and_closed():
    setup = canonical_setup(3)
    ts = generator_trajectories(setup, BraidLetter(1, 3, 1))
    assert ts.movers == (4,)
    assert configuration_at(ts, 0) == setup.config
    assert configuration_at(ts, 1) == setup.config


def test_generator_loop_winding_numbers():
    setup = canonical_setup(4)
    for (i, j) in ((1, 2), (1, 4), (2, 3)):
        ts = generator_trajectories(setup, BraidLetter(i, j, 1))
        loop = [pos for _, pos in ts.trajectories[0].breakpoints]
        for other in setup.config.points:
            if other.index == i + 3:
                continue
            expected = -1 if other.index == j + 3 else 0
            assert winding_number(loop, other.xy) == expected, other.index
        # reversed traversal winds the opposite way
        ts_inv = generator_trajectories(setup, BraidLetter(i, j, -1))
        loop_inv = [pos for _, pos in ts_inv.trajectories[0].breakpoints]
        assert winding_number(loop_inv, setup.config.positions[j + 3]) == 1


def test_generator_trajectories_validates_strands():
    setup = canonical_setup(3)
    with pytest.raises(ValueError, match="invalid"):
        generator_trajectories(setup, BraidLetter(2, 2, 1))
    with pytest.raises(ValueError, match="invalid"):
        generator_trajectories(setup, BraidLetter(1, 4, 1))


def test_loop_clearance_error():
    # a home placed exactly on the loop's descending side trips the check
    pts = (
        LabeledPoint.make(1, -7, -2, 1),
        LabeledPoint.make(2, 11, -2, 2),
        LabeledPoint.make(3, 2, 18, 3),
        LabeledPoint.make(4, 1, F(1, 100), 4),
        LabeledPoint.make(5, F(13, 4), 0, 5),
        LabeledPoint.make(6, 3, F(9, 100), 6),
    )
    setup = CanonicalSetup(3, Configuration(pts, (1, 2, 3)))
    with pytest.raises(LoopClearanceError, match="passes through"):
        generator_trajectories(setup, BraidLetter(1, 3, 1))
    # the loop's top at height 100 is above the boundary triangle's apex
    with pytest.raises(LoopClearanceError, match=re.escape(
            "loop of point 4 leaves the boundary triangle at"
            " (Fraction(1, 1), Fraction(100, 1))")):
        generator_trajectories(canonical_setup(2), BraidLetter(1, 2, 1),
                               LoopGeometry.make(100, "1/2", "1/4"))


def test_invariant_empty_word():
    res = invariant(BraidWord(2, ()))
    assert res.matrix == Matrix.identity(5)
    assert res.flip_log == ()
    assert res.trace == 5


def test_invariant_cancellation():
    res = invariant(parse_word("b(1,2) b(1,2)^-1", 2))
    assert res.matrix.is_identity()
    assert len(res.flip_log) == 2


def test_invariant_matrix_shape_and_regularity():
    for n, word in ((2, "b(1,2)"), (3, "b(2,3)"), (4, "b(1,4)")):
        res = invariant(parse_word(word, n))
        assert res.matrix.rows == res.matrix.cols == 2 * n + 1
        assert all(s == 1 for s in res.matrix.column_sums())
        mat_inverse(res.matrix)  # nonsingular
        assert list(res.basis) == sorted(res.basis)
        assert len(res.basis) == 2 * n + 1


def test_invariant_nontrivial():
    assert not invariant(parse_word("b(1,2)", 2)).matrix.is_identity()


def test_homomorphism_on_random_words():
    rng = random.Random(20)
    gens = [(i, j) for i in range(1, 4) for j in range(i + 1, 4)]
    for _ in range(4):
        u = word_from_pairs(3, [(*rng.choice(gens), rng.choice((1, -1)))
                                for _ in range(rng.randint(0, 2))])
        v = word_from_pairs(3, [(*rng.choice(gens), rng.choice((1, -1)))
                                for _ in range(rng.randint(1, 2))])
        # letters act left to right in time, later letters on the left
        assert invariant(u * v).matrix \
            == invariant(v).matrix * invariant(u).matrix


def test_inverse_letter_is_matrix_inverse():
    """The reversed loop's matrix inverts the forward one, and its flips are
    the forward flips reflected: reversed in order and in direction."""
    for i, j in ((1, 2), (1, 3), (2, 3)):
        forward = invariant(parse_word(f"b({i},{j})", 3))
        backward = invariant(parse_word(f"b({i},{j})^-1", 3))
        assert backward.matrix == mat_inverse(forward.matrix)
        assert [(e.removed, e.inserted) for e in backward.flip_log[0]] \
            == [(e.inserted, e.removed) for e in reversed(forward.flip_log[0])]


def test_isotopy_invariance_loop_geometry():
    word = parse_word("b(1,3)", 3)
    base = invariant(word).matrix
    wide = invariant(word, geometry=LoopGeometry.make(F(3, 2), F(1, 2),
                                                      F(1, 8))).matrix
    assert base == wide


def test_verify_inverse_family():
    report = verify_relations(2, "inverse")
    assert report.ok and len(report.instances) == 1


def test_verify_far_comm_n4():
    report = verify_relations(4, "far_comm")
    assert report.ok
    assert len(report.instances) == 2  # one disjoint + one nested pattern


def test_verify_pentagon_family():
    report = verify_relations(3, "pentagon", seed=11, trials=12)
    assert report.ok and len(report.instances) == 12


def test_verify_pb_all_n3():
    report = verify_relations(3, "pb_all")
    assert report.ok
    names = [inst.name for inst in report.instances]
    assert "triple(1,2,3) first=second" in names
    assert "triple(1,2,3) second=third" in names


def test_home_triangulation_built_once(monkeypatch):
    from flipbraid import braids

    calls = []

    def counting_build(config):
        calls.append(config)
        return build_delaunay(config)

    monkeypatch.setattr(braids, "build_delaunay", counting_build)
    canonical_setup.cache_clear()
    braids._letter_result.cache_clear()
    assert verify_relations(4, "pb_all").ok
    assert len(calls) == 1


def test_letter_cache_does_not_hash_the_configuration(monkeypatch):
    """The letter cache keys on the setup by identity, so a lookup never
    hashes the setup's points."""
    from flipbraid import braids

    def refuse(self):
        raise AssertionError("a configuration was hashed")

    word = parse_word("b(1,2) b(2,3)^-1", 3)
    expected = invariant(word).matrix
    monkeypatch.setattr(Configuration, "__hash__", refuse)
    braids._letter_result.cache_clear()
    for _ in range(2):
        assert invariant(word).matrix == expected
    info = braids._letter_result.cache_info()
    assert (info.hits, info.misses) == (2, 2)


def test_verify_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        verify_relations(3, "nonsense")


@pytest.mark.parametrize("n, family, trials", [
    (0, "pb_all", 100), (-2, "inverse", 100), (3, "pentagon", 0),
    (3, "pentagon", -1), (4, "far_comm", 0)])
def test_verify_rejects_empty_ranges(n, family, trials):
    with pytest.raises(ValueError, match="must be positive"):
        verify_relations(n, family, trials=trials)


def test_invariant_json_shape():
    res = invariant(parse_word("b(1,2)", 2))
    data = res.to_json_dict(with_trace=True, with_charpoly=True)
    assert data["n"] == 2
    assert data["word"] == "b(1,2)"
    assert data["matrix"]["rows"] == 5
    assert len(data["charpoly"]) == 6
    assert data["charpoly"][0] == "1"
    assert data["basis"] == sorted(data["basis"])
    assert len(data["basis"]) == 5
    assert all("gamma" in evt for evt in data["flips"][0])


@st.composite
def braid_words(draw):
    n = draw(st.integers(2, 12))
    letter = st.tuples(st.integers(1, n), st.integers(1, n),
                       st.sampled_from((1, -1))).filter(
        lambda t: t[0] != t[1]).map(
        lambda t: BraidLetter(min(t[:2]), max(t[:2]), t[2]))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=8))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(braid_words())
def test_parse_word_round_trip(word):
    assert parse_word(str(word), word.n) == word
