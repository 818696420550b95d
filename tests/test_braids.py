import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import validate_general_position, winding_number
from flipbraid.braids import (BraidLetter, BraidWord, CanonicalSetup,
                              LoopGeometry, WordSyntaxError, canonical_setup,
                              generator_trajectories, invariant, letter_flips,
                              parse_word, verify_relations, word_from_pairs)
from flipbraid.delaunay import DegenerateConfigurationError, build_delaunay
from flipbraid.geometry import Configuration, LabeledPoint
from flipbraid.kinetics import ClearanceError, configuration_at
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


@pytest.mark.parametrize("power", [2, 0, -2])
def test_a_letter_power_other_than_one_is_refused(power):
    """b(1,2)^2 and b(1,2)^0 are not letters: they must not pass as b(1,2)."""
    with pytest.raises(ValueError, match=r"letter b\(1,2\): power must be"):
        BraidLetter(1, 2, power)
    with pytest.raises(ValueError, match=r"letter b\(1,2\): power must be"):
        word_from_pairs(3, [(1, 2, power)])


@pytest.mark.parametrize("build", [
    lambda: word_from_pairs(3, [(1.0, 2)]),
    lambda: word_from_pairs(3, [(True, 2)]),
    lambda: word_from_pairs(3, [(1, 2, 1.0)]),
    lambda: word_from_pairs(3, [(1, 2, True)]),
    lambda: word_from_pairs(3, [(1, 2.5)]),
    lambda: word_from_pairs(3, [("1", 2)]),
    lambda: BraidWord(2.0, ()),
], ids=["float i", "bool i", "float power", "bool power", "float j",
        "str i", "float n"])
def test_a_strand_or_power_that_is_not_an_int_is_refused(build):
    """An equal float or bool must not pass as an int strand or power, and
    any other type fails with a ``TypeError`` before any work is done."""
    with pytest.raises(TypeError, match=r"^(letter \(|strand count)"):
        invariant(build())


@pytest.mark.parametrize("letters", [
    ((1, 2, 1),), (BraidLetter(1, 2, 1), "b(2,3)"), [None],
], ids=["tuple", "str second", "None in a list"])
def test_a_word_entry_that_is_not_a_letter_is_refused(letters):
    """A word holds ``BraidLetter``s only: any other entry is refused with
    a ``TypeError`` that names its place and the entry, before any work is
    done, not an ``AttributeError`` from deep inside the invariant."""
    bad = next(x for x in letters if not isinstance(x, BraidLetter))
    pos = list(letters).index(bad) + 1
    with pytest.raises(TypeError, match=re.escape(
            f"letter {pos} is not a BraidLetter: {bad!r}")):
        invariant(BraidWord(3, letters))


def test_a_word_stores_its_letters_as_a_tuple():
    """Letters given in a list or a generator are stored as a tuple, so
    the word hashes and equals the word built from the same tuple."""
    letters = [BraidLetter(1, 2, 1), BraidLetter(2, 3, -1)]
    word = BraidWord(3, letters)
    letters.append(BraidLetter(1, 3, 1))
    assert word.letters == tuple(letters[:2])
    assert BraidWord(3, iter(letters[:2])) == word
    assert hash(word) == hash(BraidWord(3, tuple(letters[:2])))
    assert invariant(word).matrix == invariant(
        BraidWord(3, tuple(letters[:2]))).matrix


@pytest.mark.parametrize("entry", [(), (1,), (1, 2, 1, 1)])
def test_word_from_pairs_refuses_a_malformed_entry(entry):
    with pytest.raises(ValueError, match=r"expected \(i, j\) or"):
        word_from_pairs(3, [(1, 2), entry])


@pytest.mark.parametrize("n", [True, 1.0, 3.0, "3", None])
def test_canonical_setup_refuses_an_n_that_is_not_an_int(n):
    """``True`` and ``1.0`` equal 1, so an untyped cache would hand them
    the setup of 1 once one of them had been built."""
    for _ in range(2):
        with pytest.raises(TypeError, match="strand count n must be int"):
            canonical_setup(n)
    assert canonical_setup(1).n == 1 and type(canonical_setup(1).n) is int


@pytest.mark.parametrize("call, message", [
    (lambda: parse_word(None, 3), "word text must be str, got None"),
    (lambda: parse_word(b"b(1,2)", 3), "word text must be str"),
    (lambda: parse_word("b(1,2)", None), "strand count n must be int"),
    (lambda: parse_word("b(1,2)", 3.0), "strand count n must be int"),
    (lambda: invariant("b(1,2)"),
     "word must be a BraidWord, got 'b\\(1,2\\)'"),
    (lambda: invariant(None), "word must be a BraidWord, got None"),
], ids=["parse None", "parse bytes", "parse n None", "parse n float",
        "invariant str", "invariant None"])
def test_a_word_argument_of_the_wrong_type_is_refused(call, message):
    with pytest.raises(TypeError, match=message):
        call()


@pytest.mark.parametrize("n", range(2, 7))
def test_invariant_is_the_product_of_its_letters(n):
    """The word's matrix, taken right to left, equals the left-to-right
    fold of its letters' matrices, each later letter on the left."""
    rng = random.Random(3300 + n)
    letters = [BraidLetter(i, j, power)
               for i, j in itertools.combinations(range(1, n + 1), 2)
               for power in (1, -1)]
    for _ in range(4):
        word = BraidWord(n, tuple(rng.choice(letters)
                                  for _ in range(rng.randint(2, 5))))
        acc = Matrix.identity(2 * n + 1)
        for letter in word.letters:
            acc = invariant(BraidWord(n, (letter,))).matrix * acc
        assert invariant(word).matrix == acc, str(word)


def test_canonical_setup_falls_back_to_nudged_homes(monkeypatch):
    """When the homes of the first attempts are degenerate, the setup is
    built from the next attempt's nudged homes; when every attempt is,
    ``canonical_setup`` gives up.  The unwrapped function is called, so
    the cache is left alone."""
    from flipbraid import braids

    def failing(k):
        calls = []

        def setup(n, config):
            calls.append(n)
            if len(calls) <= k:
                raise DegenerateConfigurationError((1, 2, 3, 4))
            return CanonicalSetup(n, config)
        return setup

    n = 4
    monkeypatch.setattr(braids, "CanonicalSetup", failing(2))
    setup = canonical_setup.__wrapped__(n)
    homes = {p.index: (p.x, p.y) for p in setup.config.points}
    for k in range(1, n + 1):
        assert homes[k + 3] == (k, F(k * k, 100 * n * n) + F(2 * k, 10007))
    assert setup.home == build_delaunay(setup.config)

    monkeypatch.setattr(braids, "CanonicalSetup", failing(10 ** 6))
    with pytest.raises(RuntimeError,
                       match="n=4 failed to reach general position"):
        canonical_setup.__wrapped__(n)


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
    with pytest.raises(ClearanceError, match=re.escape(
            "point 4 meets point 5 in [2/7, 3/7]")):
        letter_flips(setup, BraidLetter(1, 3, 1))
    # the loop's top at height 100 is above the boundary triangle's apex
    with pytest.raises(ClearanceError, match=re.escape(
            "point 4 is not strictly inside the boundary triangle at time"
            " 1/7")):
        letter_flips(canonical_setup(2), BraidLetter(1, 2, 1),
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


@pytest.mark.parametrize("step", ["1", "1/2", "1/3", "1/5", "1/7"])
def test_coarse_sampling_gives_the_engine_matrix(step):
    """Every signed generator at n <= 4, at steps whose cells span up to
    all seven corners of a loop."""
    for n in (2, 3, 4):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            for power in (1, -1):
                word = BraidWord(n, (BraidLetter(i, j, power),))
                assert invariant(word, step=step).matrix \
                    == invariant(word).matrix, (n, i, j, power)


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
        uv = BraidWord(3, u.letters + v.letters)
        assert invariant(uv).matrix \
            == invariant(v).matrix * invariant(u).matrix


def test_word_product_starts_from_the_first_letter(monkeypatch):
    """A word of k letters takes k - 1 matrix products once its letters are
    cached: the product starts from the first letter's matrix, not from I."""
    from flipbraid import linalg

    word = parse_word("b(1,2) b(2,3)^-1 b(1,3)", 3)
    letters = [invariant(BraidWord(3, (letter,))).matrix
               for letter in word.letters]
    calls = []
    mat_mul = linalg.mat_mul

    def counted(a, b):
        calls.append((a, b))
        return mat_mul(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    assert invariant(word).matrix == mat_mul(letters[2],
                                             mat_mul(letters[1], letters[0]))
    assert len(calls) == 2
    assert invariant(BraidWord(3, word.letters[:1])).matrix == letters[0]
    assert len(calls) == 2


def test_a_letter_that_does_not_return_home_is_refused(monkeypatch):
    """A letter's flip log with its last flip dropped stops one flip short
    of the home triangulation."""
    from flipbraid import braids

    letter_flips = braids.letter_flips

    def without_last_flip(*args):
        ts, events = letter_flips(*args)
        return ts, events[:-1]

    monkeypatch.setattr(braids, "letter_flips", without_last_flip)
    braids._letter_result.cache_clear()
    with pytest.raises(AssertionError,
                       match="flip log does not return to its start"):
        invariant(parse_word("b(1,2)", 3))


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


@pytest.mark.parametrize("geometry, field", [
    (LoopGeometry.make(1, "1/2", "-1/4"), "offset -1/4"),
    (LoopGeometry.make(1, "1/2", "5/4"), "offset 5/4"),
    (LoopGeometry.make(1, "1/2", "3/2"), "offset 3/2"),
    (LoopGeometry.make(1, "-1/2", "1/4"), "depth -1/2"),
    (LoopGeometry.make("1/1000", "1/2", "1/4"), "height 1/1000"),
])
def test_a_loop_that_does_not_wind_once_around_the_target_is_refused(
        geometry, field):
    """Each of these loops for b(1,3) at n = 4 would give a wrong matrix:
    that of the inverse letter (offset -1/4), one around a neighbouring
    home too (5/4, 3/2), or the identity (depth -1/2, height 1/1000)."""
    letter = BraidLetter(1, 3, 1)
    with pytest.raises(ValueError, match=re.escape(f"loop {field} ")):
        generator_trajectories(canonical_setup(4), letter, geometry)
    with pytest.raises(ValueError, match=re.escape(f"loop {field} ")):
        letter_flips(canonical_setup(4), letter, geometry)
    with pytest.raises(ValueError, match=re.escape(f"loop {field} ")):
        invariant(BraidWord(4, (letter,)), geometry=geometry)


@pytest.mark.parametrize("geometry", [LoopGeometry(),
                                      LoopGeometry.make(1, 0, "1/4")])
def test_a_loop_once_around_the_target_is_accepted(geometry):
    """The default loop, and one whose dip stops at height 0, between the
    target's home and the boundary, give the letter's matrix."""
    word = parse_word("b(1,3)", 4)
    ts = generator_trajectories(canonical_setup(4), word.letters[0],
                                geometry)
    loop = [pos for _, pos in ts.trajectories[0].breakpoints]
    homes = canonical_setup(4).config.positions
    assert [winding_number(loop, homes[k]) for k in (5, 6, 7)] == [0, -1, 0]
    assert invariant(word, geometry=geometry).matrix == invariant(word).matrix


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
    """The letter cache keys on n, so a lookup never hashes the setup's
    points."""
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


def test_letter_cache_does_not_hash_the_geometry_again(monkeypatch):
    """A loop geometry is hashed once, when it is built, so a letter
    lookup hashes no ``Fraction``."""
    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    word = parse_word("b(1,2) b(2,3)^-1", 3)
    geometries = (LoopGeometry(), LoopGeometry.make(F(3, 2), "1/2", "1/4"))
    expected = [invariant(word, g).matrix for g in geometries]
    monkeypatch.setattr(F, "__hash__", refuse)
    assert [invariant(word, g).matrix for g in geometries] == expected


def test_letter_cache_is_keyed_on_n():
    from flipbraid import braids

    braids._letter_result.cache_clear()
    for _ in range(2):
        for n in (3, 4):
            assert invariant(parse_word("b(1,3)", n)).matrix.rows == 2 * n + 1
    info = braids._letter_result.cache_info()
    assert (info.hits, info.misses) == (2, 2)


def test_setup_builds_its_home():
    for n in (0, 1, 4):
        setup = canonical_setup(n)
        assert setup.home == build_delaunay(setup.config)


def test_setup_of_cocircular_points_is_refused_at_construction():
    """Four homes on the unit circle, with its disk empty: the constructor
    builds the home triangulation, so it raises."""
    pts = (
        LabeledPoint.make(1, -10, -10, 1),
        LabeledPoint.make(2, 10, -10, 2),
        LabeledPoint.make(3, 0, 10, 3),
        LabeledPoint.make(4, 1, 0, 4),
        LabeledPoint.make(5, 0, 1, 5),
        LabeledPoint.make(6, -1, 0, 6),
        LabeledPoint.make(7, 0, -1, 7),
    )
    config = Configuration(pts, (1, 2, 3))
    with pytest.raises(DegenerateConfigurationError):
        CanonicalSetup(4, config)


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
