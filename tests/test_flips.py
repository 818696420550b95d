import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dihedral_least_name
from flipbraid.braids import (BraidLetter, BraidWord, canonical_setup,
                              invariant)
from flipbraid.cli import main
from flipbraid.delaunay import FlipEvent, apply_flip, build_delaunay
from flipbraid.fixtures import evaluate_matrix, load_fixture
from flipbraid.flips import (_PENTAGON_EVENTS, PENTAGON_FLIPS,
                             PENTAGON_START, BasisMismatchError,
                             build_flip_matrix,
                             flip_sequence_from_json, flip_sequence_to_json,
                             gamma_generator_name, loop_product,
                             pentagon_cycle_product, sequence_product)
from flipbraid.linalg import DimensionError, Matrix, mat_inverse

ZETA_ID = {i: Fraction(i) for i in range(1, 12)}

OLD_1234 = [(1, 2, 3), (1, 3, 4)]
NEW_1234 = [(1, 2, 4), (2, 3, 4)]


def random_labels(rng, indices):
    while True:
        vals = [Fraction(rng.randint(-500, 500), rng.randint(1, 30))
                for _ in indices]
        if len(set(vals)) == len(indices):
            return dict(zip(indices, vals))


def test_block_values_unit_quad():
    m = build_flip_matrix(FlipEvent((1, 3), (2, 4)), OLD_1234, NEW_1234,
                          ZETA_ID)
    assert m == Matrix([[Fraction(3, 2), Fraction(1, 2)],
                        [Fraction(-1, 2), Fraction(1, 2)]])


def test_role_assignment_invariance():
    reference = build_flip_matrix(FlipEvent((1, 3), (2, 4)), OLD_1234,
                                  NEW_1234, ZETA_ID)
    swapped = build_flip_matrix(FlipEvent((3, 1), (2, 4)), OLD_1234,
                                NEW_1234, ZETA_ID)
    assert swapped == reference
    rng = random.Random(22)
    for _ in range(60):
        zeta = random_labels(rng, [1, 2, 3, 4])
        mats = [build_flip_matrix(FlipEvent((i, k), (j, l)), OLD_1234,
                                  NEW_1234, zeta)
                for (i, j, k, l) in ((1, 2, 3, 4), (3, 2, 1, 4),
                                     (1, 4, 3, 2), (3, 4, 1, 2))]
        assert all(m == mats[0] for m in mats)


def test_block_determinant_formula():
    # det of the active 2x2 block is (z_j - z_l)/(z_i - z_k)
    rng = random.Random(77)
    for _ in range(120):
        zeta = random_labels(rng, [1, 2, 3, 4])
        m = build_flip_matrix(FlipEvent((1, 3), (2, 4)), OLD_1234, NEW_1234,
                              zeta)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert det == (zeta[2] - zeta[4]) / (zeta[1] - zeta[3])


def test_active_block_inverse_closed_form():
    """The inverse of the active 2x2 block has the same difference-ratio
    shape, with the diagonals' roles exchanged."""
    rng = random.Random(91)
    for _ in range(80):
        z = random_labels(rng, [1, 2, 3, 4])
        i, j, k, l = (z[m] for m in (1, 2, 3, 4))
        block = Matrix([[(i - l) / (i - k), (i - j) / (i - k)],
                        [(l - k) / (i - k), (j - k) / (i - k)]])
        closed_form = Matrix([[(k - j) / (l - j), (i - j) / (l - j)],
                              [(k - l) / (j - l), (i - l) / (j - l)]])
        assert mat_inverse(block) == closed_form


def test_flip_event_reversed():
    event = FlipEvent((1, 3), (2, 4))
    rev = event.reversed()
    assert rev.removed == (2, 4) and rev.inserted == (1, 3)
    assert rev.reversed() == event


def test_inverse_relation_small():
    forward = build_flip_matrix(FlipEvent((1, 3), (2, 4)), OLD_1234,
                                NEW_1234, ZETA_ID)
    backward = build_flip_matrix(FlipEvent((1, 3), (2, 4)).reversed(),
                                 NEW_1234, OLD_1234, ZETA_ID)
    assert (forward * backward).is_identity()
    assert mat_inverse(forward) == backward


def test_inverse_relation_random_roles():
    rng = random.Random(41)
    for _ in range(100):
        indices = rng.sample(range(1, 10), 4)
        zeta = random_labels(rng, sorted(indices))
        event = FlipEvent(tuple(indices[:2]), tuple(indices[2:]))
        old = sorted(event.removed_triangles())
        new = sorted(event.inserted_triangles())
        fwd = build_flip_matrix(event, old, new, zeta)
        back = build_flip_matrix(event.reversed(), new, old, zeta)
        assert (fwd * back).is_identity()
        assert mat_inverse(fwd) == back


def test_column_sums_larger_bases():
    rng = random.Random(13)
    for _ in range(100):
        indices = rng.sample(range(1, 12), 7)
        zeta = random_labels(rng, sorted(indices))
        event = FlipEvent(tuple(indices[:2]), tuple(indices[2:4]))
        shared = [tuple(sorted(indices[4:7]))]
        old = sorted(list(event.removed_triangles()) + shared)
        new = sorted(list(event.inserted_triangles()) + shared)
        m = build_flip_matrix(event, old, new, zeta)
        assert all(s == 1 for s in m.column_sums())


def test_gamma_names():
    assert gamma_generator_name(FlipEvent((1, 3), (2, 4))) == "d(1 2 3 4)"
    assert gamma_generator_name(FlipEvent((3, 1), (2, 4))) == "d(1 2 3 4)"
    assert gamma_generator_name(FlipEvent((2, 4), (3, 1))) == "d(1 2 3 4)"
    assert gamma_generator_name(FlipEvent((2, 4), (1, 3))) == "d(1 2 3 4)"


def defined_shape(event) -> tuple:
    """(quad, removed triangles, inserted triangles) of a flip by their
    definitions, with (i, k) = removed and (j, l) = inserted."""
    (i, k), (j, l) = event.removed, event.inserted
    return (tuple(sorted((i, j, k, l))),
            (tuple(sorted((i, j, k))), tuple(sorted((i, k, l)))),
            (tuple(sorted((i, j, l))), tuple(sorted((j, k, l)))))


def test_gamma_name_is_the_least_dihedral_variant():
    """Every flip on every 4-subset of 1..7: three ways to split it into
    two pairs, either pair removed, each pair in either order.  Its quad
    and triangles, which ``flip_shape`` works out once, are those of the
    definitions too, as for an unsorted flip on larger indices and the
    pentagon's events."""
    count = 0
    for quad in itertools.combinations(range(1, 8), 4):
        for a, b in ((0, 1), (0, 2), (0, 3)):
            first = (quad[a], quad[b])
            second = tuple(x for x in quad if x not in first)
            for removed, inserted in ((first, second), (second, first)):
                for r, s in itertools.product((removed, removed[::-1]),
                                              (inserted, inserted[::-1])):
                    event = FlipEvent(r, s)
                    assert gamma_generator_name(event) == \
                        dihedral_least_name(event)
                    assert (event.quad, event.removed_triangles(),
                            event.inserted_triangles()) == \
                        defined_shape(event)
                    count += 1
    assert count == 840
    unsorted = FlipEvent((5, 2), (9, 3), Fraction(1, 4), Fraction(1, 2))
    assert (unsorted.quad, unsorted.removed_triangles(),
            unsorted.inserted_triangles()) == (
        (2, 3, 5, 9), ((2, 5, 9), (2, 3, 5)), ((3, 5, 9), (2, 3, 9)))
    assert gamma_generator_name(unsorted) == "d(2 3 5 9)"
    for event in (unsorted, *_PENTAGON_EVENTS):
        assert (event.quad, event.removed_triangles(),
                event.inserted_triangles()) == defined_shape(event)


def test_basis_mismatch_errors():
    with pytest.raises(BasisMismatchError):
        build_flip_matrix(FlipEvent((1, 3), (2, 4)),
                          [(1, 2, 3), (1, 3, 5)], NEW_1234, ZETA_ID)
    with pytest.raises(BasisMismatchError):
        build_flip_matrix(FlipEvent((1, 3), (2, 4)),
                          OLD_1234 + [(5, 6, 7)],
                          NEW_1234 + [(5, 6, 8)], ZETA_ID)


def test_coincident_labels_error():
    zeta = {1: Fraction(1), 2: Fraction(2), 3: Fraction(1), 4: Fraction(4)}
    with pytest.raises(ValueError, match="coincident labels"):
        build_flip_matrix(FlipEvent((1, 3), (2, 4)), OLD_1234, NEW_1234,
                          zeta)


def test_pentagon_unit_labels():
    assert pentagon_cycle_product(
        [Fraction(i) for i in (1, 2, 3, 4, 5)]).is_identity()


def test_pentagon_random_labels():
    rng = random.Random(6)
    for _ in range(30):
        labels = list(random_labels(rng, range(5)).values())
        assert pentagon_cycle_product(labels).is_identity()


def test_pentagon_cycle_matches_transcription():
    # every step of the canonical cycle equals the recorded symbolic form
    data = load_fixture("pentagon_cycle.json")
    point_of = {name: i + 1 for i, name in enumerate(data["labels"])}
    labels = {name: Fraction(idx) for name, idx in point_of.items()}
    tris = PENTAGON_START
    for step, (removed, inserted) in zip(data["steps"], PENTAGON_FLIPS):
        event = FlipEvent(removed, inserted)
        nxt = apply_flip(tris, event)
        m = build_flip_matrix(event, sorted(tris), sorted(nxt), ZETA_ID)
        assert m == evaluate_matrix(step["matrix"], labels)
        assert removed == tuple(sorted(point_of[x] for x in step["removed"]))
        tris = nxt
    assert tris == PENTAGON_START


SECTION4_START = frozenset({(1, 2, 6), (1, 3, 4), (1, 4, 5), (1, 5, 6),
                            (2, 3, 5), (2, 5, 6), (3, 4, 5)})


def test_two_flip_example_both_orders():
    """Builder reproduces the transcribed 7x7 pair on the derived bases."""
    data = load_fixture("two_flip_commutation.json")
    labels = {f"z{i}": Fraction(i) for i in range(1, 7)}
    zeta = {i: Fraction(i) for i in range(1, 7)}
    expected = evaluate_matrix(data["product"], labels)

    first = FlipEvent((3, 5), (2, 4))
    second = FlipEvent((1, 5), (4, 6))
    for order_no, events in enumerate(([first, second], [second, first])):
        product, final = sequence_product(events, SECTION4_START, zeta)
        assert product == expected
        assert final == apply_flip(apply_flip(SECTION4_START, events[0]),
                                   events[1])

    # entrywise: the stored factors are the step matrices on these bases
    tris = SECTION4_START
    for factor in reversed(data["orders"][0]["factors"]):
        event = FlipEvent(tuple(factor["removed"]),
                          tuple(factor["inserted"]))
        nxt = apply_flip(tris, event)
        m = build_flip_matrix(event, sorted(tris), sorted(nxt), zeta)
        assert m == evaluate_matrix(factor["matrix"], labels)
        tris = nxt


def test_sequence_product_threads_bases():
    events = [FlipEvent((1, 3), (2, 4))]
    start = frozenset({(1, 2, 3), (1, 3, 4), (1, 4, 5)})
    product, final = sequence_product(events, start, ZETA_ID)
    assert product.rows == 3
    assert final == frozenset({(1, 2, 4), (2, 3, 4), (1, 4, 5)})
    back, home = sequence_product([events[0].reversed()], final, ZETA_ID)
    assert (back * product).is_identity()
    assert home == start


def dense_product(events, start, zeta):
    """The product as a left fold of one dense flip matrix per event."""
    tris = frozenset(start)
    acc = Matrix.identity(len(tris))
    for event in events:
        nxt = apply_flip(tris, event)
        acc = build_flip_matrix(event, sorted(tris), sorted(nxt), zeta) * acc
        tris = nxt
    return acc, tris


def test_pentagon_cycle_product_matches_dense_fold():
    events = [FlipEvent(removed, inserted)
              for removed, inserted in PENTAGON_FLIPS]
    rng = random.Random(13)
    for _ in range(30):
        zeta = random_labels(rng, range(1, 6))
        dense, final = dense_product(events, PENTAGON_START, zeta)
        assert final == PENTAGON_START
        assert pentagon_cycle_product([zeta[i] for i in range(1, 6)]) \
            == dense


@pytest.mark.parametrize("labels", [
    [1, 2, 3, 4, 4], [Fraction(1, 2)] * 5, [1, 2, 3, 4], [1, 2, 3, 4, 5, 6]])
def test_pentagon_cycle_product_needs_five_distinct_labels(labels):
    with pytest.raises(ValueError, match="need five distinct labels"):
        pentagon_cycle_product([Fraction(v) for v in labels])


def test_pentagon_cycle_product_compares_labels_as_rationals():
    """Labels are coerced before the distinct check, so one rational
    written two ways is one label."""
    for labels in (["1", "1/1", "2", "3", "4"], [2, Fraction(4, 2), 3, 4, 5],
                   ["-1/2", Fraction(-1, 2), 0, 1, 2]):
        with pytest.raises(ValueError, match="need five distinct labels"):
            pentagon_cycle_product(labels)
    mixed = [1, Fraction(5, 2), "3", 4, Fraction(-7, 3)]
    product = pentagon_cycle_product(mixed)
    assert product.is_identity()
    assert product == pentagon_cycle_product([Fraction(v) for v in mixed])


def test_loop_product_refuses_an_open_log():
    events = [FlipEvent(removed, inserted)
              for removed, inserted in PENTAGON_FLIPS]
    assert loop_product(events, PENTAGON_START, ZETA_ID).is_identity()
    assert loop_product([], PENTAGON_START, ZETA_ID).is_identity()
    for open_log in (events[:1], events[:-1]):
        with pytest.raises(AssertionError,
                           match="flip log does not return to its start"):
            loop_product(open_log, PENTAGON_START, ZETA_ID)


@pytest.mark.parametrize("n", [4, 5, 8])
def test_sequence_product_matches_dense_fold(n):
    """Every signed generator at n = 4 and 5; a seeded sample of six at
    n = 8, the size of the word benchmark."""
    setup = canonical_setup(n)
    home = build_delaunay(setup.config)
    zeta = setup.config.zeta_map()
    letters = [BraidLetter(i, j, power) for i in range(1, n + 1)
               for j in range(i + 1, n + 1) for power in (1, -1)]
    if n == 8:
        letters = random.Random(8).sample(letters, 6)
    for letter in letters:
        events = invariant(BraidWord(n, (letter,))).flip_log[0]
        assert events, f"{letter} must flip"
        product, final = sequence_product(events, home, zeta)
        assert (product, final) == dense_product(events, home, zeta)
        assert final == home


def letter_events(n):
    """The flip events of every signed generator at n, by letter."""
    return {letter: invariant(BraidWord(n, (letter,))).flip_log[0]
            for letter in (BraidLetter(i, j, power)
                           for i in range(1, n + 1)
                           for j in range(i + 1, n + 1)
                           for power in (1, -1))}


def test_sequence_product_rational_labels_match_dense_fold():
    """Non-integer, negative labels with unequal denominators: the cleared
    integer labels give the dense Fraction product."""
    setup = canonical_setup(4)
    rng = random.Random(404)
    for letter, events in letter_events(4).items():
        zeta = random_labels(rng, sorted(setup.config.zeta_map()))
        assert any(z.denominator > 1 for z in zeta.values())
        assert any(z < 0 for z in zeta.values())
        assert sequence_product(events, setup.home, zeta) \
            == dense_product(events, setup.home, zeta), letter


def test_sequence_product_affine_label_invariance():
    """Every block entry is a ratio of label differences, so the product
    is the same under z -> c*z + e for any c != 0."""
    setup = canonical_setup(4)
    zeta = setup.config.zeta_map()
    maps = [(Fraction(3, 7), Fraction(-5, 2)), (Fraction(-2), Fraction(1, 3)),
            (Fraction(-11, 6), Fraction(0))]
    for letter, events in letter_events(4).items():
        product = sequence_product(events, setup.home, zeta)
        for c, e in maps:
            moved = {index: c * z + e for index, z in zeta.items()}
            assert sequence_product(events, setup.home, moved) == product, \
                (letter, c, e)


def test_sequence_product_random_quad_sequences():
    """Flips with every role order, not only those a braid loop produces."""
    forward = [FlipEvent(removed, inserted)
               for removed, inserted in PENTAGON_FLIPS]
    moves = forward + [e.reversed() for e in forward]
    rng = random.Random(5)
    start = frozenset({(1, 2, 3), (1, 3, 4), (1, 4, 5)})
    for _ in range(40):
        zeta = random_labels(rng, range(1, 6))
        tris, events = start, []
        for _ in range(rng.randint(1, 8)):
            event = rng.choice([e for e in moves
                                if set(e.removed_triangles()) <= tris])
            tris = apply_flip(tris, event)
            events.append(event)
        assert sequence_product(events, start, zeta) \
            == dense_product(events, start, zeta)


def random_flip_walk(rng, start, steps):
    """``steps`` flips from ``start``, each of an interior edge of the
    current triangulation picked at random whose new diagonal is not an
    edge yet: combinatorial flips, the quad need not be convex.  Each pair
    of an event is in a random order."""
    tris, events = frozenset(start), []
    for _ in range(steps):
        across = {}
        for t in tris:
            for apex in t:
                edge = tuple(v for v in t if v != apex)
                across.setdefault(edge, []).append(apex)
        (i, k), (j, l) = rng.choice(
            [(edge, apexes) for edge, apexes in sorted(across.items())
             if len(apexes) == 2 and tuple(sorted(apexes)) not in across])
        event = FlipEvent(*rng.choice([((i, k), (j, l)), ((k, i), (j, l)),
                                       ((i, k), (l, j)), ((k, i), (l, j))]))
        tris = apply_flip(tris, event)
        events.append(event)
    return events


@pytest.mark.parametrize("n", [6, 8])
def test_sequence_product_random_flip_walks(n):
    """Random walks of any interior edge flips from the home triangulation,
    at random rational labels with unequal denominators, against the dense
    fold."""
    setup = canonical_setup(n)
    rng = random.Random(2700 + n)
    for _ in range(20):
        zeta = random_labels(rng, sorted(setup.config.zeta_map()))
        assert len({z.denominator for z in zeta.values()}) > 1
        events = random_flip_walk(rng, setup.home, rng.randint(1, 30))
        assert sequence_product(events, setup.home, zeta) \
            == dense_product(events, setup.home, zeta)


def test_sequence_product_reduces_rows_past_the_bound(monkeypatch):
    """The signed generators at n = 9 are the letters whose row
    denominators pass 2^64, where a row is reduced by its content: there
    the product still equals the dense fold."""
    from flipbraid import flips

    reduced = []

    def recording(row, den):
        reduced.append(den)
        return real(row, den)

    real = flips._reduced
    monkeypatch.setattr(flips, "_reduced", recording)
    setup = canonical_setup(9)
    zeta = setup.config.zeta_map()
    for letter, events in letter_events(9).items():
        assert sequence_product(events, setup.home, zeta) \
            == dense_product(events, setup.home, zeta), letter
    assert reduced
    assert all(abs(den) >= 2 ** 64 for den in reduced)


def test_sequence_product_long_flip_walk():
    """A walk of 300 flips at rational labels, whose rows pass 2^64 and
    are reduced many times, against the dense fold.  Its prefixes are
    checked first, so a product whose integers blow up fails early."""
    setup = canonical_setup(6)
    rng = random.Random(2790)
    zeta = random_labels(rng, sorted(setup.config.zeta_map()))
    events = random_flip_walk(rng, setup.home, 300)
    for length in (10, 40, 100, 300):
        assert sequence_product(events[:length], setup.home, zeta) \
            == dense_product(events[:length], setup.home, zeta), length


def test_product_from_no_triangles_is_a_dimension_error():
    message = "matrix must have at least one row and column"
    with pytest.raises(DimensionError, match=message):
        sequence_product([], frozenset(), ZETA_ID)
    with pytest.raises(DimensionError, match=message):
        loop_product([], frozenset(), ZETA_ID)


def test_sequence_product_coincident_labels():
    start = frozenset({(1, 2, 3), (1, 3, 4), (1, 4, 5)})
    zeta = {1: Fraction(1), 2: Fraction(2), 3: Fraction(1),
            4: Fraction(4), 5: Fraction(5)}
    with pytest.raises(ValueError, match="coincident labels"):
        sequence_product([FlipEvent((1, 3), (2, 4))], start, zeta)


def test_sequence_product_rejects_inapplicable_event():
    start = frozenset({(1, 2, 3), (1, 3, 4), (1, 4, 5)})
    with pytest.raises(ValueError, match="does not apply.*not present"):
        sequence_product([FlipEvent((2, 4), (1, 3))], start, ZETA_ID)
    flipped = FlipEvent((1, 3), (2, 4))
    with pytest.raises(ValueError, match="does not apply"):
        sequence_product([flipped, flipped], start, ZETA_ID)



def test_flip_onto_present_triangles_does_not_apply():
    """The removed triangles are present, but so is an inserted one."""
    start = frozenset({(1, 2, 3), (1, 3, 4), (1, 2, 4)})
    event = FlipEvent((1, 3), (2, 4))
    message = r"does not apply: \{\(2, 3, 4\), \(1, 2, 4\)\} already present"
    with pytest.raises(ValueError, match=message):
        sequence_product([event], start, ZETA_ID)
    with pytest.raises(ValueError, match=message):
        apply_flip(start, event)


def test_invariant_json_replays_to_its_matrix(capsys):
    """Each letter's logged flips, replayed from the JSON's basis at the
    canonical labels (the point indices), return to that basis, and the
    letters' products, later letters on the left, give its matrix."""
    assert main(["invariant", "--n", "4", "--word",
                 "b(1,3) b(2,4)^-1 b(1,2)"]) == 0
    data = json.loads(capsys.readouterr().out)
    basis = frozenset(map(tuple, data["basis"]))
    labels = {index: index for t in basis for index in t}
    acc = None
    for log in data["flips"]:
        matrix, final = sequence_product(flip_sequence_from_json(log), basis,
                                         labels)
        assert final == basis
        acc = matrix if acc is None else matrix * acc
    assert len(data["flips"]) == 3
    assert acc == Matrix(data["matrix"]["entries"])


def test_flip_sequence_json_round_trip():
    events = [FlipEvent((1, 3), (2, 4), Fraction(1, 8), Fraction(3, 16)),
              FlipEvent((2, 5), (3, 6))]
    data = flip_sequence_to_json(events)
    assert data[0] == {"removed": [1, 3], "inserted": [2, 4],
                       "quad": [1, 2, 3, 4], "gamma": "d(1 2 3 4)",
                       "t_lo": "1/8", "t_hi": "3/16"}
    assert "t_lo" not in data[1]
    assert flip_sequence_from_json(data) == events
    # FlipEvent owns the bracket rules: both ends or neither, in order
    with pytest.raises(ValueError, match="'t_lo' and 't_hi' must be given"):
        FlipEvent((1, 2), (3, 4), Fraction(1, 2))
    with pytest.raises(ValueError, match=r"bracket \[1, 0\] is not ordered"
                                         r".*'t_lo' is above 't_hi'"):
        FlipEvent((1, 2), (3, 4), 1, 0)


TIME = st.fractions(min_value=0, max_value=1, max_denominator=2 ** 40)


@st.composite
def flip_events(draw):
    """A flip on four distinct indices, with or without a time bracket."""
    i, j, k, l = draw(st.lists(st.integers(1, 30), min_size=4, max_size=4,
                               unique=True))
    bracket = draw(st.one_of(st.just((None, None)),
                             st.tuples(TIME, TIME).map(sorted)))
    return FlipEvent(tuple(sorted((i, k))), tuple(sorted((j, l))), *bracket)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(flip_events(), max_size=6))
def test_flip_sequence_json_round_trip_random(events):
    assert flip_sequence_from_json(flip_sequence_to_json(events)) == events


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 6), min_size=4, max_size=4)
       .filter(lambda q: len(set(q)) < 4))
def test_repeated_indices_rejected(quad):
    removed, inserted = tuple(quad[:2]), tuple(quad[2:])
    with pytest.raises(ValueError, match="four distinct indices"):
        FlipEvent(removed, inserted)
    data = [{"removed": list(removed), "inserted": list(inserted)}]
    with pytest.raises(ValueError, match="four distinct indices"):
        flip_sequence_from_json(data)


@pytest.mark.parametrize("data, message", [
    ([{"removed": [1, 2]}], "entry 1: 'inserted' must be two integers"),
    ([5], "entry 1: expected an object"),
    ([{"removed": [1, 2], "inserted": 3}],
     "entry 1: 'inserted' must be two integers"),
    ([{"removed": [1, "x"], "inserted": [3, 4]}],
     "entry 1: 'removed' must be two integers"),
    ([{"removed": [1, 2, 5], "inserted": [3, 4]}],
     "entry 1: 'removed' must be two integers"),
    ([{"removed": [1, 2], "inserted": [3, 4]},
      {"removed": [1, 2], "inserted": [3, 4], "t_lo": "x", "t_hi": "1"}],
     "entry 2: 't_lo' must be a rational"),
    ([{"removed": [1, 2], "inserted": [3, 4], "t_lo": "1/0"}],
     "entry 1: 't_lo' must be a rational"),
    ([{"removed": [1, 2], "inserted": [3, 4], "t_lo": [0]}],
     "entry 1: 't_lo' must be a rational"),
    ([{"removed": [1, 2], "inserted": [3, 4]},
      {"removed": [1, 2], "inserted": [2, 4]}],
     "entry 2: .*four distinct indices"),
    ([{"removed": [1, 2], "inserted": [3, 4], "t_lo": 0.5}],
     "entry 1: 't_lo' must be a rational"),
    (5, "expected a list of flip entries"),
    (None, "expected a list of flip entries"),
    ({"a": 1}, "expected a list of flip entries"),
    ([{"removed": [1, 2], "inserted": [3, 4], "t_lo": "1/4"}],
     "entry 1: 't_lo' and 't_hi' must be given together"),
    ([{"removed": [1, 2], "inserted": [3, 4], "t_hi": "1/4"}],
     "entry 1: 't_lo' and 't_hi' must be given together"),
    ([{"removed": [1, 2], "inserted": [3, 4]},
      {"removed": [1, 2], "inserted": [3, 4], "t_lo": "1/2", "t_hi": "1/4"}],
     r"entry 2: bracket \[1/2, 1/4\] is not ordered inside \[0, 1\]"),
    ([{"removed": [1, 2], "inserted": [3, 4], "t_lo": "-1/8", "t_hi": "0"}],
     r"entry 1: bracket \[-1/8, 0\] is not ordered inside"),
    ([{"removed": [1, 2], "inserted": [3, 4], "t_lo": "1", "t_hi": "9/8"}],
     r"entry 1: bracket \[1, 9/8\] is not ordered inside"),
    ([{"removed": [1, 3], "inserted": [2, 4], "quad": [9, 9, 9, 9]}],
     r"entry 1: 'quad' is \[9, 9, 9, 9\], but 'removed' and 'inserted'"
     r" give \[1, 2, 3, 4\]"),
    ([{"removed": [1, 3], "inserted": [2, 4], "quad": [4, 3, 2, 1]}],
     "entry 1: 'quad' is"),
    ([{"removed": [1, 3], "inserted": [2, 4], "quad": 5}],
     "entry 1: 'quad' is 5"),
    ([{"removed": [1, 3], "inserted": [2, 4], "gamma": "bogus"}],
     "entry 1: 'gamma' is 'bogus', but 'removed' and 'inserted' give"
     " 'd\\(1 2 3 4\\)'"),
    ([{"removed": [1, 3], "inserted": [2, 4], "gamma": "d(1 4 3 2)"}],
     "entry 1: 'gamma' is 'd"),
])
def test_flip_sequence_from_json_rejects_malformed_entries(data, message):
    with pytest.raises(ValueError, match=message):
        flip_sequence_from_json(data)


def test_flip_sequence_from_json_accepts_what_the_writer_leaves_out():
    """An entry without its derived fields, with a bracket whose ends
    are equal, or with tuples for lists, reads as written."""
    data = [{"removed": [3, 1], "inserted": [2, 4]},
            {"removed": [1, 3], "inserted": [2, 4], "quad": [1, 2, 3, 4],
             "gamma": "d(1 2 3 4)", "t_lo": "1/2", "t_hi": "1/2"},
            {"removed": [1, 3], "inserted": [2, 4], "t_lo": 0, "t_hi": 1},
            {"removed": (1, 3), "inserted": (4, 2), "quad": (1, 2, 3, 4)}]
    assert flip_sequence_from_json(tuple(data)) == [
        FlipEvent((1, 3), (2, 4)),
        FlipEvent((1, 3), (2, 4), Fraction(1, 2), Fraction(1, 2)),
        FlipEvent((1, 3), (2, 4), Fraction(0), Fraction(1)),
        FlipEvent((1, 3), (2, 4))]
