import pytest

from roleforge.frames import Frame
from roleforge.quantale import (
    IdempotenceError, IdempotentSubquantale, check_gq_laws, is_join_idempotent, quantale,
)
from roleforge.rsr import LatticeSizeError, PositionSet, closure_mask, role_lattice, tensor_sums
from roleforge.suites import all_one_atom_set_frames, random_position_subset, random_set_frame

from conftest import kernel_frames, role_name, seeded

# Operation tables of the golden frame, row/column order U B D L R T.
ORDER = ["U", "B", "D", "L", "R", "T"]
JOIN_TABLE = [
    ["U", "U", "U", "T", "U", "T"],
    ["U", "B", "D", "L", "R", "T"],
    ["U", "D", "D", "L", "U", "T"],
    ["T", "L", "L", "L", "T", "T"],
    ["U", "R", "U", "T", "R", "T"],
    ["T", "T", "T", "T", "T", "T"],
]
TENSOR_TABLE = [
    ["U", "B", "D", "L", "R", "T"],
    ["B", "B", "B", "B", "B", "B"],
    ["D", "B", "D", "L", "B", "L"],
    ["L", "B", "L", "L", "B", "L"],
    ["R", "B", "B", "B", "R", "R"],
    ["T", "B", "L", "L", "R", "T"],
]


@pytest.fixture()
def golden_q(golden_frame):
    return quantale(golden_frame)


def _index_by_name(q, golden_roles):
    return {
        role_name(golden_roles, r): q.lattice.index_of(r) for r in q.lattice
    }


def test_unit_dualizer_bottom(golden_q, golden_roles):
    assert role_name(golden_roles, golden_q.unit) == "U"
    assert role_name(golden_roles, golden_q.dualizer) == "D"
    assert role_name(golden_roles, golden_q.bottom) == "B"


def test_golden_operation_tables(golden_q, golden_roles):
    q = golden_q
    idx = _index_by_name(q, golden_roles)
    for i, x in enumerate(ORDER):
        for j, y in enumerate(ORDER):
            assert role_name(golden_roles, q.join(idx[x], idx[y])) == JOIN_TABLE[i][j]
            assert role_name(golden_roles, q.tensor(idx[x], idx[y])) == TENSOR_TABLE[i][j]


def test_tensor_golden_examples(golden_q, golden_roles):
    q = golden_q
    idx = _index_by_name(q, golden_roles)
    assert q.tensor_i(idx["R"], idx["L"]) == idx["B"]
    assert all(q.tensor_i(q.unit_index, i) == i for i in range(len(q.lattice)))
    assert q.tensor_i(idx["D"], idx["D"]) == idx["D"]


def test_join_golden_examples(golden_q, golden_roles):
    q = golden_q
    idx = _index_by_name(q, golden_roles)
    assert q.join_i(idx["D"], idx["R"]) == idx["U"]
    assert all(q.join_i(i, i) == i for i in range(len(q.lattice)))
    assert all(q.join_i(idx["B"], i) == i for i in range(len(q.lattice)))


def test_meet_examples(golden_q, golden_roles):
    q = golden_q
    idx = _index_by_name(q, golden_roles)
    # bit-vector intersection, cross-checked against the De Morgan spelling
    assert q.meet_i(idx["L"], idx["R"]) == idx["B"]
    assert q.meet_i(idx["L"], idx["R"]) == q.neg_i(q.join_i(q.neg_i(idx["L"]), q.neg_i(idx["R"])))
    full = q.lattice.full_index
    assert all(q.meet_i(i, full) == i for i in range(len(q.lattice)))
    assert all(q.meet_i(i, i) == i for i in range(len(q.lattice)))


def test_neg_examples(golden_q, golden_roles):
    q = golden_q
    idx = _index_by_name(q, golden_roles)
    assert q.neg_i(idx["U"]) == idx["D"]
    assert q.neg_i(idx["D"]) == idx["U"]
    assert all(q.neg_i(q.neg_i(i)) == i for i in range(len(q.lattice)))
    assert q.neg_i(q.lattice.full_index) == q.bottom_index


def test_parr_examples(golden_q):
    q = golden_q
    n = len(q.lattice)
    d = q.dualizer_index
    assert all(q.parr_i(i, d) == i for i in range(n))
    assert all(q.parr_i(i, j) == q.parr_i(j, i) for i in range(n) for j in range(n))


def test_parr_counting_empty(counting_frame):
    q = quantale(counting_frame)
    lat = q.lattice
    one_zero = lat.index_of(
        PositionSet.from_positions(counting_frame, [counting_frame.position(("x",), ())]).mask
    )
    zero_one = lat.index_of(
        PositionSet.from_positions(counting_frame, [counting_frame.position((), ("x",))]).mask
    )
    assert len(lat[q.parr_i(zero_one, one_zero)]) == 0


def test_parr_unit_on_one_atom_frames():
    for f in all_one_atom_set_frames():
        q = quantale(f)
        d = q.dualizer_index
        assert all(q.parr_i(i, d) == i for i in range(len(q.lattice)))


def test_tilde_join(golden_q, golden_roles):
    q = golden_q
    idx = _index_by_name(q, golden_roles)
    # D tilde-join R unfolds to D v R v (D x R)
    expected = q.join_i(q.join_i(idx["D"], idx["R"]), q.tensor_i(idx["D"], idx["R"]))
    assert q.tilde_join_i(idx["D"], idx["R"]) == expected == idx["U"]
    for i in q.idempotent_indices():
        assert q.tilde_join_i(i, i) == i


def test_tilde_join_is_least_upper_bound_among_idempotents(golden_q):
    rng = seeded(17)
    lattices = [golden_q]
    lattices += [quantale(f) for f in all_one_atom_set_frames()]
    lattices += [quantale(random_set_frame(rng)) for _ in range(5)]
    for q in lattices:
        idem = q.idempotent_indices()
        if len(q.lattice) > 40:
            continue
        for x in idem:
            for y in idem:
                z = q.tilde_join_i(x, y)
                assert z in idem
                assert q.leq_i(x, z) and q.leq_i(y, z)
                for c in idem:
                    if q.leq_i(x, c) and q.leq_i(y, c):
                        assert q.leq_i(z, c)


def test_tilde_join_rejects_non_idempotent(counting_frame):
    q = quantale(counting_frame)
    one_zero = q.lattice.index_of(
        PositionSet.from_positions(counting_frame, [counting_frame.position(("x",), ())]).mask
    )
    assert not q.is_idempotent_i(one_zero)
    with pytest.raises(IdempotenceError):
        q.tilde_join_i(one_zero, one_zero)


def test_idempotent_subquantale(golden_q):
    sub = IdempotentSubquantale(golden_q)
    q = golden_q
    assert set(sub.elements) == set(range(len(q.lattice)))  # all six are idempotent here
    for x in sub.elements:
        for y in sub.elements:
            assert q.tensor_i(x, y) in sub.elements
            assert q.lattice.index_of(sub.tilde_join(x, y)) in sub.elements


def test_gq_laws_golden_and_one_atom(golden_q):
    assert check_gq_laws(golden_q).ok
    for f in all_one_atom_set_frames():
        report = check_gq_laws(quantale(f))
        assert report.ok, report.summary()


def test_gq_laws_corrupted_table_reports_violation(golden_frame):
    q = quantale(golden_frame)
    clean = check_gq_laws(q)
    assert clean.ok
    # force a wrong cell into the memo table: unit x top := bottom
    key = tuple(sorted((q.unit_index, q.lattice.full_index)))
    q._tensor[key] = q.bottom_index
    corrupted = check_gq_laws(q)
    assert not corrupted.ok
    assert any(not c.ok for c in corrupted.checks)


def test_dualizing_residual_property(golden_q):
    """neg(A) is the residual into the dualizer: A x B <= dualizer iff B <= neg(A)."""
    for f_q in [golden_q] + [quantale(f) for f in all_one_atom_set_frames()]:
        n = len(f_q.lattice)
        if n > 64:
            continue
        for a in range(n):
            na = f_q.neg_i(a)
            for b in range(n):
                lhs = f_q.leq_i(f_q.tensor_i(a, b), f_q.dualizer_index)
                assert lhs == f_q.leq_i(b, na)


def test_bottom_is_absorbing(golden_q):
    assert golden_q.bottom_is_absorbing()


def test_is_join_idempotent(golden_q, counting_frame):
    assert is_join_idempotent(golden_q)
    base = Frame(("a",), "set")
    all_in = Frame(("a",), "set", explicit=list(base.window()))
    assert is_join_idempotent(quantale(all_in))
    verdict = is_join_idempotent(quantale(counting_frame))  # informational
    assert isinstance(verdict, bool)


def test_gq_laws_sampled_above_threshold():
    rng = seeded(3)
    f = random_set_frame(rng, density=0.35)
    q = quantale(f)
    report = check_gq_laws(q, seed=9, exhaustive_limit=2, samples=200)
    assert not report.exhaustive
    assert report.ok, report.summary()


def test_window_relative_flag(golden_q, counting_frame):
    assert not golden_q.window_relative
    assert quantale(counting_frame).window_relative


def test_law_checker_reports_window_boundary_honestly(counting_frame):
    """On a capped multiset window, the laws that live on the Galois
    connection alone are exact; tensor-shaped laws may break at the boundary
    and the checker's job is to report them, never to mask them."""
    report = check_gq_laws(quantale(counting_frame))
    by_law = {c.law: c for c in report.checks}
    assert by_law["negation-involutive"].ok
    assert by_law["meet-de-morgan"].ok
    assert by_law["tensor-commutative"].ok
    for check in report.checks:
        if not check.ok:
            assert check.counterexample is not None


def test_tensor_and_join_are_monotone(golden_q):
    for q in [golden_q] + [quantale(f) for f in all_one_atom_set_frames()]:
        n = len(q.lattice)
        for a in range(n):
            for b in range(n):
                if not q.leq_i(a, b):
                    continue
                for c in range(n):
                    assert q.leq_i(q.tensor_i(a, c), q.tensor_i(b, c))
                    assert q.leq_i(q.join_i(a, c), q.join_i(b, c))
                    assert q.leq_i(q.meet_i(a, c), q.meet_i(b, c))
                assert q.leq_i(q.neg_i(b), q.neg_i(a))  # negation is antitone


# -- the tensor kernel against per-pair sums ------------------------------------------


def reference_tensor_sums(frame, a_mask, b_mask):
    """Pre-closure sum set and dropped-sum count from one window lookup per
    pair of positions: union in set mode, componentwise sum in multiset mode."""
    sums = dropped = 0
    for x in PositionSet(frame, a_mask).positions():
        for y in PositionSet(frame, b_mask).positions():
            k = frame.window_index(x.union(y) if frame.mode == "set" else x.add(y))
            if k is None:
                dropped += 1
            else:
                sums |= 1 << k
    return sums, dropped


@pytest.mark.parametrize("frame", kernel_frames())
def test_tensor_sums_match_per_pair_sums(frame):
    rng = seeded(606)
    full = PositionSet.full(frame).mask
    pairs = [(0, full), (full, 1), (full, full)]
    pairs += [
        (random_position_subset(rng, frame, 0.3).mask, random_position_subset(rng, frame, 0.3).mask)
        for _ in range(20)
    ]
    for a, b in pairs:
        assert tensor_sums(frame, a, b) == reference_tensor_sums(frame, a, b)


def test_tensor_tables_match_per_pair_sums(counting_frame):
    checked = 0
    for frame in kernel_frames() + [counting_frame]:
        try:
            q = quantale(role_lattice(frame, max_roles=40))
        except LatticeSizeError:
            continue
        n = len(q.lattice)
        expected = [[None] * n for _ in range(n)]
        dropped = 0
        for a in range(n):
            for b in range(a, n):
                sums, lost = reference_tensor_sums(frame, q.lattice[a].mask, q.lattice[b].mask)
                expected[a][b] = expected[b][a] = q.lattice.index_of(closure_mask(frame, sums))
                dropped += lost
        assert q.tables()[1] == expected
        assert q.dropped_sums == dropped
        checked += 1
    assert checked >= 25
