import pytest

from roleforge.frames import Frame, parse_frame
from roleforge.quantale import IdempotenceError, QuantaleOps, check_gq_laws, is_join_idempotent
from roleforge.rsr import (
    LatticeSizeError, PositionSet, Role, closure_mask, is_role, role_lattice, rsr_mask,
    tensor_closure,
)
from roleforge.suites import all_one_atom_set_frames, random_position_subset, random_set_frame

from conftest import FRAMES_DIR, idempotent_masks, kernel_frames, role_name, seeded

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
    return QuantaleOps(golden_frame)


def _mask_by_name(q, golden_roles):
    return {role_name(golden_roles, r): r.mask for r in q.lattice}


def _name(q, golden_roles, mask):
    return role_name(golden_roles, Role(q.frame, mask))


def _masks(q):
    return [r.mask for r in q.lattice]


def _full(q):
    return q.lattice[q.lattice.full_index].mask


def _bottom(q):
    return q.lattice[q.lattice.bottom_index].mask


def test_unit_dualizer_bottom(golden_q, golden_roles):
    assert _name(golden_q, golden_roles, golden_q.unit_mask) == "U"
    assert _name(golden_q, golden_roles, golden_q.dualizer_mask) == "D"
    assert _name(golden_q, golden_roles, _bottom(golden_q)) == "B"


def test_golden_operation_tables(golden_q, golden_roles):
    q = golden_q
    m = _mask_by_name(q, golden_roles)
    for i, x in enumerate(ORDER):
        for j, y in enumerate(ORDER):
            assert _name(q, golden_roles, q.join_mask(m[x], m[y])) == JOIN_TABLE[i][j]
            assert _name(q, golden_roles, q.tensor_mask(m[x], m[y])) == TENSOR_TABLE[i][j]


def test_tensor_golden_examples(golden_q, golden_roles):
    q = golden_q
    m = _mask_by_name(q, golden_roles)
    assert q.tensor_mask(m["R"], m["L"]) == m["B"]
    assert all(q.tensor_mask(q.unit_mask, a) == a for a in _masks(q))
    assert q.tensor_mask(m["D"], m["D"]) == m["D"]


def test_join_golden_examples(golden_q, golden_roles):
    q = golden_q
    m = _mask_by_name(q, golden_roles)
    assert q.join_mask(m["D"], m["R"]) == m["U"]
    assert all(q.join_mask(a, a) == a for a in _masks(q))
    assert all(q.join_mask(m["B"], a) == a for a in _masks(q))


def test_meet_examples(golden_q, golden_roles):
    q = golden_q
    m = _mask_by_name(q, golden_roles)
    # bit-vector intersection, cross-checked against the De Morgan spelling
    assert q.meet_mask(m["L"], m["R"]) == m["B"]
    assert q.meet_mask(m["L"], m["R"]) == q.neg_mask(
        q.join_mask(q.neg_mask(m["L"]), q.neg_mask(m["R"]))
    )
    full = _full(q)
    assert all(q.meet_mask(a, full) == a for a in _masks(q))
    assert all(q.meet_mask(a, a) == a for a in _masks(q))


def test_neg_examples(golden_q, golden_roles):
    q = golden_q
    m = _mask_by_name(q, golden_roles)
    assert q.neg_mask(m["U"]) == m["D"]
    assert q.neg_mask(m["D"]) == m["U"]
    assert all(q.neg_mask(q.neg_mask(a)) == a for a in _masks(q))
    assert q.neg_mask(_full(q)) == _bottom(q)


def test_parr_examples(golden_q):
    q = golden_q
    masks = _masks(q)
    d = q.dualizer_mask
    assert all(q.parr_mask(a, d) == a for a in masks)
    assert all(q.parr_mask(a, b) == q.parr_mask(b, a) for a in masks for b in masks)


def test_parr_counting_empty(counting_frame):
    q = QuantaleOps(counting_frame)
    one_zero = PositionSet.from_positions(counting_frame, [counting_frame.position(("x",), ())])
    zero_one = PositionSet.from_positions(counting_frame, [counting_frame.position((), ("x",))])
    assert is_role(counting_frame, one_zero) and is_role(counting_frame, zero_one)
    assert q.parr_mask(zero_one.mask, one_zero.mask) == 0


def test_parr_unit_on_one_atom_frames():
    for f in all_one_atom_set_frames():
        q = QuantaleOps(f)
        d = q.dualizer_mask
        assert all(q.parr_mask(a, d) == a for a in _masks(q))


def test_tilde_join(golden_q, golden_roles):
    q = golden_q
    m = _mask_by_name(q, golden_roles)
    # D tilde-join R unfolds to D v R v (D x R)
    expected = q.join_mask(q.join_mask(m["D"], m["R"]), q.tensor_mask(m["D"], m["R"]))
    assert q.tilde_join_mask(m["D"], m["R"]) == expected == m["U"]
    for a in idempotent_masks(q):
        assert q.tilde_join_mask(a, a) == a


def test_tilde_join_is_least_upper_bound_among_idempotents(golden_q):
    rng = seeded(17)
    lattices = [golden_q]
    lattices += [QuantaleOps(f) for f in all_one_atom_set_frames()]
    lattices += [QuantaleOps(random_set_frame(rng)) for _ in range(5)]
    for q in lattices:
        if len(q.lattice) > 40:
            continue
        idem = idempotent_masks(q)
        for x in idem:
            for y in idem:
                z = q.tilde_join_mask(x, y)
                assert z in idem
                assert q.leq_mask(x, z) and q.leq_mask(y, z)
                for c in idem:
                    if q.leq_mask(x, c) and q.leq_mask(y, c):
                        assert q.leq_mask(z, c)


def test_tilde_join_rejects_non_idempotent(counting_frame):
    q = QuantaleOps(counting_frame)
    one_zero = PositionSet.from_positions(counting_frame, [counting_frame.position(("x",), ())])
    assert is_role(counting_frame, one_zero)
    mask = one_zero.mask
    assert q.tensor_mask(mask, mask) != mask
    with pytest.raises(IdempotenceError):
        q.tilde_join_mask(mask, mask)


def test_idempotent_subquantale(golden_q):
    """Tensor and tilde-join keep idempotent roles idempotent."""
    q = golden_q
    idem = idempotent_masks(q)
    assert set(idem) == set(_masks(q))  # all six are idempotent here
    for x in idem:
        for y in idem:
            assert q.tensor_mask(x, y) in idem
            assert q.tilde_join_mask(x, y) in idem


def test_gq_laws_golden_and_one_atom(golden_q):
    assert check_gq_laws(golden_q).ok
    for f in all_one_atom_set_frames():
        report = check_gq_laws(QuantaleOps(f))
        assert report.ok, report.summary()


def test_gq_laws_corrupted_table_reports_violation(golden_frame):
    q = QuantaleOps(golden_frame)
    clean = check_gq_laws(q)
    assert clean.ok
    # force a wrong cell into the memo table: unit x top := bottom
    key = tuple(sorted((q.unit_mask, _full(q))))
    q._tensor_masks[key] = _bottom(q)
    corrupted = check_gq_laws(q)
    assert not corrupted.ok
    assert any(not c.ok for c in corrupted.checks)


def test_dualizing_residual_property(golden_q):
    """neg(A) is the residual into the dualizer: A x B <= dualizer iff B <= neg(A)."""
    for f_q in [golden_q] + [QuantaleOps(f) for f in all_one_atom_set_frames()]:
        masks = _masks(f_q)
        if len(masks) > 64:
            continue
        for a in masks:
            na = f_q.neg_mask(a)
            for b in masks:
                lhs = f_q.leq_mask(f_q.tensor_mask(a, b), f_q.dualizer_mask)
                assert lhs == f_q.leq_mask(b, na)


def test_bottom_is_absorbing(golden_q):
    assert golden_q.bottom_is_absorbing()


def test_is_join_idempotent(golden_q, counting_frame):
    assert is_join_idempotent(golden_q)
    base = Frame(("a",), "set")
    all_in = Frame(("a",), "set", explicit=list(base.window()))
    assert is_join_idempotent(QuantaleOps(all_in))
    verdict = is_join_idempotent(QuantaleOps(counting_frame))  # informational
    assert isinstance(verdict, bool)


def reference_is_join_idempotent(q):
    """The loop over every role, idempotent or not, that the skip replaced."""
    lat = q.lattice
    idem = [i for i, r in enumerate(lat) if q.tensor_mask(r.mask, r.mask) == r.mask]
    for r in range(len(lat)):
        below = 0
        target = lat[r].mask
        for e in idem:
            if lat[e].mask | target == target:
                below |= lat[e].mask
        joined = lat.index_of(rsr_mask(q.frame, rsr_mask(q.frame, below)))
        if joined != r:
            return False
    return True


def test_is_join_idempotent_matches_reference_loop():
    bundled = [parse_frame((FRAMES_DIR / name).read_text())
               for name in ("nonmonotonic.frame", "nontransitive.frame")]
    verdicts = []
    for frame in kernel_frames() + bundled:
        try:
            role_lattice(frame, max_roles=1100)
        except LatticeSizeError:
            continue
        q = QuantaleOps(frame)
        verdict = is_join_idempotent(q)
        assert verdict == reference_is_join_idempotent(q), repr(frame)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_gq_laws_sampled_above_threshold():
    rng = seeded(3)
    f = random_set_frame(rng, density=0.35)
    q = QuantaleOps(f)
    report = check_gq_laws(q, seed=9, exhaustive_limit=2, samples=200)
    assert not report.exhaustive
    assert report.ok, report.summary()


def test_window_relative_flag(golden_q, counting_frame):
    assert not golden_q.window_relative
    assert QuantaleOps(counting_frame).window_relative


def test_law_checker_reports_window_boundary_honestly(counting_frame):
    """On a capped multiset window, the laws that live on the Galois
    connection alone are exact; tensor-shaped laws may break at the boundary
    and the checker's job is to report them, never to mask them."""
    report = check_gq_laws(QuantaleOps(counting_frame))
    by_law = {c.law: c for c in report.checks}
    assert by_law["negation-involutive"].ok
    assert by_law["meet-de-morgan"].ok
    assert by_law["tensor-commutative"].ok
    for check in report.checks:
        if not check.ok:
            assert check.counterexample is not None


def test_tensor_and_join_are_monotone(golden_q):
    for q in [golden_q] + [QuantaleOps(f) for f in all_one_atom_set_frames()]:
        masks = _masks(q)
        for a in masks:
            for b in masks:
                if not q.leq_mask(a, b):
                    continue
                for c in masks:
                    assert q.leq_mask(q.tensor_mask(a, c), q.tensor_mask(b, c))
                    assert q.leq_mask(q.join_mask(a, c), q.join_mask(b, c))
                    assert q.leq_mask(q.meet_mask(a, c), q.meet_mask(b, c))
                assert q.leq_mask(q.neg_mask(b), q.neg_mask(a))  # negation is antitone


# -- the tensor kernel against per-pair sums ------------------------------------------


def reference_tensor_sums(frame, a_mask, b_mask):
    """Pre-closure sum set from one window lookup per pair of positions:
    union in set mode, componentwise sum in multiset mode.  Sums that leave
    the window are dropped."""
    sums = 0
    for x in PositionSet(frame, a_mask).positions():
        for y in PositionSet(frame, b_mask).positions():
            k = frame.window_index(x.union(y) if frame.mode == "set" else x.add(y))
            if k is not None:
                sums |= 1 << k
    return sums


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
        sums = reference_tensor_sums(frame, a, b)
        assert tensor_closure(frame, a, b) == closure_mask(frame, sums)


def test_tensor_tables_match_per_pair_sums(counting_frame):
    checked = 0
    for frame in kernel_frames() + [counting_frame]:
        try:
            role_lattice(frame, max_roles=40)
        except LatticeSizeError:
            continue
        q = QuantaleOps(frame)
        n = len(q.lattice)
        expected = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                sums = reference_tensor_sums(frame, q.lattice[a].mask, q.lattice[b].mask)
                expected[a][b] = expected[b][a] = q.lattice.index_of(closure_mask(frame, sums))
        assert q.tables()[1] == expected
        checked += 1
    assert checked >= 25
