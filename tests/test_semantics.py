import gc
import itertools
import random
import weakref

import pytest

from roleforge.formulas import Bin, Neg, parse_formula, parse_sequent
from roleforge.frames import Frame, FrameError, Position
from roleforge.quantale import quantale
from roleforge.rsr import PositionSet, Role, is_role
from roleforge.semantics import (
    ClauseError, Content, Interpretation, connective_clause, entails, eval_formula,
    find_explicit_connective, interpret_atom, interpretation, symjunction_clause,
)
from roleforge.suites import (
    LINEAR_BIN_OPS, all_one_atom_set_frames, clause_agreement_suite, conservativity_suite,
    formula_pool, nontransitive_demo_frame, random_set_frame, robbins_suite,
)

from conftest import idempotent_masks, role_name, seeded


# -- atom interpretation ---------------------------------------------------------


def test_interpret_atom_golden(golden_frame, golden_roles):
    ca = interpret_atom(golden_frame, "a")
    cb = interpret_atom(golden_frame, "b")
    assert role_name(golden_roles, ca.premisory) == "R"
    assert role_name(golden_roles, ca.conclusory) == "D"
    assert role_name(golden_roles, cb.premisory) == "L"
    assert role_name(golden_roles, cb.conclusory) == "R"


def test_interpret_atom_counting(counting_frame):
    c = interpret_atom(counting_frame, "x")
    assert [p.left + p.right for p in c.premisory.positions()] == [(1, 0)]
    assert [p.left + p.right for p in c.conclusory.positions()] == [(0, 1)]


def test_interpret_atom_unknown(golden_frame):
    with pytest.raises(FrameError):
        interpret_atom(golden_frame, "zzz")


# -- formula evaluation ------------------------------------------------------------


def test_eval_golden_conjunction(golden_frame, golden_roles):
    c = eval_formula(golden_frame, "a /\\ b")
    assert role_name(golden_roles, c.conclusory) == "U"
    assert role_name(golden_roles, c.premisory) == "B"  # R tensor L


def test_eval_double_negation(golden_frame):
    interp = interpretation(golden_frame)
    for text in ("a", "a /\\ b", "a -> b", "~a \\/ (b /\\ a)"):
        f = parse_formula(text)
        assert interp.eval(Neg(Neg(f))) == interp.eval(f)


def test_eval_counting_linear(counting_frame):
    c = eval_formula(counting_frame, "~x | x", "linear")
    assert len(c.premisory) == 0
    assert {p.left + p.right for p in c.conclusory.positions()} == {(0, 0), (1, 1)}


def test_eval_rejects_mixed_and_misclaused(golden_frame, counting_frame):
    with pytest.raises(ClauseError):
        eval_formula(golden_frame, "a /\\ (b * a)")
    with pytest.raises(ClauseError):
        eval_formula(golden_frame, "a * b", "classical")
    with pytest.raises(ClauseError):
        eval_formula(counting_frame, "x /\\ x", "classical")  # classical needs set mode
    with pytest.raises(ClauseError):
        eval_formula(golden_frame, "a", "fuzzy")


@pytest.mark.parametrize("sequent, clauses, message", [
    ("x |- x", "classical", "classical clauses require a set-mode frame"),
    ("x |- x /\\ x", "linear", "not part of the linear clause set"),
])
def test_clause_errors_come_before_the_kernel(sequent, clauses, message):
    """Every entry's fragment is checked before any entry is evaluated, and
    the quantale is built on first use, so a clause error builds no blockers."""
    frame = Frame(("x",), "multiset", cap=11, explicit=[Position((13,), (2,))],
                  generators=("diagonal",))
    with pytest.raises(ClauseError, match=message):
        entails(frame, *parse_sequent(sequent), clauses)
    assert frame._rsr_cache is None
    assert interpretation(frame).frame._rsr_cache is None


def test_and_clause_flags_non_idempotent_roles(counting_frame):
    interp = Interpretation(counting_frame)
    q = interp.quantale
    one_zero = PositionSet.from_positions(counting_frame, [counting_frame.position(("x",), ())])
    assert is_role(counting_frame, one_zero)
    mask = one_zero.mask
    assert q.tensor_mask(mask, mask) != mask
    with pytest.raises(ClauseError):
        interp._and_clause((mask, mask), (mask, mask))
    idempotent = idempotent_masks(q)[0]
    with pytest.raises(ClauseError):  # only the right conclusory role fails
        interp._and_clause((idempotent, idempotent), (mask, mask))


def test_de_morgan_definitions_exact(golden_frame, counting_frame):
    """parr and with are the negation duals of tensor and plus, exactly."""
    interp = interpretation(counting_frame)
    pool = formula_pool(("x",), 1, LINEAR_BIN_OPS)
    for f, g in itertools.islice(itertools.product(pool, pool), 200):
        parr = interp.eval(Bin("parr", f, g), "linear")
        via_neg = interp.eval(Neg(Bin("tensor", Neg(f), Neg(g))), "linear")
        assert parr == via_neg
        with_ = interp.eval(Bin("with", f, g), "linear")
        assert with_ == interp.eval(Neg(Bin("plus", Neg(f), Neg(g))), "linear")


def test_eval_cache_reuses_contents(golden_frame):
    interp = Interpretation(golden_frame)
    f = parse_formula("a /\\ (b \\/ ~a)")
    first = interp.eval(f)
    assert interp.eval(f) == first
    assert (f, "classical") in interp._eval_cache


def test_interpretation_cache_keeps_only_the_latest_frame():
    """A dropped frame's interpretation, and with it its kernel, is freed."""
    interpretation.cache_clear()

    def query(cap):
        frame = nontransitive_demo_frame(cap)
        assert entails(frame, ["x"], ["x"], "linear")
        return weakref.ref(frame)

    refs = [query(cap) for cap in (3, 4, 5)]
    gc.collect()
    assert [ref() is None for ref in refs] == [True, True, False]
    interpretation.cache_clear()


# -- semantic consequence -----------------------------------------------------------


def test_entails_golden_verdicts(golden_frame):
    interp = interpretation(golden_frame)
    assert interp.entails([], ["a"])
    assert interp.entails(["a"], ["a", "b"])
    assert interp.entails(["a", "b"], ["a /\\ b"])
    assert not interp.entails(["b"], ["a"])
    assert not interp.entails([], [])  # unit not below the dualizer here


def test_entails_counting_verdicts(counting_frame):
    interp = interpretation(counting_frame)
    E = lambda l, r: interp.entails(l, r, "linear")
    assert E([], ["x"])
    assert E(["x"], ["x", "x"])
    assert not E([], ["x", "x"])
    assert not E(["x", "x"], ["x"])
    assert E(["x", "~x | x"], ["x"])  # linear modus ponens
    # transitivity failure: |= x and x |= x,x yet not |= x,x
    assert E([], ["x"]) and E(["x"], ["x", "x"]) and not E([], ["x", "x"])


def test_entails_set_mode_collapses_duplicates(golden_frame):
    interp = interpretation(golden_frame)
    assert interp.entails(["a", "a"], ["b", "b"]) == interp.entails(["a"], ["b"])
    # explicit a |- and |- a: the role {a |-, |- a} is not tensor-idempotent,
    # so reading [c, c] as a multiset would tensor it with itself
    frame = all_one_atom_set_frames()[6]
    r = Role.from_positions(frame, [frame.position(["a"], []), frame.position([], ["a"])])
    interp = interpretation(frame)
    assert is_role(frame, r)
    assert interp.quantale.tensor_mask(r.mask, r.mask) != r.mask
    c = Content(r, r)
    assert interp.entails([c, c], []) == interp.entails([c], []) is True


def test_entails_multiset_mode_counts_multiplicity(counting_frame):
    interp = interpretation(counting_frame)
    assert interp.entails(["x"], ["x"], "linear")
    assert not interp.entails(["x", "x"], ["x"], "linear")


def test_entails_accepts_contents_and_strings(golden_frame):
    interp = interpretation(golden_frame)
    ca = interp.atom("a")
    assert interp.entails([ca], [ca, interp.atom("b")])
    assert interp.entails_sequent("a |- a, b")
    assert not interp.entails_sequent("b |- a")


# -- content structure ----------------------------------------------------------------


def test_reflexive_content(golden_frame):
    interp = interpretation(golden_frame)
    assert interp.is_reflexive_content(interp.atom("a"))
    q = interp.quantale
    top = q.lattice[q.lattice.full_index]
    assert not interp.is_reflexive_content(Content(top, top))
    c = interp.atom("b")
    assert interp.is_reflexive_content(Content(c.conclusory, c.premisory)) == \
        interp.is_reflexive_content(c)


def test_cut_condition(golden_frame):
    interp = interpretation(golden_frame)
    q = interp.quantale
    for r in q.lattice:
        assert interp.satisfies_cut_condition(Content(Role(golden_frame, q.neg_mask(r.mask)), r))
    assert not interp.satisfies_cut_condition(interp.atom("a"))


def test_reflexive_plus_cut_pins_the_pair(golden_frame):
    interp = interpretation(golden_frame)
    q = interp.quantale
    for p in q.lattice:
        for m in q.lattice:
            c = Content(p, m)
            both = interp.is_reflexive_content(c) and interp.satisfies_cut_condition(c)
            assert both == (p.mask == q.neg_mask(m.mask))


# -- clause families ---------------------------------------------------------------------


def test_clause_agreement_golden_and_random(golden_frame):
    assert clause_agreement_suite(golden_frame).ok
    rng = seeded(21)
    for _ in range(10):
        res = clause_agreement_suite(random_set_frame(rng))
        assert res.ok, res.summary()


def test_clause_agreement_window_relative(counting_frame):
    """The robustness operation is an exact Galois connection even on a
    capped window, so the two clause spellings agree there too."""
    res = clause_agreement_suite(counting_frame)
    assert res.ok, res.summary()


def test_and_clause_agreement_on_idempotents(golden_frame):
    q = quantale(golden_frame)
    for x in idempotent_masks(q):
        for y in idempotent_masks(q):
            a, b = (x, x), (y, y)
            assert connective_clause(q, "and", a, b) == symjunction_clause(q, "and", a, b)


# -- rule schemas of the linear clauses ----------------------------------------------------


def _schema_violations(frame, samples, seed, collision_free):
    interp = interpretation(frame)
    clauses = "linear"
    rng = random.Random(seed)
    pool = formula_pool(frame.atoms.names, 1, LINEAR_BIN_OPS)
    E = lambda l, r: interp.entails(l, r, clauses)
    violations = []

    def contents_distinct(*formulas):
        seen = [interp._eval_masks(f, clauses) for f in formulas]
        return len(set(seen)) == len(seen)

    for _ in range(samples):
        A, B = rng.choice(pool), rng.choice(pool)
        ctx = lambda: tuple(rng.choice(pool) for _ in range(rng.randint(0, 1)))
        G, D, T, O = ctx(), ctx(), ctx(), ctx()
        if collision_free and not contents_distinct(
            A, B, Neg(A), Bin("tensor", A, B), Bin("plus", A, B), *G, *D, *T, *O
        ):
            continue
        if E(G + (Neg(A),), D) != E(G, (A,) + D):
            violations.append(("neg", A, G, D))
        if E(G + (A, B), D) != E(G + (Bin("tensor", A, B),), D):
            violations.append(("tensorL", A, B, G, D))
        if E(G, (A,) + D) and E(T, (B,) + O):
            if not E(G + T, (Bin("tensor", A, B),) + D + O):
                violations.append(("tensorR", A, B))
        if E(G, (A,) + D) and not E(G, (Bin("plus", A, B),) + D):
            violations.append(("plusR", A, B))
        if (E(G + (A,), D) and E(G + (B,), D)) != E(G + (Bin("plus", A, B),), D):
            violations.append(("plusL", A, B))
    return violations


def test_linear_rule_schemas_counting(counting_frame):
    assert _schema_violations(counting_frame, 600, seed=5, collision_free=False) == []
    assert _schema_violations(nontransitive_demo_frame(4), 400, seed=6, collision_free=False) == []


def test_linear_rule_schemas_set_frames():
    rng = seeded(31)
    for _ in range(6):
        frame = random_set_frame(rng)
        bad = _schema_violations(frame, 250, seed=rng.randrange(10 ** 6), collision_free=True)
        assert bad == [], bad[0]


def test_linear_eval_preserves_reflexivity_on_reflexive_frames():
    rng = seeded(41)
    for _ in range(6):
        frame = random_set_frame(rng, reflexive=True)
        interp = interpretation(frame)
        pool = formula_pool(frame.atoms.names, 2, LINEAR_BIN_OPS)
        for _ in range(120):
            f = pool[rng.randrange(len(pool))]
            assert interp.is_reflexive_content(interp.eval(f, "linear")), f


# -- conservativity and supraclassicality -----------------------------------------------


def test_conservativity_suites(golden_frame, counting_frame):
    assert conservativity_suite(golden_frame).ok
    assert conservativity_suite(counting_frame).ok
    rng = seeded(51)
    for _ in range(8):
        res = conservativity_suite(random_set_frame(rng))
        assert res.ok, res.summary()


def test_robbins_suite_golden(golden_frame):
    res = robbins_suite(golden_frame)
    assert res.ok and res.checked > 0


# -- expressibility probes -----------------------------------------------------------------


def test_no_explicit_negation_in_golden(golden_frame):
    assert find_explicit_connective(golden_frame, "negation") is None


def test_explicit_conj_diagonal_pairs(golden_frame):
    table = find_explicit_connective(golden_frame, "conj")
    assert table[("a", "a")] == "a"
    assert table[("b", "b")] == "b"


def test_explicit_connectives_one_atom_exhaustive():
    """Brute-force comparison on all one-atom frames: the lone candidate map
    is the identity, so existence reduces to two blocker equalities."""
    from roleforge.suites import all_one_atom_set_frames
    from roleforge.rsr import rsr

    for f in all_one_atom_set_frames():
        left = frozenset(rsr(f, [f.position(("a",), ())]).positions())
        right = frozenset(rsr(f, [f.position((), ("a",))]).positions())
        expected = {"a": "a"} if left == right else None
        assert find_explicit_connective(f, "negation") == expected
        conj = find_explicit_connective(f, "conj")
        assert conj[("a", "a")] == "a"
        disj = find_explicit_connective(f, "disj")
        assert disj[("a", "a")] == "a"


def test_explicit_connectives_multiset_rejected(counting_frame):
    with pytest.raises(FrameError):
        find_explicit_connective(counting_frame, "negation")


def test_explicit_connective_unknown_kind(golden_frame):
    with pytest.raises(ValueError):
        find_explicit_connective(golden_frame, "xor")
