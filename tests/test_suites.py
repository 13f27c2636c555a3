from roleforge.formulas import Atom
from roleforge.frames import Frame
from roleforge.rsr import PositionSet
from roleforge.semantics import Interpretation, interpretation
from roleforge.suites import (
    all_one_atom_set_frames, compare_suite, conservativity_suite, count_sequents,
    formula_pool, iter_all_sequents, nonmonotonic_demo_frame, one_atom_containment_frames,
    random_set_frame, sequent_suite, supraclassical_suite,
)

from conftest import kernel_frames, random_multiset_frame, seeded

def test_formula_pool_counts():
    assert len(formula_pool(("a",), 0)) == 1
    assert len(formula_pool(("a",), 1)) == 5  # a, ~a, and the three binaries
    assert len(formula_pool(("a", "b"), 1)) == 16
    assert len(formula_pool(("a", "b"), 2)) == 786


def test_formula_pool_deterministic_order():
    assert formula_pool(("a", "b"), 2) == formula_pool(("a", "b"), 2)


def test_sequent_space_counting():
    pool = formula_pool(("a",), 1)
    assert count_sequents(len(pool), 2) == (1 + 5 + 25) ** 2
    assert len(list(iter_all_sequents(pool, 1))) == 36


def test_sequent_suite_exhaustive_vs_sampled():
    pool = formula_pool(("a",), 1)
    exhaustive = sequent_suite(pool, max_side=1, candidate_limit=100)
    assert len(exhaustive) == 36
    sampled = sequent_suite(pool, max_side=2, candidate_limit=10, samples=50, seed=1)
    assert len(sampled) == 50
    assert sampled == sequent_suite(pool, max_side=2, candidate_limit=10, samples=50, seed=1)


def test_one_atom_frame_populations():
    assert len(all_one_atom_set_frames()) == 16
    containment = one_atom_containment_frames()
    assert len(containment) == 8
    assert all(f.is_containment().ok for f in containment)


def test_compare_suite_negative_control(golden_frame):
    """A deliberately corrupted content table must surface as disagreements."""
    frame = nonmonotonic_demo_frame()
    interp = Interpretation(frame)
    # poison the atom content: both roles forced to the full window
    full = PositionSet.full(frame).mask
    interp._eval_cache[(Atom("a"), "atom")] = (full, full)
    res = compare_suite(frame, depth=1, max_side=1, interp=interp)
    assert not res.ok
    assert any("|- a" in v["sequent"] for v in res.violations)


def test_compare_suite_reads_no_leaf_family(monkeypatch):
    """The suite's semantic side is the mask-clause fold, independent of
    the leaf families that classical entails and contents use."""
    def refuse(self, f, left):
        raise AssertionError("compare_suite read a leaf family")

    monkeypatch.setattr(Interpretation, "_leaf_codes", refuse)
    for frame in kernel_frames():
        if frame.mode == "set":
            res = compare_suite(frame, depth=1, max_side=1, interp=Interpretation(frame))
            assert res.ok and res.checked == (1 + 2 * frame.n + 3 * frame.n ** 2) ** 2, frame


def test_supraclassical_counts_only_valid_sequents(golden_frame):
    res = supraclassical_suite(golden_frame, depth=1, max_side=1)
    # every checked instance was classically valid by construction
    assert res.checked > 0
    assert res.ok


# -- conservativity against one entails call per position -------------------------


def conservativity_reference(frame):
    """(checked, violations) from one ``Interpretation.entails`` per window
    position, on the position's atoms repeated by multiplicity."""
    interp = Interpretation(frame)
    clauses = "classical" if frame.mode == "set" else "linear"
    names = frame.atoms.names
    checked, violations = 0, []
    for p in frame.window():
        lhs = [Atom(n) for n, c in zip(names, p.left) for _ in range(c)]
        rhs = [Atom(n) for n, c in zip(names, p.right) for _ in range(c)]
        expected = frame.bot_member(p)
        got = interp.entails(lhs, rhs, clauses)
        checked += 1
        if expected != got:
            violations.append({"position": p.render(frame.atoms), "bot": expected, "entails": got})
    return checked, violations


def equal_content_frame():
    """Incoherent exactly when the left side is nonempty: a and b look alike."""
    base = Frame(("a", "b"), "set")
    return Frame(("a", "b"), "set", explicit=[p for p in base.window() if any(p.left)])


def conservativity_frames():
    """All one-atom set frames; seeded 2-3-atom set frames, one of them with
    two atoms of equal content, whose masks the set-mode fold collapses;
    seeded 1-2-atom multiset frames at caps 1-4."""
    frames = list(all_one_atom_set_frames())
    rng = seeded(1515)
    for names in (("a", "b"), ("a", "b", "c")):
        for density in (0.2, 0.5, 0.8):
            frames.append(random_set_frame(rng, names, density=density))
    frames.append(equal_content_frame())
    for names in (("x",), ("x", "y")):
        for cap in range(1, 5):
            frames.append(random_multiset_frame(rng, names, cap))
    # Window truncation breaks conservativity at x^3 y^3 |- x^3 y^3 here.
    frames.append(random_multiset_frame(seeded(3), ("x", "y"), 3))
    return frames


def test_conservativity_suite_matches_per_position_entails():
    twin = Interpretation(equal_content_frame())
    assert twin._atom_masks("a") == twin._atom_masks("b")
    frames = conservativity_frames()
    failing = 0
    for frame in frames:
        interpretation.cache_clear()
        suite = conservativity_suite(frame)
        assert (suite.checked, suite.violations) == conservativity_reference(frame), frame
        failing += bool(suite.violations)
    interpretation.cache_clear()
    assert 0 < failing < len(frames)  # the comparison sees both outcomes
