from roleforge.formulas import Atom
from roleforge.rsr import PositionSet
from roleforge.semantics import Interpretation
from roleforge.suites import (
    all_one_atom_set_frames, compare_suite, count_sequents, formula_pool,
    iter_all_sequents, nonmonotonic_demo_frame, one_atom_containment_frames,
    sequent_suite, supraclassical_suite,
)

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


def test_supraclassical_counts_only_valid_sequents(golden_frame):
    res = supraclassical_suite(golden_frame, depth=1, max_side=1)
    # every checked instance was classically valid by construction
    assert res.checked > 0
    assert res.ok
