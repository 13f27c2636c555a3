"""Acceptance suite.

One test per criterion, in order, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Tolerances are
exact discrete equality throughout; the stated wall-clock budgets are
asserted too.
"""

import time

import pytest

from roleforge.frames import Position
from roleforge.morphisms import FrameMorphism, continuity_condition3
from roleforge.oracles import continuity_condition4, rsr_naive
from roleforge.quantale import check_gq_laws
from roleforge.rsr import PositionSet, Role, closure, rsr
from roleforge.semantics import Interpretation, interpretation
from roleforge.suites import (
    all_one_atom_set_frames, cap_stability_suite, clause_agreement_suite,
    compare_suite, conservativity_suite, mixed_preservation_suite,
    nonmonotonic_demo_frame, nontransitive_demo_frame, one_atom_containment_frames,
    positions_within, random_position_subset, random_set_frame, robbins_suite,
    supraclassical_suite, supralinear_suite, twisted_preservation_suite,
)

from conftest import kernel_frames, seeded


def report(number, ok, description):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def law_suite_frames():
    """Criterion 3's frame population: all 16 one-atom set frames plus 50
    seeded random two-atom set frames."""
    rng = seeded(2025)
    return all_one_atom_set_frames() + [random_set_frame(rng) for _ in range(50)]


@pytest.fixture(scope="module")
def containment_frames():
    """Criterion 6's frame population: every one-atom containment frame plus
    20 seeded two-atom containment frames."""
    rng = seeded(66)
    return one_atom_containment_frames() + [
        random_set_frame(rng, containment=True) for _ in range(20)
    ]


def test_criterion_01_two_atom_golden_reproduction(golden_roles):
    t0 = time.monotonic()
    frame = nonmonotonic_demo_frame()
    interp = Interpretation(frame)
    q = interp.quantale
    lattice = q.lattice

    ok = len(lattice) == 6
    by_ext = {frozenset(r.positions()): name for name, ext in golden_roles.items()
              for r in lattice if frozenset(r.positions()) == frozenset(ext)}
    ok = ok and len(by_ext) == 6

    def name(role):
        return by_ext[frozenset(role.positions())]

    # single-position robustness and closure tables
    # (rows: left parts 0, a, b, ab; columns: right parts 0, a, b, ab)
    parts = [(), ("a",), ("b",), ("a", "b")]
    perp_expected = [
        ["D", "U", "L", "T"],
        ["L", "T", "L", "T"],
        ["R", "R", "T", "T"],
        ["T", "T", "T", "T"],
    ]
    # the (a|a) cell is forced to B by the robustness table itself:
    # (a |- a) has robustness T, and T's robustness is the lattice bottom
    perpperp_expected = [
        ["U", "D", "R", "B"],
        ["R", "B", "R", "B"],
        ["L", "L", "B", "B"],
        ["B", "B", "B", "B"],
    ]
    for i, left in enumerate(parts):
        for j, right in enumerate(parts):
            p = frame.position(left, right)
            ok = ok and name(rsr(frame, [p])) == perp_expected[i][j]
            ok = ok and name(closure(frame, [p])) == perpperp_expected[i][j]

    order = ["U", "B", "D", "L", "R", "T"]
    join_expected = [
        ["U", "U", "U", "T", "U", "T"],
        ["U", "B", "D", "L", "R", "T"],
        ["U", "D", "D", "L", "U", "T"],
        ["T", "L", "L", "L", "T", "T"],
        ["U", "R", "U", "T", "R", "T"],
        ["T", "T", "T", "T", "T", "T"],
    ]
    tensor_expected = [
        ["U", "B", "D", "L", "R", "T"],
        ["B", "B", "B", "B", "B", "B"],
        ["D", "B", "D", "L", "B", "L"],
        ["L", "B", "L", "L", "B", "L"],
        ["R", "B", "B", "B", "R", "R"],
        ["T", "B", "L", "L", "R", "T"],
    ]
    mask_of = {name(r): r.mask for r in lattice}

    def name_of_mask(mask):
        return name(Role(frame, mask))

    for i, x in enumerate(order):
        for j, y in enumerate(order):
            ok = ok and name_of_mask(q.join_mask(mask_of[x], mask_of[y])) == join_expected[i][j]
            ok = ok and name_of_mask(q.tensor_mask(mask_of[x], mask_of[y])) == tensor_expected[i][j]
    ok = ok and name_of_mask(q.unit_mask) == "U" and name_of_mask(q.dualizer_mask) == "D"

    ca, cb = interp.atom("a"), interp.atom("b")
    ok = ok and (name(ca.premisory), name(ca.conclusory)) == ("R", "D")
    ok = ok and (name(cb.premisory), name(cb.conclusory)) == ("L", "R")

    ok = ok and interp.entails([], [ca])
    ok = ok and interp.entails([ca], [ca, cb])
    ok = ok and interp.entails(["a", "b"], ["a /\\ b"])
    ok = ok and not interp.entails([cb], [ca])

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"two-atom golden frame: 6 roles, all four tables, atom contents, "
                  f"entailment verdicts ({elapsed:.2f}s)")


def test_criterion_02_counting_golden_reproduction():
    t0 = time.monotonic()
    frame = nontransitive_demo_frame(8)
    interp = Interpretation(frame)

    def spots(m, n, wide=None):
        f = wide if wide is not None else frame
        out = closure(f, [Position((m,), (n,))])
        return {(p.left[0], p.right[0]) for p in out.positions() if p in frame.window()}

    ok = spots(1, 1) == {(0, 0), (1, 1)}
    ok = ok and spots(1, 2) == {(0, 1), (1, 2)}
    ok = ok and spots(0, 2) == {(0, 2)}

    def pair(c):
        return (
            {(p.left[0], p.right[0]) for p in c.premisory.positions()},
            {(p.left[0], p.right[0]) for p in c.conclusory.positions()},
        )

    ok = ok and pair(interp.atom("x")) == ({(1, 0)}, {(0, 1)})
    ok = ok and pair(interp.eval("~x | x", "linear")) == (set(), {(0, 0), (1, 1)})

    E = lambda l, r: interp.entails(l, r, "linear")
    ok = ok and E([], ["x"])
    ok = ok and E(["x"], ["x", "x"])
    ok = ok and not E([], ["x", "x"])
    ok = ok and not E(["x", "x"], ["x"])
    ok = ok and E(["x", "~x | x"], ["x"])
    # the non-transitive triangle
    ok = ok and (E([], ["x"]) and E(["x"], ["x", "x"]) and not E([], ["x", "x"]))

    # cap stability: recompute at cap 10, compare on the cap-8 window
    wide = frame.with_cap(10)
    ok = ok and spots(1, 1, wide) == spots(1, 1)
    ok = ok and spots(1, 2, wide) == spots(1, 2)
    ok = ok and spots(0, 2, wide) == spots(0, 2)
    wide_interp = Interpretation(wide)
    for formula, clause in (("x", "linear"), ("~x | x", "linear")):
        small = interp.eval(formula, clause)
        big = wide_interp.eval(formula, clause)
        ok = ok and positions_within(frame, big.premisory.positions()) == frozenset(
            small.premisory.positions()
        )
        ok = ok and positions_within(frame, big.conclusory.positions()) == frozenset(
            small.conclusory.positions()
        )
    stability = cap_stability_suite(frame, delta=2)
    ok = ok and stability.ok

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(2, ok, f"counting frame at cap 8: closures, contents, verdicts, "
                  f"cap-10 stability ({elapsed:.2f}s)")


def test_criterion_03_girard_quantale_laws(law_suite_frames):
    t0 = time.monotonic()
    violations = []
    for frame in law_suite_frames:
        rep = check_gq_laws(interpretation(frame).quantale, seed=0)
        violations += [(frame, c) for c in rep.violations()]
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 30.0
    report(3, ok, f"quantale laws on {len(law_suite_frames)} frames, "
                  f"{len(violations)} violations ({elapsed:.1f}s)")


def test_criterion_04_rsr_oracle_equivalence():
    disagreements = 0
    checked = 0
    for frame in all_one_atom_set_frames():
        for bits in range(16):
            ps = PositionSet(frame, bits)
            checked += 1
            if rsr(frame, ps).mask != rsr_naive(frame, ps).mask:
                disagreements += 1
    rng = seeded(4242)
    for _ in range(1000):
        frame = random_set_frame(rng)
        ps = random_position_subset(rng, frame)
        checked += 1
        if rsr(frame, ps).mask != rsr_naive(frame, ps).mask:
            disagreements += 1
    report(4, disagreements == 0,
           f"rsr vs definition-chasing oracle on {checked} instances, "
           f"{disagreements} disagreements")


def test_criterion_05_clause_agreement(law_suite_frames):
    bad = 0
    checked = 0
    for frame in law_suite_frames:
        res = clause_agreement_suite(frame)
        checked += res.checked
        bad += len(res.violations)
    report(5, bad == 0, f"twisted vs adjunction/symjunction clauses on "
                        f"{checked} role-pair cases, {bad} disagreements")


def test_criterion_06_nmms_matches_semantics(containment_frames):
    """The containment frames, then the set frames of ``kernel_frames``:
    every one-atom frame and seeded 2-3 atom frames under every generator
    subset, where the contractive unfolding agrees with the mask clauses
    too."""
    t0 = time.monotonic()
    disagreements = []
    checked = 0
    frames = containment_frames + [f for f in kernel_frames() if f.mode == "set"]
    for frame in frames:
        res = compare_suite(frame, depth=2, seed=11, samples=400)
        checked += res.checked
        disagreements += res.violations
    # the demo frame, exhaustively at depth 1
    golden = nonmonotonic_demo_frame()
    res = compare_suite(golden, depth=1)
    checked += res.checked
    disagreements += res.violations
    elapsed = time.monotonic() - t0
    ok = not disagreements and checked >= 10 ** 4 and elapsed < 120.0
    report(6, ok, f"contractive unfolding vs classical consequence on {checked} "
                  f"sequents across {len(frames) + 1} set frames, "
                  f"{len(disagreements)} disagreements ({elapsed:.1f}s)")


def test_criterion_07_conservativity(law_suite_frames):
    frames = list(law_suite_frames) + [nontransitive_demo_frame(6)]
    bad = 0
    checked = 0
    for frame in frames:
        res = conservativity_suite(frame)
        checked += res.checked
        bad += len(res.violations)
    report(7, bad == 0, f"atom interpretation conservativity on {checked} window "
                        f"sequents across {len(frames)} frames, {bad} violations")


def test_criterion_08_supraclassicality(containment_frames):
    valid_checked = 0
    robbins_checked = 0
    bad = 0
    for frame in containment_frames:
        res = supraclassical_suite(frame, depth=2, seed=8, samples=400)
        valid_checked += res.checked
        bad += len(res.violations)
        rb = robbins_suite(frame, depth=2)
        robbins_checked += rb.checked
        bad += len(rb.violations)
    report(8, bad == 0, f"classically valid sequents entailed ({valid_checked}) and "
                        f"Robbins mutual entailment ({robbins_checked} content pairs), "
                        f"{bad} violations")


def test_criterion_09_supralinearity(golden_frame):
    frames = [golden_frame, nontransitive_demo_frame(6)]
    rng = seeded(99)
    frames += [random_set_frame(rng, reflexive=True) for _ in range(10)]
    provable_checked = 0
    bad = 0
    for frame in frames:
        assert frame.is_reflexive().ok
        exhaustive_slice = supralinear_suite(frame, depth=1, max_side=1, seed=5, samples=500)
        sampled = supralinear_suite(frame, depth=2, max_side=2, seed=5, samples=400)
        provable_checked += exhaustive_slice.checked + sampled.checked
        bad += len(exhaustive_slice.violations) + len(sampled.violations)
    report(9, bad == 0, f"MALL-provable sequents entailed under linear clauses on "
                        f"{len(frames)} reflexive frames ({provable_checked} provable "
                        f"instances), {bad} violations")


def test_criterion_10_preservation_lemmas(golden_frame):
    rng = seeded(10)
    twisted_frames = [golden_frame] + [random_set_frame(rng, reflexive=True) for _ in range(8)]
    tw = twisted_preservation_suite(twisted_frames, pairs=1000, seed=1)
    mixed_frames = [golden_frame] + [random_set_frame(rng, containment=True) for _ in range(10)]
    mx = mixed_preservation_suite(mixed_frames, pairs=1000, seed=2)
    ok = tw.ok and mx.ok
    report(10, ok, f"twisted ops preserve reflexivity ({tw.checked} checks), mixed ops "
                   f"preserve idempotence+containment ({mx.checked} checks), "
                   f"{len(tw.violations) + len(mx.violations)} violations")


def test_criterion_11_morphism_checker_equivalence():
    mismatches = 0
    checked = 0
    one_atom = all_one_atom_set_frames()
    for src in one_atom:
        for tgt in one_atom:
            m = FrameMorphism(src, tgt, {"a": "a"})
            checked += 1
            if continuity_condition3(m).ok != continuity_condition4(m).ok:
                mismatches += 1
    rng = seeded(11)
    names = ("a", "b")
    for _ in range(200):
        m = FrameMorphism(
            random_set_frame(rng), random_set_frame(rng),
            {n: rng.choice(names) for n in names},
        )
        checked += 1
        if continuity_condition3(m).ok != continuity_condition4(m).ok:
            mismatches += 1
    report(11, mismatches == 0,
           f"preimage-closure continuity vs pairwise-transport brute force on "
           f"{checked} morphisms, {mismatches} disagreements")
