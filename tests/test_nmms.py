import json

import pytest

from roleforge.frames import Frame, FrameError, ModeMismatchError, PositionRangeError
from roleforge.nmms import (
    FormulaSequent, NmmsFragmentError, _atomic_verdict, _desugar, _reduce, _targets,
    decide, reduction_trace,
)
from roleforge.suites import formula_pool, random_set_frame

from conftest import kernel_frames, seeded


def seq(text, variant="contractive"):
    return FormulaSequent.parse(text, variant)


def test_decide_golden_conjunction(golden_frame):
    assert decide(golden_frame, seq("a, b |- a /\\ b"))


def test_decide_golden_negation_shuffle(golden_frame):
    # reduces to a |- a, b, which the frame endorses
    assert decide(golden_frame, seq("|- a, b, ~a"))
    assert not decide(golden_frame, seq("|- b, ~a"))  # a |- b fails


def test_decide_atomic_matches_bot(golden_frame, counting_frame):
    for p in golden_frame.window():
        lhs = ", ".join(n for n, c in zip(("a", "b"), p.left) if c)
        rhs = ", ".join(n for n, c in zip(("a", "b"), p.right) if c)
        verdict = decide(golden_frame, seq(f"{lhs} |- {rhs}"))
        assert verdict == golden_frame.bot_member(p)
    assert decide(counting_frame, seq("x |- x", "noncontractive"))
    assert not decide(counting_frame, seq("x, x |- x", "noncontractive"))
    assert decide(counting_frame, seq("x |- x, x", "noncontractive"))


def test_decide_imp_desugars(golden_frame):
    assert decide(golden_frame, seq("|- a -> a"))
    assert decide(golden_frame, seq("|- b -> a")) == decide(golden_frame, seq("b |- a"))


def test_variant_mode_mismatch(golden_frame, counting_frame):
    with pytest.raises(ModeMismatchError):
        decide(golden_frame, seq("a |- a", "noncontractive"))
    with pytest.raises(ModeMismatchError):
        decide(counting_frame, seq("x |- x", "contractive"))


def test_fragment_rejected(golden_frame):
    with pytest.raises(NmmsFragmentError):
        decide(golden_frame, seq("a * b |- a"))


def test_bad_variant_name():
    with pytest.raises(Exception):
        FormulaSequent((), (), "sideways")


def test_contractive_collapses_duplicates(golden_frame):
    assert decide(golden_frame, seq("a, a |- a")) == decide(golden_frame, seq("a |- a"))


def test_noncontractive_range_error(counting_frame):
    many = ", ".join(["x"] * 17)
    with pytest.raises(PositionRangeError):
        decide(counting_frame, seq(f"{many} |- x", "noncontractive"))


def test_overflowing_leaf_does_not_hide_a_failing_one(counting_frame):
    """x |- fails, so a disjunction with x on the left is false whatever the
    other disjunct's leaf (seventeen x, above 2*cap = 16) would hold."""
    many = " /\\ ".join(["x"] * 17)
    assert not decide(counting_frame, seq(f"({many}) \\/ x |-", "noncontractive"))
    assert not decide(counting_frame, seq(f"x \\/ ({many}) |-", "noncontractive"))


def test_unknown_atom_is_frame_error(golden_frame):
    for check in (decide, reduction_trace):
        with pytest.raises(FrameError, match="^unknown atom 'c'$"):
            check(golden_frame, seq("c |- a"))


# -- traces ---------------------------------------------------------------------


def test_trace_conjunction_three_leaves(golden_frame):
    tree = reduction_trace(golden_frame, seq("a, b |- a /\\ b"))
    assert tree.rule == "andRc"
    leaves = tree.leaves()
    assert len(leaves) == 3
    assert all(leaf.verdict for leaf in leaves)
    assert tree.verdict


def test_trace_atomic_single_node(golden_frame):
    tree = reduction_trace(golden_frame, seq("a |- a"))
    assert tree.rule is None and tree.children == () and tree.verdict


def test_trace_hand_reduction(golden_frame):
    """~(a /\\ b) |- unfolds by negL then the three-premise andRc; the middle
    premise |- b fails, so the verdict is false."""
    tree = reduction_trace(golden_frame, seq("~(a /\\ b) |-"))
    assert tree.rule == "negL"
    (child,) = tree.children
    assert child.rule == "andRc"
    verdicts = [leaf.verdict for leaf in child.children]
    assert verdicts == [True, False, True]
    assert not tree.verdict


def test_trace_matches_decide_on_random_instances(golden_frame):
    rng = seeded(77)
    pool = formula_pool(("a", "b"), 2)
    for _ in range(120):
        lhs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
        rhs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
        s = FormulaSequent(lhs, rhs, "contractive")
        tree = reduction_trace(golden_frame, s)
        assert tree.verdict == decide(golden_frame, s)
        assert tree.verdict == all(leaf.verdict for leaf in tree.leaves())


def test_trace_shows_out_of_range_leaves(counting_frame):
    """A leaf above 2*cap is an out-of-range node; a failing sibling settles
    the verdict in either order, as decide does."""
    many = " /\\ ".join(["x"] * 17)
    for text in (f"({many}) \\/ x |-", f"x \\/ ({many}) |-"):
        s = seq(text, "noncontractive")
        tree = reduction_trace(counting_frame, s)
        assert tree.verdict is False and decide(counting_frame, s) is False
        assert [leaf.verdict for leaf in tree.leaves()] in ([None, False], [False, None])
        assert sorted(map(str, (c.verdict for c in tree.children))) == ["False", "None"]
        text = tree.render()
        assert "(out of range)" in text and "(undetermined)" in text and "(FAIL)" in text
        assert '"verdict": null' in json.dumps(tree.as_dict())
    with pytest.raises(PositionRangeError, match="count above 2\\*cap=16"):
        reduction_trace(counting_frame, seq(f"({many}) \\/ x |- x", "noncontractive"))


def test_trace_as_dict_and_render(golden_frame):
    tree = reduction_trace(golden_frame, seq("a, b |- a /\\ b"))
    payload = tree.as_dict()
    assert payload["rule"] == "andRc" and len(payload["children"]) == 3
    text = tree.render()
    assert "andRc" in text and "(ok)" in text


# -- policy independence -----------------------------------------------------------


def _unfold_randomly(frame, lhs, rhs, contractive, rng) -> bool:
    """Reference: the rule unfolding that reduces a random complex formula at
    every step, with no memo."""
    if contractive:
        lhs, rhs = tuple(dict.fromkeys(lhs)), tuple(dict.fromkeys(rhs))
    targets = _targets(lhs, rhs)
    if not targets:
        return _atomic_verdict(frame, lhs, rhs)
    side, k = targets[rng.randrange(len(targets))]
    _, premises = _reduce(lhs, rhs, side, k, contractive)
    return all(_unfold_randomly(frame, l, r, contractive, rng) for l, r in premises)


def _random_policy_verdict(frame, s, rng):
    lhs = tuple(_desugar(f) for f in s.lhs)
    rhs = tuple(_desugar(f) for f in s.rhs)
    return _unfold_randomly(frame, lhs, rhs, s.variant == "contractive", rng)


def test_verdict_independent_of_reduction_policy_contractive():
    rng = seeded(101)
    pool = formula_pool(("a", "b"), 2)
    checked = 0
    while checked < 500:
        frame = random_set_frame(rng)
        lhs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
        rhs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
        s = FormulaSequent(lhs, rhs, "contractive")
        base = decide(frame, s)
        for _ in range(3):
            assert _random_policy_verdict(frame, s, rng) == base
        checked += 1


def test_verdict_independent_of_reduction_policy_noncontractive():
    rng = seeded(202)
    pool = formula_pool(("x",), 2)
    base_frame = Frame(("x",), "multiset", cap=6)
    window = base_frame.window()
    checked = 0
    while checked < 500:
        explicit = [p for p in window if rng.random() < 0.3]
        frame = Frame(("x",), "multiset", cap=6, explicit=explicit,
                      generators=("diagonal",) if rng.random() < 0.5 else ())
        lhs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
        rhs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
        s = FormulaSequent(lhs, rhs, "noncontractive")
        try:
            base = decide(frame, s)
        except PositionRangeError:
            continue
        for _ in range(3):
            try:
                verdict = _random_policy_verdict(frame, s, rng)
            except PositionRangeError:  # reached an overflowing leaf before a failing one
                verdict = False
            assert verdict == base
        checked += 1


def test_decide_matches_trace_on_kernel_frames():
    """decide and the trace agree exactly: the same verdict, or both raise
    on a leaf above 2*cap that no failing leaf overrides."""
    rng = seeded(606)
    pools = {}
    for frame in kernel_frames():
        names = frame.atoms.names
        if names not in pools:
            pools[names] = formula_pool(names, 2)
        pool = pools[names]
        variant = "contractive" if frame.mode == "set" else "noncontractive"
        for _ in range(80):
            lhs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
            rhs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
            s = FormulaSequent(lhs, rhs, variant)
            try:
                expected = reduction_trace(frame, s).verdict
            except PositionRangeError:
                expected = None
            try:
                got = decide(frame, s)
            except PositionRangeError:
                got = None
            assert got == expected, s.render()
