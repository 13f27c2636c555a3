import itertools

import pytest

from roleforge.frames import (
    Frame, FrameError, ModeMismatchError, Position, PositionRangeError, Verdict,
)
from roleforge.morphisms import (
    FrameMorphism, _Images, check_conservative, check_continuous, continuity_condition3,
    preserves_bot,
)
from roleforge.oracles import continuity_condition4, rsr_naive
from roleforge.suites import all_one_atom_set_frames, random_set_frame

from conftest import pos, random_multiset_frame, seeded


def identity(frame):
    return FrameMorphism(frame, frame, {n: n for n in frame.atoms.names})


def test_morphism_validation(golden_frame, counting_frame):
    with pytest.raises(ModeMismatchError):
        FrameMorphism(golden_frame, counting_frame, {"a": "x", "b": "x"})
    with pytest.raises(FrameError):
        FrameMorphism(golden_frame, golden_frame, {"a": "a"})  # not total
    with pytest.raises(FrameError):
        FrameMorphism(golden_frame, golden_frame, {"a": "a", "b": "q"})


def test_apply_merges_atoms(golden_frame):
    one = Frame(("a",), "set")
    m = FrameMorphism(golden_frame, one, {"a": "a", "b": "a"})
    image = m.apply(pos(golden_frame, ("a", "b"), ("b",)))
    assert image == one.position(("a",), ("a",))


def test_identity_is_conservative_and_continuous(golden_frame, counting_frame):
    for f in (golden_frame, counting_frame):
        m = identity(f)
        assert check_conservative(m).ok
        assert check_continuous(m).ok


def test_collapse_to_one_atom_verdict(golden_frame):
    """Collapsing b onto a against the one-atom restriction of the golden frame."""
    f = golden_frame
    one = Frame(("a",), "set")
    restricted = Frame(
        ("a",), "set",
        explicit=[
            one.position(l, r)
            for l in ((), ("a",))
            for r in ((), ("a",))
            if f.bot_member(pos(f, l, r))
        ],
    )
    m = FrameMorphism(f, restricted, {"a": "a", "b": "a"})
    # independent exhaustive scan
    expected_ok = True
    expected_witness = None
    for p in f.window():
        if f.bot_member(p) != restricted.bot_member(m.apply(p)):
            expected_ok = False
            expected_witness = p
            break
    verdict = check_conservative(m)
    assert verdict.ok == expected_ok
    assert not verdict.ok
    assert restricted.bot_member(m.apply(verdict.witness)) != f.bot_member(verdict.witness)
    assert expected_witness is not None


def test_constant_map_into_all_incoherent_frame_is_continuous(golden_frame):
    sink = Frame(("z",), "set", generators=("containment",),
                 explicit=[Frame(("z",), "set").window()[i] for i in range(4)])
    assert all(sink.bot_member(p) for p in sink.window())
    m = FrameMorphism(golden_frame, sink, {"a": "z", "b": "z"})
    assert check_continuous(m).ok


def test_preserves_bot_witness():
    src = Frame(("a",), "set", explicit=[Frame(("a",), "set").position((), ("a",))])
    tgt = Frame(("a",), "set")
    m = FrameMorphism(src, tgt, {"a": "a"})
    verdict = preserves_bot(m)
    assert not verdict.ok
    assert verdict.witness == src.position((), ("a",))


def test_continuity_witness_shape(golden_frame):
    one = Frame(("a",), "set")
    m = FrameMorphism(golden_frame, one, {"a": "a", "b": "a"})
    verdict = continuity_condition3(m)
    if not verdict.ok:
        assert set(verdict.witness) == {"target_position", "escaping_position"}


def test_condition3_matches_condition4_one_atom_exhaustive():
    frames = all_one_atom_set_frames()
    continuous = 0
    for src in frames:
        for tgt in frames:
            m = FrameMorphism(src, tgt, {"a": "a"})
            got = continuity_condition3(m).ok
            want = continuity_condition4(m).ok
            assert got == want, (src, tgt)
            continuous += got
    assert continuous > 0  # the comparison is not vacuous


def test_condition3_matches_condition4_random_two_atom():
    rng = seeded(11)
    names = ("a", "b")
    for _ in range(100):
        src = random_set_frame(rng)
        tgt = random_set_frame(rng)
        m = FrameMorphism(src, tgt, {n: rng.choice(names) for n in names})
        assert continuity_condition3(m).ok == continuity_condition4(m).ok


def test_multiset_continuity_requires_equal_caps():
    a = Frame(("x",), "multiset", cap=3, generators=("diagonal",))
    b = Frame(("x",), "multiset", cap=5, generators=("diagonal",))
    m = FrameMorphism(a, b, {"x": "x"})
    with pytest.raises(ModeMismatchError):
        check_continuous(m)
    assert check_conservative(m).ok  # checked up to the smaller cap


# -- the mask checks against a per-position reference ------------------------------


def naive_member(frame, p):
    """(member, outside): ``bot_member``, with a position above 2*cap read as
    coherent and reported as outside the range."""
    try:
        return frame.bot_member(p), False
    except PositionRangeError:
        return False, True


def naive_conservative(m):
    src = m.source
    window = (src.window() if src.mode == "set"
              else src.with_cap(min(src.cap, m.target.cap)).window())
    truncated = False
    for p in window:
        member, outside = naive_member(m.target, m.apply(p))
        truncated = truncated or outside
        if src.bot_member(p) != member:
            return Verdict(False, p, truncated)
    return Verdict(True, None, truncated)


def naive_preserves(m):
    truncated = False
    for p in m.source.window():
        if m.source.bot_member(p):
            member, outside = naive_member(m.target, m.apply(p))
            truncated = truncated or outside
            if not member:
                return Verdict(False, p, truncated)
    return Verdict(True, None, truncated)


def naive_continuity(m):
    """One ``bot_member`` per source position and target position y, and the
    closure of each preimage by ``rsr_naive``."""
    src, tgt = m.source, m.target
    truncated = False
    for y in tgt.window():
        preimage = []
        for p in src.window():
            fp = m.apply(p)
            member, outside = naive_member(tgt, fp.union(y) if tgt.mode == "set" else fp.add(y))
            truncated = truncated or outside
            if member:
                preimage.append(p)
        escaped = [p for p in rsr_naive(src, rsr_naive(src, preimage)) if p not in preimage]
        if escaped:
            return Verdict(False, {"target_position": y, "escaping_position": escaped[0]},
                           truncated)
    return Verdict(True, None, truncated)


def naive_continuous(m):
    pres = naive_preserves(m)
    if not pres.ok:
        return Verdict(False, {"bot_preservation": pres.witness}, pres.truncated)
    return naive_continuity(m)


def all_incoherent(names, cap):
    """Every position with counts up to 2*cap is incoherent."""
    n = len(names)
    explicit = [Position(c[:n], c[n:]) for c in itertools.product(range(2 * cap + 1), repeat=2 * n)]
    return Frame(names, "multiset", cap=cap, explicit=explicit)


def seeded_morphisms():
    """Maps between seeded 2-atom set frames, and between seeded 1-2-atom
    multiset frames at equal caps 1-3 into 1-2 atoms, merging maps and
    all-incoherent targets included."""
    rng = seeded(1717)
    names = ("a", "b")
    everything = Frame(names, "set", explicit=Frame(names, "set").window())
    out = []
    for _ in range(30):
        src = random_set_frame(rng)
        tgt = everything if rng.random() < 0.3 else random_set_frame(rng, density=0.7)
        out.append(FrameMorphism(src, tgt, {n: rng.choice(names) for n in names}))
    for _ in range(40):
        src_names = rng.choice((("x",), ("x", "y")))
        tgt_names = rng.choice((("z",), ("z", "w")))
        cap = rng.randint(1, 3 if len(src_names) == 1 else 2)
        src = random_multiset_frame(rng, src_names, cap)
        tgt = (all_incoherent(tgt_names, cap) if rng.random() < 0.3
               else random_multiset_frame(rng, tgt_names, cap))
        out.append(FrameMorphism(src, tgt, {n: rng.choice(tgt_names) for n in src_names}))
    return out


def test_mask_checks_match_per_position_reference():
    outcomes = set()
    for m in seeded_morphisms():
        assert check_conservative(m) == naive_conservative(m), m
        assert preserves_bot(m) == naive_preserves(m), m
        assert continuity_condition3(m) == naive_continuity(m), m
        verdict = check_continuous(m)
        assert verdict == naive_continuous(m), m
        if m.source.mode == "set":
            assert continuity_condition3(m).ok == continuity_condition4(m).ok, m
        outcomes.add((m.source.mode, verdict.ok, verdict.truncated))
    # Both verdicts in both modes, and truncated verdicts, are compared.
    assert {("set", True, False), ("set", False, False), ("multiset", True, False),
            ("multiset", False, False), ("multiset", False, True)} <= outcomes


def test_preimage_gathers_match_per_position_reads():
    """Every target position y, not only those a verdict reaches: the
    gathered preimage of y^bot and the sums outside the target's range."""
    for m in seeded_morphisms()[::3]:
        src, tgt = m.source, m.target
        images = _Images(m, src.window())
        for y, code in zip(tgt.window(), tgt.position_codes(tgt.window())):
            members = outside = 0
            for i, p in enumerate(src.window()):
                fp = m.apply(p)
                member, out = naive_member(tgt, fp.union(y) if tgt.mode == "set" else fp.add(y))
                members |= member << i
                outside |= out << i
            assert images.at(y, code) == (members, outside), (m, y)


def test_conservativity_across_caps_matches_reference():
    """Unequal caps: the window of the smaller cap, images read in the target.
    Three atoms merged onto one reach three times that cap."""
    pairs = []
    for names in (("x",), ("x", "y"), ("x", "y", "v")):
        for src_cap, tgt_cap in ((1, 2), (2, 1), (2, 2)):
            src = Frame(names, "multiset", cap=src_cap, generators=("diagonal",))
            pairs.append((src, Frame(("z",), "multiset", cap=tgt_cap, generators=("diagonal",))))
            pairs.append((src, all_incoherent(("z",), tgt_cap)))
    pairs.append((all_incoherent(("x", "y", "v"), 1), all_incoherent(("z",), 1)))
    outcomes = set()
    for src, tgt in pairs:
        m = FrameMorphism(src, tgt, {n: "z" for n in src.atoms.names})
        verdict = check_conservative(m)
        assert verdict == naive_conservative(m), m
        outcomes.add((verdict.ok, verdict.truncated))
    assert {(True, False), (False, False), (False, True)} <= outcomes


def test_merge_beyond_the_target_range_is_a_truncated_verdict():
    """x, y -> z at cap 2 into a target where every encodable position is
    incoherent: image sums reach count 6, above 2*cap = 4."""
    src = Frame(("x", "y"), "multiset", cap=2, generators=("diagonal",))
    m = FrameMorphism(src, all_incoherent(("z",), 2), {"x": "z", "y": "z"})
    verdict = check_continuous(m)
    assert not verdict.ok and verdict.truncated
    z = m.target
    assert verdict.witness == {"target_position": z.position((), ("z",)),
                               "escaping_position": src.position((), ("x", "x", "y", "y"))}
    assert verdict == naive_continuous(m)
    assert preserves_bot(m) == Verdict(True)  # images alone stay in range
    # An in-range verdict carries no flag.
    assert check_continuous(identity(src)) == Verdict(True)


def test_morphism_checks_make_no_bot_member_calls(monkeypatch):
    morphisms = seeded_morphisms()[::8]
    calls = []
    original = Frame.bot_member

    def counting(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(Frame, "bot_member", counting)
    for m in morphisms:
        for check in (check_conservative, preserves_bot, continuity_condition3, check_continuous):
            check(m)
    assert calls == []
