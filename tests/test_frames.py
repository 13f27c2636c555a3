import itertools

import pytest
from hypothesis import given, strategies as st

from roleforge.frames import (
    GENERATOR_NAMES, AtomTable, Frame, FrameError, FrameSyntaxError, ModeMismatchError,
    Position, PositionRangeError, parse_frame, serialize_frame,
)
from roleforge.suites import all_one_atom_set_frames

from conftest import FRAMES_DIR, kernel_frames, pos, seeded


# -- atoms and positions ------------------------------------------------------


def test_atom_table_rejects_bad_names():
    with pytest.raises(FrameError):
        AtomTable(("1bad",))
    with pytest.raises(FrameError):
        AtomTable(("a", "a"))
    with pytest.raises(FrameError):
        AtomTable(())


def test_atom_table_index_inverts_order():
    t = AtomTable(("a", "b", "c"))
    assert [t.index[n] for n in t.names] == [0, 1, 2]


def test_position_render_roundtrips_through_of():
    t = AtomTable(("a", "b"))
    p = Position.of(t, ("a", "a"), ("b",))
    assert p.render(t) == "a, a |- b"
    assert Position.of(t, (), ()).render(t) == "|-"


def test_set_mode_rejects_multiplicities():
    f = Frame(("a",), "set")
    with pytest.raises(PositionRangeError):
        f.bot_member(Position((2,), (0,)))


# -- frame files --------------------------------------------------------------


def test_parse_golden_file_matches_builder(golden_frame):
    text = (FRAMES_DIR / "nonmonotonic.frame").read_text()
    parsed = parse_frame(text)
    assert parsed == golden_frame
    assert len(parsed.explicit) == 10


def test_parse_counting_file_matches_builder(counting_frame):
    parsed = parse_frame((FRAMES_DIR / "nontransitive.frame").read_text())
    assert parsed == counting_frame
    assert parsed.generators == frozenset({"diagonal"})
    assert parsed.bot_member(pos(parsed, ("x", "x", "x"), ("x", "x", "x")))
    assert not parsed.bot_member(pos(parsed, ("x", "x"), ("x", "x", "x")))


def test_parse_empty_incoherent_block():
    f = parse_frame("atoms = a\nmode = set\nincoherent { }")
    assert f.explicit == frozenset()
    assert len(f.window()) == 4


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("atoms = a\nmode = multiset\nincoherent { }", "cap is required"),
        ("atoms = a\nmode = set\ncap = 3\nincoherent { }", "only allowed in multiset"),
        ("atoms = a\nmode = set\nincoherent {\n a |- q\n}", "unknown atom 'q'"),
        ("atoms = a\nmode = set\nincoherent {\n a, a |- \n}", "repeated atom"),
        ("atoms = a\nmode = set\nincoherent {\n a |- a |- a\n}", "exactly one '|-'"),
        ("atoms = a\nmode = set\ngenerators { bogus }\nincoherent { }", "unknown generator"),
        ("atoms = a\nmode = zigzag\nincoherent { }", "expected 'mode"),
        ("atoms = a\nmode = set\nincoherent {\n |- a", "unterminated"),
        ("mode = set\nincoherent { }", "missing atoms"),
        ("atoms = a\nmode = set\nmode = set\nincoherent { }", "duplicate mode"),
        ("atoms = a\nfrobnicate = 1", "unrecognized directive"),
        ("atoms = a\nmode = multiset\ncap = 2\nincoherent {\n a,a,a,a,a |- \n}", "2*cap"),
        ("atoms = a\natoms = b\nmode = set\nincoherent { }", "duplicate atoms"),
        ("atoms = a\nmode = multiset\ncap = 2\ncap = 2\nincoherent { }", "duplicate cap"),
        ("atoms = a\nmode = set\ngenerators { }\ngenerators { }\nincoherent { }",
         "duplicate generators"),
        ("atoms = a\nmode = set\nincoherent { }\nincoherent { }", "duplicate incoherent"),
        ("atoms =\nmode = set\nincoherent { }", "expected 'atoms = name ...'"),
        ("atoms = a\nmode = multiset\ncap = two\nincoherent { }", "expected 'cap = "),
        ("atoms = a\nmode = set\ngenerators diagonal\nincoherent { }", "expected 'generators"),
        ("atoms = a\nincoherent { }", "missing mode"),
        ("atoms = a\nmode = set\nincoherent (", "expected '{' after 'incoherent'"),
        ("atoms = a b\nmode = set\nincoherent {\n a, , b |-\n}", "empty atom between commas"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(FrameSyntaxError) as err:
        parse_frame(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(FrameSyntaxError) as err:
        parse_frame("atoms = a\nmode = set\nincoherent {\n a |- b\n}")
    assert err.value.line == 4


@pytest.mark.parametrize(
    "text, line, column, fragment",
    [
        ("# vocabulary\nmode = set\natoms = a a\nincoherent { }", 3, 1, "duplicate atom 'a'"),
        ("mode = set\n  atoms = a 1b\nincoherent { }", 2, 3, "invalid atom identifier '1b'"),
        ("mode = set\natoms = " + " ".join(f"a{i}" for i in range(17)) + "\nincoherent { }",
         2, 1, "at most 16 atoms"),
        ("atoms = a\nmode = multiset\ncap = 0\nincoherent { }", 3, 1,
         "expected 'cap = <positive integer>'"),
    ],
    ids=["duplicate-atom", "invalid-atom", "atom-limit", "cap-zero"],
)
def test_directive_errors_name_their_line(text, line, column, fragment):
    with pytest.raises(FrameSyntaxError) as err:
        parse_frame(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "mode, position, fragment",
    [
        ("set", "a |- q", "unknown atom 'q'"),
        ("set", "a, a |-", "repeated atom"),
        ("set", "a |- a |- a", "exactly one '|-'"),
        ("multiset", "a,a,a,a,a |-", "2*cap"),
        ("set", "a, , a |-", "empty atom between commas"),
    ],
)
def test_position_errors_read_the_same_in_a_frame_file_and_alone(mode, position, fragment):
    """One reader parses positions: a frame file reports its error at the
    position's line, and ``Frame.parse_position`` the same message with no line."""
    cap = "cap = 2\n" if mode == "multiset" else ""
    with pytest.raises(FrameSyntaxError) as in_file:
        parse_frame(f"atoms = a\nmode = {mode}\n{cap}incoherent {{\n  {position}\n}}")
    assert (in_file.value.line, in_file.value.column) == (5 if cap else 4, 3)
    with pytest.raises(FrameError) as alone:
        Frame(("a",), mode, cap=2 if cap else None).parse_position(position)
    message = str(alone.value)
    assert fragment in message and not message.startswith("line ")
    assert str(in_file.value) == f"line {in_file.value.line}, column 3: {message}"


def test_parse_position_reads_frame_file_syntax():
    f = Frame(("a", "b"), "multiset", cap=2)
    assert f.parse_position("  a, a |- b ") == pos(f, ("a", "a"), ("b",))
    assert f.parse_position("|-") == pos(f)


def test_set_mode_atom_limit():
    names = tuple(f"a{i}" for i in range(17))
    with pytest.raises(FrameError):
        Frame(names, "set")
    text = f"atoms = {' '.join(names)}\nmode = set\nincoherent {{ }}"
    with pytest.raises(FrameError):
        parse_frame(text)


def test_serialize_roundtrip(golden_frame, counting_frame):
    for f in (golden_frame, counting_frame):
        assert parse_frame(serialize_frame(f)) == f
    gen = Frame(("a", "b"), "set", generators=("containment", "reflexivity"))
    assert parse_frame(serialize_frame(gen)) == gen


# -- the incoherence relation -------------------------------------------------


def test_bot_member_golden_examples(golden_frame):
    f = golden_frame
    assert f.bot_member(pos(f, ("a", "b"), ()))
    assert not f.bot_member(pos(f, ("b",), ()))


def test_bot_member_counting_examples(counting_frame):
    f = counting_frame
    assert f.bot_member(pos(f, ("x",) * 5, ("x",) * 5))
    assert f.bot_member(pos(f, (), ("x",)))
    assert not f.bot_member(pos(f, ("x", "x"), ("x", "x", "x")))
    with pytest.raises(PositionRangeError):
        f.bot_member(pos(f, ("x",) * 17, ()))


def test_generator_semantics():
    f = Frame(("a", "b"), "set", generators=("reflexivity",))
    assert f.bot_member(pos(f, ("a",), ("a",)))
    assert not f.bot_member(pos(f, ("a", "b"), ("a",)))
    g = Frame(("a", "b"), "set", generators=("containment",))
    assert g.bot_member(pos(g, ("a", "b"), ("a",)))
    assert not g.bot_member(pos(g, ("a",), ("b",)))


# -- position sums ------------------------------------------------------------


def test_position_sum_examples():
    f = Frame(("a", "b"), "set")
    p = f.position_sum(pos(f, ("a",), ("b",)), pos(f, ("a",), ("a",)))
    assert p == pos(f, ("a",), ("a", "b"))
    m = Frame(("x",), "multiset", cap=4)
    assert m.position_sum(Position((1,), (0,)), Position((1,), (2,))) == Position((2,), (2,))
    with pytest.raises(PositionRangeError):
        m.position_sum(Position((5,), (0,)), Position((5,), (0,)))


_counts = st.tuples(st.integers(0, 1), st.integers(0, 1))


@given(_counts, _counts, _counts, _counts)
def test_position_sum_laws_set_mode(l1, r1, l2, r2):
    f = Frame(("a", "b"), "set")
    p, q = Position(l1, r1), Position(l2, r2)
    zero = Position.zero(2)
    assert f.position_sum(p, q) == f.position_sum(q, p)
    assert f.position_sum(p, zero) == p
    assert f.position_sum(p, p) == p


_mcounts = st.tuples(st.integers(0, 2), st.integers(0, 2))


@given(_mcounts, _mcounts, _mcounts, _mcounts, _mcounts, _mcounts)
def test_position_sum_associative_multiset(a, b, c, d, e, g):
    f = Frame(("u", "v"), "multiset", cap=10)
    p, q, r = Position(a, b), Position(c, d), Position(e, g)
    assert f.position_sum(f.position_sum(p, q), r) == f.position_sum(p, f.position_sum(q, r))


# -- window enumeration -------------------------------------------------------


def test_window_sizes(golden_frame):
    assert len(golden_frame.window()) == 16
    assert len(Frame(("a",), "set").window()) == 4
    cap3 = Frame(("x",), "multiset", cap=3)
    assert len(cap3.window()) == 16


def test_set_window_is_in_code_order(golden_frame):
    f = golden_frame
    n = f.n
    codes = [
        sum(c << i for i, c in enumerate(p.left)) + sum(c << (n + i) for i, c in enumerate(p.right))
        for p in f.window()
    ]
    assert codes == list(range(16))


def test_multiset_window_graded_lex():
    f = Frame(("x",), "multiset", cap=2)
    w = f.window()
    degrees = [p.degree for p in w]
    assert degrees == sorted(degrees)
    for d in set(degrees):
        block = [p.left + p.right for p in w if p.degree == d]
        assert block == sorted(block)


# -- structural predicates ----------------------------------------------------


def test_is_reflexive(golden_frame, counting_frame):
    assert golden_frame.is_reflexive().ok
    assert counting_frame.is_reflexive().ok
    empty = Frame(("a",), "set")
    verdict = empty.is_reflexive()
    assert not verdict.ok and verdict.witness == "a"


def test_is_containment_golden_derived(golden_frame):
    # independent check: every window position with an atom on both sides is incoherent
    f = golden_frame
    overlapping = [p for p in f.window() if p.has_overlap()]
    assert len(overlapping) == 7
    assert all(f.bot_member(p) for p in overlapping)
    assert f.is_containment().ok


def test_is_containment_failures_and_generator():
    empty = Frame(("a",), "set")
    verdict = empty.is_containment()
    assert not verdict.ok
    assert verdict.witness == empty.position(("a",), ("a",))
    gen = Frame(("a", "b"), "set", generators=("containment",))
    assert gen.is_containment().ok
    with pytest.raises(ModeMismatchError):
        Frame(("x",), "multiset", cap=2).is_containment()


def _containment_by_window(f):
    """``is_containment`` by its definition: a walk over the window."""
    for p in f.window():
        if p.has_overlap() and not f.bot_member(p):
            return (False, p)
    return (True, None)


def _containment_frames():
    from roleforge.suites import random_set_frame

    rng = seeded(77)
    frames = list(all_one_atom_set_frames())
    for names in (("a", "b"), ("a", "b", "c")):
        for density in (0.2, 0.5, 0.8):
            for forced in (False, True):
                for _ in range(3):
                    frames.append(random_set_frame(rng, names, density=density,
                                                   containment=forced))
    return [Frame(f.atoms, "set", explicit=f.explicit, generators=gens)
            for f in frames
            for gens in ((), ("diagonal",), ("reflexivity",), ("containment",))]


def test_is_containment_matches_the_window_walk():
    frames = _containment_frames()
    verdicts = [tuple(f.is_containment()[:2]) for f in frames]
    assert all(f._window is None for f in frames)
    assert verdicts == [_containment_by_window(f) for f in frames]
    assert {ok for ok, _ in verdicts} == {True, False}


def test_containment_implies_reflexive(seed=13):
    from conftest import seeded
    from roleforge.suites import random_set_frame

    rng = seeded(seed)
    for _ in range(25):
        f = random_set_frame(rng, containment=True)
        assert f.is_containment().ok
        assert f.is_reflexive().ok


def test_serialize_is_a_canonical_fixpoint():
    """Whatever order positions arrive in, one serialize pass canonicalizes."""
    scrambled = (
        "mode = set\n"
        "atoms = a b\n"
        "incoherent {\n"
        "  a, b |- a\n"
        "  |- a\n"
        "  a |- a\n"
        "}\n"
    )
    frame = parse_frame(scrambled)
    canonical = serialize_frame(frame)
    assert serialize_frame(parse_frame(canonical)) == canonical
    assert canonical.index("|- a\n") < canonical.index("a |- a")


def test_serialize_keeps_positions_beyond_the_window():
    """Explicit positions may use counts up to 2*cap; they survive the round trip."""
    f = Frame(("x",), "multiset", cap=2,
              explicit=[Position((4,), (0,)), Position((1,), (3,))])
    again = parse_frame(serialize_frame(f))
    assert again == f
    assert again.bot_member(Position((4,), (0,)))


def test_inline_comment_after_position():
    f = parse_frame(
        "atoms = a b\nmode = set\nincoherent {\n  a |- b   # endorsed\n}\n"
    )
    assert f.bot_member(f.position(("a",), ("b",)))


def test_window_cardinality_without_materializing():
    big = Frame(tuple(f"p{i}" for i in range(14)), "set")
    assert big.window_cardinality() == 1 << 28
    with pytest.raises(FrameError):
        big.window()  # materialization guard, separate from the atom limit
    assert Frame(("x",), "multiset", cap=3).window_cardinality() == 16


def test_with_cap(counting_frame):
    wider = counting_frame.with_cap(10)
    assert wider.cap == 10
    assert wider.explicit == counting_frame.explicit
    with pytest.raises(ModeMismatchError):
        Frame(("a",), "set").with_cap(3)


# -- the compiled relation against bot_member ------------------------------------


def compiled_relation_frames():
    """All one-atom set frames, seeded 2-3 atom set frames, and seeded 1-2 atom
    multiset frames at caps 1-4 whose explicit counts reach 2*cap, each under
    every generator subset."""
    subsets = [g for r in range(4) for g in itertools.combinations(GENERATOR_NAMES, r)]
    rng = seeded(707)
    for gens in subsets:
        for f in all_one_atom_set_frames():
            yield Frame(f.atoms, "set", explicit=f.explicit, generators=gens)
        for names in (("a", "b"), ("a", "b", "c")):
            window = Frame(names, "set").window()
            for density in (0.1, 0.5):
                explicit = [p for p in window if rng.random() < density]
                yield Frame(names, "set", explicit=explicit, generators=gens)
        for names, cap in itertools.product((("x",), ("x", "y")), range(1, 5)):
            n = len(names)
            explicit = set()
            for _ in range(3 * cap):
                counts = [rng.randint(0, 2 * cap) for _ in range(2 * n)]
                explicit.add(Position(tuple(counts[:n]), tuple(counts[n:])))
            yield Frame(names, "multiset", cap=cap, explicit=explicit, generators=gens)


def test_bot_bits_matches_bot_member_on_every_encodable_position():
    for frame in compiled_relation_frames():
        n, top = frame.n, 1 if frame.mode == "set" else 2 * frame.cap
        bits = frame.bot_bits()
        expected = 0
        for code, counts in enumerate(itertools.product(range(top + 1), repeat=2 * n)):
            # product() varies its last count fastest: reversed, the counts
            # are the base-(top+1) digits of code, lowest first.
            counts = counts[::-1]
            if frame.bot_member(Position(counts[:n], counts[n:])):
                expected |= 1 << code
        assert bits == expected, frame
        if frame.mode == "multiset":
            window = frame.window()
            scan = sum(1 << i for i, p in enumerate(window) if frame.bot_member(p))
            assert frame.bot_window_mask() == scan, frame


# -- the code-level predicate against bot_member -----------------------------------


def code_position(n: int, code: int) -> Position:
    """The set-mode position with 2n-bit code ``code``: left bits low."""
    return Position(tuple(code >> i & 1 for i in range(n)),
                    tuple(code >> (n + i) & 1 for i in range(n)))


def test_bot_code_matches_bot_member_on_kernel_set_frames():
    frames = [f for f in kernel_frames() if f.mode == "set"]
    assert len(frames) == 32
    for frame in frames:
        for code in range(1 << (2 * frame.n)):
            assert frame.bot_code(code) == frame.bot_member(code_position(frame.n, code)), \
                (frame, code)


def test_bot_code_matches_bot_member_at_sixteen_atoms():
    """Past bot_bits' limit: seeded codes, plus the diagonal and single-bit
    diagonal codes that uniform codes almost never hit, under every
    generator subset, with no explicit positions and with half the codes
    explicit."""
    n = 16
    rng = seeded(1616)
    codes = [rng.getrandbits(2 * n) for _ in range(10_000)]
    lefts = [rng.getrandbits(n) for _ in range(500)] + [1 << k for k in range(n)] + [0]
    codes += [left | left << n for left in lefts]
    explicit = [code_position(n, c) for c in rng.sample(codes, len(codes) // 2)]
    names = [f"a{i}" for i in range(n)]
    subsets = [g for r in range(4) for g in itertools.combinations(GENERATOR_NAMES, r)]
    positions = [code_position(n, c) for c in codes]
    for gens in subsets:
        for frame in (Frame(names, "set", generators=gens),
                      Frame(names, "set", explicit=explicit, generators=gens)):
            got = [frame.bot_code(c) for c in codes]
            assert got == [frame.bot_member(p) for p in positions], frame


def test_bot_code_is_set_mode_only(counting_frame):
    with pytest.raises(ModeMismatchError):
        counting_frame.bot_code(0)
