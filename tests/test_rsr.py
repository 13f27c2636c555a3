import pytest
from hypothesis import given, settings, strategies as st

from roleforge.frames import Frame, FrameError, Position
from roleforge.oracles import rsr_naive
from roleforge.rsr import (
    MAX_BLOCKER_WINDOW, LatticeSizeError, PositionSet, Role, blocker_masks, closure,
    _cache, _iter_bits, closure_mask, full_mask, is_role, principal_blockers, role_lattice,
    rsr, rsr_mask, tensor_closure,
)
from roleforge.suites import all_one_atom_set_frames, random_position_subset, random_set_frame

from conftest import kernel_frames, pos, random_multiset_frame, role_name, seeded
from test_quantale import reference_tensor_sums


# -- rsr ------------------------------------------------------------------------


def test_rsr_golden_left_singleton(golden_frame, golden_roles):
    """(a |-)-singleton robustness: everything but the down-set of {a+, b-}."""
    out = rsr(golden_frame, [pos(golden_frame, ("a",))])
    assert frozenset(out.positions()) == golden_roles["L"]


def test_rsr_of_empty_is_full(golden_frame, counting_frame):
    for f in (golden_frame, counting_frame):
        assert rsr(f, []).mask == PositionSet.full(f).mask


def test_rsr_counting_zero_one(counting_frame):
    f = counting_frame
    out = rsr(f, [Position((0,), (1,))])
    got = {(p.left[0], p.right[0]) for p in out.positions()}
    expected = {(0, 0), (1, 1)} | {(1 + i, i) for i in range(8)}
    assert got == expected


def test_principal_blockers_golden(golden_frame, golden_roles):
    table = principal_blockers(golden_frame)
    assert frozenset(table[pos(golden_frame, (), ("a",))].positions()) == golden_roles["U"]
    assert frozenset(table[pos(golden_frame)].positions()) == golden_roles["D"]


def test_principal_blockers_empty_frame():
    f = Frame(("a",), "set")
    assert all(len(v) == 0 for v in principal_blockers(f).values())


def test_principal_blockers_counting_translates(counting_frame):
    table = principal_blockers(counting_frame)
    got = {(p.left[0], p.right[0]) for p in table[Position((2,), (0,))].positions()}
    assert got == {(i, 2 + i) for i in range(7)}


def test_counting_blockers_are_difference_translates(counting_frame):
    """Single-position robustness on the counting frame: the balanced
    generator contributes every window translate of the smallest pair with
    the opposite difference, plus the finitely many shift solutions of the
    two explicit positions."""
    table = principal_blockers(counting_frame)

    def got(m, n):
        return {(p.left[0], p.right[0]) for p in table[Position((m,), (n,))].positions()}

    def translates(m, n):
        return {(m + i, n + i) for i in range(9 - max(m, n))}

    assert got(0, 0) == translates(0, 0) | {(0, 1), (1, 2)}
    assert got(1, 0) == translates(0, 1) | {(0, 2)}
    assert got(1, 1) == translates(0, 0) | {(0, 1)}
    assert got(2, 1) == translates(0, 1)
    assert got(1, 4) == translates(3, 0)
    assert got(3, 5) == translates(2, 0)


def test_counting_tensor_of_translate_roles(counting_frame):
    """Tensoring translate roles sums their offsets and re-normalizes to the
    smallest same-difference pair, witnessed by the naive-oracle closure."""
    from roleforge.quantale import quantale
    from roleforge.oracles import rsr_naive

    f = counting_frame
    q = quantale(f)
    r30 = closure(f, [Position((3,), (0,))])
    r01 = closure(f, [Position((0,), (1,))])
    prod = Role(f, q.tensor_mask(r30.mask, r01.mask))
    assert {(p.left[0], p.right[0]) for p in prod.positions()} == {(2 + i, i) for i in range(7)}
    # independent route: naive closure of the pointwise sums
    sums = [a.add(b) for a in r30.positions() for b in r01.positions() if f.in_window(a.add(b))]
    assert rsr_naive(f, rsr_naive(f, sums)).mask == prod.mask


# -- the blocker kernel against the definition -------------------------------------


@pytest.mark.parametrize("frame", kernel_frames())
def test_blocker_kernel_matches_naive_rsr(frame):
    window = frame.window()
    blockers = blocker_masks(frame)
    assert len(blockers) == len(window)
    for i, p in enumerate(window):
        assert blockers[i] == rsr_naive(frame, [p]).mask, p.render(frame.atoms)
    scan = sum(1 << i for i, p in enumerate(window) if frame.bot_member(p))
    assert frame.bot_window_mask() == scan
    assert blockers[window.index(pos(frame))] == scan


@pytest.mark.parametrize("names", [("x",), ("x", "y")], ids=["1-atom", "2-atoms"])
@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_multiset_kernel_matches_naive(names, cap):
    """rsr, closure and the tensor on grid codes against rsr_naive and
    per-pair sums; none of them builds the blocker list."""
    rng = seeded(100 * cap + len(names))
    frame = random_multiset_frame(rng, names, cap)

    def naive_closure(mask):
        return rsr_naive(frame, rsr_naive(frame, PositionSet(frame, mask))).mask

    full = PositionSet.full(frame).mask
    sparse, medium, dense = (random_position_subset(rng, frame, d).mask for d in (0.03, 0.1, 0.3))
    # Subsets of the relation: their rsr holds the empty position.
    bot = frame.bot_window_mask()
    for a in (0, 1, full, sparse, medium, dense, bot, dense & bot):
        assert rsr_mask(frame, a) == rsr_naive(frame, PositionSet(frame, a)).mask
        assert closure_mask(frame, a) == naive_closure(a)
    for a, b in ((0, full), (full, 1), (sparse, full), (medium, dense), (dense, dense)):
        assert tensor_closure(frame, a, b) == naive_closure(reference_tensor_sums(frame, a, b))
    assert frame._rsr_cache._blockers is None


@pytest.mark.parametrize("names, cap", [(("x",), cap) for cap in (1, 2, 3, 4)]
                         + [(("x", "y"), cap) for cap in (1, 2, 3)])
def test_multiset_rsr_does_not_change_at_a_wider_cap(names, cap):
    """rsr of window positions reads the relation only at sums with counts
    up to 2*cap, which every larger cap decides the same way: recomputed at
    cap+2, it agrees with rsr at cap on the cap window."""
    for k in range(20):
        rng = seeded(1000 * cap + 100 * len(names) + k)
        frame = random_multiset_frame(rng, names, cap)
        wide = frame.with_cap(cap + 2)
        embed = [wide.window_index(p) for p in frame.window()]
        for density in (0.02, 0.1, 0.3):
            a = random_position_subset(rng, frame, density).mask
            wide_rsr = rsr_mask(wide, sum(1 << j for i, j in enumerate(embed) if a >> i & 1))
            back = sum(1 << i for i, j in enumerate(embed) if wide_rsr >> j & 1)
            assert back == rsr_mask(frame, a), (k, density)


def naive_tensor(frame, a_mask, b_mask):
    """closure(A + B) from the per-pair sums, closed by rsr_naive twice."""
    sums = PositionSet(frame, reference_tensor_sums(frame, a_mask, b_mask))
    return rsr_naive(frame, rsr_naive(frame, sums)).mask


@pytest.mark.parametrize("frame", all_one_atom_set_frames(), ids=lambda f: f"bits-{f.bot_window_mask()}")
def test_set_tensor_matches_per_pair_sums_on_one_atom_frames(frame):
    """Every pair of the 16 masks over the 4-position window, closed or not."""
    for a in range(16):
        for b in range(16):
            assert tensor_closure(frame, a, b) == naive_tensor(frame, a, b), (a, b)


@pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c")], ids=["2-atoms", "3-atoms"])
@pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("containment", [False, True], ids=["free", "containment"])
def test_set_tensor_matches_per_pair_sums_on_seeded_frames(names, density, containment):
    rng = seeded(700 + 10 * len(names) + int(10 * density) + containment)
    frame = random_set_frame(rng, names, density=density, containment=containment)
    full = full_mask(frame)
    sparse, medium, dense = (random_position_subset(rng, frame, d).mask for d in (0.05, 0.3, 0.8))
    closed = [closure_mask(frame, m) for m in (sparse, medium)] + [rsr_mask(frame, dense)]
    assert any(closure_mask(frame, m) != m for m in (sparse, medium, dense))
    masks = [0, 1, full, sparse, medium, dense, frame.bot_window_mask()] + closed
    for i, a in enumerate(masks):
        for b in masks[i:]:
            expected = naive_tensor(frame, a, b)
            assert tensor_closure(frame, a, b) == expected, (a, b)
            assert tensor_closure(frame, b, a) == expected, (b, a)


@settings(max_examples=60)
@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 10))
def test_tensor_generators_keep_rsr(mask, frame_seed):
    """The generators the set-mode tensor reads are members of the mask
    with the mask's rsr, so their closure holds the mask."""
    frame = random_set_frame(seeded(frame_seed), ("a", "b", "c"), containment=frame_seed % 2 == 1)
    rsr_of, gens = _cache(frame)._generators(mask)
    generated = sum(1 << g for g in gens)
    assert list(gens) == sorted(set(gens))
    assert generated | mask == mask
    assert rsr_of == rsr_mask(frame, mask) == rsr_mask(frame, generated)
    assert mask | closure_mask(frame, generated) == closure_mask(frame, generated)


@pytest.mark.parametrize("frame", [
    Frame(tuple("abcdefgh"), "set"),
    Frame(("x",), "multiset", cap=128),
], ids=["set-8-atoms", "multiset-1-atom-cap-128"])
def test_blocker_window_limit_fails_fast(frame):
    assert frame.window_cardinality() > MAX_BLOCKER_WINDOW
    with pytest.raises(FrameError, match="too large for principal blockers"):
        blocker_masks(frame)
    members = [frame.position([frame.atoms.names[0]], [])]
    for op in (rsr, closure, is_role):
        for arg in ([], members):
            with pytest.raises(FrameError, match="too large for principal blockers"):
                op(frame, arg)
    assert frame._window is None  # refused before the window was built


@pytest.mark.parametrize("width", [0, 1, 64, 1024, 1025, 4096, 1 << 14])
def test_iter_bits_narrow_and_wide(width):
    rng = seeded(width)
    for density in (0.01, 0.5, 0.99):
        mask = sum(1 << i for i in range(width) if rng.random() < density)
        mask |= (1 << width) >> 1  # the top bit, so the mask is as wide as asked
        expected = [i for i in range(mask.bit_length()) if mask >> i & 1]
        assert list(_iter_bits(mask)) == expected


# -- closure ---------------------------------------------------------------------


def test_closure_golden_overlap_cell(golden_frame, golden_roles):
    """The (a |- a) cell: its robustness is the full window, so the closure is
    the lattice bottom (forced by the single-application table)."""
    assert rsr(golden_frame, [pos(golden_frame, ("a",), ("a",))]).mask == PositionSet.full(golden_frame).mask
    out = closure(golden_frame, [pos(golden_frame, ("a",), ("a",))])
    assert frozenset(out.positions()) == golden_roles["B"]


def test_closure_counting_spots(counting_frame):
    f = counting_frame

    def spots(m, n):
        return {(p.left[0], p.right[0]) for p in closure(f, [Position((m,), (n,))]).positions()}

    assert spots(1, 1) == {(0, 0), (1, 1)}
    assert spots(1, 2) == {(0, 1), (1, 2)}
    assert spots(0, 2) == {(0, 2)}


@settings(max_examples=40)
@given(st.integers(0, 2 ** 16 - 1))
def test_closure_idempotent_golden(mask_bits):
    f = Frame(("a", "b"), "set", generators=("containment",))
    once = closure(f, PositionSet(f, mask_bits))
    assert closure(f, once).mask == once.mask


# -- Galois properties ------------------------------------------------------------


@settings(max_examples=60)
@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 10))
def test_galois_properties(mask_a, mask_b, frame_seed):
    rng = seeded(frame_seed)
    f = random_set_frame(rng)
    A, B = PositionSet(f, mask_a), PositionSet(f, mask_b)
    if mask_a | mask_b == mask_b:
        assert rsr(f, B).mask | rsr(f, A).mask == rsr(f, A).mask  # antitone
    assert mask_a | closure(f, A).mask == closure(f, A).mask  # extensive
    assert rsr(f, closure(f, A)).mask == rsr(f, A).mask  # triple collapse
    union = PositionSet(f, mask_a | mask_b)
    assert rsr(f, union).mask == rsr(f, A).mask & rsr(f, B).mask


# -- role lattice ------------------------------------------------------------------


def test_role_lattice_golden(golden_frame, golden_roles):
    lattice = role_lattice(golden_frame)
    assert len(lattice) == 6
    assert {frozenset(r.positions()) for r in lattice} == set(
        frozenset(v) for v in golden_roles.values()
    )
    sizes = [len(r) for r in lattice]
    assert sizes == sorted(sizes, reverse=True)
    assert [role_name(golden_roles, r) for r in lattice][0] == "T"


def test_role_lattice_all_incoherent_frame():
    base = Frame(("a",), "set")
    f = Frame(("a",), "set", explicit=list(base.window()))
    lattice = role_lattice(f)
    assert len(lattice) == 1
    assert lattice[0].mask == PositionSet.full(f).mask


def test_role_lattice_one_atom_vs_naive_oracle():
    """The lattice of every one-atom frame equals the closure images of all
    2^4 subsets, with closure computed by the definition-chasing oracle."""
    for f in all_one_atom_set_frames():
        expected = set()
        for bits in range(16):
            ps = PositionSet(f, bits)
            expected.add(rsr_naive(f, rsr_naive(f, ps)).mask)
        assert {r.mask for r in role_lattice(f)} == expected


def test_role_lattice_random_frames_against_naive():
    rng = seeded(404)
    for _ in range(50):
        f = random_set_frame(rng)
        lattice = role_lattice(f)
        masks = {r.mask for r in lattice}
        # every role is a fixpoint of the naive closure
        for r in lattice:
            assert rsr_naive(f, rsr_naive(f, r)).mask == r.mask
        # sampled subsets close into the lattice, and engine == oracle
        for _ in range(20):
            ps = random_position_subset(rng, f)
            engine = closure(f, ps)
            assert engine.mask == rsr_naive(f, rsr_naive(f, ps)).mask
            assert engine.mask in masks


def test_dualizer_is_a_role(golden_frame, counting_frame):
    for f in (golden_frame, counting_frame):
        lattice = role_lattice(f)
        empty = pos(f)
        assert rsr(f, [empty]).mask in {r.mask for r in lattice}
        assert closure(f, [empty]).mask in {r.mask for r in lattice}


def test_lattice_size_guard(golden_frame):
    with pytest.raises(LatticeSizeError, match=r"^role lattice exceeds 3 roles$"):
        role_lattice(golden_frame, max_roles=3)


# -- is_role -------------------------------------------------------------------------


def test_is_role(golden_frame, golden_roles):
    f = golden_frame
    assert is_role(f, PositionSet.from_positions(f, golden_roles["U"]))
    assert not is_role(f, [pos(f, ("a",))])
    assert is_role(f, PositionSet.full(f))


def test_rsr_returns_closed_sets(golden_frame):
    out = rsr(golden_frame, [pos(golden_frame, ("a",))])
    assert isinstance(out, Role)
    assert is_role(golden_frame, out)
