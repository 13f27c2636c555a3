"""The (-)^bot Galois machinery over a frame's window.

For a set A of positions, ``rsr(A)`` is the set of contexts whose pointwise
sum with every member of A is incoherent.  Applying it twice gives a closure
operator; the closed sets ("roles") form a complete lattice, the carrier of
the frame's Girard quantale.

Position sets are bit-vectors: bit ``i`` stands for the window position with
canonical index ``i``.  rsr of a set is the intersection of its members'
principal blockers ``p^bot``.  A role is a closed mask: the quantale and the
semantics take and return masks and never need the whole lattice.
``role_lattice`` enumerates it only for callers that list roles or print
their ranks, which ``RoleLattice.index_of`` reads off a mask.  Since every
role is an intersection of blockers, the enumeration adds one distinct
blocker at a time and meets it with the roles found so far: O(G*R)
intersections for G distinct blockers and R roles.

rsr, closure and the tensor come from one bit-parallel kernel per frame,
built on first use:

* set mode -- a window index is the position's 2n-bit code and the sum of
  two positions is the OR of their codes.  With ``M_k`` the mask of codes
  having bit k set and ``low = 1 << k`` the lowest bit of ``p``, the
  blockers follow from one pass over the codes in increasing order:
  ``c = blk[p ^ low] & M_k; blk[p] = c | (c >> low)``, starting from
  ``blk[0]``, the window part of the relation (``Frame.bot_bits()``).
  The kernel stores them and meets them for rsr.  The tensor forms no
  sums: ``rsr(A + B)`` is the set of c with ``c + g`` in ``rsr(B)`` for
  every g of a generating set of A (members whose closure holds A), and
  translating ``rsr(B)`` down by g is one such step per bit of g.  The
  tensor is rsr of the meet of those translates.
* multiset mode -- a position's grid code is ``sum_k q_k * (2cap+1)^k`` over
  its 2n counts (``Frame.position_codes``).  Sums of window positions have
  counts up to ``2*cap``, so codes add without carries and adding a
  position is a left shift.  The relation over the whole grid is the
  frame's compiled int ``Frame.bot_bits()``, so ``p^bot`` on grid codes is
  ``bot_bits >> code(p)`` masked to the window codes.  rsr ANDs those
  shifts over the members of a mask; closure runs rsr again over the bits
  of that grid mask; the tensor shifts the grid image of one role by each
  member of the other, drops the sums that leave the window, and closes
  the rest on the grid.  Each converts to a window mask once, at the end.
  The blocker list, each ``p^bot`` gathered at the window codes, is built
  only when ``blocker_masks`` reads it (``principal_blockers``,
  ``role_lattice``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Union

from .frames import Frame, FrameError, Position

DEFAULT_MAX_ROLES = 1 << 20
# Largest window the kernel serves.  Set mode stores W blockers of W bits,
# 32 MB at the limit; multiset mode stores them only when they are read.
MAX_BLOCKER_WINDOW = 1 << 14


class LatticeSizeError(FrameError):
    """Role lattice exceeded the configured bound."""


class _SetKernel:
    """Set-mode kernel: every ``p^bot``, stored, and the tensor by residuation."""

    __slots__ = ("blockers", "full_mask", "_with_bit", "_generated")

    def __init__(self, frame: Frame, size: int):
        self.full_mask = (1 << size) - 1
        with_bit = []
        for k in range(2 * frame.n):
            low = 1 << k
            mask, period = ((1 << low) - 1) << low, 2 * low
            while period < size:
                mask |= mask << period
                period *= 2
            with_bit.append(mask)
        self._with_bit = with_bit
        self._generated: dict[int, tuple[int, tuple[int, ...]]] = {}
        blockers = [frame.bot_window_mask()] * size
        for p in range(1, size):
            low = p & -p
            c = blockers[p ^ low] & with_bit[low.bit_length() - 1]
            blockers[p] = c | (c >> low)
        self.blockers = blockers

    def rsr_mask(self, mask: int) -> int:
        out, blockers = self.full_mask, self.blockers
        for i in _iter_bits(mask):
            out &= blockers[i]
            if not out:
                break
        return out

    def closure_mask(self, mask: int) -> int:
        return self.rsr_mask(self.rsr_mask(mask))

    def _generators(self, mask: int) -> tuple[int, tuple[int, ...]]:
        """rsr of a mask and the members that strictly shrank the running
        meet of blockers, ascending: their rsr is the mask's, so their
        closure holds the mask."""
        hit = self._generated.get(mask)
        if hit is None:
            out, blockers, kept = self.full_mask, self.blockers, []
            for i in _iter_bits(mask):
                met = out & blockers[i]
                if met != out:
                    kept.append(i)
                    out = met
                    if not out:
                        break
            hit = self._generated[mask] = (out, tuple(kept))
        return hit

    def tensor_closure(self, a_mask: int, b_mask: int) -> int:
        # rsr(A + B) = {c : c + g in rsr(B) for every g in G} for any G whose
        # closure holds A: for each c, {a : c + a in rsr(B)} = rsr(c + B) is
        # closed.  Meet rsr(B) translated down by each generator of the side
        # with fewer of them; the tensor is rsr of that meet.
        rsr_a, gens_a = self._generators(a_mask)
        rsr_b, gens_b = self._generators(b_mask)
        gens, other = (gens_b, rsr_a) if len(gens_b) < len(gens_a) else (gens_a, rsr_b)
        with_bit, meet = self._with_bit, self.full_mask
        for g in gens:
            n = other
            while g:
                low = g & -g
                n &= with_bit[low.bit_length() - 1]
                n |= n >> low
                g ^= low
            meet &= n
            if not meet:
                break
        return self.rsr_mask(meet)


class _MultisetKernel:
    """Multiset-mode kernel on grid codes; ``p^bot`` is read off the relation."""

    __slots__ = ("full_mask", "_bot", "_codes", "_grid_bits", "_window_grid",
                 "_gather", "_scatter", "_blockers")

    def __init__(self, frame: Frame, size: int):
        self.full_mask = (1 << size) - 1
        codes = frame.position_codes(frame.window())
        grid_bits = frame.code_radix() ** (2 * frame.n)
        # Grid strings hold one '0'/'1' per grid code, lowest code first.
        # _gather reads the window codes of such a string as a window mask;
        # _scatter places the digits of a window mask, highest bit first and
        # a '0' appended, at the grid codes, highest code first.
        self._gather = itemgetter(*reversed(codes))
        where = dict(zip(codes, range(size - 1, -1, -1)))
        self._scatter = itemgetter(*(where.get(c, size) for c in range(grid_bits - 1, -1, -1)))
        self._codes = codes
        self._grid_bits = grid_bits
        self._bot = frame.bot_bits()
        self._window_grid = self._to_grid(self.full_mask)
        self._blockers = None

    @property
    def blockers(self) -> list[int]:
        if self._blockers is None:
            bot = f"{self._bot:0{self._grid_bits}b}"[::-1]
            gather = self._gather
            self._blockers = [int("".join(gather(bot[c:])), 2) for c in self._codes]
        return self._blockers

    def _to_grid(self, mask: int) -> int:
        size = len(self._codes)
        return int("".join(self._scatter(f"{mask:0{size}b}0")), 2)

    def _from_grid(self, grid: int) -> int:
        return int("".join(self._gather(f"{grid:0{self._grid_bits}b}"[::-1])), 2)

    def _meet(self, codes) -> int:
        """The window codes c with c + g in the relation for every g in
        ``codes``, as a grid mask: rsr of the positions with those codes."""
        out, bot = self._window_grid, self._bot
        for g in codes:
            out &= bot >> g
            if not out:
                break
        return out

    def _rsr_grid(self, mask: int) -> int:
        return self._meet(map(self._codes.__getitem__, _iter_bits(mask)))

    def rsr_mask(self, mask: int) -> int:
        return self._from_grid(self._rsr_grid(mask))

    def closure_mask(self, mask: int) -> int:
        return self._from_grid(self._meet(_iter_bits(self._rsr_grid(mask))))

    def tensor_closure(self, a_mask: int, b_mask: int) -> int:
        # Shift the grid image of the larger side by each member of the smaller.
        if a_mask.bit_count() > b_mask.bit_count():
            a_mask, b_mask = b_mask, a_mask
        codes, b_grid, sums = self._codes, self._to_grid(b_mask), 0
        for a in _iter_bits(a_mask):
            sums |= b_grid << codes[a]
        sums &= self._window_grid
        return self._from_grid(self._meet(_iter_bits(self._meet(_iter_bits(sums)))))


_Kernel = Union[_SetKernel, _MultisetKernel]


def kernel_window(frame: Frame) -> int:
    """The size of the window the frame's kernel serves, read without
    building the window; raises if it is too large for the kernel."""
    size = frame.window_cardinality()
    if size > MAX_BLOCKER_WINDOW:
        raise FrameError(
            f"window of {size} positions is too large for principal blockers "
            f"(limit {MAX_BLOCKER_WINDOW})"
        )
    return size


def _cache(frame: Frame) -> _Kernel:
    if frame._rsr_cache is None:
        kernel = _SetKernel if frame.mode == "set" else _MultisetKernel
        frame._rsr_cache = kernel(frame, kernel_window(frame))
    return frame._rsr_cache


def blocker_masks(frame: Frame) -> list[int]:
    """``p^bot`` for every window position, by window index.  Multiset
    frames build this list on the first call; rsr, closure and the tensor
    never read it."""
    return _cache(frame).blockers


def full_mask(frame: Frame) -> int:
    return _cache(frame).full_mask


def tensor_closure(frame: Frame, a_mask: int, b_mask: int) -> int:
    """The tensor of two window masks, ``closure(A + B)``.  In multiset mode
    the sums a + b that leave the window are dropped before closing."""
    return _cache(frame).tensor_closure(a_mask, b_mask)


def _iter_bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    # Stripping the lowest bit copies the whole int each time, which is
    # quadratic in the width; a binary-string scan pays a fixed cost for
    # bin() instead.  The two break even between about 300 and 1024 bits:
    # the loop is up to 2x faster on the 16-289-bit masks of 1-3-atom
    # frames, the scan 10x faster on the 16384-bit window of 7 atoms.
    if mask.bit_length() <= 1024:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    bits = bin(mask)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


def rsr_mask(frame: Frame, mask: int) -> int:
    return _cache(frame).rsr_mask(mask)


def closure_mask(frame: Frame, mask: int) -> int:
    return _cache(frame).closure_mask(mask)


# ---------------------------------------------------------------------------
# Position sets and roles
# ---------------------------------------------------------------------------


class PositionSet:
    """A set of window positions over a fixed frame, stored as a bitmask."""

    __slots__ = ("frame", "mask")

    def __init__(self, frame: Frame, mask: int):
        self.frame = frame
        self.mask = mask

    @classmethod
    def from_positions(cls, frame: Frame, positions: Iterable[Position]) -> "PositionSet":
        mask = 0
        for p in positions:
            idx = frame.window_index(p)
            if idx is None:
                raise FrameError(f"position outside the window: {p.render(frame.atoms)}")
            mask |= 1 << idx
        return cls(frame, mask)

    @classmethod
    def empty(cls, frame: Frame) -> "PositionSet":
        return cls(frame, 0)

    @classmethod
    def full(cls, frame: Frame) -> "PositionSet":
        return cls(frame, full_mask(frame))

    def positions(self) -> tuple[Position, ...]:
        window = self.frame.window()
        return tuple(window[i] for i in _iter_bits(self.mask))

    def __contains__(self, p: Position) -> bool:
        idx = self.frame.window_index(p)
        return idx is not None and bool(self.mask >> idx & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.positions())

    def __eq__(self, other):
        return (
            isinstance(other, PositionSet)
            and self.mask == other.mask
            and self.frame == other.frame
        )

    def __hash__(self):
        return hash((self.mask, self.frame))

    def __le__(self, other: "PositionSet") -> bool:
        return self.mask | other.mask == other.mask

    def __and__(self, other: "PositionSet") -> "PositionSet":
        return PositionSet(self.frame, self.mask & other.mask)

    def __or__(self, other: "PositionSet") -> "PositionSet":
        return PositionSet(self.frame, self.mask | other.mask)

    def __repr__(self):
        inner = ", ".join(p.render(self.frame.atoms) for p in self.positions())
        return "{" + inner + "}"


class Role(PositionSet):
    """A bot-bot-closed position set: an element of the frame's role lattice."""


PositionSetLike = Union[PositionSet, Iterable[Position]]


def _as_mask(frame: Frame, A: PositionSetLike) -> int:
    if isinstance(A, PositionSet):
        if A.frame != frame:
            raise FrameError("position set belongs to a different frame")
        return A.mask
    return PositionSet.from_positions(frame, A).mask


# rsr, closure and is_role fetch the kernel before reading their argument:
# the kernel refuses a frame too large for blockers before the window that
# indexes the argument's positions is built.


def rsr(frame: Frame, A: PositionSetLike) -> Role:
    """Range of subjunctive robustness of A; rsr of the empty set is the full window."""
    _cache(frame)
    return Role(frame, rsr_mask(frame, _as_mask(frame, A)))


def closure(frame: Frame, A: PositionSetLike) -> Role:
    """Double-negation closure rsr(rsr(A))."""
    _cache(frame)
    return Role(frame, closure_mask(frame, _as_mask(frame, A)))


def is_role(frame: Frame, A: PositionSetLike) -> bool:
    _cache(frame)
    mask = _as_mask(frame, A)
    return closure_mask(frame, mask) == mask


def principal_blockers(frame: Frame) -> dict[Position, Role]:
    """p^bot for every window position p (the generating set of the lattice)."""
    blockers = blocker_masks(frame)
    window = frame.window()
    return {p: Role(frame, blockers[i]) for i, p in enumerate(window)}


# ---------------------------------------------------------------------------
# The role lattice
# ---------------------------------------------------------------------------


class RoleLattice:
    """All roles of a frame, in a deterministic order.

    The lattice is the meet-closure (under intersection) of the principal
    blockers together with the full window; since rsr of any set is the
    intersection of its members' blockers, this is exactly the image of rsr.
    Roles are ordered by descending cardinality, ties broken by bitmask value.
    """

    __slots__ = ("frame", "roles", "_index", "full_index", "bottom_index")

    def __init__(self, frame: Frame, masks: Iterable[int]):
        self.frame = frame
        ordered = sorted(set(masks), key=lambda m: (-m.bit_count(), m))
        self.roles = tuple(Role(frame, m) for m in ordered)
        self._index = {m: i for i, m in enumerate(ordered)}
        self.full_index = self._index[full_mask(frame)]
        meet_all = full_mask(frame)
        for m in ordered:
            meet_all &= m
        self.bottom_index = self._index[meet_all]

    def __len__(self) -> int:
        return len(self.roles)

    def __iter__(self):
        return iter(self.roles)

    def __getitem__(self, i: int) -> Role:
        return self.roles[i]

    def index_of(self, role: Union[Role, int]) -> int:
        mask = role.mask if isinstance(role, PositionSet) else role
        try:
            return self._index[mask]
        except KeyError:
            raise FrameError("set is not a role of this lattice") from None


def role_lattice(frame: Frame, max_roles: int = DEFAULT_MAX_ROLES) -> RoleLattice:
    """Enumerate the role lattice: every intersection of principal blockers.

    Starting from the full window (the empty intersection), each distinct
    blocker in turn is met with every role found so far.
    """
    closed = {full_mask(frame)}
    for g in set(blocker_masks(frame)):
        closed |= {x & g for x in closed}
        if len(closed) > max_roles:
            raise LatticeSizeError(f"role lattice exceeds {max_roles} roles")
    return RoleLattice(frame, closed)
