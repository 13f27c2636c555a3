"""Atom-to-atom frame morphisms and their validity checks.

A morphism candidate is any total map between the atom vocabularies of two
same-mode frames.  Validity requires it to preserve the incoherence relation
and to be continuous; the continuity decision procedure used here is the
preimage form (closures of preimages of principal blockers stay put).
Conservativity is the stronger two-way transport of incoherence along the
map.

The checks work on masks over the source window.  Each source position's
image f(p) is one target code, and the target relation is compiled into
one int (``Frame.bot_bits()``), so whether the images, or their sums with
a target position y, are incoherent is one gather of that int's bits.  The
relation is symmetric, y in f(p)^bot iff f(p) in y^bot, so that gather is
the preimage f^-1(y^bot); continuity closes it with ``rsr.closure_mask``.
The checks call no ``Frame.bot_member``; ``oracles.continuity_condition4``
is the reference.

In multiset mode the relation is decided for counts up to twice the cap.
A merging map can send a window position, or its sum with y, above the
target's ``2*cap``; the window-relative relation counts such a position as
coherent, as the tensor drops sums that leave the window, and a verdict
that read one has ``Verdict.truncated`` set.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping

from .frames import Frame, FrameError, ModeMismatchError, Position, Verdict
from .rsr import closure_mask, kernel_window


class FrameMorphism:
    """A total map between the atom sets of two frames of the same mode."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: Frame, target: Frame, mapping: Mapping[str, str]):
        if source.mode != target.mode:
            raise ModeMismatchError("morphisms require both frames in the same mode")
        missing = set(source.atoms.names) - set(mapping)
        if missing:
            raise FrameError(f"mapping is not total; missing {sorted(missing)}")
        for src, tgt in mapping.items():
            if src not in source.atoms:
                raise FrameError(f"unknown source atom {src!r}")
            if tgt not in target.atoms:
                raise FrameError(f"unknown target atom {tgt!r}")
        self.source = source
        self.target = target
        self.mapping = {name: mapping[name] for name in source.atoms.names}

    def __repr__(self):
        arrows = ", ".join(f"{a}->{b}" for a, b in self.mapping.items())
        return f"FrameMorphism({arrows})"

    def apply(self, p: Position) -> Position:
        """Image position: multiplicities accumulate on merged atoms (set mode:
        union, since counts collapse to 0/1)."""
        tgt_index = self.target.atoms.index
        n = len(self.target.atoms)
        left = [0] * n
        right = [0] * n
        for i, name in enumerate(self.source.atoms.names):
            j = tgt_index[self.mapping[name]]
            left[j] += p.left[i]
            right[j] += p.right[i]
        if self.source.mode == "set":
            left = [min(c, 1) for c in left]
            right = [min(c, 1) for c in right]
        return Position(tuple(left), tuple(right))


class _Images:
    """The images f(p) of a list of source positions, as target codes.

    ``at(y, code(y))`` reads the target relation at every f(p) + y (the
    union in set mode) as a mask over the list: the relation is compiled
    into one int (``Frame.bot_bits()``), so this is one gather of its bits
    at ``image_code + code(y)`` (``image_code | code(y)``).  In multiset
    mode a sum with a count above the target's ``2*cap`` has no code; the
    window-relative relation counts it as coherent, and ``at`` returns the
    mask of those sums next to the members."""

    __slots__ = ("_codes", "_set_mode", "_bits", "_get", "_top", "_fits", "_full")

    def __init__(self, m: FrameMorphism, positions):
        tgt = m.target
        n, r = tgt.n, tgt.code_radix()
        index = tgt.atoms.index
        dest = [index[m.mapping[name]] for name in m.source.atoms.names]
        dest += [n + j for j in dest]
        weights = [r ** j for j in range(2 * n)]
        self._set_mode = tgt.mode == "set"
        codes = []
        if self._set_mode:
            for p in positions:
                hit = [0] * (2 * n)
                for j, q in zip(dest, p.left + p.right):
                    hit[j] |= q
                codes.append(sum(c * w for c, w in zip(hit, weights)))
        else:
            self._top = top = 2 * tgt.cap
            # fits[j][v]: the images whose count j is at most v.
            fits = [[0] * (top + 1) for _ in range(2 * n)]
            for i, p in enumerate(positions):
                counts = [0] * (2 * n)
                for j, q in zip(dest, p.left + p.right):
                    counts[j] += q
                codes.append(sum(c * w for c, w in zip(counts, weights)))
                for row, c in zip(fits, counts):
                    if c <= top:
                        row[c] |= 1 << i
            for row in fits:
                for v in range(1, top + 1):
                    row[v] |= row[v - 1]
            self._fits = fits
        self._full = (1 << len(codes)) - 1
        self._codes = codes
        grid = r ** (2 * n)
        # Room for every image code plus any window code of the target.
        width = grid if self._set_mode else max(codes) + grid
        self._bits = f"{tgt.bot_bits():0{width}b}"[::-1]
        self._get = itemgetter(*reversed(codes))

    def at(self, y: Position, y_code: int) -> tuple[int, int]:
        """(members, outside) for the sums f(p) + y, as masks over the list."""
        if self._set_mode:
            got = itemgetter(*[c | y_code for c in reversed(self._codes)])(self._bits)
            return int("".join(got), 2), 0
        inside, top = self._full, self._top
        for row, c in zip(self._fits, y.left + y.right):
            inside &= row[top - c]
        return int("".join(self._get(self._bits[y_code:])), 2) & inside, self._full ^ inside


def _first_difference(diff: int, outside: int, window) -> Verdict:
    """Verdict on a mask of failing window positions: the lowest one is the witness.
    The verdict is truncated when a position up to the witness (every
    position, if none fails) had an image outside the target's range."""
    if not diff:
        return Verdict(True, None, bool(outside))
    low = diff & -diff
    return Verdict(False, window[low.bit_length() - 1], bool(outside & (2 * low - 1)))


def _conservativity_frame(m: FrameMorphism) -> Frame:
    src = m.source
    if src.mode == "set":
        return src
    return src.with_cap(min(src.cap, m.target.cap))


def check_conservative(m: FrameMorphism) -> Verdict:
    """Incoherence transported both ways along the map, over the whole window
    (in multiset mode: up to the smaller cap).  Witness: a position where
    the two verdicts differ."""
    src = _conservativity_frame(m)
    window = src.window()
    members, outside = _Images(m, window).at(Position.zero(m.target.n), 0)
    return _first_difference(src.bot_window_mask() ^ members, outside, window)


def preserves_bot(m: FrameMorphism) -> Verdict:
    window = m.source.window()
    members, outside = _Images(m, window).at(Position.zero(m.target.n), 0)
    bot = m.source.bot_window_mask()
    return _first_difference(bot & ~members, bot & outside, window)


def _check_continuity_window(m: FrameMorphism):
    if m.source.mode == "multiset" and m.source.cap != m.target.cap:
        raise ModeMismatchError(
            "continuity needs equal caps in multiset mode (window-relative check)"
        )


def continuity_condition3(m: FrameMorphism) -> Verdict:
    """Preimage form of continuity: for every target position y, the closure
    of f^-1(y^bot) is contained in f^-1(y^bot).  Witness on failure: the
    offending y together with the escaping source position.

    y is in f(p)^bot iff f(p) + y is incoherent, so each preimage is one
    gather of the target relation at the image codes shifted by code(y).
    The verdict is truncated when a sum read up to the verdict left the
    target's range."""
    _check_continuity_window(m)
    src, tgt = m.source, m.target
    src_window, tgt_window = src.window(), tgt.window()
    images = _Images(m, src_window)
    truncated = False
    for y, y_code in zip(tgt_window, tgt.position_codes(tgt_window)):
        preimage, outside = images.at(y, y_code)
        truncated = truncated or bool(outside)
        escaped = closure_mask(src, preimage) & ~preimage
        if escaped:
            leak = src_window[(escaped & -escaped).bit_length() - 1]
            return Verdict(False, {"target_position": y, "escaping_position": leak}, truncated)
    return Verdict(True, None, truncated)


def check_continuous(m: FrameMorphism) -> Verdict:
    """Full morphism validity: incoherence preservation plus continuity."""
    # Continuity needs the source's kernel: refuse an oversized source first.
    kernel_window(m.source)
    pres = preserves_bot(m)
    if not pres.ok:
        return Verdict(False, {"bot_preservation": pres.witness}, pres.truncated)
    return continuity_condition3(m)
