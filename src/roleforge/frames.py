"""Signed incompatibility frames.

A frame declares a finite atom vocabulary together with its incoherence
relation: the set of positions (pairs of signed atom multisets) that count
as good implications.  Frames come in two flavours:

* ``set`` mode -- positions are pairs of atom *sets*; the whole position
  space ``2^(2n)`` is finite and enumerated exactly.
* ``multiset`` mode -- positions are pairs of atom *multisets*; the space
  is infinite, so a degree ``cap`` bounds the enumerable window.  The
  incoherence relation stays decidable for counts up to ``2*cap`` so that
  pointwise sums of two window positions never fall off the map.

Everything in this module is an immutable value; all operations are pure.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

ATOM_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")

SET_MODE_ATOM_LIMIT = 16
MAX_WINDOW = 1 << 20
# Largest position-code range compiled by bot_bits: a 2 MB int, 12 set-mode atoms.
MAX_RELATION_CODES = 1 << 24

GENERATOR_NAMES = ("diagonal", "containment", "reflexivity")


class FrameError(ValueError):
    """Base class for frame construction and usage errors."""


class FrameSyntaxError(FrameError):
    """Malformed frame file, with 1-based line/column coordinates."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PositionRangeError(FrameError):
    """Position not encodable under the frame's mode/cap."""


class ModeMismatchError(FrameError):
    """Operation mixing set-mode and multiset-mode frames."""


class Verdict(NamedTuple):
    """Boolean check result carrying a counterexample when false.

    ``truncated`` marks a window-relative verdict that read the relation
    at a position with a count above ``2*cap``, where it is undecided and
    counted as coherent (multiset morphism checks)."""

    ok: bool
    witness: object = None
    truncated: bool = False

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Atoms and positions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomTable:
    """Ordered vocabulary of distinct atom identifiers."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise FrameError("a frame needs at least one atom")
        seen = set()
        for name in self.names:
            if not ATOM_NAME_RE.match(name):
                raise FrameError(f"invalid atom identifier {name!r}")
            if name in seen:
                raise FrameError(f"duplicate atom {name!r}")
            seen.add(name)

    @functools.cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index


@dataclass(frozen=True)
class Position:
    """A candidate implication: per-atom counts on each side of the turnstile.

    ``left[i]`` / ``right[i]`` are the multiplicities of atom ``i`` among the
    premises / conclusions.  Set-mode frames only admit counts 0 and 1.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        if len(self.left) != len(self.right):
            raise FrameError("left/right count vectors differ in length")
        if min(self.left + self.right, default=0) < 0:
            raise FrameError("negative multiplicity in position")

    @classmethod
    def zero(cls, n: int) -> "Position":
        return cls((0,) * n, (0,) * n)

    @classmethod
    def of(cls, atoms: AtomTable, left: Iterable[str] = (), right: Iterable[str] = ()) -> "Position":
        """Build a position from atom name sequences (repetition = multiplicity)."""
        lcounts = [0] * len(atoms)
        rcounts = [0] * len(atoms)
        for name in left:
            lcounts[atoms.index[name]] += 1
        for name in right:
            rcounts[atoms.index[name]] += 1
        return cls(tuple(lcounts), tuple(rcounts))

    @property
    def degree(self) -> int:
        return sum(self.left) + sum(self.right)

    def is_setlike(self) -> bool:
        return max(self.left + self.right, default=0) <= 1

    def has_overlap(self) -> bool:
        return any(l >= 1 and r >= 1 for l, r in zip(self.left, self.right))

    def add(self, other: "Position") -> "Position":
        """Componentwise multiset sum (no mode/cap checks; see Frame.position_sum)."""
        return Position(
            tuple(a + b for a, b in zip(self.left, other.left)),
            tuple(a + b for a, b in zip(self.right, other.right)),
        )

    def union(self, other: "Position") -> "Position":
        return Position(
            tuple(map(max, self.left, other.left)),
            tuple(map(max, self.right, other.right)),
        )

    def render(self, atoms: AtomTable) -> str:
        """Frame-file syntax, e.g. ``a, a |- b`` or ``|-`` for the empty position."""

        def side(counts):
            parts = []
            for name, c in zip(atoms.names, counts):
                parts.extend([name] * c)
            return ", ".join(parts)

        lhs, rhs = side(self.left), side(self.right)
        if lhs and rhs:
            return f"{lhs} |- {rhs}"
        if lhs:
            return f"{lhs} |-"
        if rhs:
            return f"|- {rhs}"
        return "|-"


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


class Frame:
    """Atom vocabulary plus a decidable incoherence relation.

    Membership in the relation is the union of an explicit position list and
    any enabled intensional generators:

    * ``diagonal`` -- accepts positions whose two sides are equal multisets;
    * ``reflexivity`` -- accepts the singleton diagonals ``x |- x``;
    * ``containment`` -- accepts any position with an atom on both sides.
    """

    __slots__ = (
        "atoms", "mode", "cap", "explicit", "generators",
        "_window", "_windex", "_bot_bits", "_explicit_codes", "_rsr_cache", "__weakref__",
    )

    def __init__(
        self,
        atoms: AtomTable | Iterable[str],
        mode: str,
        *,
        cap: Optional[int] = None,
        explicit: Iterable[Position] = (),
        generators: Iterable[str] = (),
    ):
        if not isinstance(atoms, AtomTable):
            atoms = AtomTable(tuple(atoms))
        if mode not in ("set", "multiset"):
            raise FrameError(f"unknown mode {mode!r}")
        if mode == "set":
            if cap is not None:
                raise FrameError("cap is only meaningful in multiset mode")
            if len(atoms) > SET_MODE_ATOM_LIMIT:
                raise FrameError(
                    f"set mode supports at most {SET_MODE_ATOM_LIMIT} atoms "
                    f"(position space 2^(2n) must be materializable), got {len(atoms)}"
                )
        else:
            if cap is None:
                raise FrameError("cap is required in multiset mode")
            if not isinstance(cap, int) or cap < 1:
                raise FrameError("cap must be a positive integer")
        gens = frozenset(generators)
        unknown = gens - set(GENERATOR_NAMES)
        if unknown:
            raise FrameError(f"unknown generators: {sorted(unknown)}")

        self.atoms = atoms
        self.mode = mode
        self.cap = cap
        self.generators = gens

        checked = []
        for p in explicit:
            self._check_arity(p)
            self._check_encodable(p)
            checked.append(p)
        self.explicit = frozenset(checked)

        self._window: Optional[tuple[Position, ...]] = None
        self._windex: Optional[dict[Position, int]] = None
        self._bot_bits: Optional[int] = None
        self._explicit_codes: Optional[frozenset[int]] = None
        self._rsr_cache = None

    # -- value semantics ----------------------------------------------------

    def _key(self):
        return (self.atoms, self.mode, self.cap, self.explicit, self.generators)

    def __eq__(self, other):
        return isinstance(other, Frame) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        cap = f", cap={self.cap}" if self.cap is not None else ""
        return (
            f"Frame(atoms={list(self.atoms.names)}, mode={self.mode!r}{cap}, "
            f"|explicit|={len(self.explicit)}, generators={sorted(self.generators)})"
        )

    @property
    def n(self) -> int:
        return len(self.atoms)

    # -- encodability -------------------------------------------------------

    def _check_arity(self, p: Position):
        if len(p.left) != self.n:
            raise FrameError(f"position arity {len(p.left)} does not match {self.n} atoms")

    def _check_encodable(self, p: Position):
        if self.mode == "set":
            if not p.is_setlike():
                raise PositionRangeError(f"multiplicity above 1 in set mode: {p.render(self.atoms)}")
        else:
            bound = 2 * self.cap
            if max(p.left + p.right, default=0) > bound:
                raise PositionRangeError(
                    f"count above 2*cap={bound} in {p.render(self.atoms)}"
                )

    def parse_position(self, text: str) -> Position:
        """The position ``text`` names in frame-file syntax, e.g. ``a, a |- b``:
        comma-separated atoms of this frame on each side of one ``|-``."""
        body = text.strip()
        if body.count("|-") != 1:
            raise FrameError(f"expected exactly one '|-' in position {text!r}")
        lhs, rhs = ([name.strip() for name in side.split(",")] if side.strip() else []
                    for side in body.split("|-"))
        names = lhs + rhs
        if "" in names:
            raise FrameError(f"empty atom between commas in position {text!r}")
        for name in names:
            if name not in self.atoms:
                raise FrameError(f"unknown atom {name!r} in position {text!r}")
        p = Position.of(self.atoms, lhs, rhs)
        if self.mode == "multiset":
            self._check_encodable(p)
        elif not p.is_setlike():
            raise FrameError(f"repeated atom on one side in set mode: {text!r}")
        return p

    def position(self, left: Iterable[str] = (), right: Iterable[str] = ()) -> Position:
        """Position from atom name sequences; in set mode repetitions collapse."""
        p = Position.of(self.atoms, left, right)
        if self.mode == "set":
            p = Position(
                tuple(min(c, 1) for c in p.left),
                tuple(min(c, 1) for c in p.right),
            )
        self._check_encodable(p)
        return p

    # -- the incoherence relation --------------------------------------------

    def bot_member(self, p: Position) -> bool:
        """Decide ``p`` against the incoherence relation.

        This is the relation's specification: the frame's membership rules
        written out one position at a time.  ``bot_bits`` compiles the same
        relation into an int for the blocker kernel, the morphism checks and
        the conservativity suite, and ``bot_code`` decides set-mode codes
        for classical consequence and containment; NMMS leaves,
        ``is_reflexive`` and the oracles decide positions here.

        Works for any encodable position (counts up to ``2*cap`` in multiset
        mode), not just window positions, so sums of window positions are
        always decidable.
        """
        self._check_arity(p)
        self._check_encodable(p)
        if p in self.explicit:
            return True
        if "diagonal" in self.generators and p.left == p.right:
            return True
        if "containment" in self.generators and p.has_overlap():
            return True
        if "reflexivity" in self.generators and p.degree == 2 and p.left == p.right:
            return True
        return False

    def bot_code(self, code: int) -> bool:
        """``bot_member`` of the set-mode position whose 2n-bit code is
        ``code`` (left bits low, right bits high), read off the code itself,
        so it holds at every atom count, where ``bot_bits`` stops at 12."""
        if self.mode != "set":
            raise ModeMismatchError("position codes are decided directly in set mode only")
        if self._explicit_codes is None:
            self._explicit_codes = frozenset(self.position_codes(self.explicit))
        if code in self._explicit_codes:
            return True
        n = self.n
        left, right = code & ((1 << n) - 1), code >> n
        gens = self.generators
        if left == right and (
            "diagonal" in gens or ("reflexivity" in gens and left.bit_count() == 1)
        ):
            return True
        return "containment" in gens and left & right != 0

    def code_radix(self) -> int:
        """Radix of position codes: 2 in set mode, ``2*cap + 1`` in multiset mode."""
        return 2 if self.mode == "set" else 2 * self.cap + 1

    def position_codes(self, positions: Iterable[Position]) -> list[int]:
        """``code(p) = sum_k q_k * r**k`` over the left counts, then the right
        counts, with ``r = code_radix()``.  Every encodable position has a
        code below ``r**(2n)``; in set mode it is the window index."""
        r = self.code_radix()
        weights = [r ** k for k in range(2 * self.n)]
        return [sum(q * w for q, w in zip(p.left + p.right, weights)) for p in positions]

    def bot_bits(self) -> int:
        """The relation compiled once into one int: bit ``code(p)`` is set iff
        ``bot_member(p)``, for every encodable position ``p``.

        Each explicit position sets its own bit.  Reflexivity sets the codes
        ``r**k + r**(n+k)``; the diagonal sets ``L * (r**n + 1)`` for every
        left code ``L < r**n``; containment is ``OR_k (nz_k & nz_(n+k))``,
        where ``nz_j`` marks the codes whose digit j is nonzero.
        """
        if self._bot_bits is None:
            n, r = self.n, self.code_radix()
            size, half = r ** (2 * n), r ** n
            if size > MAX_RELATION_CODES:
                raise FrameError(
                    f"relation over {size} position codes is too large to compile "
                    f"(limit {MAX_RELATION_CODES})"
                )
            bits = 0
            for code in self.position_codes(self.explicit):
                bits |= 1 << code
            if "reflexivity" in self.generators:
                for k in range(n):
                    bits |= 1 << (r ** k + r ** (n + k))
            if "diagonal" in self.generators:
                # Highest code first: a '1' every r**n + 1 codes from code 0.
                bits |= int(("1" + "0" * half) * (half - 1) + "1", 2)
            if "containment" in self.generators:
                def nonzero(j: int) -> int:
                    # Per period r**(j+1), highest code first: digit j is
                    # nonzero on the top (r-1) * r**j codes, zero below.
                    w = r ** j
                    return int(("1" * ((r - 1) * w) + "0" * w) * (size // (r * w)), 2)

                for k in range(n):
                    bits |= nonzero(k) & nonzero(n + k)
            self._bot_bits = bits
        return self._bot_bits

    def position_sum(self, p: Position, q: Position) -> Position:
        """Componentwise sum (multiset mode) or union (set mode)."""
        self._check_arity(p)
        self._check_arity(q)
        if self.mode == "set":
            self._check_encodable(p)
            self._check_encodable(q)
            return p.union(q)
        out = p.add(q)
        self._check_encodable(out)
        return out

    # -- the enumerable window ----------------------------------------------

    def window(self) -> tuple[Position, ...]:
        """All window positions in canonical order.

        Set mode: bit-word order (left bits low, right bits high), so a
        position's window index equals its 2n-bit code.  Multiset mode:
        graded by total degree, then lexicographic on the count vectors.
        ``order_key`` sorts positions into this order; the empty position
        comes first.
        """
        if self._window is None:
            n = self.n
            if self.mode == "set":
                size = 1 << (2 * n)
                if size > MAX_WINDOW:
                    raise FrameError("window too large to materialize")
                positions = []
                for code in range(size):
                    left = tuple((code >> i) & 1 for i in range(n))
                    right = tuple((code >> (n + i)) & 1 for i in range(n))
                    positions.append(Position(left, right))
            else:
                if (self.cap + 1) ** (2 * n) > MAX_WINDOW:
                    raise FrameError("window too large to materialize")
                counts = range(self.cap + 1)
                positions = [
                    Position(vec[:n], vec[n:])
                    for vec in itertools.product(counts, repeat=2 * n)
                ]
                positions.sort(key=self.order_key)
            self._window = tuple(positions)
            self._windex = {p: i for i, p in enumerate(self._window)}
        return self._window

    def order_key(self, p: Position) -> tuple:
        """Sort key of the window's order (see ``window``).  In set mode it
        is the digits of the position's code, most significant first."""
        if self.mode == "set":
            return (p.left + p.right)[::-1]
        return (p.degree, p.left + p.right)

    def window_index(self, p: Position) -> Optional[int]:
        self.window()
        return self._windex.get(p)

    def window_cardinality(self) -> int:
        """Size of the window, computed arithmetically (never materializes)."""
        if self.mode == "set":
            return 1 << (2 * self.n)
        return (self.cap + 1) ** (2 * self.n)

    def in_window(self, p: Position) -> bool:
        return self.window_index(p) is not None

    def bot_window_mask(self) -> int:
        """Bitmask (bit i = window position i) of the window part of the relation.

        In set mode a window index is the position's code, so this is
        ``bot_bits()`` itself; in multiset mode it reads ``bot_bits()`` at
        the window codes.
        """
        if self.mode == "set":
            return self.bot_bits()
        codes = self.position_codes(self.window())
        grid = f"{self.bot_bits():0{self.code_radix() ** (2 * self.n)}b}"[::-1]
        return int("".join(itemgetter(*reversed(codes))(grid)), 2)

    def with_cap(self, cap: int) -> "Frame":
        """Same frame data at a different window cap (multiset mode only)."""
        if self.mode != "multiset":
            raise ModeMismatchError("with_cap applies to multiset frames")
        return Frame(self.atoms, "multiset", cap=cap,
                     explicit=self.explicit, generators=self.generators)

    # -- structural predicates ------------------------------------------------

    def is_reflexive(self) -> Verdict:
        """Every atom x validates x |- x; witness is a violating atom."""
        for i, name in enumerate(self.atoms.names):
            unit = tuple(1 if j == i else 0 for j in range(self.n))
            if not self.bot_member(Position(unit, unit)):
                return Verdict(False, name)
        return Verdict(True)

    def is_containment(self) -> Verdict:
        """Every overlapping position is incoherent; witness is a violating position.

        Only meaningful for idempotent (set-mode) frames.
        """
        if self.mode != "set":
            raise ModeMismatchError("containment is a set-mode predicate")
        if "containment" in self.generators:
            return Verdict(True)
        # Codes in window order; a code whose right half is empty has no overlap.
        n = self.n
        for right in range(1, 1 << n):
            for left in range(1 << n):
                if left & right and not self.bot_code(left | right << n):
                    return Verdict(False, Position(
                        tuple(left >> i & 1 for i in range(n)),
                        tuple(right >> i & 1 for i in range(n)),
                    ))
        return Verdict(True)


# ---------------------------------------------------------------------------
# Frame files
# ---------------------------------------------------------------------------

_COMMENT_RE = re.compile(r"#.*")


def parse_frame(text: str) -> Frame:
    """Parse frame-file contents (see the README for the grammar)."""
    atoms_names: Optional[list[str]] = None
    mode: Optional[str] = None
    cap: Optional[int] = None
    generators: Optional[list[str]] = None
    incoherent: Optional[list[tuple[str, int, int]]] = None

    lines = text.splitlines()
    i = 0
    in_incoherent = False
    while i < len(lines):
        raw = lines[i]
        line_no = i + 1
        stripped = _COMMENT_RE.sub("", raw)
        s = stripped.strip()
        col = stripped.index(s[0]) + 1 if s else 1
        i += 1
        if not s:
            continue

        if in_incoherent:
            if s == "}":
                in_incoherent = False
            else:
                incoherent.append((s, line_no, col))
            continue

        if s.startswith("atoms"):
            m = re.fullmatch(r"atoms\s*=\s*(.+)", s)
            if not m:
                raise FrameSyntaxError("expected 'atoms = name ...'", line_no, col)
            if atoms_names is not None:
                raise FrameSyntaxError("duplicate atoms directive", line_no, col)
            atoms_names, atoms_at = m.group(1).split(), (line_no, col)
        elif s.startswith("mode"):
            m = re.fullmatch(r"mode\s*=\s*(\w+)", s)
            if not m or m.group(1) not in ("set", "multiset"):
                raise FrameSyntaxError("expected 'mode = set' or 'mode = multiset'", line_no, col)
            if mode is not None:
                raise FrameSyntaxError("duplicate mode directive", line_no, col)
            mode = m.group(1)
        elif s.startswith("cap"):
            m = re.fullmatch(r"cap\s*=\s*(\d+)", s)
            if not m or int(m.group(1)) < 1:
                raise FrameSyntaxError("expected 'cap = <positive integer>'", line_no, col)
            if cap is not None:
                raise FrameSyntaxError("duplicate cap directive", line_no, col)
            cap = int(m.group(1))
        elif s.startswith("generators"):
            m = re.fullmatch(r"generators\s*\{([^}]*)\}", s)
            if not m:
                raise FrameSyntaxError("expected 'generators { name ... }' on one line", line_no, col)
            if generators is not None:
                raise FrameSyntaxError("duplicate generators directive", line_no, col)
            generators = m.group(1).split()
            for g in generators:
                if g not in GENERATOR_NAMES:
                    raise FrameSyntaxError(f"unknown generator {g!r}", line_no, col)
        elif s.startswith("incoherent"):
            if incoherent is not None:
                raise FrameSyntaxError("duplicate incoherent block", line_no, col)
            incoherent = []
            rest = s[len("incoherent"):].strip()
            if rest in ("{}", "{ }"):
                continue
            if rest != "{":
                raise FrameSyntaxError("expected '{' after 'incoherent'", line_no, col)
            in_incoherent = True
        else:
            raise FrameSyntaxError(f"unrecognized directive {s.split()[0]!r}", line_no, col)

    if in_incoherent:
        raise FrameSyntaxError("unterminated incoherent block", len(lines), 1)
    if atoms_names is None:
        raise FrameSyntaxError("missing atoms directive", max(len(lines), 1), 1)
    if mode is None:
        raise FrameSyntaxError("missing mode directive", max(len(lines), 1), 1)
    if mode == "multiset" and cap is None:
        raise FrameSyntaxError("cap is required in multiset mode", max(len(lines), 1), 1)
    if mode == "set" and cap is not None:
        raise FrameSyntaxError("cap is only allowed in multiset mode", max(len(lines), 1), 1)

    try:
        # Checks the atom names, and their number against the set-mode limit.
        bare = Frame(atoms_names, mode, cap=cap)
    except FrameError as exc:
        raise FrameSyntaxError(str(exc), *atoms_at) from exc

    positions = []
    for text_line, line_no, col in incoherent or ():
        try:
            positions.append(bare.parse_position(text_line))
        except FrameError as exc:
            raise FrameSyntaxError(str(exc), line_no, col) from exc

    return Frame(bare.atoms, mode, cap=cap, explicit=positions, generators=generators or ())


def serialize_frame(frame: Frame) -> str:
    """Emit canonical frame-file text; round-trips through parse_frame."""
    out = [f"atoms = {' '.join(frame.atoms.names)}", f"mode = {frame.mode}"]
    if frame.mode == "multiset":
        out.append(f"cap = {frame.cap}")
    if frame.generators:
        names = [g for g in GENERATOR_NAMES if g in frame.generators]
        out.append(f"generators {{ {' '.join(names)} }}")
    out.append("incoherent {")
    for p in sorted(frame.explicit, key=frame.order_key):
        out.append(f"  {p.render(frame.atoms)}")
    out.append("}")
    return "\n".join(out) + "\n"
