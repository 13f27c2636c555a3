"""Property suites, engine comparison, and shared enumeration helpers.

Everything here is deterministic given its seed: formula pools are generated
in a fixed order, sequent spaces are enumerated exhaustively below a
candidate limit and sampled with a seeded generator above it, and results
come back as SuiteResult records that list every violation found.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .formulas import Atom, Bin, Formula, Neg, render_sequent
from .frames import Frame, Position
from .nmms import FormulaSequent, decide
from .oracles import MallBoundError, classical_valid, mall_provable
from .quantale import QuantaleOps
from .semantics import (
    Interpretation, MaskContent, connective_clause, interpretation, symjunction_clause,
)

CLASSICAL_BIN_OPS = ("and", "or", "imp")
LINEAR_BIN_OPS = ("tensor", "plus", "parr", "with")

DEFAULT_CANDIDATE_LIMIT = 10 ** 5
DEFAULT_SAMPLES = 10 ** 4


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    violations: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        head = f"{self.name}: checked {self.checked}, {status}"
        if self.violations:
            head += f"; first: {self.violations[0]}"
        return head


# ---------------------------------------------------------------------------
# Demo frames
# ---------------------------------------------------------------------------


def nonmonotonic_demo_frame() -> Frame:
    """Two-atom set frame whose consequence relation is supraclassical but
    not monotonic: it endorses |- a yet refuses b |- a."""
    atoms = ("a", "b")
    rows = [
        ((), ("a",)),
        ((), ("a", "b")),
        (("a",), ("a",)),
        (("a",), ("a", "b")),
        (("b",), ("b",)),
        (("b",), ("a", "b")),
        (("a", "b"), ()),
        (("a", "b"), ("a",)),
        (("a", "b"), ("b",)),
        (("a", "b"), ("a", "b")),
    ]
    frame = Frame(atoms, "set")
    explicit = [frame.position(l, r) for l, r in rows]
    return Frame(atoms, "set", explicit=explicit)


def nontransitive_demo_frame(cap: int = 8) -> Frame:
    """One-atom multiset frame endorsing |- x and x |- x, x plus every
    balanced position; supralinear but not transitive."""
    frame = Frame(("x",), "multiset", cap=cap)
    explicit = [frame.position((), ("x",)), frame.position(("x",), ("x", "x"))]
    return Frame(("x",), "multiset", cap=cap, explicit=explicit, generators=("diagonal",))


# ---------------------------------------------------------------------------
# Random frames
# ---------------------------------------------------------------------------


def all_one_atom_set_frames(name: str = "a") -> list[Frame]:
    """All 16 set-mode frames over one atom, ordered by the subset bitmask."""
    base = Frame((name,), "set")
    window = base.window()
    frames = []
    for bits in range(1 << len(window)):
        explicit = [p for i, p in enumerate(window) if bits >> i & 1]
        frames.append(Frame((name,), "set", explicit=explicit))
    return frames


def one_atom_containment_frames(name: str = "a") -> list[Frame]:
    return [f for f in all_one_atom_set_frames(name) if f.is_containment().ok]


def random_set_frame(
    rng: random.Random,
    atom_names: Sequence[str] = ("a", "b"),
    *,
    density: float = 0.5,
    containment: bool = False,
    reflexive: bool = False,
) -> Frame:
    base = Frame(tuple(atom_names), "set")
    chosen = []
    for p in base.window():
        forced = (containment and p.has_overlap()) or (
            reflexive and p.degree == 2 and p.left == p.right
        )
        if forced or rng.random() < density:
            chosen.append(p)
    return Frame(tuple(atom_names), "set", explicit=chosen)


def random_position_subset(rng: random.Random, frame: Frame, density: float = 0.5):
    from .rsr import PositionSet

    mask = 0
    for i in range(frame.window_cardinality()):
        if rng.random() < density:
            mask |= 1 << i
    return PositionSet(frame, mask)


# ---------------------------------------------------------------------------
# Formula pools and sequent spaces
# ---------------------------------------------------------------------------


def formula_pool(
    atom_names: Sequence[str], max_depth: int, ops: Sequence[str] = CLASSICAL_BIN_OPS
) -> list[Formula]:
    """All formulas of the given depth or less, in generation order."""
    current: list[Formula] = [Atom(n) for n in atom_names]
    for _ in range(max_depth):
        grown = list(current)
        seen = set(grown)
        for f in current:
            g = Neg(f)
            if g not in seen:
                seen.add(g)
                grown.append(g)
        for op in ops:
            for f, g in itertools.product(current, repeat=2):
                h = Bin(op, f, g)
                if h not in seen:
                    seen.add(h)
                    grown.append(h)
        current = grown
    return current


Sides = tuple[tuple[Formula, ...], tuple[Formula, ...]]


def count_sequents(pool_size: int, max_side: int) -> int:
    sides = sum(pool_size ** k for k in range(max_side + 1))
    return sides * sides


def iter_all_sequents(pool: Sequence[Formula], max_side: int) -> Iterable[Sides]:
    sides = [
        combo
        for k in range(max_side + 1)
        for combo in itertools.product(pool, repeat=k)
    ]
    for lhs in sides:
        for rhs in sides:
            yield lhs, rhs


def sample_sequent(rng: random.Random, pool: Sequence[Formula], max_side: int) -> Sides:
    lhs = tuple(rng.choice(pool) for _ in range(rng.randint(0, max_side)))
    rhs = tuple(rng.choice(pool) for _ in range(rng.randint(0, max_side)))
    return lhs, rhs


def sequent_suite(
    pool: Sequence[Formula],
    *,
    max_side: int = 2,
    candidate_limit: int = DEFAULT_CANDIDATE_LIMIT,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> list[Sides]:
    """The sequent space up to max_side formulas per side: exhaustive below
    the candidate limit, otherwise a seeded sample."""
    total = count_sequents(len(pool), max_side)
    if total <= candidate_limit:
        return list(iter_all_sequents(pool, max_side))
    rng = random.Random(seed)
    return [sample_sequent(rng, pool, max_side) for _ in range(samples)]


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------


def conservativity_suite(frame: Frame) -> SuiteResult:
    """bot membership vs entailment of the interpreted atoms, over every
    window position, with multiplicities.

    Each atom's content is evaluated once; a position then entails when
    its atoms' masks, repeated by multiplicity, pass the consequence fold
    of ``Interpretation._entails_masks``."""
    interp = interpretation(frame)
    atoms = [interp._atom_masks(name) for name in frame.atoms.names]
    bot = frame.bot_window_mask()
    result = SuiteResult("conservativity")
    for i, p in enumerate(frame.window()):
        lhs = [m for m, c in zip(atoms, p.left) for _ in range(c)]
        rhs = [m for m, c in zip(atoms, p.right) for _ in range(c)]
        expected = bool(bot >> i & 1)
        got = interp._entails_masks(lhs, rhs)
        result.checked += 1
        if expected != got:
            result.violations.append(
                {"position": p.render(frame.atoms), "bot": expected, "entails": got}
            )
    return result


def clause_agreement_suite(frame: Frame) -> SuiteResult:
    """Twisted-quantale clauses vs their adjunction/symjunction spellings,
    on every role pair, for the four linear connectives."""
    q = interpretation(frame).quantale
    masks = [r.mask for r in q.lattice]
    result = SuiteResult("clause-agreement")
    for i, x in enumerate(masks):
        for j, y in enumerate(masks):
            a, b = (x, x), (y, y)
            for op in LINEAR_BIN_OPS:
                result.checked += 1
                if connective_clause(q, op, a, b) != symjunction_clause(q, op, a, b):
                    result.violations.append({"op": op, "roles": (i, j)})
    return result


def _clause_content(
    interp: Interpretation, f: Formula, memo: dict[Formula, MaskContent]
) -> MaskContent:
    """The classical content of f folded from its atoms' contents by the
    mask clauses (``Interpretation._classical_bin``)."""
    hit = memo.get(f)
    if hit is None:
        if isinstance(f, Atom):
            hit = interp._atom_masks(f.name)
        elif isinstance(f, Neg):
            plus, minus = _clause_content(interp, f.sub, memo)
            hit = (minus, plus)
        else:
            hit = interp._classical_bin(
                f.op, _clause_content(interp, f.left, memo), _clause_content(interp, f.right, memo)
            )
        memo[f] = hit
    return hit


def compare_suite(
    frame: Frame,
    *,
    depth: int = 2,
    max_side: int = 2,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
    candidate_limit: int = DEFAULT_CANDIDATE_LIMIT,
    interp: Optional[Interpretation] = None,
) -> SuiteResult:
    """NMMS unfolding vs semantic consequence, contractive/classical.

    ``Interpretation.entails`` decides classical formula sequents by NMMS
    leaf families, so the semantic side here is the reference fold instead:
    atom contents, the classical clauses on masks, then the tensor of the
    sequent's roles against the dualizer."""
    if interp is None:
        interp = interpretation(frame)
    pool = formula_pool(frame.atoms.names, depth, CLASSICAL_BIN_OPS)
    result = SuiteResult("nmms-vs-semantics")
    contents: dict[Formula, MaskContent] = {}
    for lhs, rhs in sequent_suite(
        pool, max_side=max_side, seed=seed, samples=samples, candidate_limit=candidate_limit
    ):
        syntactic = decide(frame, FormulaSequent(lhs, rhs, "contractive"))
        semantic = interp._entails_masks(
            [_clause_content(interp, f, contents) for f in lhs],
            [_clause_content(interp, f, contents) for f in rhs],
        )
        result.checked += 1
        if syntactic != semantic:
            result.violations.append(
                {
                    "sequent": render_sequent(lhs, rhs),
                    "nmms": syntactic,
                    "entails": semantic,
                }
            )
    return result


def supraclassical_suite(
    frame: Frame,
    *,
    depth: int = 2,
    max_side: int = 2,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
    candidate_limit: int = DEFAULT_CANDIDATE_LIMIT,
) -> SuiteResult:
    """Classically valid sequents must be semantically good (containment frames)."""
    interp = interpretation(frame)
    pool = formula_pool(frame.atoms.names, depth, CLASSICAL_BIN_OPS)
    result = SuiteResult("supraclassical")
    for lhs, rhs in sequent_suite(
        pool, max_side=max_side, seed=seed, samples=samples, candidate_limit=candidate_limit
    ):
        if not classical_valid(frame.atoms.names, (lhs, rhs)):
            continue
        result.checked += 1
        if not interp.entails(lhs, rhs, "classical"):
            result.violations.append({"sequent": render_sequent(lhs, rhs)})
    return result


def _distinct_contents(interp: Interpretation, pool: Sequence[Formula]) -> list[MaskContent]:
    out: dict[MaskContent, None] = {}
    for f in pool:
        out.setdefault(interp._eval_masks(f, "classical"), None)
    return list(out)


def _index_pair(q: QuantaleOps, c: MaskContent) -> tuple[int, int]:
    return (q.lattice.index_of(c[0]), q.lattice.index_of(c[1]))


def _mask_pair(q: QuantaleOps, c: tuple[int, int]) -> MaskContent:
    return (q.lattice[c[0]].mask, q.lattice[c[1]].mask)


def robbins_suite(frame: Frame, *, depth: int = 2) -> SuiteResult:
    """Mutual entailment of (A or B) and (A or ~B) conjoined, against A.

    Quantified over the distinct contents realized by formulas of the given
    depth, which the entailment verdict depends on.
    """
    interp = interpretation(frame)
    q = interp.quantale
    pool = formula_pool(frame.atoms.names, depth, CLASSICAL_BIN_OPS)
    contents = _distinct_contents(interp, pool)
    result = SuiteResult("robbins-identity", notes={"distinct_contents": len(contents)})
    clause = interp._classical_bin
    for a in contents:
        for b in contents:
            not_b = (b[1], b[0])
            w = clause("and", clause("or", a, b), clause("or", a, not_b))
            result.checked += 1
            if not (interp._entails_masks([w], [a]) and interp._entails_masks([a], [w])):
                result.violations.append({"A": _index_pair(q, a), "B": _index_pair(q, b)})
    return result


def supralinear_suite(
    frame: Frame,
    *,
    depth: int = 2,
    max_side: int = 2,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
    candidate_limit: int = DEFAULT_CANDIDATE_LIMIT,
    bound: int = 14,
) -> SuiteResult:
    """MALL-provable sequents must be semantically good (reflexive frames)."""
    interp = interpretation(frame)
    pool = formula_pool(frame.atoms.names, depth, LINEAR_BIN_OPS)
    result = SuiteResult("supralinear")
    skipped = 0
    for lhs, rhs in sequent_suite(
        pool, max_side=max_side, seed=seed, samples=samples, candidate_limit=candidate_limit
    ):
        try:
            provable = mall_provable((lhs, rhs), bound)
        except MallBoundError:
            skipped += 1
            continue
        if not provable:
            continue
        result.checked += 1
        if not interp.entails(lhs, rhs, "linear"):
            result.violations.append({"sequent": render_sequent(lhs, rhs)})
    result.notes["skipped_above_bound"] = skipped
    return result


# ---------------------------------------------------------------------------
# Preservation of content properties under the pair operations
# ---------------------------------------------------------------------------


def reflexive_content_indices(q: QuantaleOps) -> list[tuple[int, int]]:
    masks = [r.mask for r in q.lattice]
    return [
        (i, j)
        for i, a in enumerate(masks)
        for j, b in enumerate(masks)
        if q.leq_mask(q.tensor_mask(a, b), q.dualizer_mask)
    ]


def ic_content_indices(q: QuantaleOps) -> list[tuple[int, int]]:
    """Idempotent pairs that tensor to the lattice bottom (the
    containment-satisfying contents); requires an absorbing bottom."""
    if not q.bottom_is_absorbing():
        raise ValueError("lattice bottom is not tensor-absorbing")
    masks = [r.mask for r in q.lattice]
    bottom = masks[q.lattice.bottom_index]
    idem = [(i, m) for i, m in enumerate(masks) if q.tensor_mask(m, m) == m]
    return [(i, j) for i, a in idem for j, b in idem if q.tensor_mask(a, b) == bottom]


def twisted_preservation_suite(
    frames: Sequence[Frame], *, pairs: int = 1000, seed: int = 0
) -> SuiteResult:
    """tensor x parr and join x meet keep reflexive contents reflexive."""
    rng = random.Random(seed)
    result = SuiteResult("twisted-preservation")
    spaces = []
    for frame in frames:
        q = interpretation(frame).quantale
        refl = reflexive_content_indices(q)
        if refl:
            spaces.append((frame, q, refl))
    for _ in range(pairs):
        frame, q, refl = spaces[rng.randrange(len(spaces))]
        a = refl[rng.randrange(len(refl))]
        b = refl[rng.randrange(len(refl))]
        for op in ("tensor", "plus"):
            plus, minus = connective_clause(q, op, _mask_pair(q, a), _mask_pair(q, b))
            result.checked += 1
            if not q.leq_mask(q.tensor_mask(plus, minus), q.dualizer_mask):
                result.violations.append({"frame": repr(frame), "op": op, "a": a, "b": b})
    return result


def mixed_preservation_suite(
    frames: Sequence[Frame], *, pairs: int = 1000, seed: int = 0
) -> SuiteResult:
    """tensor x tilde-join keeps idempotent containment-satisfying contents so."""
    rng = random.Random(seed)
    result = SuiteResult("mixed-preservation")
    spaces = []
    for frame in frames:
        q = interpretation(frame).quantale
        ic = ic_content_indices(q)
        if ic:
            spaces.append((frame, q, ic))
    for _ in range(pairs):
        frame, q, ic = spaces[rng.randrange(len(spaces))]
        a = ic[rng.randrange(len(ic))]
        b = ic[rng.randrange(len(ic))]
        plus, minus = connective_clause(q, "and", _mask_pair(q, a), _mask_pair(q, b))
        result.checked += 1
        good = (
            q.tensor_mask(plus, plus) == plus
            and q.tensor_mask(minus, minus) == minus
            and q.tensor_mask(plus, minus) == q.lattice[q.lattice.bottom_index].mask
        )
        if not good:
            result.violations.append({"frame": repr(frame), "a": a, "b": b})
    return result


# ---------------------------------------------------------------------------
# Window-cap stability
# ---------------------------------------------------------------------------


# Cap-stability rechecks recompute at the frame's cap plus this.
RECHECK_DELTA = 2


def positions_within(frame: Frame, positions: Iterable[Position]) -> frozenset[Position]:
    return frozenset(p for p in positions if frame.in_window(p))


def cap_stability_suite(frame: Frame) -> SuiteResult:
    """Recompute every singleton closure at cap+RECHECK_DELTA and compare on
    the original window; any drift means the window was too tight."""
    from .rsr import closure

    wide = frame.with_cap(frame.cap + RECHECK_DELTA)
    result = SuiteResult("cap-stability", notes={"cap": frame.cap, "recheck_cap": wide.cap})
    for p in frame.window():
        small = frozenset(closure(frame, [p]).positions())
        big = positions_within(frame, closure(wide, [p]).positions())
        result.checked += 1
        if small != big:
            result.violations.append(
                {
                    "position": p.render(frame.atoms),
                    "window": sorted(x.render(frame.atoms) for x in small),
                    "recheck": sorted(x.render(frame.atoms) for x in big),
                }
            )
    return result
