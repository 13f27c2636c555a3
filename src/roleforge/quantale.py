"""Girard-quantale operations on roles.

The tensor of two roles is the closure of their pointwise position sums, the
join is the closure of their union, negation is rsr, and the meet is plain
intersection (closed sets are intersection-closed).  The dualizing element is
the role of the empty position, i.e. the window part of the incoherence
relation itself; the unit is the closure of the empty position's singleton.

The tensor, rsr and closure come from the per-frame kernel in ``rsr``.  In
multiset mode all of this is window-relative: position sums that leave the
window are dropped from the pre-closure set.

A role is its closed mask, and every operation takes and returns closed
masks: ``tensor_mask``, ``join_mask`` and ``neg_mask`` are memoized by mask
and need no lattice.  Numbering roles by their rank in the role lattice is
left to the callers that print or report numbers: ``tables()`` and the law
checker map masks to ranks with ``lattice.index_of``, and the lattice is
enumerated on first access to ``lattice``.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from .frames import Frame, FrameError
from .rsr import RoleLattice, closure_mask, role_lattice, rsr_mask, tensor_closure


class IdempotenceError(FrameError):
    """tilde-join applied to a role that is not tensor-idempotent."""


class QuantaleOps:
    """Memoized Girard-quantale structure of a frame's roles, on closed masks."""

    def __init__(self, frame: Frame):
        self.frame = frame
        self._lattice: Optional[RoleLattice] = None
        self._tensor_masks: dict[tuple[int, int], int] = {}
        self._join_masks: dict[tuple[int, int], int] = {}
        self._neg_masks: dict[int, int] = {}
        self._bottom_absorbing: Optional[bool] = None

        # rsr of the empty position's singleton is its principal blocker;
        # the empty position is window index 0 in both modes.
        self.dualizer_mask = rsr_mask(frame, 1)
        self.unit_mask = rsr_mask(frame, self.dualizer_mask)

    @property
    def lattice(self) -> RoleLattice:
        if self._lattice is None:
            self._lattice = role_lattice(self.frame)
        return self._lattice

    @property
    def window_relative(self) -> bool:
        return self.frame.mode == "multiset"

    def tensor_mask(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        hit = self._tensor_masks.get(key)
        if hit is None:
            hit = self._tensor_masks[key] = tensor_closure(self.frame, a, b)
        return hit

    def join_mask(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        hit = self._join_masks.get(key)
        if hit is None:
            hit = self._join_masks[key] = closure_mask(self.frame, a | b)
        return hit

    def neg_mask(self, a: int) -> int:
        hit = self._neg_masks.get(a)
        if hit is None:
            hit = self._neg_masks[a] = rsr_mask(self.frame, a)
        return hit

    def meet_mask(self, a: int, b: int) -> int:
        return a & b

    def parr_mask(self, a: int, b: int) -> int:
        return self.neg_mask(self.tensor_mask(self.neg_mask(a), self.neg_mask(b)))

    def leq_mask(self, a: int, b: int) -> bool:
        return a | b == b

    def tilde_join_mask(self, a: int, b: int) -> int:
        if self.tensor_mask(a, a) != a:
            raise IdempotenceError("left argument of tilde-join is not idempotent")
        if self.tensor_mask(b, b) != b:
            raise IdempotenceError("right argument of tilde-join is not idempotent")
        return self.join_mask(self.join_mask(a, b), self.tensor_mask(a, b))

    def bottom_is_absorbing(self) -> bool:
        """Whether the lattice minimum annihilates under tensor.

        Containment-satisfaction checks read "the pair tensors to the
        minimum", which is only meaningful when the minimum is absorbing;
        assert this before relying on it.
        """
        if self._bottom_absorbing is None:
            lat = self.lattice
            bot = lat[lat.bottom_index].mask
            self._bottom_absorbing = all(self.tensor_mask(bot, r.mask) == bot for r in lat)
        return self._bottom_absorbing

    def tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """Fully materialized (join, tensor) tables as index matrices."""
        lat = self.lattice
        masks = [r.mask for r in lat]
        join = [[lat.index_of(self.join_mask(a, b)) for b in masks] for a in masks]
        tensor = [[lat.index_of(self.tensor_mask(a, b)) for b in masks] for a in masks]
        return join, tensor


# ---------------------------------------------------------------------------
# Law checking
# ---------------------------------------------------------------------------

@dataclass
class LawCheck:
    law: str
    ok: bool
    counterexample: Optional[tuple[int, ...]] = None


@dataclass
class LawReport:
    frame: Frame
    exhaustive: bool
    checks: list[LawCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def violations(self) -> list[LawCheck]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else f"VIOLATED at roles {c.counterexample}"
            lines.append(f"{c.law}: {status}")
        return "\n".join(lines)


def check_gq_laws(
    q: QuantaleOps,
    *,
    seed: int = 0,
    exhaustive_limit: int = 64,
    samples: int = 1000,
) -> LawReport:
    """Verify the Girard-quantale laws on all roles, or on a seeded sample
    of triples when the lattice exceeds ``exhaustive_limit`` roles.

    The laws are read off operation tables indexed by role rank
    (``tensor[a][b]``), filled from the mask operations.  The exhaustive
    check fills the join, tensor, negation and meet tables once as plain
    lists; the sampled check fills only the cells it reads, since a full
    table would cost n^2 tensors."""
    lat = q.lattice
    masks = [r.mask for r in lat]
    index_of = lat.index_of
    n = len(masks)
    exhaustive = n <= exhaustive_limit
    if exhaustive:
        rows = range(n)
        join, tensor = q.tables()
        neg = [index_of(q.neg_mask(a)) for a in masks]
        meet = [[index_of(q.meet_mask(a, b)) for b in masks] for a in masks]

        def triples():
            return itertools.product(rows, repeat=3)

        def pairs():
            return itertools.product(rows, repeat=2)

        singles = [(a,) for a in rows]
    else:
        def on_ranks(op):
            return lambda a, b: index_of(op(masks[a], masks[b]))

        join = _lazy_table(on_ranks(q.join_mask))
        tensor = _lazy_table(on_ranks(q.tensor_mask))
        meet = _lazy_table(on_ranks(q.meet_mask))
        neg = _Lazy(lambda a: index_of(q.neg_mask(masks[a])))
        rng = random.Random(seed)
        sampled = [
            (rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(samples)
        ]
        sampled_pairs = [(a, b) for a, b, _ in sampled]

        def triples():
            return sampled

        def pairs():
            return sampled_pairs

        singles = [(a,) for a in sorted({a for a, _, _ in sampled})]

    report = LawReport(frame=q.frame, exhaustive=exhaustive)

    def first_failure(law, iterable, pred):
        for item in iterable:
            if not pred(*item):
                report.checks.append(LawCheck(law, False, item))
                return
        report.checks.append(LawCheck(law, True))

    unit = index_of(q.unit_mask)
    first_failure(
        "tensor-associative", triples(),
        lambda a, b, c: tensor[tensor[a][b]][c] == tensor[a][tensor[b][c]],
    )
    first_failure(
        "tensor-commutative", pairs(),
        lambda a, b: tensor[a][b] == tensor[b][a],
    )
    first_failure(
        "tensor-unital", singles,
        lambda a: tensor[unit][a] == a,
    )
    first_failure(
        "tensor-distributes-over-join", triples(),
        lambda a, b, c: tensor[a][join[b][c]] == join[tensor[a][b]][tensor[a][c]],
    )
    first_failure(
        "negation-involutive", singles,
        lambda a: neg[neg[a]] == a,
    )
    first_failure(
        "meet-de-morgan", pairs(),
        lambda a, b: meet[a][b] == neg[join[neg[a]][neg[b]]],
    )
    return report


class _Lazy(dict):
    """A table whose entry ``key`` is ``make(key)``, made on first read."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _lazy_table(op) -> _Lazy:
    """The table of a binary operation, ``table[a][b] == op(a, b)``."""
    return _Lazy(lambda a: _Lazy(functools.partial(op, a)))


def is_join_idempotent(q: QuantaleOps) -> bool:
    """Whether every role is a join of tensor-idempotent roles.

    Uses the closure trick: r is a join of idempotents iff it equals the
    join of all idempotents below it, so no subset search is needed.  An
    idempotent role is below itself, so only the others are checked.
    """
    masks = [r.mask for r in q.lattice]
    idem = [m for m in masks if q.tensor_mask(m, m) == m]
    for target in set(masks).difference(idem):
        below = 0
        for e in idem:
            if e | target == target:
                below |= e
        if closure_mask(q.frame, below) != target:
            return False
    return True
