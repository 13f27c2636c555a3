"""Girard-quantale operations on roles.

The tensor of two roles is the closure of their pointwise position sums, the
join is the closure of their union, negation is rsr, and the meet is plain
intersection (closed sets are intersection-closed).  The dualizing element is
the role of the empty position, i.e. the window part of the incoherence
relation itself; the unit is the closure of the empty position's singleton.

The pre-closure sum sets come from the per-frame kernel in ``rsr``.  In
multiset mode all of this is window-relative: position sums that leave the
window are dropped from the pre-closure set (and counted, so reports can
say whether truncation actually occurred).

A role is its closed mask: ``tensor_mask``, ``join_mask`` and ``neg_mask``
are memoized by mask and need no lattice.  The index API (``tensor_i`` and
friends) numbers roles by their rank in the role lattice, which is
enumerated on first access to ``lattice``; its tables are a memo over the
mask operations, keyed by role indices.  Every cell is write-once.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Union

from .frames import Frame, FrameError
from .rsr import (
    Role, RoleLattice, blocker_masks, closure_mask, role_lattice, rsr_mask, tensor_sums,
)

RoleRef = Union[Role, int]


class IdempotenceError(FrameError):
    """tilde-join applied to a role that is not tensor-idempotent."""


class QuantaleOps:
    """Memoized Girard-quantale structure of a frame's roles."""

    def __init__(self, frame_or_lattice: Union[Frame, RoleLattice]):
        if isinstance(frame_or_lattice, RoleLattice):
            self._lattice: Optional[RoleLattice] = frame_or_lattice
            self.frame = frame_or_lattice.frame
        else:
            self._lattice = None
            self.frame = frame_or_lattice
        self._tensor_masks: dict[tuple[int, int], int] = {}
        self._join_masks: dict[tuple[int, int], int] = {}
        self._neg_masks: dict[int, int] = {}
        self._tensor: dict[tuple[int, int], int] = {}
        self._join: dict[tuple[int, int], int] = {}
        self._neg: dict[int, int] = {}
        self._idempotents: Optional[tuple[int, ...]] = None
        self._bottom_absorbing: Optional[bool] = None
        self.dropped_sums = 0

        frame = self.frame
        # rsr of the empty position's singleton is its principal blocker.
        self.dualizer_mask = blocker_masks(frame)[frame.empty_index()]
        self.unit_mask = rsr_mask(frame, self.dualizer_mask)

    @property
    def lattice(self) -> RoleLattice:
        if self._lattice is None:
            self._lattice = role_lattice(self.frame)
        return self._lattice

    # -- indices <-> roles ----------------------------------------------------

    def _idx(self, r: RoleRef) -> int:
        if isinstance(r, int):
            return r
        return self.lattice.index_of(r)

    def role(self, i: int) -> Role:
        return self.lattice[i]

    @property
    def unit_index(self) -> int:
        return self.lattice.index_of(self.unit_mask)

    @property
    def dualizer_index(self) -> int:
        return self.lattice.index_of(self.dualizer_mask)

    @property
    def bottom_index(self) -> int:
        return self.lattice.bottom_index

    @property
    def unit(self) -> Role:
        return self.lattice[self.unit_index]

    @property
    def dualizer(self) -> Role:
        return self.lattice[self.dualizer_index]

    @property
    def bottom(self) -> Role:
        return self.lattice[self.bottom_index]

    @property
    def window_relative(self) -> bool:
        return self.frame.mode == "multiset"

    # -- operations on closed masks ---------------------------------------------

    def tensor_mask(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        hit = self._tensor_masks.get(key)
        if hit is None:
            sums, dropped = tensor_sums(self.frame, a, b)
            self.dropped_sums += dropped
            hit = self._tensor_masks[key] = closure_mask(self.frame, sums)
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

    # -- the same operations on role indices -------------------------------------

    def tensor_i(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        hit = self._tensor.get(key)
        if hit is None:
            lat = self.lattice
            hit = self._tensor[key] = lat.index_of(self.tensor_mask(lat[a].mask, lat[b].mask))
        return hit

    def join_i(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        hit = self._join.get(key)
        if hit is None:
            lat = self.lattice
            hit = self._join[key] = lat.index_of(self.join_mask(lat[a].mask, lat[b].mask))
        return hit

    def meet_i(self, a: int, b: int) -> int:
        lat = self.lattice
        return lat.index_of(lat[a].mask & lat[b].mask)

    def neg_i(self, a: int) -> int:
        hit = self._neg.get(a)
        if hit is None:
            lat = self.lattice
            hit = self._neg[a] = lat.index_of(self.neg_mask(lat[a].mask))
        return hit

    def parr_i(self, a: int, b: int) -> int:
        lat = self.lattice
        return lat.index_of(self.parr_mask(lat[a].mask, lat[b].mask))

    def leq_i(self, a: int, b: int) -> bool:
        return self.leq_mask(self.lattice[a].mask, self.lattice[b].mask)

    def tensor(self, a: RoleRef, b: RoleRef) -> Role:
        return self.role(self.tensor_i(self._idx(a), self._idx(b)))

    def join(self, a: RoleRef, b: RoleRef) -> Role:
        return self.role(self.join_i(self._idx(a), self._idx(b)))

    def meet(self, a: RoleRef, b: RoleRef) -> Role:
        return self.role(self.meet_i(self._idx(a), self._idx(b)))

    def neg(self, a: RoleRef) -> Role:
        return self.role(self.neg_i(self._idx(a)))

    def parr(self, a: RoleRef, b: RoleRef) -> Role:
        return self.role(self.parr_i(self._idx(a), self._idx(b)))

    # -- idempotents and the tilde join ----------------------------------------

    def is_idempotent_i(self, a: int) -> bool:
        return self.tensor_i(a, a) == a

    def idempotent_indices(self) -> tuple[int, ...]:
        if self._idempotents is None:
            self._idempotents = tuple(
                i for i in range(len(self.lattice)) if self.is_idempotent_i(i)
            )
        return self._idempotents

    def tilde_join_i(self, a: int, b: int) -> int:
        lat = self.lattice
        return lat.index_of(self.tilde_join_mask(lat[a].mask, lat[b].mask))

    def tilde_join(self, a: RoleRef, b: RoleRef) -> Role:
        return self.role(self.tilde_join_i(self._idx(a), self._idx(b)))

    def bottom_is_absorbing(self) -> bool:
        """Whether the lattice minimum annihilates under tensor.

        Containment-satisfaction checks read "the pair tensors to the
        minimum", which is only meaningful when the minimum is absorbing;
        assert this before relying on it.
        """
        if self._bottom_absorbing is None:
            bot = self.bottom_index
            self._bottom_absorbing = all(
                self.tensor_i(bot, i) == bot for i in range(len(self.lattice))
            )
        return self._bottom_absorbing

    def tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """Fully materialized (join, tensor) tables as index matrices."""
        n = len(self.lattice)
        join = [[self.join_i(i, j) for j in range(n)] for i in range(n)]
        tensor = [[self.tensor_i(i, j) for j in range(n)] for i in range(n)]
        return join, tensor


class IdempotentSubquantale:
    """The tensor-idempotent roles, with tilde-join as their join."""

    def __init__(self, parent: QuantaleOps):
        self.parent = parent
        self.elements = parent.idempotent_indices()

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, r: RoleRef) -> bool:
        return self.parent._idx(r) in self.elements

    def tilde_join(self, a: RoleRef, b: RoleRef) -> Role:
        return self.parent.tilde_join(a, b)


def quantale(frame_or_lattice: Union[Frame, RoleLattice]) -> QuantaleOps:
    """The quantale of a frame; its lattice is enumerated on first use."""
    return QuantaleOps(frame_or_lattice)


# ---------------------------------------------------------------------------
# Law checking
# ---------------------------------------------------------------------------

GQ_LAWS = (
    "tensor-associative",
    "tensor-commutative",
    "tensor-unital",
    "tensor-distributes-over-join",
    "negation-involutive",
    "meet-de-morgan",
)


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

    The laws are read off operation tables (``tensor[a][b]``).  The
    exhaustive check fills the join, tensor, negation and meet tables once,
    through the index API; the sampled check fills only the cells it reads,
    since a full table would cost n^2 tensors."""
    n = len(q.lattice)
    exhaustive = n <= exhaustive_limit
    if exhaustive:
        rows = range(n)
        join, tensor = q.tables()
        neg = [q.neg_i(a) for a in rows]
        meet = [[q.meet_i(a, b) for b in rows] for a in rows]

        def triples():
            return itertools.product(rows, repeat=3)

        def pairs():
            return itertools.product(rows, repeat=2)

        singles = [(a,) for a in rows]
    else:
        join, tensor, meet = _lazy_table(q.join_i), _lazy_table(q.tensor_i), _lazy_table(q.meet_i)
        neg = _Lazy(q.neg_i)
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

    unit = q.unit_index
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
    join of all idempotents below it, so no subset search is needed.
    """
    idem = q.idempotent_indices()
    for r in range(len(q.lattice)):
        below = 0
        target = q.lattice[r].mask
        for e in idem:
            if q.lattice[e].mask | target == target:
                below |= q.lattice[e].mask
        joined = q.lattice.index_of(rsr_mask(q.frame, rsr_mask(q.frame, below)))
        if joined != r:
            return False
    return True
