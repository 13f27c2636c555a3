"""Girard-quantale operations on the role lattice.

The tensor of two roles is the closure of their pointwise position sums, the
join is the closure of their union, negation is rsr, and the meet is plain
intersection (closed sets are intersection-closed).  The dualizing element is
the role of the empty position, i.e. the window part of the incoherence
relation itself; the unit is the closure of the empty position's singleton.

The pre-closure sum sets come from the per-frame kernel in ``rsr``.  In
multiset mode all of this is window-relative: position sums that leave the
window are dropped from the pre-closure set (and counted, so reports can
say whether truncation actually occurred).  Operation tables are memoized
per lattice, keyed by role indices; every cell is write-once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

from .frames import Frame, FrameError
from .rsr import Role, RoleLattice, role_lattice, rsr_mask, tensor_sums

RoleRef = Union[Role, int]


class IdempotenceError(FrameError):
    """tilde-join applied to a role that is not tensor-idempotent."""


class QuantaleOps:
    """Memoized Girard-quantale structure over a role lattice."""

    def __init__(self, lattice: RoleLattice):
        self.lattice = lattice
        self.frame = lattice.frame
        self._tensor: dict[tuple[int, int], int] = {}
        self._join: dict[tuple[int, int], int] = {}
        self._neg: dict[int, int] = {}
        self._idempotents: Optional[tuple[int, ...]] = None
        self._bottom_absorbing: Optional[bool] = None
        self.dropped_sums = 0

        frame = self.frame
        empty = frame.empty_index()
        self.dualizer_index = lattice.index_of(rsr_mask(frame, 1 << empty))
        self.unit_index = lattice.index_of(rsr_mask(frame, lattice[self.dualizer_index].mask))
        self.bottom_index = lattice.bottom_index

    # -- indices <-> roles ----------------------------------------------------

    def _idx(self, r: RoleRef) -> int:
        if isinstance(r, int):
            return r
        return self.lattice.index_of(r)

    def role(self, i: int) -> Role:
        return self.lattice[i]

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

    # -- core operations -------------------------------------------------------

    def tensor_i(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        hit = self._tensor.get(key)
        if hit is not None:
            return hit
        frame = self.frame
        sums, dropped = tensor_sums(frame, self.lattice[a].mask, self.lattice[b].mask)
        self.dropped_sums += dropped
        out = self.lattice.index_of(rsr_mask(frame, rsr_mask(frame, sums)))
        self._tensor[key] = out
        return out

    def join_i(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        hit = self._join.get(key)
        if hit is not None:
            return hit
        union = self.lattice[a].mask | self.lattice[b].mask
        out = self.lattice.index_of(rsr_mask(self.frame, rsr_mask(self.frame, union)))
        self._join[key] = out
        return out

    def meet_i(self, a: int, b: int) -> int:
        return self.lattice.index_of(self.lattice[a].mask & self.lattice[b].mask)

    def neg_i(self, a: int) -> int:
        hit = self._neg.get(a)
        if hit is not None:
            return hit
        out = self.lattice.index_of(rsr_mask(self.frame, self.lattice[a].mask))
        self._neg[a] = out
        return out

    def parr_i(self, a: int, b: int) -> int:
        return self.neg_i(self.tensor_i(self.neg_i(a), self.neg_i(b)))

    def leq_i(self, a: int, b: int) -> bool:
        ma, mb = self.lattice[a].mask, self.lattice[b].mask
        return ma | mb == mb

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
        if not self.is_idempotent_i(a):
            raise IdempotenceError("left argument of tilde-join is not idempotent")
        if not self.is_idempotent_i(b):
            raise IdempotenceError("right argument of tilde-join is not idempotent")
        return self.join_i(self.join_i(a, b), self.tensor_i(a, b))

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
    if isinstance(frame_or_lattice, RoleLattice):
        return QuantaleOps(frame_or_lattice)
    return QuantaleOps(role_lattice(frame_or_lattice))


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
    of triples when the lattice exceeds ``exhaustive_limit`` roles."""
    n = len(q.lattice)
    exhaustive = n <= exhaustive_limit
    if exhaustive:
        triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
        pairs = [(a, b) for a in range(n) for b in range(n)]
        singles = list(range(n))
    else:
        rng = random.Random(seed)
        triples = [
            (rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(samples)
        ]
        pairs = [(a, b) for a, b, _ in triples]
        singles = sorted({a for a, _, _ in triples})

    report = LawReport(frame=q.frame, exhaustive=exhaustive)

    def first_failure(law, iterable, pred):
        for item in iterable:
            if not pred(*item):
                report.checks.append(LawCheck(law, False, item))
                return
        report.checks.append(LawCheck(law, True))

    first_failure(
        "tensor-associative", triples,
        lambda a, b, c: q.tensor_i(q.tensor_i(a, b), c) == q.tensor_i(a, q.tensor_i(b, c)),
    )
    first_failure(
        "tensor-commutative", pairs,
        lambda a, b: q.tensor_i(a, b) == q.tensor_i(b, a),
    )
    first_failure(
        "tensor-unital", [(a,) for a in singles],
        lambda a: q.tensor_i(q.unit_index, a) == a,
    )
    first_failure(
        "tensor-distributes-over-join", triples,
        lambda a, b, c: q.tensor_i(a, q.join_i(b, c)) == q.join_i(q.tensor_i(a, b), q.tensor_i(a, c)),
    )
    first_failure(
        "negation-involutive", [(a,) for a in singles],
        lambda a: q.neg_i(q.neg_i(a)) == a,
    )
    first_failure(
        "meet-de-morgan", pairs,
        lambda a, b: q.meet_i(a, b) == q.neg_i(q.join_i(q.neg_i(a), q.neg_i(b))),
    )
    return report


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
