import itertools
import random
from pathlib import Path

import pytest

from roleforge.frames import GENERATOR_NAMES, Frame, Position
from roleforge.suites import (
    all_one_atom_set_frames, nonmonotonic_demo_frame, nontransitive_demo_frame,
)

REPO = Path(__file__).resolve().parent.parent
FRAMES_DIR = REPO / "frames"


@pytest.fixture(scope="session")
def golden_frame() -> Frame:
    """The two-atom set-mode demo frame (supraclassical, non-monotonic)."""
    return nonmonotonic_demo_frame()


@pytest.fixture(scope="session")
def counting_frame() -> Frame:
    """The one-atom multiset demo frame at cap 8 (supralinear, non-transitive)."""
    return nontransitive_demo_frame(8)


def pos(frame: Frame, left=(), right=()) -> Position:
    return frame.position(left, right)


@pytest.fixture(scope="session")
def golden_roles(golden_frame):
    """The six role extensions of the golden frame, by short name.

    T full window; U the unit (everything except the two positions with b
    alone on the left); L/R the two 12-element blockers of the left/right
    atom singletons; D the dualizer (the incoherence relation itself);
    B the lattice bottom L & R.
    """
    f = golden_frame
    top = frozenset(f.window())
    L = top - {pos(f), pos(f, ("a",)), pos(f, (), ("b",)), pos(f, ("a",), ("b",))}
    R = top - {pos(f), pos(f, (), ("a",)), pos(f, ("b",)), pos(f, ("b",), ("a",))}
    U = top - {pos(f, ("b",)), pos(f, ("b",), ("a",))}
    D = frozenset(p for p in top if f.bot_member(p))
    B = L & R
    return {"T": top, "U": U, "L": L, "R": R, "D": D, "B": B}


def role_name(golden_roles, role) -> str:
    return {v: k for k, v in golden_roles.items()}[frozenset(role.positions())]


def idempotent_masks(q) -> list[int]:
    """The tensor-idempotent roles of a quantale, as masks in lattice order."""
    return [r.mask for r in q.lattice if q.tensor_mask(r.mask, r.mask) == r.mask]


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def kernel_frames():
    """All one-atom set frames; seeded 2-3 atom set frames under every
    generator subset; seeded multiset frames with 1 atom at caps 1-8 and 2
    atoms at caps 1-3, whose explicit positions reach counts up to 2*cap."""
    frames = list(all_one_atom_set_frames())
    rng = seeded(505)
    subsets = [g for r in range(4) for g in itertools.combinations(GENERATOR_NAMES, r)]
    for names in (("a", "b"), ("a", "b", "c")):
        for gens in subsets:
            base = Frame(names, "set")
            explicit = [p for p in base.window() if rng.random() < 0.3]
            frames.append(Frame(names, "set", explicit=explicit, generators=gens))
    for names, caps in ((("x",), range(1, 9)), (("x", "y"), range(1, 4))):
        for cap in caps:
            frames.append(random_multiset_frame(rng, names, cap))
    return frames


def random_multiset_frame(rng: random.Random, names, cap: int) -> Frame:
    """3*cap random explicit positions with counts up to 2*cap, plus the
    diagonal generator at odd caps and reflexivity at even ones."""
    explicit = set()
    for _ in range(3 * cap):
        counts = tuple(rng.randint(0, 2 * cap) for _ in range(2 * len(names)))
        explicit.add(Position(counts[:len(names)], counts[len(names):]))
    gens = ("diagonal",) if cap % 2 else ("reflexivity",)
    return Frame(names, "multiset", cap=cap, explicit=explicit, generators=gens)
