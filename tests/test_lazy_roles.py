"""Consequence without the role lattice.

* The mask path of ``Interpretation`` against a naive evaluator that
  recurses over the formula with closures from ``oracles.rsr_naive`` and
  tensors from per-pair position sums.
* The classical leaf-family path (``entails`` on formulas, classical
  contents) against the same evaluator's mask clauses.
* ``role_lattice`` against the pairwise intersection fixpoint it replaced.
* A guard: with role enumeration made to fail, entailment and the
  conservativity suite still answer.
* A guard: with the multiset blocker list made to fail, entailment, rsr,
  closure, the conservativity suite and the morphism checks still answer.
"""

import pytest

import roleforge.quantale as quantale_module
import roleforge.rsr as rsr_module
from roleforge.cli import main
from roleforge.formulas import Atom, Bin, Neg, parse_formula
from roleforge.frames import Frame, FrameError, parse_frame
from roleforge.oracles import rsr_naive
from roleforge.rsr import LatticeSizeError, PositionSet, blocker_masks, full_mask, role_lattice
from roleforge.semantics import ClauseError, Interpretation, interpretation
from roleforge.suites import conservativity_suite

from conftest import FRAMES_DIR, kernel_frames, seeded
from test_quantale import reference_tensor_sums

CLASSICAL = ("and", "or", "imp")
LINEAR = ("tensor", "plus", "parr", "with")


def bundled_frames():
    return [parse_frame((FRAMES_DIR / name).read_text())
            for name in ("nonmonotonic.frame", "nontransitive.frame")]


FRAMES = kernel_frames() + bundled_frames()


# -- the naive evaluator ----------------------------------------------------------


class NaiveSemantics:
    """Contents and consequence straight from the definitions.

    Closures are rsr_naive applied twice and tensors close the per-pair
    position sums, so nothing is shared with the engine's kernel.  Results
    are memoized by mask only to keep the test fast."""

    def __init__(self, frame):
        self.frame = frame
        self._rsr = {}
        self._tensor = {}

    def neg(self, mask):
        if mask not in self._rsr:
            self._rsr[mask] = rsr_naive(self.frame, PositionSet(self.frame, mask)).mask
        return self._rsr[mask]

    def closure(self, mask):
        return self.neg(self.neg(mask))

    def tensor(self, a, b):
        if (a, b) not in self._tensor:
            self._tensor[a, b] = self.closure(reference_tensor_sums(self.frame, a, b))
        return self._tensor[a, b]

    def join(self, a, b):
        return self.closure(a | b)

    def parr(self, a, b):
        return self.neg(self.tensor(self.neg(a), self.neg(b)))

    def tilde_join(self, a, b):
        if self.tensor(a, a) != a or self.tensor(b, b) != b:
            raise ClauseError("tilde-join of a non-idempotent role")
        return self.join(self.join(a, b), self.tensor(a, b))

    def content(self, f, clauses):
        if clauses == "classical" and self.frame.mode != "set":
            raise ClauseError("classical clauses need a set-mode frame")
        if isinstance(f, Atom):
            frame = self.frame
            left = PositionSet.from_positions(frame, [frame.position([f.name], [])]).mask
            right = PositionSet.from_positions(frame, [frame.position([], [f.name])]).mask
            return (self.closure(left), self.closure(right))
        if isinstance(f, Neg):
            plus, minus = self.content(f.sub, clauses)
            return (minus, plus)
        a, b = self.content(f.left, clauses), self.content(f.right, clauses)
        if f.op == "tensor":
            return (self.tensor(a[0], b[0]), self.parr(a[1], b[1]))
        if f.op == "plus":
            return (self.join(a[0], b[0]), a[1] & b[1])
        if f.op == "parr":
            return (self.parr(a[0], b[0]), self.tensor(a[1], b[1]))
        if f.op == "with":
            return (a[0] & b[0], self.join(a[1], b[1]))
        if f.op == "and":
            return (self.tensor(a[0], b[0]), self.tilde_join(a[1], b[1]))
        if f.op == "or":  # ~(~A /\ ~B)
            plus, minus = self.content(Bin("and", Neg(f.left), Neg(f.right)), clauses)
            return (minus, plus)
        assert f.op == "imp"  # ~A \/ B
        return self.content(Bin("or", Neg(f.left), f.right), clauses)

    def entails(self, lhs, rhs, clauses):
        left = [self.content(f, clauses) for f in lhs]
        right = [self.content(f, clauses) for f in rhs]
        if self.frame.mode == "set":
            left, right = list(dict.fromkeys(left)), list(dict.fromkeys(right))
        empty = PositionSet.from_positions(self.frame, [self.frame.position([], [])]).mask
        dualizer = self.neg(empty)
        acc = self.closure(empty)
        for plus, _ in left:
            acc = self.tensor(acc, plus)
        for _, minus in right:
            acc = self.tensor(acc, minus)
        return acc | dualizer == dualizer


def random_formula(rng, names, depth, ops):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names))
    if rng.random() < 0.25:
        return Neg(random_formula(rng, names, depth - 1, ops))
    return Bin(rng.choice(ops), random_formula(rng, names, depth - 1, ops),
               random_formula(rng, names, depth - 1, ops))


def outcome(fn, *args):
    """The value of fn(*args), or the ClauseError class if it raised one."""
    try:
        return fn(*args)
    except ClauseError:
        return ClauseError


def content_masks(content):
    return (content.premisory.mask, content.conclusory.mask)


@pytest.mark.parametrize("frame", FRAMES)
def test_mask_path_matches_naive_evaluator(frame):
    naive = NaiveSemantics(frame)
    names = frame.atoms.names
    rng = seeded(808)
    # Big windows make the naive scan slow: fewer queries there.
    size = frame.window_cardinality()
    count = 6 if size <= 16 else 3 if size <= 64 else 2
    for clauses, ops in (("classical", CLASSICAL), ("linear", LINEAR)):
        interp = Interpretation(frame)
        formulas = [random_formula(rng, names, 2, ops) for _ in range(count)]
        for f in formulas:
            got = outcome(lambda g: content_masks(interp.eval(g, clauses)), f)
            assert got == outcome(naive.content, f, clauses), (clauses, f)
        for _ in range(count):
            lhs = tuple(rng.choice(formulas) for _ in range(rng.randint(0, 2)))
            rhs = tuple(rng.choice(formulas) for _ in range(rng.randint(0, 2)))
            got = outcome(interp.entails, lhs, rhs, clauses)
            assert got == outcome(naive.entails, lhs, rhs, clauses), (clauses, lhs, rhs)


# -- classical leaf families against the mask clauses ---------------------------------


SET_FRAMES = [f for f in kernel_frames() if f.mode == "set"]


def fresh(frame):
    """An equal frame with no window, kernel or interpretation built yet."""
    return Frame(frame.atoms, "set", explicit=frame.explicit, generators=frame.generators)


@pytest.mark.parametrize("frame", SET_FRAMES)
def test_leaf_path_matches_mask_clauses(frame):
    """Verdicts first, on a fresh frame: they build neither the window nor
    the kernel.  Then both content masks of every formula."""
    naive = NaiveSemantics(frame)
    names = frame.atoms.names
    rng = seeded(1616)
    count = 8 if frame.n == 1 else 5
    formulas = [random_formula(rng, names, 3, CLASSICAL) for _ in range(count)]
    frame = fresh(frame)
    interp = Interpretation(frame)
    for _ in range(2 * count):
        lhs = tuple(rng.choice(formulas) for _ in range(rng.randint(0, 3)))
        rhs = tuple(rng.choice(formulas) for _ in range(rng.randint(0, 3)))
        assert interp.entails(lhs, rhs) == naive.entails(lhs, rhs, "classical"), (lhs, rhs)
    assert frame._window is None and frame._rsr_cache is None
    for f in formulas:
        assert content_masks(interp.eval(f)) == naive.content(f, "classical"), f


def test_content_entries_take_the_mask_path():
    """A sequent mixing a Content with formulas is decided on masks."""
    def refuse(*args):
        raise AssertionError("a sequent with a Content took the leaf path")

    verdicts = set()
    for frame in SET_FRAMES[16:24]:  # the two-atom frames
        interp, naive = Interpretation(frame), NaiveSemantics(frame)
        interp._entails_leaves = refuse
        lhs, rhs = ("a", "a -> ~b /\\ a"), ("~b", "b \\/ a")
        got = interp.entails([interp.atom("a"), lhs[1]], rhs)
        want = naive.entails([parse_formula(f) for f in lhs], [parse_formula(f) for f in rhs],
                             "classical")
        assert got == want, frame
        verdicts.add(got)
    assert verdicts == {True, False}


def test_leaf_path_names_the_first_unknown_atom():
    """Left to right over the sequent, as evaluation meets them, not in the
    sorted order of the NMMS atom check."""
    interp = Interpretation(fresh(SET_FRAMES[-1]))
    with pytest.raises(FrameError) as exc:
        interp.entails(["a", "~(zz \\/ b -> yy)"], ["xx"])
    assert str(exc.value) == "unknown atom 'zz'"
    with pytest.raises(FrameError) as exc:
        interp.eval("yy /\\ (a -> xx)")
    assert str(exc.value) == "unknown atom 'yy'"


# -- the enumerator against the pairwise fixpoint ------------------------------------


def fixpoint_roles(frame):
    """The intersection closure of the blockers and the full window, by a
    worklist that meets each new role with every role found so far."""
    generators = set(blocker_masks(frame)) | {full_mask(frame)}
    closed = set(generators)
    frontier = list(generators)
    while frontier:
        x = frontier.pop()
        fresh = {x & y for y in closed} - closed
        closed |= fresh
        frontier.extend(fresh)
    return closed


# The fixpoint is quadratic in the role count; larger lattices would take
# minutes, so the comparison runs on those it finishes quickly.
FIXPOINT_LIMIT = 1100


@pytest.mark.parametrize("frame", FRAMES)
def test_role_lattice_matches_pairwise_fixpoint(frame):
    try:
        lattice = role_lattice(frame, max_roles=FIXPOINT_LIMIT)
    except LatticeSizeError:
        pytest.skip(f"more than {FIXPOINT_LIMIT} roles")
    masks = [r.mask for r in lattice]
    assert set(masks) == fixpoint_roles(frame)
    assert masks == sorted(masks, key=lambda m: (-m.bit_count(), m))
    with pytest.raises(LatticeSizeError):
        role_lattice(frame, max_roles=len(masks) - 1)
    assert len(role_lattice(frame, max_roles=len(masks))) == len(masks)


# -- the guard: consequence never enumerates roles --------------------------------------


@pytest.fixture()
def no_role_lattice(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the role lattice was enumerated")

    monkeypatch.setattr(rsr_module, "role_lattice", refuse)
    monkeypatch.setattr(quantale_module, "role_lattice", refuse)
    interpretation.cache_clear()
    yield
    interpretation.cache_clear()


def ladder_text(names, explicit):
    return (f"atoms = {' '.join(names)}\nmode = set\n"
            f"generators {{ containment }}\nincoherent {{\n  {explicit}\n}}\n")


def test_entails_and_conservativity_without_the_lattice(no_role_lattice, tmp_path, capsys):
    frame = parse_frame(ladder_text("abcd", "a, d |- b"))
    interp = interpretation(frame)
    assert interp.entails(["a"], ["a"])
    assert interp.entails(["a /\\ b"], ["b \\/ c"])
    assert not interp.entails([], ["c"])
    suite = conservativity_suite(frame)
    assert suite.ok and suite.checked == 256

    path = tmp_path / "four.frame"
    path.write_text(ladder_text("abcd", "a, d |- b"))
    assert main(["entails", str(path), "a |- a"]) == 0
    assert main(["check", str(path), "conservativity"]) == 0
    path = tmp_path / "six.frame"
    path.write_text(ladder_text("abcdef", "a |- c"))
    assert main(["entails", str(path), "a |- a"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "true" and out[-1] == "true"


# -- the guard: multiset queries never build the blocker list ------------------------


@pytest.fixture()
def no_blocker_list(monkeypatch):
    def refuse(self):
        raise AssertionError("the multiset blocker list was built")

    monkeypatch.setattr(rsr_module._MultisetKernel, "blockers", property(refuse))
    interpretation.cache_clear()
    yield
    interpretation.cache_clear()


def diagonal_text(names, cap):
    return (f"atoms = {' '.join(names)}\nmode = multiset\ncap = {cap}\n"
            f"generators {{ diagonal }}\nincoherent {{\n}}\n")


def test_multiset_queries_without_the_blocker_list(no_blocker_list, tmp_path):
    from roleforge.morphisms import FrameMorphism, check_conservative, check_continuous
    from roleforge.rsr import closure, rsr

    frame = parse_frame(diagonal_text("x", 13))
    interp = interpretation(frame)
    assert interp.entails(["x"], ["x"], "linear")
    assert not interp.entails([], ["x * x"], "linear")
    assert len(rsr(frame, [frame.position(["x"], [])])) > 0
    assert len(closure(frame, [frame.position(["x"], ["x"])])) > 0
    suite = conservativity_suite(frame)
    assert suite.ok and suite.checked == 196
    source = parse_frame(diagonal_text("xy", 2))
    target = parse_frame(diagonal_text("z", 2))
    m = FrameMorphism(source, target, {"x": "z", "y": "z"})
    assert not check_conservative(m).ok
    assert not check_continuous(m).ok

    paths = {}
    for name, text in (("x13", diagonal_text("x", 13)), ("xy2", diagonal_text("xy", 2)),
                       ("z2", diagonal_text("z", 2))):
        paths[name] = tmp_path / f"{name}.frame"
        paths[name].write_text(text)
    x13 = str(paths["x13"])
    assert main(["entails", x13, "x |- x", "--clauses", "linear"]) == 0
    assert main(["rsr", x13, "x |-; |- x, x"]) == 0
    assert main(["check", x13, "conservativity"]) == 0
    assert main(["morphism", str(paths["xy2"]), str(paths["z2"]), "x->z,y->z"]) == 1
