"""Reference answers for the benchmark's ops.

Every check here runs outside the timed regions.  Each returns ``None`` when
the program's answer agrees with its reference and a one-line description of
the disagreement otherwise.  The references are the package's oracles
(``classical_valid``, ``rsr_naive``, ``mall_provable``,
``continuity_condition4``), the incoherence relation itself (``bot_member``
for atomic sequents, window scans for morphism transport), a naive rule
unfolding for NMMS, and the README's golden answers for the bundled frames.
Checks build their own frames from the frame text, so they share no cache
with the op they check.
"""

from __future__ import annotations

import json
from typing import Optional


class RefUnavailable(Exception):
    """The reference itself cannot be computed for this input."""


def parse_position(frame, text: str):
    lhs, rhs = text.split("|-")
    left = [t.strip() for t in lhs.split(",") if t.strip()]
    right = [t.strip() for t in rhs.split(",") if t.strip()]
    return frame.position(left, right)


def _positions(frame, texts) -> frozenset:
    return frozenset(parse_position(frame, t) for t in texts)


def _naive_closure(rf, frame, positions) -> frozenset:
    once = rf.oracles.rsr_naive(frame, list(positions))
    return frozenset(rf.oracles.rsr_naive(frame, once).positions())


def _closed_error(rf, frame, label: str, texts) -> Optional[str]:
    members = _positions(frame, texts)
    if _naive_closure(rf, frame, members) != members:
        return f"{label} role is not closed under naive rsr twice"
    return None


def is_atomic(rf, formulas) -> bool:
    return all(isinstance(f, rf.formulas.Atom) for f in formulas)


def atomic_bot(frame, lhs, rhs) -> bool:
    return frame.bot_member(frame.position([f.name for f in lhs], [f.name for f in rhs]))


# ---------------------------------------------------------------------------
# Sequent verdicts
# ---------------------------------------------------------------------------


def entails_error(rf, frame, lhs, rhs, clauses: str, verdict: bool) -> Optional[str]:
    """Atomic sequents against bot; valid classical / provable MALL sequents
    must be entailed (containment / reflexive frames respectively)."""
    if is_atomic(rf, lhs + rhs):
        expected = atomic_bot(frame, lhs, rhs)
        if verdict != expected:
            return f"atomic sequent: entails {verdict}, bot_member {expected}"
        return None
    if clauses == "classical":
        if rf.oracles.classical_valid(frame.atoms.names, (lhs, rhs)) and not verdict:
            return "classically valid sequent not entailed"
        return None
    try:
        provable = rf.oracles.mall_provable((lhs, rhs))
    except rf.oracles.MallBoundError:
        return None
    if provable and not verdict:
        return "MALL-provable sequent not entailed"
    return None


def nmms_unfold(rf, frame, lhs, rhs, contractive: bool) -> bool:
    """Naive NMMS unfolding: the AND of bot_member over the atomic leaves."""
    F = rf.formulas

    def desugar(f):
        if isinstance(f, F.Atom):
            return f
        if isinstance(f, F.Neg):
            return F.Neg(desugar(f.sub))
        if f.op == "imp":
            return F.Bin("or", F.Neg(desugar(f.left)), desugar(f.right))
        return F.Bin(f.op, desugar(f.left), desugar(f.right))

    def good(left, right) -> bool:
        if contractive:
            left, right = tuple(dict.fromkeys(left)), tuple(dict.fromkeys(right))
        for k, f in enumerate(left):
            if isinstance(f, F.Atom):
                continue
            rest = left[:k] + left[k + 1:]
            if isinstance(f, F.Neg):
                return good(rest, right + (f.sub,))
            if f.op == "and":
                return good(rest + (f.left, f.right), right)
            branches = [rest + (f.left,), rest + (f.right,)]
            if contractive:
                branches.append(rest + (f.left, f.right))
            return all(good(b, right) for b in branches)
        for k, f in enumerate(right):
            if isinstance(f, F.Atom):
                continue
            rest = right[:k] + right[k + 1:]
            if isinstance(f, F.Neg):
                return good(left + (f.sub,), rest)
            if f.op == "or":
                return good(left, rest + (f.left, f.right))
            branches = [rest + (f.left,), rest + (f.right,)]
            if contractive:
                branches.append(rest + (f.left, f.right))
            return all(good(left, b) for b in branches)
        return atomic_bot(frame, left, right)

    return good(tuple(desugar(f) for f in lhs), tuple(desugar(f) for f in rhs))


# ---------------------------------------------------------------------------
# Per-command checks of captured CLI output
# ---------------------------------------------------------------------------


def check_entails(rf, frame, lhs, rhs, clauses, code, out) -> Optional[str]:
    """Classical verdicts must also equal NMMS (the frames are containment
    frames, where the two engines agree)."""
    verdict = json.loads(out)["result"]["verdict"]
    if code != (0 if verdict else 1):
        return f"exit {code} does not match verdict {verdict}"
    err = entails_error(rf, frame, lhs, rhs, clauses, verdict)
    if err is None and clauses == "classical":
        expected = nmms_unfold(rf, frame, lhs, rhs, contractive=True)
        if verdict != expected:
            err = f"entails {verdict}, NMMS {expected}"
    return err


def check_nmms(rf, frame, lhs, rhs, contractive, code, out) -> Optional[str]:
    """``nmms`` and ``trace`` verdicts against the naive unfolding; on
    containment frames ``check_entails`` ties that unfolding to ``entails``."""
    verdict = json.loads(out)["result"]["verdict"]
    if code != (0 if verdict else 1):
        return f"exit {code} does not match verdict {verdict}"
    expected = nmms_unfold(rf, frame, lhs, rhs, contractive)
    if verdict != expected:
        return f"NMMS {verdict}, naive unfolding {expected}"
    return None


def check_rsr(rf, frame, spec: str, code, out) -> Optional[str]:
    members = [parse_position(frame, s) for s in spec.split(";")]
    got = _positions(frame, json.loads(out)["result"]["rsr"])
    want = frozenset(rf.oracles.rsr_naive(frame, members).positions())
    if code != 0 or got != want:
        return f"rsr differs from rsr_naive ({len(got)} vs {len(want)} positions)"
    return None


def check_content(rf, frame, code, out, expected_pair=None) -> Optional[str]:
    result = json.loads(out)["result"]
    if code != 0:
        return f"exit {code}"
    sides = ("premisory", "conclusory")
    if expected_pair is not None:
        for side, want in zip(sides, expected_pair):
            if _positions(frame, result[side]["positions"]) != want:
                return f"{side} role differs from the naive closure"
        return None
    for side in sides:
        err = _closed_error(rf, frame, side, result[side]["positions"])
        if err:
            return err
    return None


def atom_content_reference(rf, frame, atom: str):
    """Naive closures of the atom's two signed singleton positions."""
    plus = frame.position([atom], [])
    minus = frame.position([], [atom])
    return _naive_closure(rf, frame, [plus]), _naive_closure(rf, frame, [minus])


def check_suite_ok(suite_name: str, code, out, expect_checked=None) -> Optional[str]:
    """Suites whose property is a theorem for every frame must pass."""
    result = json.loads(out)["result"]
    body = result.get(suite_name, {})
    if code != 0 or body.get("violations"):
        return f"{suite_name} reported violations: {str(body.get('violations'))[:120]}"
    if expect_checked is not None and body.get("checked") != expect_checked:
        return f"{suite_name} checked {body.get('checked')} of {expect_checked} positions"
    return None


def check_gq_laws(code, out) -> Optional[str]:
    laws = json.loads(out)["result"]["laws"]
    bad = [law["law"] for law in laws if not law["ok"]]
    if code != 0 or bad:
        return f"Girard-quantale laws reported violated: {bad}"
    return None


def check_lattice(rf, frame, code, out) -> Optional[str]:
    result = json.loads(out)["result"]
    if code != 0:
        return f"exit {code}"
    roles = {r["alias"]: _positions(frame, r["positions"]) for r in result["roles"]}
    for alias, members in roles.items():
        if _naive_closure(rf, frame, members) != members:
            return f"lattice role {alias} is not closed"
    bot = frozenset(p for p in frame.window() if frame.bot_member(p))
    if roles[result["dualizer"]] != bot:
        return "dualizer differs from the incoherence relation"
    empty = frame.position([], [])
    if roles[result["unit"]] != _naive_closure(rf, frame, [empty]):
        return "unit differs from the closure of the empty position"
    return None


def image(mapping, source, target, p):
    """Image of a position under an atom map (set mode: counts collapse)."""
    left = [0] * target.n
    right = [0] * target.n
    for i, name in enumerate(source.atoms.names):
        j = target.atoms.index[mapping[name]]
        left[j] += p.left[i]
        right[j] += p.right[i]
    if source.mode == "set":
        left = [min(c, 1) for c in left]
        right = [min(c, 1) for c in right]
    return type(p)(tuple(left), tuple(right))


def morphism_reference(rf, source, target, mapping) -> tuple[bool, bool]:
    """(conservative, continuous) by window scans plus the continuity oracle
    (set mode) or a naive preimage-closure scan (multiset mode)."""
    window = source.window()
    images = [image(mapping, source, target, p) for p in window]
    conservative = all(source.bot_member(p) == target.bot_member(fp)
                       for p, fp in zip(window, images))
    preserves = all(target.bot_member(fp) for p, fp in zip(window, images)
                    if source.bot_member(p))
    if not preserves:
        return conservative, False
    if source.mode == "set":
        m = rf.morphisms.FrameMorphism(source, target, mapping)
        return conservative, rf.oracles.continuity_condition4(m).ok
    for y in target.window():
        try:
            pre = frozenset(p for p, fp in zip(window, images)
                            if target.bot_member(target.position_sum(fp, y)))
        except rf.frames.PositionRangeError as exc:
            raise RefUnavailable(f"image sum leaves the target's range: {exc}") from None
        if not _naive_closure(rf, source, pre) <= pre:
            return conservative, False
    return conservative, True


def check_morphism(rf, source, target, mapping, code, out) -> Optional[str]:
    result = json.loads(out)["result"]
    got = (result["conservative"]["ok"], result["continuous"]["ok"])
    want = morphism_reference(rf, source, target, mapping)
    if got != want:
        return f"(conservative, continuous) = {got}, reference {want}"
    if code != (0 if all(got) else 1):
        return f"exit {code} does not match verdicts {got}"
    return None
