import pytest
from hypothesis import given, strategies as st

from roleforge.formulas import (
    MAX_DEPTH, Atom, Bin, FormulaSyntaxError, Neg, atoms_of, binary_ops, depth,
    parse_formula, parse_sequent, render, render_sequent,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a /\\ b", Bin("and", a, b)),
        ("~a \\/ b", Bin("or", Neg(a), b)),
        ("a * (b | ~a)", Bin("tensor", a, Bin("parr", b, Neg(a)))),
        ("a -> b -> c", Bin("imp", Bin("imp", a, b), c)),
        ("a /\\ b \\/ c", Bin("or", Bin("and", a, b), c)),
        ("a \\/ b -> c", Bin("imp", Bin("or", a, b), c)),
        ("a * b + c", Bin("plus", Bin("tensor", a, b), c)),
        ("a + b /\\ c", Bin("and", Bin("plus", a, b), c)),
        ("~~a", Neg(Neg(a))),
        ("a & b * c", Bin("tensor", Bin("with", a, b), c)),
        ("(a -> b) -> c", Bin("imp", Bin("imp", a, b), c)),
    ],
)
def test_parse(text, expected):
    assert parse_formula(text) == expected


@pytest.mark.parametrize("text", ["", "a /\\", "(a", "a )", "a b", "a -> -> b", "/\\ a", "a ^ b"])
def test_parse_errors(text):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(text)


def test_error_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("a /\\ ()")
    assert err.value.pos == 6


def test_parse_sequent():
    lhs, rhs = parse_sequent("a, b |- a /\\ b")
    assert lhs == (a, b) and rhs == (Bin("and", a, b),)
    assert parse_sequent("|- a") == ((), (a,))
    assert parse_sequent("a |-") == ((a,), ())
    assert parse_sequent("|-") == ((), ())
    assert parse_sequent("") == ((), ())
    with pytest.raises(FormulaSyntaxError):
        parse_sequent("a, b")
    with pytest.raises(FormulaSyntaxError):
        parse_sequent("a |- b |- c")


def test_metadata_helpers():
    f = parse_formula("~a /\\ (b -> a)")
    assert atoms_of(f) == {"a", "b"}
    assert binary_ops(f) == {"and", "imp"}
    assert depth(f) == 2


DEEP_SHAPES = {
    "negations": lambda n: "~" * n + "a",
    "left-chain": lambda n: " \\/ ".join(["a"] * (n + 1)),
    "right-nested": lambda n: "a -> (" * (n - 1) + "a -> a" + ")" * (n - 1),
    "mixed": lambda n: "~(a * " * (n // 2) + "a" + ")" * (n // 2),
}


@pytest.mark.parametrize("shape", DEEP_SHAPES.values(), ids=DEEP_SHAPES.keys())
def test_formula_depth_is_bounded(shape):
    assert depth(parse_formula(shape(MAX_DEPTH))) == MAX_DEPTH
    with pytest.raises(FormulaSyntaxError, match=f"nests deeper than {MAX_DEPTH} levels"):
        parse_formula(shape(MAX_DEPTH + 2))
    with pytest.raises(FormulaSyntaxError, match=f"nests deeper than {MAX_DEPTH} levels"):
        parse_sequent(f"a, {shape(MAX_DEPTH + 2)} |- a")


def test_parenthesis_nesting_is_bounded():
    assert parse_formula("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH) == a
    with pytest.raises(FormulaSyntaxError, match=f"column {MAX_DEPTH + 1}: formula nests"):
        parse_formula("(" * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1))
    # A negation chain is read in a loop, so its length costs no recursion.
    with pytest.raises(FormulaSyntaxError, match="nests deeper"):
        parse_formula("~" * 100_000 + "a")


_formulas = st.deferred(
    lambda: st.one_of(
        st.sampled_from([a, b, c]),
        st.builds(Neg, _formulas),
        st.builds(
            Bin,
            st.sampled_from(["and", "or", "imp", "tensor", "plus", "parr", "with"]),
            _formulas,
            _formulas,
        ),
    )
)


@given(_formulas)
def test_render_parse_roundtrip(f):
    assert parse_formula(render(f)) == f


@given(st.lists(_formulas, max_size=3), st.lists(_formulas, max_size=3))
def test_render_sequent_roundtrip(lhs, rhs):
    text = render_sequent(tuple(lhs), tuple(rhs))
    assert parse_sequent(text) == (tuple(lhs), tuple(rhs))
