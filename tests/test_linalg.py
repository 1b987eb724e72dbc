"""Exact sparse linear algebra, cross-checked against a dense oracle."""

import ast
import copy
import pathlib
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liegraphs import linalg
from liegraphs.gra import GraElement
from liegraphs.graphs import OrientedGraph
from liegraphs.lie import LieElement
from liegraphs.linalg import (Echelon, SparseMatrix, in_image, kernel_basis,
                              rank, solve)
from liegraphs.poly import OElement, make_term


def dense_rank(dense):
    """Independent oracle: plain Gaussian elimination on a dense copy."""
    m = [list(map(Fraction, row)) for row in dense]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c] / pv
                for j in range(c, n_cols):
                    m[i][j] -= f * m[r][j]
        r += 1
    return r


def random_dense(rng, n_rows, n_cols, density=0.4):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             if rng.random() < density else Fraction(0)
             for _ in range(n_cols)] for _ in range(n_rows)]


def test_rank_empty():
    assert rank(SparseMatrix(0, 0, [])) == 0


def test_rank_identity():
    ident = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert rank(SparseMatrix.from_dense(ident)) == 3


def test_rank_matches_dense_oracle():
    rng = random.Random(11)
    for _ in range(60):
        dense = random_dense(rng, rng.randint(1, 7), rng.randint(1, 7))
        mat = SparseMatrix.from_dense(dense)
        assert rank(mat) == dense_rank(dense)
        assert rank(mat.transpose()) == dense_rank(dense)


def test_kernel_identity_empty():
    ident = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert kernel_basis(SparseMatrix.from_dense(ident)) == []


def test_kernel_zero_matrix():
    basis = kernel_basis(SparseMatrix(2, 3, [[], []]))
    assert len(basis) == 3


def test_rank_nullity_and_kernel_exact():
    rng = random.Random(23)
    for _ in range(40):
        dense = random_dense(rng, rng.randint(1, 6), rng.randint(1, 6))
        mat = SparseMatrix.from_dense(dense)
        basis = kernel_basis(mat)
        assert rank(mat) + len(basis) == mat.n_cols
        for vec in basis:
            assert mat.mul_vector(vec) == {}
            assert vec  # nonzero


def test_kernel_basis_is_reduced_in_column_order():
    """One kernel vector per column that depends on the columns before
    it, in column order: entry 1 at its own column, no entry at any
    other dependent column, and every other key below its own column."""
    rng = random.Random(29)
    for _ in range(40):
        dense = random_dense(rng, rng.randint(1, 6), rng.randint(1, 7))
        mat = SparseMatrix.from_dense(dense)
        cols = [list(col) for col in zip(*dense)]
        dependent = [j for j in range(len(cols))
                     if dense_rank(cols[:j + 1]) == dense_rank(cols[:j])]
        basis = kernel_basis(mat)
        assert len(basis) == len(dependent)
        for j, vec in zip(dependent, basis):
            assert vec[j] == 1
            assert all(k < j and k not in dependent for k in vec if k != j)
            assert mat.mul_vector(vec) == {}


def test_rank_permutation_invariant():
    rng = random.Random(37)
    for _ in range(30):
        dense = random_dense(rng, rng.randint(2, 6), rng.randint(2, 6))
        rows = list(range(len(dense)))
        cols = list(range(len(dense[0])))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = [[dense[i][j] for j in cols] for i in rows]
        assert (rank(SparseMatrix.from_dense(dense))
                == rank(SparseMatrix.from_dense(shuffled)))


def test_in_image_trivial_cases():
    mat = SparseMatrix.from_dense([[Fraction(1), Fraction(0)],
                                   [Fraction(0), Fraction(0)]])
    assert in_image(mat, {})
    assert in_image(mat, {0: Fraction(3)})
    assert not in_image(mat, {1: Fraction(1)})
    zero = SparseMatrix(2, 2, [[], []])
    assert not in_image(zero, {0: Fraction(1)})
    with pytest.raises(ValueError):
        in_image(mat, {5: Fraction(1)})


def test_in_image_consistent_with_solve():
    rng = random.Random(51)
    for _ in range(30):
        dense = random_dense(rng, rng.randint(1, 5), rng.randint(1, 5))
        mat = SparseMatrix.from_dense(dense)
        x = {j: Fraction(rng.randint(-3, 3)) for j in range(mat.n_cols)}
        b = mat.mul_vector(x)
        assert in_image(mat, b)


def test_from_columns_matches_transpose():
    cols = [{0: Fraction(1), 2: Fraction(-2)}, {1: Fraction(1, 2)}]
    mat = SparseMatrix.from_columns(cols, n_rows=3)
    assert mat.to_dense() == [[Fraction(1), Fraction(0)],
                              [Fraction(0), Fraction(1, 2)],
                              [Fraction(-2), Fraction(0)]]
    assert mat.transpose().transpose() == mat
    for i in (-1, 3):  # -1 would index the last row
        with pytest.raises(ValueError):
            SparseMatrix.from_columns([{i: 1}], n_rows=3)


@pytest.mark.parametrize("index", [1.9, "2", True])
def test_matrix_refuses_non_int_index(index):
    with pytest.raises(TypeError):
        SparseMatrix(1, 3, [[(index, 1)]])
    with pytest.raises(TypeError):
        SparseMatrix.from_columns([{index: 1}], n_rows=3)


@pytest.mark.parametrize("n_rows, n_cols, rows, message", [
    (-1, 2, [], "negative dimensions"),
    (1, -1, [[]], "negative dimensions"),
    (2, 2, [[(0, 1)]], "row count mismatch"),
    (1, 2, [[(2, 1)]], "column index out of range"),
    (1, 2, [[(-1, 1)]], "column index out of range"),
    (1, 2, [[(0, 1), (0, 2)]], "duplicate column in row"),
])
def test_matrix_refuses_bad_shape(n_rows, n_cols, rows, message):
    with pytest.raises(ValueError, match=message):
        SparseMatrix(n_rows, n_cols, rows)


@pytest.mark.parametrize("key", [1.5, "1", True])
def test_solve_and_in_image_refuse_non_int_key(key):
    mat = SparseMatrix.from_dense([[1, 0], [0, 1]])
    with pytest.raises(TypeError):
        solve(mat, {key: 1})
    with pytest.raises(TypeError):
        in_image(mat, {key: 1})


@given(st.integers(1, 5), st.integers(1, 5), st.integers())
@settings(max_examples=50, deadline=None)
def test_rank_bound_property(n_rows, n_cols, seed):
    rng = random.Random(seed)
    dense = random_dense(rng, n_rows, n_cols)
    r = rank(SparseMatrix.from_dense(dense))
    assert 0 <= r <= min(n_rows, n_cols)
    assert r == dense_rank(dense)


def column_echelon(mat):
    """Echelon of the columns of mat, and the independent columns."""
    span, independent = Echelon(), []
    for j, col in enumerate(mat.transpose().rows):
        if span.add(dict(col)):
            independent.append(j)
    return span, independent


def test_echelon_coords_match_solve():
    rng = random.Random(11)
    for _ in range(25):
        dense = random_dense(rng, 6, 5)
        mat = SparseMatrix.from_dense(dense)
        span, independent = column_echelon(mat)
        for _ in range(4):
            x = {j: Fraction(rng.randint(-3, 3)) for j in range(mat.n_cols)}
            b = mat.mul_vector(x)
            got = {independent[k]: v for k, v in span.coords(b).items()}
            assert mat.mul_vector(got) == b
            assert solve(mat, b) is not None
        # a vector outside the image must be rejected
        bad = {i: Fraction(rng.randint(-3, 3)) for i in range(mat.n_rows)}
        outside = dense_rank([row + [bad.get(i, Fraction(0))]
                              for i, row in enumerate(dense)]) \
            > dense_rank(dense)
        try:
            span.coords(bad)
            rejected = False
        except ValueError:
            rejected = True
        assert rejected == outside == (solve(mat, bad) is None)


@given(st.integers(1, 6), st.integers(1, 6), st.integers())
@settings(max_examples=50, deadline=None)
def test_echelon_matches_dense_oracle(n_rows, n_cols, seed):
    rng = random.Random(seed)
    dense = random_dense(rng, n_rows, n_cols)
    cols = [[dense[i][j] for i in range(n_rows)] for j in range(n_cols)]
    span, added = Echelon(), []
    for j, col in enumerate(cols):
        grows = dense_rank(added + [col]) > dense_rank(added)
        assert span.add({i: v for i, v in enumerate(col) if v}) == grows
        if grows:
            added.append(col)
        assert span.rank == len(added)
    assert span.rank == dense_rank(dense)
    # coordinates recombine to M.x exactly
    x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
         for _ in range(n_cols)]
    b = [sum((x[j] * cols[j][i] for j in range(n_cols)), Fraction(0))
         for i in range(n_rows)]
    coords = span.coords({i: v for i, v in enumerate(b) if v})
    assert all(k < len(added) for k in coords)
    assert [sum((c * added[k][i] for k, c in coords.items()), Fraction(0))
            for i in range(n_rows)] == b
    # a unit vector outside the span raises ValueError
    for i in range(n_rows):
        unit = [Fraction(int(r == i)) for r in range(n_rows)]
        if dense_rank(added + [unit]) > len(added):
            with pytest.raises(ValueError):
                span.coords({i: Fraction(1)})
        else:
            span.coords({i: Fraction(1)})


# For each element class: a constructor from a terms dict, two distinct
# terms, and an element of the same class with another shape.
COMBINATIONS = {
    "lie": (lambda terms: LieElement(3, terms, 2), ((1, 2, 3), (1, 3, 2)),
            LieElement(2, {(1, 2): 1})),
    "gra": (lambda terms: GraElement(3, 1, terms),
            (OrientedGraph(1, 3, ((1, 2), (2, 3))),
             OrientedGraph(1, 3, ((1, 3), (2, 3)))),
            GraElement(3, 2, {OrientedGraph(2, 3, ((1, 2), (2, 3))): 1})),
    "olie": (lambda terms: OElement(3, 1, terms),
             (((1, 2), (1, 3)), ((1, 2, 3),)),
             OElement(3, 1, {((1, 2, 3),): 1}, "ass")),
}


def is_exact(c):
    """The one coefficient representation: an int when the value is
    integral, otherwise a Fraction with denominator > 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


@pytest.mark.parametrize("name", sorted(COMBINATIONS))
def test_combination_arithmetic(name):
    make, (s, t), other_shape = COMBINATIONS[name]
    a = make({s: Fraction(2), t: 0})
    assert a.terms == {s: 2}
    assert all(is_exact(c) for c in a.terms.values())
    assert type(a.terms[s]) is int
    b = make({t: Fraction(1, 3), s: -1})
    assert all(is_exact(c) for c in b.terms.values())
    assert type(b.terms[t]) is Fraction
    assert all(is_exact(c) for x in (a + b, a - b, b.scaled(3), b.scaled(Fraction(3, 2)))
               for c in x.terms.values())
    assert a + b - b == a
    assert (a - a).is_zero() and (a - a).terms == {}
    assert a.scaled(0).is_zero() and not a.is_zero()
    # the same element built in two insertion orders
    st_, ts = make({s: 1, t: Fraction(1, 3)}), make({t: Fraction(1, 3), s: 1})
    assert list(st_.terms) != list(ts.terms)
    assert st_ == ts and hash(st_) == hash(ts)
    assert a + b == st_ and hash(a + b) == hash(ts)
    # two halves sum to the int 1
    half = make({t: Fraction(1, 2)})
    one = half + half
    assert one.terms == {t: 1} and type(one.terms[t]) is int
    # elements are immutable, and print as their class and fields
    for field in ("terms", "arity"):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    assert a.terms == {s: 2}
    assert repr(a).startswith(f"{type(a).__name__}(arity=")
    assert copy.copy(b) == b == pickle.loads(pickle.dumps(b))
    # an int is not an element: + and - refuse it alike
    others = [other_shape, 3] + [mk({u: 1}) for key, (mk, (u, _), _)
                                 in COMBINATIONS.items() if key != name]
    for other in others:
        assert a != other
        with pytest.raises(ValueError):
            a + other
        with pytest.raises(ValueError):
            a - other


# each element class with its arguments around (arity, d)
ELEMENT_CLASSES = {
    "lie": lambda arity, d: LieElement(arity, {}, d),
    "gra": lambda arity, d: GraElement(arity, d, {}),
    "olie": lambda arity, d: OElement(arity, d, {}),
}


@pytest.mark.parametrize("name", sorted(ELEMENT_CLASSES))
def test_negative_arity_is_refused(name):
    """Every element class refuses a negative arity with one message,
    and takes arity 0."""
    make = ELEMENT_CLASSES[name]
    for d in (1, 2):
        assert make(0, d).is_zero()
        with pytest.raises(ValueError, match="negative arity -1"):
            make(-1, d)


def test_mixed_element_sums_raise():
    """Adding elements of different classes is an error, not a sum that
    holds terms of another operad."""
    lie = LieElement(2, {(1, 2): 1})
    corolla = make_term(2, 1, [(1, 2)])
    edge = GraElement(2, 1, {OrientedGraph(1, 2, ((1, 2),)): 1})
    for x, y in ((lie, corolla), (lie, edge), (corolla, lie), (edge, lie),
                 (corolla, edge), (edge, corolla)):
        with pytest.raises(ValueError):
            x + y
    with pytest.raises(ValueError):
        GraElement(2, 1, {OrientedGraph(1, 3, ((1, 2),)): 1})


def _modules():
    """The paths of the package's modules."""
    modules = sorted(pathlib.Path(linalg.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    return modules


def test_sparse_sums_go_through_linalg():
    """No module adds at a key by hand, `x[k] = x.get(k, 0) + ...`:
    every sparse accumulation is `linalg._add` or `_axpy`, which also
    drop the zero sums."""
    inline = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.targets[0], ast.Subscript)
                    and isinstance(node.value, ast.BinOp)):
                continue
            target, get = node.targets[0], node.value.left
            if isinstance(get, ast.Call) \
                    and isinstance(get.func, ast.Attribute) \
                    and get.func.attr == "get" \
                    and ast.dump(get.func.value) == ast.dump(target.value) \
                    and get.args and ast.dump(get.args[0]) \
                    == ast.dump(target.slice):
                inline.append((path.name, node.lineno))
    assert inline == []


def test_only_linalg_and_defcx_name_echelon():
    """The general elimination serves the slice matrices (`defcx`) and
    the matrix functions (`linalg`); coordinates over a triangular
    family, the Lie normal forms and sigma_inv, take `_triangular`: no
    other module names `Echelon`, as a name, an attribute, an import or
    a string."""
    named = []
    for path in _modules():
        if path.name in ("linalg.py", "defcx.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.value if isinstance(node, ast.Constant)
                    else None)
            if name == "Echelon":
                named.append(path.name)
    assert named == []
