"""Sparse exact linear algebra over the rationals.

Coefficients are exact rationals in one representation: an `int` when
the value is integral, otherwise a reduced `fractions.Fraction` with
denominator > 1 (see `_exact`); never a float.  Integral values, almost
all of them, then take Python's fast integer arithmetic.  Every division
goes through `Fraction`, so no quotient of two ints becomes a float.
Matrices are immutable once built.  The one elimination is `Echelon`,
an incremental echelon form: `rank`, `kernel_basis`, `solve` and
`in_image` are each one pass of it over a matrix's rows or columns.
Coordinates over a family that is triangular already need none:
`_triangular` is the one forward substitution.
"""

from __future__ import annotations

from fractions import Fraction


def _exact(c):
    """c as an exact coefficient: an int when it is integral, otherwise
    a Fraction with denominator > 1.  A float is refused: its binary
    expansion is rarely the value that was meant.  So is a bool, which
    is a truth value, not the number 0 or 1."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError(f"inexact coefficient {c!r}")
        if type(c) is bool:
            raise TypeError(f"coefficient {c!r} is not a number")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _json_coeff(c):
    """A coefficient read from JSON as an exact one (`_exact`):
    ValueError naming it when it divides by zero."""
    try:
        return _exact(c)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {c!r} divides by zero") from None


class SparseMatrix:
    """Immutable sparse matrix with rows of sorted (column, value) pairs."""

    __slots__ = ("n_rows", "n_cols", "rows")

    def __init__(self, n_rows, n_cols, rows):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("negative dimensions")
        if len(rows) != n_rows:
            raise ValueError("row count mismatch")
        clean = []
        for r in rows:
            for c, _ in r:
                if type(c) is not int:
                    raise TypeError(f"column index {c!r} is not an int")
            entries = tuple(sorted((c, e) for c, v in r if (e := _exact(v))))
            cols = [c for c, _ in entries]
            if cols and (cols[-1] >= n_cols or cols[0] < 0):
                raise ValueError("column index out of range")
            if len(set(cols)) != len(cols):
                raise ValueError("duplicate column in row")
            clean.append(entries)
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.rows = tuple(clean)

    @classmethod
    def from_dense(cls, dense):
        n_rows = len(dense)
        n_cols = len(dense[0]) if dense else 0
        return cls(n_rows, n_cols, [list(enumerate(row)) for row in dense])

    @classmethod
    def from_columns(cls, columns, n_rows, n_cols=None):
        """Build from a list of columns, each a dict row_index -> value."""
        if n_cols is None:
            n_cols = len(columns)
        rows = [[] for _ in range(n_rows)]
        for j, col in enumerate(columns):
            for i, v in col.items():
                if type(i) is not int:
                    raise TypeError(f"row index {i!r} is not an int")
                if not 0 <= i < n_rows:
                    raise ValueError("row index out of range")
                rows[i].append((j, v))
        return cls(n_rows, n_cols, rows)

    def to_dense(self):
        out = [[0] * self.n_cols for _ in range(self.n_rows)]
        for i, row in enumerate(self.rows):
            for j, v in row:
                out[i][j] = v
        return out

    def mul_vector(self, vec):
        """Multiply by a vector given as dict col -> value; returns dict."""
        out = {}
        for i, row in enumerate(self.rows):
            if s := _exact(sum(v * vec.get(j, 0) for j, v in row)):
                out[i] = s
        return out

    def transpose(self):
        rows = [[] for _ in range(self.n_cols)]
        for i, row in enumerate(self.rows):
            for j, v in row:
                rows[j].append((i, v))
        return SparseMatrix(self.n_cols, self.n_rows, rows)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and (self.n_rows, self.n_cols, self.rows)
                == (other.n_rows, other.n_cols, other.rows))

    def __hash__(self):
        return hash((self.n_rows, self.n_cols, self.rows))

    def __repr__(self):
        nnz = sum(len(r) for r in self.rows)
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={nnz})"


def _axpy(target, a, source):
    """target += a * source, for sparse dicts; zero entries are dropped."""
    for j, v in source.items():
        nv = target.get(j, 0) + a * v
        if nv:
            target[j] = nv
        else:
            target.pop(j, None)


def _add(target, key, c):
    """target[key] += c, for a sparse dict; a zero entry is dropped."""
    nv = target.get(key, 0) + c
    if nv:
        target[key] = nv
    else:
        target.pop(key, None)


def _exact_terms(terms):
    """terms with each coefficient made exact (`_exact`), and only then
    the zeros dropped: a float or a bool is refused even when it is 0."""
    return {t: e for t, c in terms.items() if (e := _exact(c))}


def _triangular(rest, pick, column):
    """The coordinates of rest (a dict key -> value) over a triangular
    family, by forward substitution, as a dict t -> value.  The
    family's vector column(t) holds its leading key t, and pick, applied
    to the remainder, takes every other key of column(t) after t: so
    each step divides once, by the leading entry, and removes t for
    good."""
    rest, coords = dict(rest), {}
    while rest:
        t = pick(rest)
        col = column(t)
        coords[t] = c = _exact(Fraction(rest[t], col[t]))
        _axpy(rest, -c, col)
    return coords


class Combination:
    """Exact linear combination, immutable: `terms` maps each term to a
    nonzero exact coefficient (an int, or a Fraction with denominator >
    1).  A subclass's `__slots__` hold its shape, in the order of
    `_shape()`, what two summands must share.  Its constructor checks
    shape and terms; results built from checked elements are wrapped
    unchecked (`_wrap`)."""

    __slots__ = ("terms",)

    def _fill(self, shape, terms):
        """Set the shape slots and the terms, unchecked."""
        for name, value in zip(type(self).__slots__, shape):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def _wrap(cls, shape, terms):
        """The element of this class, shape and terms, not checked
        again: terms must already map to exact nonzero coefficients."""
        return object.__new__(cls)._fill(shape, terms)

    def with_terms(self, terms):
        """The element of this class and shape with these terms."""
        return self._wrap(self._shape(), _exact_terms(terms))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r} of an"
                             f" immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __reduce__(self):  # for copy and pickle, which would assign
        return self._wrap, (self._shape(), self.terms)

    def __repr__(self):
        args = (f"{f}={getattr(self, f)!r}"
                for f in (*self.__slots__, "terms"))
        return f"{type(self).__name__}({', '.join(args)})"

    def is_zero(self):
        return not self.terms

    def scaled(self, c):
        c = _exact(c)
        return self._wrap(self._shape(), {t: _exact(v * c) for t, v
                                          in self.terms.items()} if c else {})

    def _plus(self, c, other):
        """self + c * other; ValueError unless other is an element of
        the same class and shape."""
        if type(other) is not type(self) or other._shape() != self._shape():
            raise ValueError(f"cannot add a {type(other).__name__} to"
                             f" a {type(self).__name__} of shape"
                             f" {self._shape()}")
        out = dict(self.terms)
        for t, v in other.terms.items():
            if v := _exact(out.get(t, 0) + c * v):
                out[t] = v
            else:
                del out[t]
        return self._wrap(self._shape(), out)

    def __add__(self, other):
        return self._plus(1, other)

    def __sub__(self, other):
        return self._plus(-1, other)

    def __eq__(self, other):
        return (type(other) is type(self) and other._shape() == self._shape()
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self._shape(), frozenset(self.terms.items())))


class Echelon:
    """Incremental exact echelon form of a growing set of vectors.

    Vectors are dicts key -> value over sortable keys.  Every
    independent vector added is stored as a row reduced against the
    pivots of the rows before it (pivot entry 1), together with the
    combination of the independent vectors that the row equals.  An
    independence test or a solve is then one forward pass over the rows.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows = []  # (pivot, reduced row, combination)

    @property
    def rank(self):
        return len(self._rows)

    def _reduce(self, vec):
        """(rest, combination) with vec = rest + the combination of the
        independent vectors, and rest zero at every pivot."""
        rest = _exact_terms(vec)
        combo = {}
        for pivot, row, row_combo in self._rows:
            f = rest.get(pivot)
            if f is not None:
                _axpy(rest, -f, row)
                _axpy(combo, f, row_combo)
        return rest, combo

    def _keep(self, rest, combo):
        """Store a nonzero remainder (rest, combo) from _reduce as the
        row of independent vector number rank.  Any pivot gives the same
        answers; the largest key fills in far less than the smallest on
        the slice matrices of the graph complexes."""
        pivot = max(rest)
        scale = _exact(Fraction(1, rest[pivot]))
        combo = {k: _exact(-c * scale) for k, c in combo.items()}
        combo[len(self._rows)] = scale
        self._rows.append((pivot, {j: _exact(v * scale)
                                   for j, v in rest.items()}, combo))

    def add(self, vec):
        """Add vec; True when it is independent of the vectors added
        before (it then becomes independent vector number rank - 1)."""
        rest, combo = self._reduce(vec)
        if rest:
            self._keep(rest, combo)
        return bool(rest)

    def coords(self, vec):
        """The coordinates of vec over the independent vectors, as a
        dict k -> value; ValueError when vec is outside their span."""
        rest, combo = self._reduce(vec)
        if rest:
            raise ValueError("vector outside the span")
        return {k: _exact(c) for k, c in combo.items()}


def _column_echelon(columns):
    """One pass over columns (dicts key -> value), in order, each reduced
    once against the independent columns before it.  Returns the
    Echelon of the columns, the indices of the independent ones, and the
    kernel basis: for each dependent column j, e_j minus its coordinates
    over the independent columns."""
    span, independent, kernel = Echelon(), [], []
    for j, col in enumerate(columns):
        rest, combo = span._reduce(col)
        if rest:
            span._keep(rest, combo)
            independent.append(j)
        else:
            vec = {independent[k]: _exact(-c)
                   for k, c in sorted(combo.items())}
            vec[j] = 1
            kernel.append(vec)
    return span, independent, kernel


def _columns(matrix, b=()):
    """The columns of matrix as dicts, once b's keys are checked."""
    for i in b:
        if type(i) is not int:
            raise TypeError(f"vector index {i!r} is not an int")
        if not 0 <= i < matrix.n_rows:
            raise ValueError("vector index out of range")
    return [dict(col) for col in matrix.transpose().rows]


def rank(matrix):
    """Exact rank over the rationals: one Echelon pass over the rows,
    or over the columns when they are fewer."""
    vectors = (matrix.rows if matrix.n_rows <= matrix.n_cols
               else matrix.transpose().rows)
    span = Echelon()
    for vec in vectors:
        span.add(dict(vec))
    return span.rank


def kernel_basis(matrix):
    """Exact basis of the right kernel, as a list of dicts col -> value.

    One vector per column j that depends on the columns before it, in
    column order: e_j minus j's coordinates over the independent
    columns.  So a vector has no entry at any other dependent column,
    and its other keys lie below j.  Every vector v satisfies M.v = 0
    exactly.
    """
    return _column_echelon(_columns(matrix))[2]


def solve(matrix, b):
    """One exact solution x (dict col -> value) of M.x = b, or None.

    b is a dict row -> value.
    """
    span, independent, _ = _column_echelon(_columns(matrix, b))
    try:
        x = span.coords(b)
    except ValueError:
        return None
    return {independent[k]: v for k, v in x.items()}


def in_image(matrix, b):
    """Decide exactly whether b (dict row -> value) is in the column span."""
    return not _column_echelon(_columns(matrix, b))[0].add(b)
