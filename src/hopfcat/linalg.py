"""Exact matrices and their row reduction: rank, kernel, inverse and solve.

Conventions used verbatim by every structure-constant module:

- A ``LinMap`` stores ``entries[r][c]`` with ``r`` indexing the codomain and
  ``c`` the domain; ``f @ g`` is composition f after g.
- Tensor factors flatten row-major with the LEFTMOST factor slowest: the pair
  (i, k) over dims (d1, d2) flattens to ``i*d2 + k``.  ``LinMap.kron``
  and ``swap_map`` follow this convention, fixed once for the whole library.

Everything is exact; results re-verify by multiplication to identical scalars.
"""

from __future__ import annotations

from .scalars import Field, FieldMismatchError
from .schema import reshaped
from .sparse import SparseMap, columns
from .value import FrozenValue


class NotInvertible(FrozenValue):
    """Returned when inversion fails; carries the rank actually achieved."""

    _fields = ("rank", "rows", "cols")

    def __init__(self, rank: int, rows: int, cols: int):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)


class LinMap:
    """An exact linear map in a fixed pair of bases."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        entries = tuple(tuple(r) for r in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(
                f"entry array is not {rows}x{cols}: "
                f"{len(entries)} rows of lengths {[len(r) for r in entries]}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def identity(cls, field: Field, n: int) -> "LinMap":
        one, zero = field.one, field.zero
        return cls(field, n, n,
                   [[one if i == j else zero for j in range(n)]
                    for i in range(n)])

    @classmethod
    def column(cls, field: Field, vec) -> "LinMap":
        return cls(field, len(vec), 1, [[v] for v in vec])

    @classmethod
    def row(cls, field: Field, covec) -> "LinMap":
        return cls(field, 1, len(covec), [list(covec)])

    def col(self, j: int) -> list:
        return [self.entries[r][j] for r in range(self.rows)]

    def sparse(self) -> SparseMap:
        """The same map in column form, as check_map_equal compares it."""
        return SparseMap(self.field, self.rows,
                         columns(self.field, self.entries, self.cols))

    def _check_field(self, other: "LinMap"):
        if self.field != other.field:
            raise FieldMismatchError(
                f"cannot combine maps over {self.field} and {other.field}")

    def __matmul__(self, other: "LinMap") -> "LinMap":
        """Composition self after other (matrix product)."""
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(
                f"composition dims mismatch: {self.rows}x{self.cols} after "
                f"{other.rows}x{other.cols}")
        zero = self.field.zero
        out = [[zero] * other.cols for _ in range(self.rows)]
        a, b = self.entries, other.entries
        for k in range(other.rows):
            ak_col = [a[r][k] for r in range(self.rows)]
            if not any(ak_col):
                continue
            bk = b[k]
            for j in range(other.cols):
                v = bk[j]
                if v:
                    for r in range(self.rows):
                        if ak_col[r]:
                            out[r][j] = out[r][j] + ak_col[r] * v
        return LinMap(self.field, self.rows, other.cols, out)

    def __sub__(self, other: "LinMap") -> "LinMap":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in difference")
        return LinMap(self.field, self.rows, self.cols,
                      [[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def kron(self, other: "LinMap") -> "LinMap":
        """Tensor product on bases, leftmost factor slowest."""
        self._check_field(other)
        zero = self.field.zero
        rows, cols = self.rows * other.rows, self.cols * other.cols
        out = [[zero] * cols for _ in range(rows)]
        for i, ra in enumerate(self.entries):
            for j, a in enumerate(ra):
                if a:
                    ri, cj = i * other.rows, j * other.cols
                    for k, rb in enumerate(other.entries):
                        for l, bv in enumerate(rb):
                            if bv:
                                out[ri + k][cj + l] = a * bv
        return LinMap(self.field, rows, cols, out)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.entries)

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"LinMap({self.rows}x{self.cols} over {self.field})"


def bilinear_map(field: Field, t, d1: int, d2: int, d3: int) -> LinMap:
    """U⊗V → W from the 3-tensor t[i][j][k] over dims (d1, d2, d3):
    e_i⊗e_j ↦ Σ_k t[i][j][k] e_k, domain flattened leftmost-slowest."""
    return LinMap(field, d3, d1 * d2, reshaped(
        t, 3, (d3, d1 * d2), field.zero, lambda i, j, k: (k, i * d2 + j)))


def split_map(field: Field, t, d1: int, d2: int, d3: int) -> LinMap:
    """D → L⊗R from the 3-tensor t[i][j][k] over dims (d1, d2, d3):
    e_i ↦ Σ_{j,k} t[i][j][k] e_j⊗e_k."""
    return LinMap(field, d2 * d3, d1, reshaped(
        t, 3, (d2 * d3, d1), field.zero, lambda i, j, k: (j * d3 + k, i)))


def swap_map(field: Field, d1: int, d2: int) -> LinMap:
    """The flip A⊗B → B⊗A on bases (the symmetric braiding of k-modules)."""
    zero, one = field.zero, field.one
    out = [[zero] * (d1 * d2) for _ in range(d1 * d2)]
    for i in range(d1):
        for k in range(d2):
            out[k * d1 + i][i * d2 + k] = one
    return LinMap(field, d1 * d2, d1 * d2, out)


def _rref(field: Field, rows):
    """Reduced row echelon form of rows of raw scalars (``Field.raw``, not
    necessarily reduced); returns (rows, pivot_cols) with canonical entries.

    Every row is copied and brought to canonical form (mod p; nothing to do
    over Q) once, on entry.  When column c gets its pivot, the rows from the
    pivot row down are zero left of c, so scaling the pivot row and
    eliminating c from another row change only columns c and beyond: each
    such update rewrites that tail of the row in one comprehension, which
    over GF(p) also reduces it.  Only the pivot's inverse and that reduction
    depend on the field."""
    p = field.p
    rows = [list(r) if p is None else [v % p for v in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        tail = rows[r][c:]
        pv = tail[0]
        if pv != 1:
            inv = field.one / pv if p is None else pow(pv, -1, p)
            rows[r][c:] = tail = ([v * inv for v in tail] if p is None
                                  else [v * inv % p for v in tail])
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[c:] = ([a - f * b for a, b in zip(row[c:], tail)]
                           if p is None else
                           [(a - f * b) % p for a, b in zip(row[c:], tail)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _raw(field: Field, rows) -> list[list]:
    raw = field.raw
    return [[raw(v) for v in r] for r in rows]


def _lift(field: Field, row) -> tuple:
    lift = field.lift
    return tuple(lift(v) for v in row)


def _echelon(field: Field, rows) -> list[list]:
    """The nonzero rows of the rref of raw rows."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    rows, pivots = _rref(field, rows)
    return rows[:len(pivots)]


def echelon_basis(field: Field, vectors) -> list[tuple]:
    """Canonical (reduced echelon) basis of the span of the given vectors."""
    return [_lift(field, r) for r in _echelon(field, _raw(field, vectors))]


def rank_kernel(f: LinMap) -> tuple[int, list[tuple]]:
    """Exact rank and a canonical reduced-echelon basis of the kernel."""
    if f.cols == 0:
        return 0, []
    if f.rows == 0:
        # Everything is in the kernel; canonical basis is the standard one.
        one, zero = f.field.one, f.field.zero
        basis = [tuple(one if i == j else zero for i in range(f.cols))
                 for j in range(f.cols)]
        return 0, basis
    field = f.field
    rows, pivots = _rref(field, _raw(field, f.entries))
    rank = len(pivots)
    pivot_set = set(pivots)
    free = [c for c in range(f.cols) if c not in pivot_set]
    zero, one = field.raw(field.zero), field.raw(field.one)
    raw = []
    for fc in free:
        v = [zero] * f.cols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        raw.append(v)
    return rank, [_lift(field, r) for r in _echelon(field, raw)]


def rank(f: LinMap) -> int:
    """Exact rank: the number of pivots of one row reduction."""
    return len(_rref(f.field, _raw(f.field, f.entries))[1])


def invert(f: LinMap):
    """Exact inverse, or NotInvertible carrying the rank."""
    if f.rows != f.cols:
        return NotInvertible(rank(f), f.rows, f.cols)
    n = f.rows
    if n == 0:
        return LinMap(f.field, 0, 0, [])
    field = f.field
    aug = _raw(field, [list(r) + list(i) for r, i in
                       zip(f.entries, LinMap.identity(field, n).entries)])
    rows, pivots = _rref(field, aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return NotInvertible(rank(f), n, n)
    return LinMap(field, n, n, [_lift(field, r[n:]) for r in rows])


def solve(a: LinMap, b: LinMap):
    """Exact solution X of a @ X = b, or None if the system is inconsistent.

    When a has full column rank the solution is unique; that is the only case
    the library relies on.
    """
    a._check_field(b)
    if a.rows != b.rows:
        raise ValueError("incompatible shapes in solve")
    if a.cols == 0:
        return LinMap(a.field, 0, b.cols, []) if b.is_zero() else None
    field = a.field
    aug = _raw(field, [list(ra) + list(rb)
                       for ra, rb in zip(a.entries, b.entries)])
    rows, pivots = _rref(field, aug)
    if any(p >= a.cols for p in pivots):
        return None  # a pivot in the right block: inconsistent
    zero = field.zero
    out = [[zero] * b.cols for _ in range(a.cols)]
    for i, pc in enumerate(pivots):
        out[pc] = _lift(field, rows[i][a.cols:])
    # Reject underdetermined systems only if the candidate fails to verify.
    cand = LinMap(a.field, a.cols, b.cols, out)
    return cand if a @ cand == b else None
