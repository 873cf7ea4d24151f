"""Sparse vectors and column-form maps for per-basis axiom checks.

A sparse vector is a dict ``{flat index: scalar}`` that leaves out zeros, with
indices flattened as in ``linalg`` (leftmost tensor factor slowest).  A
``SparseMap`` stores a linear map as one such vector per domain basis element,
which is the form in which ``report.check_map_equal`` compares two maps:
an axiom holds when both sides agree on every basis element of the domain.

Scalars here are raw (``Field.raw``): over GF(p) plain ints, over Q
``Fraction`` values.  Structure tensors are read into sparse raw form once
per verifier call: a 3-tensor ``t[i][j][k]`` becomes a list over ``i`` of
dicts ``{j: {k: c}}``, keeping only the nonzero ``c`` (so ``t[i][j]`` is the
vector that a bilinear map sends ``e_i, e_j`` to), and a matrix
``m[row][col]`` becomes its list of sparse columns.

The arithmetic helpers use only ``+`` and ``*``, so over GF(p) they
accumulate unreduced ints that may leave [0, p), and may leave zeros behind
from cancellation (``nonzero`` drops the literal ones).  They are brought to
canonical form (``Field.reduce``) only where two sides are compared: in
``report.residual``, which every comparison of two vectors goes through, and
where the weak counit law compares scalars.
"""

from __future__ import annotations

from .scalars import Field


class SparseMap:
    """A linear map given by its sparse columns."""

    __slots__ = ("field", "rows", "columns")

    def __init__(self, field: Field, rows: int, columns: list[dict]):
        self.field = field
        self.rows = rows
        self.columns = columns

    @property
    def cols(self) -> int:
        return len(self.columns)

    def sparse(self) -> "SparseMap":
        return self


# -- reading dense tensors ------------------------------------------------------

def vector(field: Field, v) -> dict:
    raw = field.raw
    return {i: raw(c) for i, c in enumerate(v) if c}


def tensor3(field: Field, t) -> list[dict]:
    out = []
    for slab in t:
        rows = {}
        for j, fibre in enumerate(slab):
            vec = vector(field, fibre)
            if vec:
                rows[j] = vec
        out.append(rows)
    return out


def columns(field: Field, m, cols: int) -> list[dict]:
    raw = field.raw
    out = [{} for _ in range(cols)]
    for r, row in enumerate(m):
        for c, v in enumerate(row):
            if v:
                out[c][r] = raw(v)
    return out


def flatten_pairs(t3: list[dict], d2: int) -> list[dict]:
    """Each ``{j: {k: c}}`` of a sparse 3-tensor as ``{j*d2 + k: c}``: a
    map into a tensor square, such as a comultiplication, as columns."""
    return [{j * d2 + k: c for j, fibre in rows.items()
             for k, c in fibre.items()} for rows in t3]


# -- arithmetic -----------------------------------------------------------------

def nonzero(vec: dict) -> dict:
    return {k: v for k, v in vec.items() if v}


def add(acc: dict, k, v):
    """acc[k] += v."""
    acc[k] = acc[k] + v if k in acc else v


def axpy(acc: dict, s, vec: dict):
    """acc += s·vec."""
    for k, v in vec.items():
        acc[k] = acc[k] + s * v if k in acc else s * v


def add_tensor(acc: dict, u: dict, v: dict, d2: int):
    """acc += u⊗v, where v lives in a space of dimension d2."""
    for i, a in u.items():
        for j, b in v.items():
            k = i * d2 + j
            acc[k] = acc[k] + a * b if k in acc else a * b


def add_product(acc: dict, t3: list[dict], u: dict, v: dict):
    """acc += the bilinear map of the sparse 3-tensor t3 on (u, v)."""
    for i, a in u.items():
        row = t3[i]
        for j, b in v.items():
            if j in row:
                axpy(acc, a * b, row[j])


def product(t3: list[dict], u: dict, v: dict) -> dict:
    acc = {}
    add_product(acc, t3, u, v)
    return nonzero(acc)


def left_factor(t3: list[dict], i: int, d2: int) -> list[dict]:
    """Columns of v ↦ t3(e_i, v), for v in a space of dimension d2."""
    return [t3[i].get(j, {}) for j in range(d2)]


def right_factor(t3: list[dict], j: int, d1: int) -> list[dict]:
    """Columns of u ↦ t3(u, e_j), for u in a space of dimension d1."""
    return [t3[i].get(j, {}) for i in range(d1)]


def apply(cols: list[dict], u: dict) -> dict:
    """The map with these sparse columns applied to u."""
    acc = {}
    for i, c in u.items():
        axpy(acc, c, cols[i])
    return nonzero(acc)


def pairing(u: dict, covec: dict) -> dict:
    """covec(u) as a vector of the one-dimensional space."""
    acc = {}
    for i, c in u.items():
        if i in covec:
            add(acc, 0, c * covec[i])
    return nonzero(acc)
