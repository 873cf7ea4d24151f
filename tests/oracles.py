"""Independent test-side oracles.

These deliberately avoid the library's verifier: identities are summed out
index by index over the raw structure-constant tensors, and linear solves go
through sympy.  They exist so that every checked value has a second,
unrelated route to it.  The dense matrix verifiers near the end of this
file are the engine that ``core.verify_structure`` and the dual, duoidal,
module, Hopf-module and graded verifiers used before their per-basis
rewrite, kept as references whose reports the new engine must reproduce
exactly, and so are the dense canonical maps, antipode recovery and
canonical and dual Hopf modules after them for ``fundamental``'s
contractions, and dense strictness, coinvariants and the freeness
equivalence after those for their raw-row and sparse-column rewrites; the
sampled weak Hopf verifier after them plays the same part
for ``weak.verify_weak_hopf``, and so does the sparse weak verifier after it,
which visits every pair (i, j) rather than only those that nonzero constants
reach; the hand-written re-indexing loops after it
(duals, opposites, packing, module↔comodule, free and tensor modules) for
the same constructions on ``schema.reshaped``, the hand-filled
constructors after them (groupoid linearization, kZ/n and the Taft algebra)
for the same constructors on ``schema.tensor``, with the groupoid validation
that walks every pair and triple of morphisms for the one that visits only
composable ones, the twelve-base primality
test for ``scalars.is_prime``, the row reduction on public
scalars for ``linalg``'s row reduction on raw ones, the per-kind
parsers near the end for ``fileformat``'s one table-driven reader, and the
slot-table writer at the end for its one-walk rewrite.  ``reference_check_map_equal``
is the per-column comparison that ``report.check_map_equal`` ran before it
compared whole column lists first, ``ReferenceInstances`` the key rule of
``report.Instances`` spelled out with the ``id`` of each tensor, and
``reference_fold`` a second fold of report records for ``Report.lines``,
and ``reference_residual`` and the ``reference_*`` kernels after it are
``report.residual``, ``sparse.comult_mult``, ``antipode_law`` and
``coassoc`` and ``core._anticomult`` as they were before the dense GF(p)
path was made cheaper.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import sympy

from hopfcat.core import (LEVELS, HopfCatData, MissingAntipodeError,
                          verify_structure)
from hopfcat.dual import DualHopfCatData
from hopfcat.duoidal import (BimonoidData, MkXObject, black_tensor,
                             white_tensor, zeta)
from hopfcat.fileformat import (FORMAT_VERSION, KINDS, KindMismatchError,
                                ParseError, _header_lines,
                                _serialize_groupoid)
from hopfcat.fundamental import (AntipodeRecoveryError, CoinvariantFamily,
                                 HopfModuleData, RecoveryFailure)
from hopfcat.graded import GradedHopfData, GroupTable
from hopfcat.fixtures import singleton_hopf
from hopfcat.groupoid import GroupoidData, GroupoidError
from hopfcat.linalg import (LinMap, NotInvertible, invert, rank, rank_kernel,
                            solve, swap_map)
from hopfcat.modules import BaseMismatchError, ComoduleData, ModuleData
from hopfcat.report import (CheckItem, InternalInvariantError,
                            PreconditionError, Report, check_condition,
                            residual)
from hopfcat.scalars import FieldMismatchError, parse_field
from hopfcat.schema import (LAYOUTS, Kind, MalformedDataError, Slot,
                            check_shape, nonzero_entries)
from hopfcat import report as report_module
from hopfcat import sparse as sp
from hopfcat.weak import WeakHopfData


def antipode_law_holds(a) -> bool:
    """h_(1)·S(h_(2)) = eps(h)·1  and  S(h_(1))·h_(2) = eps(h)·1 at every
    basis element, straight off the tensors."""
    for x in a.objects:
        for y in a.objects:
            d = a.dim(x, y)
            dc = a.comult[(x, y)]
            s = a.antipode[(x, y)]
            for h in range(d):
                left = [a.field.zero] * a.dim(x, x)
                right = [a.field.zero] * a.dim(y, y)
                for j in range(d):
                    for k in range(d):
                        if not dc[h][j][k]:
                            continue
                        for t in range(a.dim(y, x)):
                            if s[t][k]:
                                for m in range(a.dim(x, x)):
                                    left[m] = left[m] + dc[h][j][k] * s[t][k] \
                                        * a.mult[(x, y, x)][j][t][m]
                        for t in range(a.dim(y, x)):
                            if s[t][j]:
                                for m in range(a.dim(y, y)):
                                    right[m] = right[m] + dc[h][j][k] \
                                        * s[t][j] * a.mult[(y, x, y)][t][k][m]
                eps_h = a.counit[(x, y)][h]
                if left != [eps_h * u for u in a.unit[x]]:
                    return False
                if right != [eps_h * u for u in a.unit[y]]:
                    return False
    return True


def sympy_integral_basis(a, x):
    """Solve phi·f_i = <f_i,1>·phi over the whole dual basis of the diagonal
    component at x, using sympy's nullspace; echelon-normalized."""
    d = a.dim(x, x)
    dc = a.comult[(x, x)]
    u = a.unit[x]
    rows = []
    for i in range(d):
        for c in range(d):
            rows.append([sympy.Rational(dc[c][i][al])
                         - (sympy.Rational(u[i]) if al == c else 0)
                         for al in range(d)])
    ns = sympy.Matrix(rows).nullspace()
    if not ns:
        return []
    coords = sympy.Matrix.hstack(*ns).T.rref()[0]
    basis = []
    for r in range(coords.rows):
        row = [Fraction(int(v.p), int(v.q)) for v in coords.row(r)]
        if any(row):
            basis.append(tuple(row))
    return basis


# -- the dense matrix verifier ----------------------------------------------------
#
# The verifier as it was before the sparse per-basis engine: every axiom is
# composed out of dense structure matrices with kron and @ and compared column
# by column.  It is kept only as a reference for differential tests, and it
# costs up to d^8 entry visits at hom dimension d.

def _dense_check_map_equal(report, axiom, objects, lhs, rhs, required=True):
    diff = lhs - rhs
    witness = None
    residual = ""
    failures = 0
    for j in range(diff.cols):
        col = diff.col(j)
        if any(col):
            failures += 1
            if witness is None:
                witness = j
                residual = " ".join(f"[{r}]={diff.field.fmt(v)}"
                                    for r, v in enumerate(col) if v)
    report.add(CheckItem(axiom, objects, failures == 0, witness, residual,
                         failures, required))
    return failures == 0


def reference_check_map_equal(report, axiom, objects, lhs, rhs,
                              required=True):
    """``report.check_map_equal`` as it was before its whole-map ``==``:
    every column pair goes through ``residual``, equal or not."""
    lhs, rhs = lhs.sparse(), rhs.sparse()
    if lhs.field != rhs.field:
        raise FieldMismatchError(
            f"cannot compare maps over {lhs.field} and {rhs.field}")
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        raise ValueError(
            f"cannot compare a {lhs.rows}x{lhs.cols} map with a "
            f"{rhs.rows}x{rhs.cols} map")
    witness = None
    first = ""
    failures = 0
    for j, (lcol, rcol) in enumerate(zip(lhs.columns, rhs.columns)):
        res = residual(lhs.field, lcol, rcol)
        if res:
            failures += 1
            if witness is None:
                witness, first = j, res
    item = CheckItem(axiom, objects, failures == 0, witness, first,
                     failures, required)
    report.add(item)
    return item.ok


class ReferenceInstances:
    """``report.Instances`` with its key rule spelled out: a list or dict
    argument (an interned tensor) by its ``id``, every other one, such as a
    tuple of dimensions or an int, by its value.  Its ``check`` stands in
    for ``Instances.check`` in tests, which hold the two to the same records
    and the same comparisons; it calls ``report.check_map_equal`` through
    the module, where tests count it."""

    __slots__ = ("report", "field", "_seen")

    def __init__(self, report, field):
        self.report = report
        self.field = field
        self._seen = {}

    def check(self, axiom, objects, law, *args, required=True):
        key = (law, *[id(a) if isinstance(a, (list, dict)) else a
                      for a in args])
        report = self.report
        seen = self._seen.get(key)
        if seen is None:
            ok = report_module.check_map_equal(
                report, axiom, objects, *law(self.field, *args), required)
            self._seen[key] = report.items[-1], args
            return ok
        first = seen[0]
        report.add(CheckItem(axiom, objects, first.ok, first.witness,
                             first.residual, first.failures, required))
        return first.ok


def reference_fold(records: list[dict]) -> list[dict]:
    """The records of a ``--report`` file, folded from the per-tuple
    ``record()`` dicts of a report in two passes: the passing records of
    each (axiom, required) family are counted, then the records are walked
    again, a failing or noted one kept as it is and each family written
    once, at its first passing record, with that count as ``folded``."""
    counts = {}
    for r in records:
        if r["ok"]:
            family = r["axiom"], r["required"]
            counts[family] = counts.get(family, 0) + 1
    out = []
    for r in records:
        family = r["axiom"], r["required"]
        if not r["ok"]:
            out.append(r)
        elif family in counts:
            out.append({"axiom": r["axiom"], "objects": [], "ok": True,
                        "witness": None, "residual": "", "failures": 0,
                        "required": r["required"],
                        "folded": counts.pop(family)})
    return out


# -- the sparse kernels before they summed their terms inline ----------------------
#
# ``sparse.comult_mult``, ``antipode_law`` and ``coassoc`` and
# ``core._anticomult`` as they were before each summed its terms inline and
# ``comult_mult`` built its right side from one factor per i and one per j:
# three contraction stages there, and ``add_product`` and ``add_tensor``
# for each term elsewhere; and ``report.residual`` as it was before it
# compared two GF(p) columns mod p first.  ``test_kernel_differential.py``
# holds the new bodies to their reduced columns and residual texts.

def reference_residual(field, lhs: dict, rhs: dict) -> str:
    """``report.residual`` before it compared two GF(p) vectors with the
    same keys value by value first: every unequal pair takes the difference
    and reduces it."""
    if lhs == rhs:
        return ""
    diff = dict(lhs)
    for k, v in rhs.items():
        diff[k] = diff[k] - v if k in diff else -v
    diff = field.reduce(diff)
    return " ".join(f"[{k}]={field.fmt(diff[k])}" for k in sorted(diff))


def _reference_add_product(acc: dict, t3: list[dict], u: dict, v: dict):
    """acc += the bilinear map of the sparse 3-tensor t3 on (u, v)."""
    for i, a in u.items():
        row = t3[i]
        for j, b in v.items():
            if j in row:
                sp.axpy(acc, a * b, row[j])


def reference_comult_mult(field, m, delta, delta_u, delta_v, m1, m2,
                          d1: int, d2: int):
    flat = sp.flatten_pairs(delta, d2)
    lhs, rhs = [], []
    for i, delta_i in enumerate(delta_u):
        stage1 = {}
        for a, fibre in delta_i.items():
            for b, cab in fibre.items():
                for c, ac in m1[a].items():
                    acc = stage1.setdefault(c, {}).setdefault(b, {})
                    for t, v in ac.items():
                        acc[t] = acc[t] + cab * v if t in acc else cab * v
        m_i = m[i]
        for j, delta_j in enumerate(delta_v):
            lhs.append(sp.apply(flat, m_i.get(j, sp._EMPTY)))
            stage2 = {}
            for c, fibre in delta_j.items():
                for b, vec in stage1.get(c, sp._EMPTY).items():
                    for e, cce in fibre.items():
                        acc = stage2.setdefault((b, e), {})
                        for t, v in vec.items():
                            acc[t] = acc[t] + cce * v if t in acc else cce * v
            col, terms = {}, 0
            for (b, e), vec in stage2.items():
                w = m2[b].get(e)
                if w:
                    terms += 1
                    for r, x in vec.items():
                        base = r * d2
                        for s, y in w.items():
                            k = base + s
                            col[k] = col[k] + x * y if k in col else x * y
            rhs.append({k: v for k, v in col.items() if v}
                       if terms > 1 else col)
    return sp._pair(field, d1 * d2, lhs, rhs)


def reference_coassoc(field, first, left, second, right, du: int, dv: int,
                      dw: int):
    left, right = sp.flatten_pairs(left, dv), sp.flatten_pairs(right, dw)
    lhs, rhs = [], []
    for split1, split2 in zip(first, second):
        acc = {}
        for p, fibre in split1.items():
            for w, c in fibre.items():
                sp.add_tensor(acc, left[p], {w: c}, dw)
        lhs.append(sp.nonzero(acc))
        acc = {}
        for u, fibre in split2.items():
            for q, c in fibre.items():
                sp.add_tensor(acc, {u: c}, right[q], dv * dw)
        rhs.append(sp.nonzero(acc))
    return sp._pair(field, du * dv * dw, lhs, rhs)


def reference_antipode_law(field, delta, s, m, unit: dict, eps: dict,
                           s_first: bool, rows: int, flip: bool = False):
    lhs, rhs = [], []
    for i, fibres in enumerate(delta):
        acc = {}
        for j, fibre in fibres.items():
            for k, c in fibre.items():
                h1, h2 = (k, j) if flip else (j, k)
                if s_first:
                    _reference_add_product(acc, m, s[h1], {h2: c})
                else:
                    _reference_add_product(acc, m, {h1: c}, s[h2])
        lhs.append(sp.nonzero(acc))
        rhs.append({k: eps[i] * u for k, u in unit.items()}
                   if i in eps else {})
    return sp._pair(field, rows, lhs, rhs)


def reference_anticomult(f, s, delta, delta_op, d: int):
    flat = sp.flatten_pairs(delta_op, d)
    lhs, rhs = [], []
    for i, fibres in enumerate(delta):
        lhs.append(sp.apply(flat, s[i]))
        acc = {}
        for j, fibre in fibres.items():
            for k, c in fibre.items():
                sp.add_tensor(acc, {p: c * v for p, v in s[k].items()},
                              s[j], d)
        rhs.append(sp.nonzero(acc))
    return sp.SparseMap(f, d * d, lhs), sp.SparseMap(f, d * d, rhs)


def dense_verify_structure(a, level="hopf"):
    """Dense reference for ``core.verify_structure``."""
    if level not in LEVELS:
        raise ValueError(f"unknown level '{level}'")
    a.validate_shape()
    if level == "hopf" and a.antipode is None:
        raise MissingAntipodeError("level 'hopf' requires an antipode")
    check = _dense_check_map_equal
    rep = Report()
    X = a.objects

    for x in X:
        for y in X:
            for z in X:
                for t in X:
                    lhs = a.mult_map(x, z, t) @ a.mult_map(x, y, z).kron(
                        a.identity_map(z, t))
                    rhs = a.mult_map(x, y, t) @ a.identity_map(x, y).kron(
                        a.mult_map(y, z, t))
                    check(rep, "assoc", (x, y, z, t), lhs, rhs)
    for x in X:
        for y in X:
            ident = a.identity_map(x, y)
            check(rep, "unit-left", (x, y),
                  a.mult_map(x, x, y) @ a.unit_map(x).kron(ident), ident)
            check(rep, "unit-right", (x, y),
                  a.mult_map(x, y, y) @ ident.kron(a.unit_map(y)), ident)
    if level == "category":
        return rep

    for x in X:
        for y in X:
            ident = a.identity_map(x, y)
            cm = a.comult_map(x, y)
            cu = a.counit_map(x, y)
            check(rep, "coassoc", (x, y),
                  cm.kron(ident) @ cm, ident.kron(cm) @ cm)
            check(rep, "counit-left", (x, y), cu.kron(ident) @ cm, ident)
            check(rep, "counit-right", (x, y), ident.kron(cu) @ cm, ident)
    for x in X:
        for y in X:
            for z in X:
                m = a.mult_map(x, y, z)
                d1, d2 = a.dim(x, y), a.dim(y, z)
                lhs = a.comult_map(x, z) @ m
                mid = a.identity_map(x, y).kron(
                    swap_map(a.field, d1, d2)).kron(a.identity_map(y, z))
                rhs = m.kron(m) @ mid @ a.comult_map(x, y).kron(
                    a.comult_map(y, z))
                check(rep, "comult-mult", (x, y, z), lhs, rhs)
                check(rep, "counit-mult", (x, y, z),
                      a.counit_map(x, z) @ m,
                      a.counit_map(x, y).kron(a.counit_map(y, z)))
    for x in X:
        check(rep, "comult-unit", (x,),
              a.comult_map(x, x) @ a.unit_map(x),
              a.unit_map(x).kron(a.unit_map(x)))
        check(rep, "counit-unit", (x,),
              a.counit_map(x, x) @ a.unit_map(x),
              LinMap.identity(a.field, 1))
    if level == "semihopf":
        return rep

    for x in X:
        for y in X:
            ident = a.identity_map(x, y)
            s = a.antipode_map(x, y)
            cm = a.comult_map(x, y)
            check(rep, "antipode-left", (x, y),
                  a.mult_map(x, y, x) @ ident.kron(s) @ cm,
                  a.unit_map(x) @ a.counit_map(x, y))
            check(rep, "antipode-right", (x, y),
                  a.mult_map(y, x, y) @ s.kron(ident) @ cm,
                  a.unit_map(y) @ a.counit_map(x, y))
    return rep


def dense_antipode_theorems(a):
    """Dense reference for ``core.check_antipode_theorems``."""
    base = dense_verify_structure(a, "hopf")
    if not base.overall:
        raise PreconditionError(
            "antipode theorems need data that passes level 'hopf': "
            + base.summary())
    check = _dense_check_map_equal
    rep = Report()
    X = a.objects

    def swap(d1, d2):
        return swap_map(a.field, d1, d2)

    for x in X:
        for y in X:
            for z in X:
                lhs = a.antipode_map(x, z) @ a.mult_map(x, y, z)
                rhs = (a.mult_map(z, y, x)
                       @ a.antipode_map(y, z).kron(a.antipode_map(x, y))
                       @ swap(a.dim(x, y), a.dim(y, z)))
                check(rep, "antipode-antimult", (x, y, z), lhs, rhs)
    for x in X:
        check(rep, "antipode-unit", (x,),
              a.antipode_map(x, x) @ a.unit_map(x), a.unit_map(x))
    for x in X:
        for y in X:
            s = a.antipode_map(x, y)
            d = a.dim(x, y)
            check(rep, "antipode-anticomult", (x, y),
                  a.comult_map(y, x) @ s,
                  s.kron(s) @ swap(d, d) @ a.comult_map(x, y))
            check(rep, "antipode-counit", (x, y),
                  a.counit_map(y, x) @ s, a.counit_map(x, y))
    for x in X:
        for y in X:
            s = a.antipode_map(x, y)
            d = a.dim(x, y)
            ident = a.identity_map(x, y)
            flip_cm = swap(d, d) @ a.comult_map(x, y)
            c1 = check(rep, "antipode-left-twisted", (x, y),
                       a.mult_map(y, x, y) @ s.kron(ident) @ flip_cm,
                       a.unit_map(y) @ a.counit_map(x, y), required=False)
            c2 = check(rep, "antipode-right-twisted", (x, y),
                       a.mult_map(x, y, x) @ ident.kron(s) @ flip_cm,
                       a.unit_map(x) @ a.counit_map(x, y), required=False)
            c3 = check(rep, "antipode-involutive", (x, y),
                       a.antipode_map(y, x) @ s, ident, required=False)
            check_condition(
                rep, "antipode-conditions-agree", (x, y),
                c1 == c2 == c3,
                residual=f"left-twisted={c1} right-twisted={c2} involutive={c3}")
    return rep


# The dual, duoidal, module, comodule, Hopf-module and graded verifiers as
# they were before they moved onto the shared sparse laws: every axiom
# composed out of dense structure matrices with kron and @.  They are kept
# only as references for differential tests, with the matrix builders only
# they use.

def _bilinear_map(field, t, d1, d2, d3):
    """U⊗V → W from t[i][j][k], domain flattened leftmost-slowest."""
    out = [[field.zero] * (d1 * d2) for _ in range(d3)]
    for i in range(d1):
        for j in range(d2):
            for k in range(d3):
                out[k][i * d2 + j] = t[i][j][k]
    return LinMap(field, d3, d1 * d2, out)


def _split_map(field, t, d1, d2, d3):
    """D → L⊗R from t[i][j][k]."""
    out = [[field.zero] * d1 for _ in range(d2 * d3)]
    for i in range(d1):
        for j in range(d2):
            for k in range(d3):
                out[j * d3 + k][i] = t[i][j][k]
    return LinMap(field, d2 * d3, d1, out)


def dense_verify_dual(c):
    """Dense reference for ``dual.verify_dual``."""
    c.validate_shape()
    check = _dense_check_map_equal
    rep = Report()
    f, X, dim = c.field, c.objects, c.dim

    def ident(x, y):
        return LinMap.identity(f, dim(x, y))

    def alg(x, y):
        d = dim(x, y)
        return _bilinear_map(f, c.alg[(x, y)], d, d, d)

    def unit(x, y):
        return LinMap.column(f, c.unit[(x, y)])

    def cocomp(x, y, z):
        return _split_map(f, c.cocomp[(x, y, z)], dim(x, z), dim(x, y),
                          dim(y, z))

    def counit(x):
        return LinMap.row(f, c.counit[x])

    def antipode(x, y):
        return LinMap(f, dim(x, y), dim(y, x), c.antipode[(x, y)])

    for x in X:
        for y in X:
            m = alg(x, y)
            i = ident(x, y)
            check(rep, "alg-assoc", (x, y), m @ m.kron(i), m @ i.kron(m))
            check(rep, "alg-unit-left", (x, y), m @ unit(x, y).kron(i), i)
            check(rep, "alg-unit-right", (x, y), m @ i.kron(unit(x, y)), i)
    for x in X:
        for y in X:
            for z in X:
                for u in X:
                    lhs = cocomp(x, y, z).kron(ident(z, u)) @ cocomp(x, z, u)
                    rhs = ident(x, y).kron(cocomp(y, z, u)) @ cocomp(x, y, u)
                    check(rep, "cocomp-coassoc", (x, y, z, u), lhs, rhs)
    for x in X:
        for y in X:
            i = ident(x, y)
            check(rep, "cocomp-counit-left", (x, y),
                  counit(x).kron(i) @ cocomp(x, x, y), i)
            check(rep, "cocomp-counit-right", (x, y),
                  i.kron(counit(y)) @ cocomp(x, y, y), i)
    for x in X:
        for y in X:
            for z in X:
                da, db = dim(x, y), dim(y, z)
                cc = cocomp(x, y, z)
                pair_mult = alg(x, y).kron(alg(y, z)) \
                    @ ident(x, y).kron(swap_map(f, db, da)).kron(ident(y, z))
                check(rep, "cocomp-mult", (x, y, z),
                      cc @ alg(x, z), pair_mult @ cc.kron(cc))
                check(rep, "cocomp-unit", (x, y, z),
                      cc @ unit(x, z), unit(x, y).kron(unit(y, z)))
    for x in X:
        check(rep, "counit-mult", (x,), counit(x) @ alg(x, x),
              counit(x).kron(counit(x)))
        check(rep, "counit-unit", (x,), counit(x) @ unit(x, x),
              LinMap.identity(f, 1))
    if c.antipode is not None:
        for x in X:
            for y in X:
                cc = cocomp(x, y, x)
                check(rep, "dual-antipode-left", (x, y),
                      alg(x, y) @ ident(x, y).kron(antipode(x, y)) @ cc,
                      unit(x, y) @ counit(x))
                check(rep, "dual-antipode-right", (x, y),
                      alg(y, x) @ antipode(y, x).kron(ident(y, x)) @ cc,
                      unit(y, x) @ counit(x))
    return rep


def dense_verify_bimonoid(b):
    """Dense reference for ``duoidal.verify_bimonoid``, with the interchange
    as an explicit block matrix."""
    b.validate_shape()
    check = _dense_check_map_equal
    rep = Report()
    f = b.field
    car = b.carrier
    X, dim = car.objects, car.dim

    def ident(n):
        return LinMap.identity(f, n)

    def mu(x, u, y):
        return _bilinear_map(f, b.mu[(x, u, y)], dim(x, u), dim(u, y),
                             dim(x, y))

    def mu_all(x, y):
        """(A⊙A)(x,y) → A(x,y): all middle-object components side by
        side."""
        _, offsets = white_tensor(car, car)
        cols = sum(dim(x, u) * dim(u, y) for u in X)
        out = [[f.zero] * cols for _ in range(dim(x, y))]
        for u in X:
            comp = mu(x, u, y)
            off = offsets[(x, y)][u]
            for r in range(comp.rows):
                for c in range(comp.cols):
                    out[r][off + c] = comp.entries[r][c]
        return LinMap(f, dim(x, y), cols, out)

    def eta(x):
        return LinMap.column(f, b.eta[x])

    def delta(x, y):
        d = dim(x, y)
        return _split_map(f, b.delta[(x, y)], d, d, d)

    def eps(x, y):
        return LinMap.row(f, b.eps[(x, y)])

    for x in X:
        for u in X:
            for v in X:
                for y in X:
                    lhs = mu(x, v, y) @ mu(x, u, v).kron(ident(dim(v, y)))
                    rhs = mu(x, u, y) @ ident(dim(x, u)).kron(mu(u, v, y))
                    check(rep, "monoid-assoc", (x, u, v, y), lhs, rhs)
    for x in X:
        for y in X:
            i = ident(dim(x, y))
            check(rep, "monoid-unit-left", (x, y),
                  mu(x, x, y) @ eta(x).kron(i), i)
            check(rep, "monoid-unit-right", (x, y),
                  mu(x, y, y) @ i.kron(eta(y)), i)
    for x in X:
        for y in X:
            i = ident(dim(x, y))
            dm, em = delta(x, y), eps(x, y)
            check(rep, "comonoid-coassoc", (x, y),
                  dm.kron(i) @ dm, i.kron(dm) @ dm)
            check(rep, "comonoid-counit-left", (x, y), em.kron(i) @ dm, i)
            check(rep, "comonoid-counit-right", (x, y), i.kron(em) @ dm, i)

    zeta_blocks = zeta(f, car, car, car, car)
    aa = black_tensor(car, car)
    dd_dom, dd_dom_off = white_tensor(car, car)
    dd_cod, dd_cod_off = white_tensor(aa, aa)
    for x in X:
        for y in X:
            mu_xy = mu_all(x, y)
            # blockwise delta⊙delta into (A•A)⊙(A•A)
            dd = [[f.zero] * dd_dom.dim(x, y)
                  for _ in range(dd_cod.dim(x, y))]
            ee = [[f.zero] * dd_dom.dim(x, y)]
            for z in X:
                blk = delta(x, z).kron(delta(z, y))
                ro, co = dd_cod_off[(x, y)][z], dd_dom_off[(x, y)][z]
                for r in range(blk.rows):
                    for c in range(blk.cols):
                        if blk.entries[r][c]:
                            dd[ro + r][co + c] = blk.entries[r][c]
                blk = eps(x, z).kron(eps(z, y))
                for c in range(blk.cols):
                    ee[0][co + c] = blk.entries[0][c]
            dd_map = LinMap(f, dd_cod.dim(x, y), dd_dom.dim(x, y), dd)
            check(rep, "interchange-mult-comult", (x, y),
                  delta(x, y) @ mu_xy,
                  mu_xy.kron(mu_xy) @ zeta_blocks[(x, y)] @ dd_map)
            check(rep, "interchange-counit-mult", (x, y),
                  eps(x, y) @ mu_xy, LinMap(f, 1, dd_dom.dim(x, y), ee))
    for x in X:
        check(rep, "interchange-comult-unit", (x,),
              delta(x, x) @ eta(x), eta(x).kron(eta(x)))
        check(rep, "interchange-counit-unit", (x,),
              eps(x, x) @ eta(x), LinMap.identity(f, 1))
    return rep


def _dense_action(m, x, y, z):
    """The action map at (x,y,z) of a module or Hopf module."""
    a = m.base
    if getattr(m, "side", "right") == "right":
        d1, d2 = m.dim(x, y), a.dim(y, z)
    else:
        d1, d2 = a.dim(x, y), m.dim(y, z)
    return _bilinear_map(a.field, m.action[(x, y, z)], d1, d2, m.dim(x, z))


def _dense_base(a):
    """Matrix builders of a Hopf category's structure maps."""
    f = a.field

    def mult(x, y, z):
        return _bilinear_map(f, a.mult[(x, y, z)], a.dim(x, y), a.dim(y, z),
                             a.dim(x, z))

    def comult(x, y):
        d = a.dim(x, y)
        return _split_map(f, a.comult[(x, y)], d, d, d)

    def unit(x):
        return LinMap.column(f, a.unit[x])

    def counit(x, y):
        return LinMap.row(f, a.counit[(x, y)])
    return mult, comult, unit, counit


def _dense_right_module_laws(m, rep):
    a = m.base
    f, X = a.field, a.objects
    mult, _, unit, _ = _dense_base(a)
    check = _dense_check_map_equal
    for x in X:
        for y in X:
            for z in X:
                for u in X:
                    lhs = _dense_action(m, x, z, u) @ _dense_action(
                        m, x, y, z).kron(LinMap.identity(f, a.dim(z, u)))
                    rhs = _dense_action(m, x, y, u) @ LinMap.identity(
                        f, m.dim(x, y)).kron(mult(y, z, u))
                    check(rep, "module-assoc", (x, y, z, u), lhs, rhs)
    for x in X:
        for y in X:
            i = LinMap.identity(f, m.dim(x, y))
            check(rep, "module-unit", (x, y),
                  _dense_action(m, x, y, y) @ i.kron(unit(y)), i)


def dense_verify_module(m):
    """Dense reference for ``modules.verify_module``."""
    m.validate_shape()
    rep = Report()
    if m.side == "right":
        _dense_right_module_laws(m, rep)
        return rep
    a = m.base
    f, X = a.field, a.objects
    mult, _, unit, _ = _dense_base(a)
    check = _dense_check_map_equal
    for x in X:
        for y in X:
            for z in X:
                for u in X:
                    lhs = _dense_action(m, x, y, u) @ LinMap.identity(
                        f, a.dim(x, y)).kron(_dense_action(m, y, z, u))
                    rhs = _dense_action(m, x, z, u) @ mult(x, y, z).kron(
                        LinMap.identity(f, m.dim(z, u)))
                    check(rep, "module-assoc", (x, y, z, u), lhs, rhs)
    for x in X:
        for y in X:
            i = LinMap.identity(f, m.dim(x, y))
            check(rep, "module-unit", (x, y),
                  _dense_action(m, x, x, y) @ unit(x).kron(i), i)
    return rep


def dense_verify_comodule(m):
    """Dense reference for ``modules.verify_comodule``."""
    m.validate_shape()
    check = _dense_check_map_equal
    rep = Report()
    c = m.base
    f, X = c.field, c.objects

    def coaction(x, y, z):
        return _split_map(f, m.coaction[(x, y, z)], m.dim(x, z), m.dim(x, y),
                          c.dim(y, z))

    def cocomp(x, y, z):
        return _split_map(f, c.cocomp[(x, y, z)], c.dim(x, z), c.dim(x, y),
                          c.dim(y, z))

    for x in X:
        for z in X:
            for u in X:
                for y in X:
                    lhs = coaction(x, u, y).kron(
                        LinMap.identity(f, c.dim(y, z))) @ coaction(x, y, z)
                    rhs = LinMap.identity(f, m.dim(x, u)).kron(
                        cocomp(u, y, z)) @ coaction(x, u, z)
                    check(rep, "comodule-coassoc", (x, u, y, z), lhs, rhs)
    for x in X:
        for z in X:
            i = LinMap.identity(f, m.dim(x, z))
            check(rep, "comodule-counit", (x, z),
                  i.kron(LinMap.row(f, c.counit[z])) @ coaction(x, z, z), i)
    return rep


def dense_verify_hopf_module(m):
    """Dense reference for ``fundamental.verify_hopf_module``."""
    base_rep = dense_verify_structure(m.base, "semihopf")
    if not base_rep.overall:
        raise PreconditionError(
            "Hopf modules need a base valid at level 'semihopf': "
            + base_rep.summary())
    m.validate_shape()
    check = _dense_check_map_equal
    rep = Report()
    a = m.base
    f, X = a.field, a.objects
    mult, comult, _, counit = _dense_base(a)

    def coaction(x, y):
        return _split_map(f, m.coaction[(x, y)], m.dim(x, y), m.dim(x, y),
                          a.dim(x, y))

    _dense_right_module_laws(m, rep)
    for x in X:
        for y in X:
            i = LinMap.identity(f, m.dim(x, y))
            rho = coaction(x, y)
            check(rep, "comodule-coassoc", (x, y),
                  rho.kron(LinMap.identity(f, a.dim(x, y))) @ rho,
                  i.kron(comult(x, y)) @ rho)
            check(rep, "comodule-counit", (x, y),
                  i.kron(counit(x, y)) @ rho, i)
    for x in X:
        for y in X:
            for z in X:
                psi = _dense_action(m, x, y, z)
                d_a1, d_a2 = a.dim(x, y), a.dim(y, z)
                mid = LinMap.identity(f, m.dim(x, y)).kron(
                    swap_map(f, d_a1, d_a2)).kron(LinMap.identity(f, d_a2))
                check(rep, "hopf-compat", (x, y, z),
                      coaction(x, z) @ psi,
                      psi.kron(mult(x, y, z)) @ mid
                      @ coaction(x, y).kron(comult(y, z)))
    return rep


# -- the canonical maps as dense compositions ---------------------------------------
#
# ``fundamental``'s canonical maps, antipode recovery and the canonical and
# dual Hopf modules as they were before they became contractions of the
# nonzero constants: composed out of dense structure matrices with kron, @
# and swap_map.  Kept only as references for differential tests.

def dense_build_can(a, z, x, y):
    """Reference for ``fundamental.build_can``."""
    for lbl in (z, x, y):
        if lbl not in a.objects:
            raise ValueError(f"unknown object label '{lbl}'")
    f = a.field
    return (a.mult_map(z, x, y).kron(LinMap.identity(f, a.dim(x, y)))
            @ LinMap.identity(f, a.dim(z, x)).kron(a.comult_map(x, y)))


def dense_can_closed_inverse(a, z, x, y):
    """Reference for ``fundamental.can_closed_inverse``."""
    f = a.field
    s = a.antipode_map(x, y)
    dxy = a.dim(x, y)
    return (a.mult_map(z, y, x).kron(LinMap.identity(f, dxy))
            @ LinMap.identity(f, a.dim(z, y)).kron(
                s.kron(LinMap.identity(f, dxy)) @ a.comult_map(x, y)))


def dense_can_rank_table(a):
    """Reference for ``fundamental.can_rank_table``."""
    out = {}
    for z in a.objects:
        for x in a.objects:
            for y in a.objects:
                cm = dense_build_can(a, z, x, y)
                out[(z, x, y)] = (rank(cm), cm.rows)
    return out


def dense_recover_antipode(a):
    """Reference for ``fundamental.recover_antipode``: the input verified at
    level 'semihopf', every probe map inverted, and the completed data
    verified again at level 'hopf'.  Returns the completed data or the
    ``RecoveryFailure``, and raises as the library does."""
    base = verify_structure(a, "semihopf")
    if not base.overall:
        raise PreconditionError(
            "antipode recovery needs level 'semihopf': " + base.summary())
    work = a.strip_antipode()
    f = a.field
    inverses = {}
    for x in a.objects:
        for y in a.objects:
            for z in (x, y):
                if (z, x, y) in inverses:
                    continue
                cm = dense_build_can(work, z, x, y)
                inv = invert(cm)
                if isinstance(inv, NotInvertible):
                    return RecoveryFailure(z, x, y, inv.rank, cm.rows)
                inverses[(z, x, y)] = inv
    antipode = {}
    for x in a.objects:
        for y in a.objects:
            dxy, dyx = work.dim(x, y), work.dim(y, x)
            s = (LinMap.identity(f, dyx).kron(work.counit_map(x, y))
                 @ inverses[(y, x, y)]
                 @ work.unit_map(y).kron(LinMap.identity(f, dxy)))
            antipode[(x, y)] = [list(r) for r in s.entries]
    out = work.with_antipode(antipode)
    rep = verify_structure(out, "hopf")
    if not rep.overall:
        raise AntipodeRecoveryError(
            "recovered maps violate the antipode identities", rep,
            dense_can_rank_table(work))
    return out


def dense_canonical_hopf_module(a, z):
    """Reference for ``fundamental.canonical_hopf_module``."""
    if z not in a.objects:
        raise ValueError(f"unknown object label '{z}'")
    f = a.field
    X = a.objects
    dims = {(x, y): a.dim(z, y) * a.dim(x, y) for x in X for y in X}
    coaction = {}
    action = {}
    for x in X:
        for y in X:
            dzy, dxy = a.dim(z, y), a.dim(x, y)
            d = dzy * dxy
            t = a.comult[(x, y)]
            zero = f.zero
            r = [[[zero] * dxy for _ in range(d)] for _ in range(d)]
            for al in range(dzy):
                for b in range(dxy):
                    for j in range(dxy):
                        for k in range(dxy):
                            if t[b][j][k]:
                                r[al * dxy + b][al * dxy + j][k] = t[b][j][k]
            coaction[(x, y)] = r
            for u in X:
                dyu = a.dim(y, u)
                big = (a.mult_map(z, y, u).kron(a.mult_map(x, y, u))
                       @ LinMap.identity(f, dzy)
                       .kron(swap_map(f, dxy, dyu))
                       .kron(LinMap.identity(f, dyu))
                       @ LinMap.identity(f, d).kron(a.comult_map(y, u)))
                d3 = dims[(x, u)]
                action[(x, y, u)] = [
                    [[big.entries[k][i * dyu + j] for k in range(d3)]
                     for j in range(dyu)] for i in range(d)]
    return HopfModuleData(a, dims, action, coaction)


def dense_dual_hopf_module(a):
    """Reference for ``fundamental.dual_hopf_module``."""
    if a.antipode is None:
        raise MissingAntipodeError("the dual Hopf module needs an antipode")
    a.validate_shape()
    f = a.field
    X = a.objects
    zero = f.zero
    dims = dict(a.dims)
    coaction = {}
    action = {}
    for x in X:
        for y in X:
            d = a.dim(x, y)
            dc = a.comult[(x, y)]
            coaction[(x, y)] = [[[dc[c][i][al] for i in range(d)]
                                 for c in range(d)] for al in range(d)]
            for z in X:
                s = a.antipode[(y, z)]         # A(y,z) → A(z,y)
                mt = a.mult[(x, z, y)]         # A(x,z)⊗A(z,y) → A(x,y)
                d1, d2, d3 = a.dim(x, y), a.dim(y, z), a.dim(x, z)
                dzy = a.dim(z, y)
                p = [[[zero] * d3 for _ in range(d2)] for _ in range(d1)]
                for al in range(d1):
                    for j in range(d2):
                        for b in range(d3):
                            acc = zero
                            for t in range(dzy):
                                if s[t][j] and mt[b][t][al]:
                                    acc = acc + s[t][j] * mt[b][t][al]
                            p[al][j][b] = acc
                action[(x, y, z)] = p
    return HopfModuleData(a, dims, action, coaction)


# -- strictness, coinvariants and the freeness equivalence as dense compositions -----
#
# ``core.check_strictness``, ``fundamental.coinvariants`` and
# ``fundamental.check_equivalence`` as they were before they moved onto raw
# rows and sparse columns: ranks of dense composition maps, kernels of
# kron-built maps and solves against dense inclusions.  Kept only as
# references for differential tests.

def dense_check_strictness(a, base=None):
    """Reference for ``core.check_strictness``."""
    if base is None:
        base = verify_structure(a, "category")
    if not base.overall:
        raise PreconditionError("strictness needs data valid at level "
                                f"'category': {base.summary()}")
    rep = Report()
    X = a.objects
    all_surj = True
    loops_surj = True
    for x in X:
        for y in X:
            for z in X:
                r = rank(a.mult_map(x, y, z))
                ok = r == a.dim(x, z)
                all_surj &= ok
                check_condition(rep, "compose-surjective", (x, y, z), ok,
                                residual=f"rank {r} < {a.dim(x, z)}")
                if x == z:
                    loops_surj &= ok
                    check_condition(rep, "compose-surjective-loop", (x, y), ok,
                                    residual=f"rank {r} < {a.dim(x, z)}")
    check_condition(rep, "strictness-conditions-agree", (),
                    all_surj == loops_surj,
                    residual=f"all={all_surj} loops={loops_surj}")
    return rep


def _dense_coaction(m, x, y):
    d = m.dim(x, y)
    return _split_map(m.base.field, m.coaction[(x, y)], d, d, m.base.dim(x, y))


def _inclusion(field, basis, ambient_dim):
    return LinMap(field, ambient_dim, len(basis),
                  [[v[i] for v in basis] for i in range(ambient_dim)])


def dense_coinvariants(m):
    """Reference for ``fundamental.coinvariants``."""
    a = m.base
    bases = {}
    for x in a.objects:
        against = LinMap.identity(a.field, m.dim(x, x)).kron(a.unit_map(x))
        bases[x] = rank_kernel(_dense_coaction(m, x, x) - against)[1]
    return CoinvariantFamily(bases)


def dense_check_equivalence(m):
    """Reference for ``fundamental.check_equivalence``."""
    a = m.base
    if a.antipode is None:
        raise PreconditionError("the freeness equivalence needs an antipode")
    base_rep = verify_structure(a, "hopf")
    if not base_rep.overall:
        raise PreconditionError(
            "the freeness equivalence needs level 'hopf': "
            + base_rep.summary())
    f = a.field
    rep = Report()
    fam = dense_coinvariants(m)

    for x in a.objects:
        incl = _inclusion(f, fam.bases[x], m.dim(x, x))
        for y in a.objects:
            dxy = a.dim(x, y)
            ident = LinMap.identity(f, dxy)
            counit_fg = _dense_action(m, x, x, y) @ incl.kron(ident)
            rho = _dense_coaction(m, x, y)
            raw = (_dense_action(m, x, y, x).kron(ident)
                   @ LinMap.identity(f, m.dim(x, y)).kron(
                       a.antipode_map(x, y).kron(ident))
                   @ rho.kron(ident) @ rho)
            alpha = solve(incl.kron(ident), raw)
            if alpha is None:
                raise InternalInvariantError(
                    f"twisted coaction at ({x},{y}) does not land in the "
                    "coinvariant subspace")
            reference_check_map_equal(rep, "counit-after-inverse", (x, y),
                                      counit_fg @ alpha,
                                      LinMap.identity(f, m.dim(x, y)))
            reference_check_map_equal(rep, "inverse-after-counit", (x, y),
                                      alpha @ counit_fg,
                                      LinMap.identity(f, fam.dim(x) * dxy))

    free = reference_free_hopf_module(a, {x: fam.dim(x) for x in a.objects})
    gf = dense_coinvariants(free)
    for x in a.objects:
        n = fam.dim(x)
        incl_gf = _inclusion(f, gf.bases[x], free.dim(x, x))
        target = LinMap.identity(f, n).kron(a.unit_map(x))
        eta = solve(incl_gf, target)
        if eta is None:
            raise InternalInvariantError(
                f"unit map at {x} does not land in the coinvariants "
                "of the free module")
        beta = LinMap.identity(f, n).kron(a.counit_map(x, x)) @ incl_gf
        reference_check_map_equal(rep, "retract-after-unit", (x,),
                                  beta @ eta, LinMap.identity(f, n))
        reference_check_map_equal(rep, "unit-after-retract", (x,),
                                  eta @ beta, LinMap.identity(f, gf.dim(x)))
    return rep


def dense_validate_graded(h):
    """Dense reference for ``graded.validate_graded``."""
    h.group.validate()
    check = _dense_check_map_equal
    rep = Report()
    f, G, mul = h.field, h.group.elements, h.group.mul
    e = h.group.identity()
    ident = {s: LinMap.identity(f, h.dim(s)) for s in G}

    def m(s, t):
        return _bilinear_map(f, h.mult[(s, t)], h.dim(s), h.dim(t),
                             h.dim(mul(s, t)))

    def comult(s):
        d = h.dim(s)
        return _split_map(f, h.comult[s], d, d, d)

    def counit(s):
        return LinMap.row(f, h.counit[s])

    unit = LinMap.column(f, h.unit)
    for s in G:
        for t in G:
            for r in G:
                lhs = m(mul(s, t), r) @ m(s, t).kron(ident[r])
                rhs = m(s, mul(t, r)) @ ident[s].kron(m(t, r))
                check(rep, "graded-assoc", (s, t, r), lhs, rhs)
    for s in G:
        check(rep, "graded-unit-left", (s,),
              m(e, s) @ unit.kron(ident[s]), ident[s])
        check(rep, "graded-unit-right", (s,),
              m(s, e) @ ident[s].kron(unit), ident[s])
    for s in G:
        cm, cu = comult(s), counit(s)
        check(rep, "graded-coassoc", (s,),
              cm.kron(ident[s]) @ cm, ident[s].kron(cm) @ cm)
        check(rep, "graded-counit-left", (s,), cu.kron(ident[s]) @ cm,
              ident[s])
        check(rep, "graded-counit-right", (s,), ident[s].kron(cu) @ cm,
              ident[s])
    for s in G:
        for t in G:
            mst = m(s, t)
            mid = ident[s].kron(swap_map(f, h.dim(s), h.dim(t))).kron(
                ident[t])
            check(rep, "graded-comult-mult", (s, t),
                  comult(mul(s, t)) @ mst,
                  mst.kron(mst) @ mid @ comult(s).kron(comult(t)))
            check(rep, "graded-counit-mult", (s, t),
                  counit(mul(s, t)) @ mst, counit(s).kron(counit(t)))
    check(rep, "graded-comult-unit", (e,), comult(e) @ unit,
          unit.kron(unit))
    check(rep, "graded-counit-unit", (e,), counit(e) @ unit,
          LinMap.identity(f, 1))
    if h.antipode is not None:
        for s in G:
            si = h.group.inverse(s)
            sm = LinMap(f, h.dim(si), h.dim(s), h.antipode[s])
            target = unit @ counit(s)
            check(rep, "graded-antipode-left", (s,),
                  m(s, si) @ ident[s].kron(sm) @ comult(s), target)
            check(rep, "graded-antipode-right", (s,),
                  m(si, s) @ sm.kron(ident[s]) @ comult(s), target)
    return rep


# The weak kind as it was stored before its tensors became sparse dicts:
# nested lists on the total space, the antipode stored transposed,
# ``S[j][i]``, under the slot table of that layout.  ``dense_weak`` gives
# that view of sparse weak data, by its own loops; the weak verifiers, the
# packing loops and the weak parser kept below read or build it, and
# ``reference_serialize`` writes it.

@dataclass
class DenseWeakHopfData:
    field: object
    total_dim: int
    blocks: tuple
    mult: list      # c[i][j][k] on the total space
    unit: list
    comult: list    # D[i][j][k]
    counit: list
    antipode: list | None = None   # S[j][i]

    layout = Kind("weak-hopf", None, "", ("antipode", "block"), (
        Slot("mult", "", ("n", "n", "n")),
        Slot("unit", "", ("n",)),
        Slot("comult", "", ("n", "n", "n")),
        Slot("counit", "", ("n",)),
        Slot("antipode", "", ("n", "n"), transposed=True, optional=True),
    ), LAYOUTS["weak-hopf"].frame)
    validate_shape = check_shape


def dense_weak(w) -> DenseWeakHopfData:
    """The nested lists of each tensor of the sparse weak data ``w``: every
    cell zero but the keys of its dict, a key ``(i, j)`` of the antipode at
    ``[j][i]``."""
    n, zero = w.total_dim, w.field.zero

    def square():
        return [[zero] * n for _ in range(n)]
    mult, comult = [square() for _ in range(n)], [square() for _ in range(n)]
    unit, counit = [zero] * n, [zero] * n
    for dense, sparse in ((mult, w.mult), (comult, w.comult)):
        for (i, j, k), v in sparse.items():
            dense[i][j][k] = v
    for dense, sparse in ((unit, w.unit), (counit, w.counit)):
        for (i,), v in sparse.items():
            dense[i] = v
    antipode = None
    if w.antipode is not None:
        antipode = square()
        for (i, j), v in w.antipode.items():
            antipode[j][i] = v
    return DenseWeakHopfData(w.field, n, w.blocks, mult, unit, comult, counit,
                             antipode)


# The weak Hopf verifier as it was before it moved onto the shared sparse
# helpers: its own dict calculus, and the weak counit law checked only on
# block-compatible triples plus a seeded sample of the others.  It is kept
# only as a reference for differential tests; with ``audit_samples`` at least
# the number of skipped triples, the audit covers all of them.

def _block_of(w, index):
    for (pair, off, ln) in w.blocks:
        if off <= index < off + ln:
            return pair
    raise IndexError(index)


def _vec_mul(w, u: dict, v: dict) -> dict:
    out: dict = {}
    for i, a in u.items():
        row = w.mult[i]
        for j, b in v.items():
            ab = a * b
            if ab:
                for k, c in enumerate(row[j]):
                    if c:
                        out[k] = out.get(k, w.field.zero) + ab * c
    return {k: v for k, v in out.items() if v}


def _vec_delta(w, u: dict) -> dict:
    out: dict = {}
    for i, a in u.items():
        for j, rowj in enumerate(w.comult[i]):
            for k, c in enumerate(rowj):
                if c:
                    key = (j, k)
                    out[key] = out.get(key, w.field.zero) + a * c
    return {k: v for k, v in out.items() if v}


def _vec_eps(w, u: dict):
    s = w.field.zero
    for i, a in u.items():
        s = s + a * w.counit[i]
    return s


def _vec_s(w, u: dict) -> dict:
    out: dict = {}
    for i, a in u.items():
        for j in range(w.total_dim):
            c = w.antipode[j][i]
            if c:
                out[j] = out.get(j, w.field.zero) + a * c
    return {k: v for k, v in out.items() if v}


def _unit_vec(w) -> dict:
    return {i: v for i, v in enumerate(w.unit) if v}


def _tensor3_eq(w, t1: dict, t2: dict) -> tuple[bool, str]:
    keys = set(t1) | set(t2)
    diff = {k: t1.get(k, w.field.zero) - t2.get(k, w.field.zero) for k in keys}
    diff = {k: v for k, v in diff.items() if v}
    if not diff:
        return True, ""
    parts = [f"[{k}]={w.field.fmt(v)}" for k, v in sorted(diff.items())]
    return False, " ".join(parts)


def _compatible_blocks(w) -> dict[tuple, bool]:
    """Block pairs whose product is not identically zero in the stored tensor."""
    out = {}
    for (p1, o1, l1) in w.blocks:
        for (p2, o2, l2) in w.blocks:
            nz = any(w.mult[o1 + i][o2 + j][k]
                     for i in range(l1) for j in range(l2)
                     for k in range(w.total_dim))
            out[(p1, p2)] = nz
    return out


def sampled_verify_weak_hopf(w, seed: int = 0,
                             audit_samples: int = 100) -> Report:
    """Associativity/unit, coassociativity/counit, multiplicativity of the
    comultiplication, both orderings of the weak counit law, both weak unit
    identities, and the three antipode identities against the internally
    computed source/target counital maps.

    The weak counit law runs over all basis triples within block-compatible
    positions; a seeded sample of the remaining (identically zero) triples is
    audited as well.
    """
    w.validate_shape()
    if w.antipode is None:
        raise MissingAntipodeError("weak Hopf verification needs an antipode")
    w = dense_weak(w)
    rep = Report()
    n = w.total_dim
    one_elt = _unit_vec(w)
    basis = [{i: w.field.one} for i in range(n)]

    def blk(i):
        return _block_of(w, i)

    # algebra laws
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _vec_mul(w, _vec_mul(w, basis[i], basis[j]), basis[k])
                rhs = _vec_mul(w, basis[i], _vec_mul(w, basis[j], basis[k]))
                ok, res = _tensor3_eq(w, lhs, rhs)
                if not ok:
                    check_condition(rep, "assoc", blk(i) + blk(j) + blk(k),
                                    False, residual=res, witness=i)
    check_condition(rep, "assoc", (), not rep.failed(), residual="see items")

    unit_ok = True
    for i in range(n):
        l = _vec_mul(w, one_elt, basis[i])
        r = _vec_mul(w, basis[i], one_elt)
        okl, resl = _tensor3_eq(w, l, basis[i])
        okr, resr = _tensor3_eq(w, r, basis[i])
        if not (okl and okr):
            unit_ok = False
            check_condition(rep, "unit", blk(i), False,
                            residual=resl or resr, witness=i)
    check_condition(rep, "unit", (), unit_ok)

    # coalgebra laws
    co_ok, cu_ok = True, True
    for i in range(n):
        d1 = _vec_delta(w, basis[i])
        left = {}
        right = {}
        for (a_, b_), v in d1.items():
            for (p, q), u in _vec_delta(w, basis[a_]).items():
                left[(p, q, b_)] = left.get((p, q, b_), w.field.zero) + v * u
            for (p, q), u in _vec_delta(w, basis[b_]).items():
                right[(a_, p, q)] = right.get((a_, p, q), w.field.zero) + v * u
        ok, res = _tensor3_eq(w, {k: v for k, v in left.items() if v},
                              {k: v for k, v in right.items() if v})
        if not ok:
            co_ok = False
            check_condition(rep, "coassoc", blk(i), False, residual=res,
                            witness=i)
        lc = {}
        rc = {}
        for (a_, b_), v in d1.items():
            lc[b_] = lc.get(b_, w.field.zero) + v * w.counit[a_]
            rc[a_] = rc.get(a_, w.field.zero) + v * w.counit[b_]
        okl, resl = _tensor3_eq(w, {k: v for k, v in lc.items() if v}, basis[i])
        okr, resr = _tensor3_eq(w, {k: v for k, v in rc.items() if v}, basis[i])
        if not (okl and okr):
            cu_ok = False
            check_condition(rep, "counit", blk(i), False,
                            residual=resl or resr, witness=i)
    check_condition(rep, "coassoc", (), co_ok)
    check_condition(rep, "counit", (), cu_ok)

    # comultiplication is multiplicative
    dm_ok = True
    for i in range(n):
        di = _vec_delta(w, basis[i])
        for j in range(n):
            dj = _vec_delta(w, basis[j])
            lhs = _vec_delta(w, _vec_mul(w, basis[i], basis[j]))
            rhs: dict = {}
            for (a_, b_), u in di.items():
                for (p, q), v in dj.items():
                    uv = u * v
                    if not uv:
                        continue
                    first = _vec_mul(w, basis[a_], basis[p])
                    second = _vec_mul(w, basis[b_], basis[q])
                    for r_, cr in first.items():
                        for s_, cs in second.items():
                            key = (r_, s_)
                            rhs[key] = rhs.get(key, w.field.zero) + uv * cr * cs
            ok, res = _tensor3_eq(w, lhs, {k: v for k, v in rhs.items() if v})
            if not ok:
                dm_ok = False
                check_condition(rep, "comult-mult", blk(i) + blk(j), False,
                                residual=res, witness=i)
    check_condition(rep, "comult-mult", (), dm_ok)

    # weak counit laws on compatible triples, plus a seeded audit of the rest
    compat = _compatible_blocks(w)

    def weak_counit_triple(i, j, k) -> tuple[bool, bool, str]:
        eps_ijk = _vec_eps(w, _vec_mul(w, _vec_mul(w, basis[i], basis[j]),
                                       basis[k]))
        d = _vec_delta(w, basis[j])
        s1 = w.field.zero
        s2 = w.field.zero
        for (a_, b_), v in d.items():
            s1 = s1 + v * _vec_eps(w, _vec_mul(w, basis[i], basis[a_])) \
                * _vec_eps(w, _vec_mul(w, basis[b_], basis[k]))
            s2 = s2 + v * _vec_eps(w, _vec_mul(w, basis[i], basis[b_])) \
                * _vec_eps(w, _vec_mul(w, basis[a_], basis[k]))
        ok1 = s1 == eps_ijk
        ok2 = s2 == eps_ijk
        res = (f"eps(hkl)={w.field.fmt(eps_ijk)} "
               f"split1={w.field.fmt(s1)} split2={w.field.fmt(s2)}")
        return ok1, ok2, res

    wc1_ok, wc2_ok = True, True
    skipped = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if compat[(blk(i), blk(j))] and compat[(blk(j), blk(k))]:
                    ok1, ok2, res = weak_counit_triple(i, j, k)
                    if not ok1:
                        wc1_ok = False
                        check_condition(rep, "weak-counit-left",
                                        blk(i) + blk(j) + blk(k), False,
                                        residual=res, witness=j)
                    if not ok2:
                        wc2_ok = False
                        check_condition(rep, "weak-counit-right",
                                        blk(i) + blk(j) + blk(k), False,
                                        residual=res, witness=j)
                else:
                    skipped.append((i, j, k))
    check_condition(rep, "weak-counit-left", (), wc1_ok)
    check_condition(rep, "weak-counit-right", (), wc2_ok)

    rng = random.Random(seed)
    audit = skipped if len(skipped) <= audit_samples \
        else rng.sample(skipped, audit_samples)
    audit_ok = True
    for (i, j, k) in audit:
        ok1, ok2, res = weak_counit_triple(i, j, k)
        if not (ok1 and ok2):
            audit_ok = False
            check_condition(rep, "weak-counit-audit",
                            blk(i) + blk(j) + blk(k), False, residual=res,
                            witness=j)
    check_condition(rep, "weak-counit-audit", (), audit_ok,
                    residual=f"sampled {len(audit)} cross-block triples")

    # weak unit laws
    d1 = _vec_delta(w, one_elt)
    ddl = {}
    for (a_, b_), v in d1.items():
        for (p, q), u in _vec_delta(w, basis[a_]).items():
            ddl[(p, q, b_)] = ddl.get((p, q, b_), w.field.zero) + v * u
    ddl = {k: v for k, v in ddl.items() if v}
    t_mid: dict = {}
    t_mid2: dict = {}
    for (a_, b_), v in d1.items():
        for (c_, d_), u in d1.items():
            vu = v * u
            if not vu:
                continue
            for m_, cm in _vec_mul(w, basis[b_], basis[c_]).items():
                key = (a_, m_, d_)
                t_mid[key] = t_mid.get(key, w.field.zero) + vu * cm
            for m_, cm in _vec_mul(w, basis[c_], basis[b_]).items():
                key = (a_, m_, d_)
                t_mid2[key] = t_mid2.get(key, w.field.zero) + vu * cm
    ok1, res1 = _tensor3_eq(w, {k: v for k, v in t_mid.items() if v}, ddl)
    ok2, res2 = _tensor3_eq(w, {k: v for k, v in t_mid2.items() if v}, ddl)
    check_condition(rep, "weak-unit-left", (), ok1, residual=res1)
    check_condition(rep, "weak-unit-right", (), ok2, residual=res2)

    # counital maps and antipode identities
    def eps_s(u: dict) -> dict:
        out: dict = {}
        for (a_, b_), v in d1.items():
            c = _vec_eps(w, _vec_mul(w, u, basis[b_]))
            if c:
                out[a_] = out.get(a_, w.field.zero) + v * c
        return {k: v for k, v in out.items() if v}

    def eps_t(u: dict) -> dict:
        out: dict = {}
        for (a_, b_), v in d1.items():
            c = _vec_eps(w, _vec_mul(w, basis[a_], u))
            if c:
                out[b_] = out.get(b_, w.field.zero) + v * c
        return {k: v for k, v in out.items() if v}

    s_ok = [True, True, True]
    for i in range(n):
        d = _vec_delta(w, basis[i])
        t1: dict = {}
        t2: dict = {}
        for (a_, b_), v in d.items():
            for k_, c in _vec_mul(w, basis[a_], _vec_s(w, basis[b_])).items():
                t1[k_] = t1.get(k_, w.field.zero) + v * c
            for k_, c in _vec_mul(w, _vec_s(w, basis[a_]), basis[b_]).items():
                t2[k_] = t2.get(k_, w.field.zero) + v * c
        t1 = {k: v for k, v in t1.items() if v}
        t2 = {k: v for k, v in t2.items() if v}
        okt, rest = _tensor3_eq(w, t1, eps_t(basis[i]))
        oks, ress = _tensor3_eq(w, t2, eps_s(basis[i]))
        if not okt:
            s_ok[0] = False
            check_condition(rep, "antipode-target", blk(i), False,
                            residual=rest, witness=i)
        if not oks:
            s_ok[1] = False
            check_condition(rep, "antipode-source", blk(i), False,
                            residual=ress, witness=i)
        # S(h1) h2 S(h3) = S(h)
        t3: dict = {}
        for (a_, b_), v in d.items():
            for (p, q), u in _vec_delta(w, basis[b_]).items():
                vu = v * u
                if not vu:
                    continue
                inner = _vec_mul(w, _vec_mul(w, _vec_s(w, basis[a_]),
                                             basis[p]),
                                 _vec_s(w, basis[q]))
                for k_, c in inner.items():
                    t3[k_] = t3.get(k_, w.field.zero) + vu * c
        t3 = {k: v for k, v in t3.items() if v}
        okf, resf = _tensor3_eq(w, t3, _vec_s(w, basis[i]))
        if not okf:
            s_ok[2] = False
            check_condition(rep, "antipode-full", blk(i), False,
                            residual=resf, witness=i)
    check_condition(rep, "antipode-target", (), s_ok[0])
    check_condition(rep, "antipode-source", (), s_ok[1])
    check_condition(rep, "antipode-full", (), s_ok[2])
    return rep


# The weak Hopf verifier as it was on the shared sparse helpers before its
# law loops were restricted to the instances that nonzero constants reach:
# every pair (i, j) visited, the weak counit law's splits built for every row,
# and ε_t, ε_s evaluated through |Δ(1)| products per basis element.  Kept only
# as a reference for differential tests; its records must be reproduced
# exactly.

class _ReferenceWeakTensors:
    def __init__(self, w):
        n, f = w.total_dim, w.field
        self.one, self.zero = f.raw(f.one), f.raw(f.zero)
        self.mult = sp.tensor3(f, w.mult)
        self.comult = [{(a, b): c for a, fibre in rows.items()
                        for b, c in fibre.items()}
                       for rows in sp.tensor3(f, w.comult)]
        self.counit = sp.vector(f, w.counit)
        self.unit = sp.vector(f, w.unit)
        self.antipode = sp.columns(f, w.antipode, n)
        self.pairing = [f.reduce({a: self.eps(vec)
                                  for a, vec in rows.items()})
                        for rows in self.mult]
        self.unit_delta = self.delta(self.unit)

    def delta(self, u: dict) -> dict:
        acc = {}
        for i, c in u.items():
            sp.axpy(acc, c, self.comult[i])
        return sp.nonzero(acc)

    def eps(self, u: dict):
        s = self.zero
        for i, c in u.items():
            if i in self.counit:
                s = s + c * self.counit[i]
        return s

    def eps_t(self, u: dict) -> dict:
        acc = {}
        for (a, b), v in self.unit_delta.items():
            h = sp.product(self.mult, {a: self.one}, u)
            sp.add(acc, b, v * self.eps(h))
        return sp.nonzero(acc)

    def eps_s(self, u: dict) -> dict:
        acc = {}
        for (a, b), v in self.unit_delta.items():
            h = sp.product(self.mult, u, {b: self.one})
            sp.add(acc, a, v * self.eps(h))
        return sp.nonzero(acc)

    def splits(self, j: int, flip: bool) -> list[dict]:
        rows = [{} for _ in self.mult]
        for (a, b), c in self.comult[j].items():
            if flip:
                a, b = b, a
            rows[a][b] = c
        return [sp.apply(self.pairing, row) for row in rows]


def reference_verify_weak_hopf(w) -> Report:
    """Reference for ``weak.verify_weak_hopf``."""
    w.validate_shape()
    if w.antipode is None:
        raise MissingAntipodeError("weak Hopf verification needs an antipode")
    t = _ReferenceWeakTensors(dense_weak(w))
    n, mult, comult, antipode = w.total_dim, t.mult, t.comult, t.antipode
    field, fmt = w.field, w.field.fmt
    blk = [pair for (pair, _, ln) in w.blocks for _ in range(ln)]
    basis = [{i: t.one} for i in range(n)]
    rep = Report()

    def fail(axiom, objects, witness, res):
        check_condition(rep, axiom, objects, False, residual=res,
                        witness=witness)

    def check(axiom, indices, witness, lhs, rhs):
        res = residual(field, lhs, rhs)
        if res:
            fail(axiom, sum((blk[b] for b in indices), ()), witness, res)

    def summarize(*axioms, res=""):
        for axiom in axioms:
            check_condition(rep, axiom, (), not rep.by_axiom(axiom),
                            residual=res)

    empty = {}
    times = [[mult[i].get(k, empty) for i in range(n)] for k in range(n)]
    for i in range(n):
        i_times = [mult[i].get(j, empty) for j in range(n)]
        for j in range(n):
            ij, jk = mult[i].get(j, {}), mult[j]
            for k in (range(n) if ij else jk):
                check("assoc", (i, j, k), i, sp.apply(times[k], ij),
                      sp.apply(i_times, jk.get(k, {})))
    summarize("assoc", res="see items")

    for i, e_i in enumerate(basis):
        res = residual(field, sp.product(mult, t.unit, e_i), e_i) \
            or residual(field, sp.product(mult, e_i, t.unit), e_i)
        if res:
            fail("unit", blk[i], i, res)
    summarize("unit")

    for i, delta in enumerate(comult):
        left, right, lc, rc = {}, {}, {}, {}
        for (a, b), v in delta.items():
            for (p, q), u in comult[a].items():
                sp.add(left, (p, q, b), v * u)
            for (p, q), u in comult[b].items():
                sp.add(right, (a, p, q), v * u)
            sp.add(lc, b, v * t.counit.get(a, t.zero))
            sp.add(rc, a, v * t.counit.get(b, t.zero))
        check("coassoc", (i,), i, left, right)
        res = residual(field, lc, basis[i]) \
            or residual(field, rc, basis[i])
        if res:
            fail("counit", blk[i], i, res)
    summarize("coassoc", "counit")

    for i in range(n):
        for j in range(n):
            rhs = {}
            for (a, b), u in comult[i].items():
                for (p, q), v in comult[j].items():
                    first, second = mult[a].get(p, {}), mult[b].get(q, {})
                    for r, cr in first.items():
                        for s, cs in second.items():
                            sp.add(rhs, (r, s), u * v * cr * cs)
            check("comult-mult", (i, j), i,
                  t.delta(mult[i].get(j, {})), rhs)
    summarize("comult-mult")

    splits = [(t.splits(j, False), t.splits(j, True)) for j in range(n)]
    reduce = field.reduce
    for i in range(n):
        for j in range(n):
            whole = reduce(sp.apply(t.pairing, mult[i].get(j, {})))
            s1 = reduce(sp.apply(splits[j][0], t.pairing[i]))
            s2 = reduce(sp.apply(splits[j][1], t.pairing[i]))
            for k in sorted(whole.keys() | s1.keys() | s2.keys()):
                v, v1, v2 = (x.get(k, t.zero) for x in (whole, s1, s2))
                if v1 == v and v2 == v:
                    continue
                res = f"eps(hkl)={fmt(v)} split1={fmt(v1)} split2={fmt(v2)}"
                objects = blk[i] + blk[j] + blk[k]
                if v1 != v:
                    fail("weak-counit-left", objects, j, res)
                if v2 != v:
                    fail("weak-counit-right", objects, j, res)
    summarize("weak-counit-left", "weak-counit-right")

    ddl, mid, mid_op = {}, {}, {}
    for (a, b), v in t.unit_delta.items():
        for (p, q), u in comult[a].items():
            sp.add(ddl, (p, q, b), v * u)
        for (c, d), u in t.unit_delta.items():
            for m, cm in mult[b].get(c, {}).items():
                sp.add(mid, (a, m, d), v * u * cm)
            for m, cm in mult[c].get(b, {}).items():
                sp.add(mid_op, (a, m, d), v * u * cm)
    for axiom, lhs in (("weak-unit-left", mid), ("weak-unit-right", mid_op)):
        res = residual(field, lhs, ddl)
        check_condition(rep, axiom, (), not res, residual=res)

    for i, delta in enumerate(comult):
        target, source, full = {}, {}, {}
        for (a, b), v in delta.items():
            sp.axpy(target, v, sp.product(mult, basis[a], antipode[b]))
            sp.axpy(source, v, sp.product(mult, antipode[a], basis[b]))
            for (p, q), u in comult[b].items():
                s_h1_h2 = sp.product(mult, antipode[a], basis[p])
                sp.axpy(full, v * u, sp.product(mult, s_h1_h2, antipode[q]))
        check("antipode-target", (i,), i, target, t.eps_t(basis[i]))
        check("antipode-source", (i,), i, source, t.eps_s(basis[i]))
        check("antipode-full", (i,), i, full, antipode[i])
    summarize("antipode-target", "antipode-source", "antipode-full")
    return rep


def reference_counital_maps(w):
    """References for ``weak.counital_target`` and ``counital_source`` on
    ``w``: the functions vec ↦ ε_t(vec) and vec ↦ ε_s(vec), each through
    |Δ(1)| products, on tensors read once from the nested lists of ``w``."""
    t = _ReferenceWeakTensors(dense_weak(w))
    return t.eps_t, t.eps_s


# The re-indexings of structure constants as they were before they moved
# onto ``schema.place`` / ``schema.reshaped``: one hand-written nested loop
# per construction.  Kept only as references for differential tests; the
# matrix builders the module tensor product uses are ``_bilinear_map`` and
# ``_split_map`` above.

def reference_dualize(a):
    """Reference for ``dual.dualize``."""
    a.validate_shape()
    X = a.objects
    dims = {(x, y): a.dim(y, x) for x in X for y in X}
    alg = {}
    for x in X:
        for y in X:
            d = dims[(x, y)]
            cm = a.comult[(y, x)]
            alg[(x, y)] = [[[cm[i][b][a_] for i in range(d)]
                            for b in range(d)] for a_ in range(d)]
    unit = {(x, y): list(a.counit[(y, x)]) for x in X for y in X}
    cocomp = {}
    for x in X:
        for y in X:
            for z in X:
                mt = a.mult[(z, y, x)]
                dk, da, db = dims[(x, z)], dims[(x, y)], dims[(y, z)]
                cocomp[(x, y, z)] = [[[mt[b][a_][k] for b in range(db)]
                                      for a_ in range(da)] for k in range(dk)]
    counit = {x: list(a.unit[x]) for x in X}
    antipode = None
    if a.antipode is not None:
        antipode = {}
        for x in X:
            for y in X:
                s = a.antipode[(y, x)]
                dr, dc = dims[(x, y)], dims[(y, x)]
                antipode[(x, y)] = [[s[j][i] for j in range(dc)]
                                    for i in range(dr)]
    return DualHopfCatData(a.field, X, dims, alg, unit, cocomp, counit,
                           antipode)


def reference_undualize(c):
    """Reference for ``dual.undualize``."""
    c.validate_shape()
    X = c.objects
    dims = {(x, y): c.dim(y, x) for x in X for y in X}
    mult = {}
    for x in X:
        for y in X:
            for z in X:
                t = c.cocomp[(z, y, x)]
                d1, d2, d3 = dims[(x, y)], dims[(y, z)], dims[(x, z)]
                mult[(x, y, z)] = [[[t[k][b][a_] for k in range(d3)]
                                    for b in range(d2)] for a_ in range(d1)]
    unit = {x: list(c.counit[x]) for x in X}
    comult = {}
    for x in X:
        for y in X:
            d = dims[(x, y)]
            mc = c.alg[(y, x)]
            comult[(x, y)] = [[[mc[i][j][a_] for i in range(d)]
                               for j in range(d)] for a_ in range(d)]
    counit = {(x, y): list(c.unit[(y, x)]) for x in X for y in X}
    antipode = None
    if c.antipode is not None:
        antipode = {}
        for x in X:
            for y in X:
                s = c.antipode[(y, x)]
                dr, dc_ = dims[(y, x)], dims[(x, y)]
                antipode[(x, y)] = [[s[i][j] for i in range(dc_)]
                                    for j in range(dr)]
    return HopfCatData(c.field, X, dims, mult, unit, comult, counit, antipode)


def reference_transform(a, mode):
    """Reference for ``core.transform``."""
    if mode not in ("opposite", "coopposite", "opcop"):
        raise ValueError(f"unknown transform mode '{mode}'")
    a.validate_shape()
    X = a.objects
    flip_obj = mode in ("opposite", "opcop")
    flip_comult = mode in ("coopposite", "opcop")

    if flip_obj:
        dims = {(x, y): a.dim(y, x) for x in X for y in X}
        mult = {}
        for x in X:
            for y in X:
                for z in X:
                    t = a.mult[(z, y, x)]
                    d1, d2, d3 = a.dim(y, x), a.dim(z, y), a.dim(z, x)
                    mult[(x, y, z)] = [[[t[j][i][k] for k in range(d3)]
                                        for j in range(d2)]
                                       for i in range(d1)]
        comult = {(x, y): a.comult[(y, x)] for x in X for y in X}
        counit = {(x, y): a.counit[(y, x)] for x in X for y in X}
    else:
        dims = dict(a.dims)
        mult = {k: v for k, v in a.mult.items()}
        comult = {k: v for k, v in a.comult.items()}
        counit = {k: v for k, v in a.counit.items()}
    if flip_comult:
        comult = {
            key: [[[comult[key][i][k][j] for k in range(len(comult[key][i]))]
                   for j in range(len(comult[key][i]))]
                  for i in range(len(comult[key]))]
            for key in comult
        }

    antipode = None
    if a.antipode is not None:
        antipode = {}
        for x in X:
            for y in X:
                if mode == "opcop":
                    antipode[(x, y)] = a.antipode[(y, x)]
                elif mode == "opposite":
                    inv = invert(a.antipode_map(x, y))
                    if isinstance(inv, NotInvertible):
                        raise MalformedDataError(
                            f"antipode at ({x},{y}) is singular; "
                            "the opposite antipode needs its inverse")
                    antipode[(x, y)] = [list(r) for r in inv.entries]
                else:  # coopposite
                    inv = invert(a.antipode_map(y, x))
                    if isinstance(inv, NotInvertible):
                        raise MalformedDataError(
                            f"antipode at ({y},{x}) is singular; "
                            "the coopposite antipode needs its inverse")
                    antipode[(x, y)] = [list(r) for r in inv.entries]

    return HopfCatData(a.field, X, dims, mult, dict(a.unit), comult, counit,
                       antipode)


def _reference_block_layout(objects, dims):
    blocks = []
    off = 0
    for x in objects:
        for y in objects:
            ln = dims[(x, y)]
            blocks.append(((x, y), off, ln))
            off += ln
    return tuple(blocks), off


def reference_pack(a):
    """Reference for ``weak.pack``."""
    a.validate_shape()
    if a.antipode is None:
        raise MissingAntipodeError("packing needs an antipode")
    X = a.objects
    blocks, total = _reference_block_layout(X, a.dims)
    off = {pair: o for (pair, o, _) in blocks}
    zero = a.field.zero
    mult = [[[zero] * total for _ in range(total)] for _ in range(total)]
    comult = [[[zero] * total for _ in range(total)] for _ in range(total)]
    counit = [zero] * total
    unit = [zero] * total
    antipode = [[zero] * total for _ in range(total)]

    for x in X:
        for y in X:
            o1 = off[(x, y)]
            for z in X:
                t = a.mult[(x, y, z)]
                o2, o3 = off[(y, z)], off[(x, z)]
                for i in range(a.dim(x, y)):
                    for j in range(a.dim(y, z)):
                        for k in range(a.dim(x, z)):
                            if t[i][j][k]:
                                mult[o1 + i][o2 + j][o3 + k] = t[i][j][k]
            d = a.dim(x, y)
            t = a.comult[(x, y)]
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        if t[i][j][k]:
                            comult[o1 + i][o1 + j][o1 + k] = t[i][j][k]
            for i in range(d):
                counit[o1 + i] = a.counit[(x, y)][i]
            s = a.antipode[(x, y)]
            o_s = off[(y, x)]
            for i in range(d):
                for j in range(a.dim(y, x)):
                    if s[j][i]:
                        antipode[o_s + j][o1 + i] = s[j][i]
    for x in X:
        o = off[(x, x)]
        for i, v in enumerate(a.unit[x]):
            unit[o + i] = v
    return DenseWeakHopfData(a.field, total, blocks, mult, unit, comult,
                             counit, antipode)


def reference_pack_dual(c):
    """Reference for ``weak.pack_dual``."""
    c.validate_shape()
    if c.antipode is None:
        raise MissingAntipodeError("packing needs an antipode")
    X = c.objects
    blocks, total = _reference_block_layout(X, c.dims)
    off = {pair: o for (pair, o, _) in blocks}
    zero = c.field.zero
    mult = [[[zero] * total for _ in range(total)] for _ in range(total)]
    comult = [[[zero] * total for _ in range(total)] for _ in range(total)]
    counit = [zero] * total
    unit = [zero] * total
    antipode = [[zero] * total for _ in range(total)]

    for x in X:
        for y in X:
            o1 = off[(x, y)]
            d = c.dim(x, y)
            t = c.alg[(x, y)]
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        if t[i][j][k]:
                            mult[o1 + i][o1 + j][o1 + k] = t[i][j][k]
            for i, v in enumerate(c.unit[(x, y)]):
                unit[o1 + i] = v
            s = c.antipode[(y, x)]
            o_s = off[(y, x)]
            for j in range(c.dim(y, x)):
                for i in range(d):
                    if s[j][i]:
                        antipode[o_s + j][o1 + i] = s[j][i]
        counit_x = c.counit[x]
        o_d = off[(x, x)]
        for i, v in enumerate(counit_x):
            counit[o_d + i] = v
    for x in X:
        for z in X:
            for y in X:
                t = c.cocomp[(x, y, z)]
                ok, oa, ob = off[(x, z)], off[(x, y)], off[(y, z)]
                for k in range(c.dim(x, z)):
                    for a_ in range(c.dim(x, y)):
                        for b_ in range(c.dim(y, z)):
                            if t[k][a_][b_]:
                                comult[ok + k][oa + a_][ob + b_] = t[k][a_][b_]
    return DenseWeakHopfData(c.field, total, blocks, mult, unit, comult,
                             counit, antipode)


def reference_comodule_to_module(m):
    """Reference for ``modules.comodule_to_module``."""
    c = m.base
    a = reference_undualize(c)
    X = c.objects
    dims = dict(m.dims)
    action = {}
    for x in X:
        for z in X:
            for y in X:
                r = m.coaction[(x, y, z)]
                d1, d2, d3 = m.dim(x, z), a.dim(z, y), m.dim(x, y)
                action[(x, z, y)] = [[[r[i][k][j] for k in range(d3)]
                                      for j in range(d2)] for i in range(d1)]
    return ModuleData(a, "right", dims, action)


def reference_module_to_comodule(m):
    """Reference for ``modules.module_to_comodule``."""
    if m.side != "right":
        raise BaseMismatchError("the comodule translation acts on right modules")
    a = m.base
    c = reference_dualize(a)
    X = a.objects
    dims = dict(m.dims)
    coaction = {}
    for x in X:
        for y in X:
            for z in X:
                p = m.action[(x, z, y)]
                d1, d2, d3 = m.dim(x, z), m.dim(x, y), c.dim(y, z)
                coaction[(x, y, z)] = [[[p[i][k][j] for k in range(d3)]
                                        for j in range(d2)]
                                       for i in range(d1)]
    return ComoduleData(c, dims, coaction)


def reference_tensor_modules(m, n):
    """Reference for ``modules.tensor_modules``."""
    if m.side != n.side:
        raise BaseMismatchError("tensor factors must have the same side")
    if m.base != n.base:
        raise BaseMismatchError("tensor factors must share their base")
    a = m.base
    f = a.field
    X = a.objects
    _, comult_map, _, _ = _dense_base(a)
    dims = {(x, y): m.dim(x, y) * n.dim(x, y) for x in X for y in X}
    action = {}
    for x in X:
        for y in X:
            for z in X:
                act = (_dense_action(m, x, y, z)
                       .kron(_dense_action(n, x, y, z)))
                if m.side == "left":
                    da = a.dim(x, y)
                    dm, dn = m.dim(y, z), n.dim(y, z)
                    big = (act
                           @ LinMap.identity(f, da)
                           .kron(swap_map(f, da, dm))
                           .kron(LinMap.identity(f, dn))
                           @ comult_map(x, y)
                           .kron(LinMap.identity(f, dm * dn)))
                    d1, d2 = da, dm * dn
                else:
                    dm, dn = m.dim(x, y), n.dim(x, y)
                    da = a.dim(y, z)
                    big = (act
                           @ LinMap.identity(f, dm)
                           .kron(swap_map(f, dn, da))
                           .kron(LinMap.identity(f, da))
                           @ LinMap.identity(f, dm * dn)
                           .kron(comult_map(y, z)))
                    d1, d2 = dm * dn, da
                d3 = dims[(x, z)]
                t = [[[big.entries[k][i * d2 + j] for k in range(d3)]
                      for j in range(d2)] for i in range(d1)]
                action[(x, y, z)] = t
    return ModuleData(a, m.side, dims, action)


def _reference_right_leg_coaction(a, x, y, n):
    dxy, t = a.dim(x, y), a.comult[(x, y)]
    r = [[[a.field.zero] * dxy for _ in range(n * dxy)]
         for _ in range(n * dxy)]
    for i in range(n):
        for b in range(dxy):
            for j in range(dxy):
                for k in range(dxy):
                    if t[b][j][k]:
                        r[i * dxy + b][i * dxy + j][k] = t[b][j][k]
    return r


def reference_free_hopf_module(a, ndims):
    """Reference for ``fundamental.free_hopf_module``."""
    X, zero = a.objects, a.field.zero
    dims = {(x, y): ndims[x] * a.dim(x, y) for x in X for y in X}
    action, coaction = {}, {}
    for x in X:
        n = ndims[x]
        for y in X:
            dxy = a.dim(x, y)
            coaction[(x, y)] = _reference_right_leg_coaction(a, x, y, n)
            for u in X:
                mt = a.mult[(x, y, u)]
                dyu, dxu = a.dim(y, u), a.dim(x, u)
                p = [[[zero] * (n * dxu) for _ in range(dyu)]
                     for _ in range(n * dxy)]
                for i in range(n):
                    for b in range(dxy):
                        for j in range(dyu):
                            for k in range(dxu):
                                if mt[b][j][k]:
                                    p[i * dxy + b][j][i * dxu + k] = mt[b][j][k]
                action[(x, y, u)] = p
    return HopfModuleData(a, dims, action, coaction)


# The constructors as they were before they built their tensors through
# ``schema.tensor``: hand-allocated nested lists filled entry by entry.
# Kept only as references for differential tests.

def reference_validate_groupoid(g):
    """Reference for ``groupoid.validate_groupoid``: every check walks all
    morphisms for each pair, and every triple, of morphisms."""
    by_name = {}
    for name, src, tgt in g.morphisms:
        if name in by_name:
            raise GroupoidError(f"duplicate morphism name '{name}'")
        if src not in g.objects or tgt not in g.objects:
            raise GroupoidError(f"morphism '{name}' uses undeclared objects")
        by_name[name] = (src, tgt)

    for x in g.objects:
        e = g.identities.get(x)
        if e is None or e not in by_name:
            raise GroupoidError(f"object '{x}' has no identity morphism")
        if by_name[e] != (x, x):
            raise GroupoidError(f"identity '{e}' of '{x}' is not an endo of '{x}'")

    comp = g.compose
    for (f, h), fh in comp.items():
        if f not in by_name or h not in by_name or fh not in by_name:
            raise GroupoidError(f"composite entry ({f},{h}) names unknown morphisms")
        if by_name[f][0] != by_name[h][1]:
            raise GroupoidError(f"({f},{h}) is not a composable pair")
        if by_name[fh] != (by_name[h][0], by_name[f][1]):
            raise GroupoidError(f"composite of ({f},{h}) has wrong endpoints")
    for f, (fs, ft) in by_name.items():
        for h, (hs, ht) in by_name.items():
            if fs == ht and (f, h) not in comp:
                raise GroupoidError(f"missing composite for pair ({f},{h})")

    for name, (src, tgt) in by_name.items():
        if comp[(name, g.identities[src])] != name:
            raise GroupoidError(f"identity of '{src}' is not right-neutral at '{name}'")
        if comp[(g.identities[tgt], name)] != name:
            raise GroupoidError(f"identity of '{tgt}' is not left-neutral at '{name}'")

    for f, (fs, ft) in by_name.items():
        for h, (hs, ht) in by_name.items():
            if fs != ht:
                continue
            for k, (ks, kt) in by_name.items():
                if hs != kt:
                    continue
                if comp[(comp[(f, h)], k)] != comp[(f, comp[(h, k)])]:
                    raise GroupoidError(
                        f"composition not associative at ({f},{h},{k})")

    for name, (src, tgt) in by_name.items():
        inv = g.inverses.get(name)
        if inv is None or inv not in by_name:
            raise GroupoidError(f"morphism '{name}' has no inverse")
        if by_name[inv] != (tgt, src):
            raise GroupoidError(f"inverse of '{name}' has wrong endpoints")
        if comp[(name, inv)] != g.identities[tgt] or \
                comp[(inv, name)] != g.identities[src]:
            raise GroupoidError(f"'{inv}' is not a two-sided inverse of '{name}'")


def reference_linearize_groupoid(g, field):
    """Reference for ``groupoid.linearize_groupoid``."""
    reference_validate_groupoid(g)
    X = g.objects
    zero, one = field.zero, field.one
    basis = {(x, y): g.hom(x, y) for x in X for y in X}
    index = {(x, y): {m: i for i, m in enumerate(basis[(x, y)])}
             for x in X for y in X}
    dims = {(x, y): len(basis[(x, y)]) for x in X for y in X}

    mult = {}
    for x in X:
        for y in X:
            for z in X:
                d1, d2, d3 = dims[(x, y)], dims[(y, z)], dims[(x, z)]
                t = [[[zero] * d3 for _ in range(d2)] for _ in range(d1)]
                for i, f in enumerate(basis[(x, y)]):
                    for j, h in enumerate(basis[(y, z)]):
                        k = index[(x, z)][g.compose[(f, h)]]
                        t[i][j][k] = one
                mult[(x, y, z)] = t

    unit = {}
    for x in X:
        v = [zero] * dims[(x, x)]
        v[index[(x, x)][g.identities[x]]] = one
        unit[x] = v

    comult = {}
    counit = {}
    for x in X:
        for y in X:
            d = dims[(x, y)]
            t = [[[zero] * d for _ in range(d)] for _ in range(d)]
            for i in range(d):
                t[i][i][i] = one
            comult[(x, y)] = t
            counit[(x, y)] = [one] * d

    antipode = {}
    for x in X:
        for y in X:
            dxy, dyx = dims[(x, y)], dims[(y, x)]
            m = [[zero] * dxy for _ in range(dyx)]
            for i, f in enumerate(basis[(x, y)]):
                m[index[(y, x)][g.inverses[f]]][i] = one
            antipode[(x, y)] = m

    return HopfCatData(field, X, dims, mult, unit, comult, counit, antipode)


def reference_group_algebra(field, n):
    """Reference for ``fixtures.group_algebra``."""
    zero, one = field.zero, field.one
    mult = [[[one if k == (i + j) % n else zero for k in range(n)]
             for j in range(n)] for i in range(n)]
    unit = [one if i == 0 else zero for i in range(n)]
    comult = [[[one if i == j == k else zero for k in range(n)]
               for j in range(n)] for i in range(n)]
    counit = [one] * n
    antipode = [[one if j == (-i) % n else zero for i in range(n)]
                for j in range(n)]
    return singleton_hopf(field, n, mult, unit, comult, counit, antipode)


def reference_taft_four_dim(field):
    """Reference for ``fixtures.taft_four_dim``."""
    zero, one = field.zero, field.one

    def scal(n: int):
        return field.of(n)

    d = 4  # basis order: 1, g, x, w (w = gx)
    mult = [[[zero] * d for _ in range(d)] for _ in range(d)]

    def set_prod(i, j, k, coeff=1):
        mult[i][j][k] = scal(coeff)

    I, G, Xx, W = 0, 1, 2, 3
    table = {
        (I, I): (I, 1), (I, G): (G, 1), (I, Xx): (Xx, 1), (I, W): (W, 1),
        (G, I): (G, 1), (G, G): (I, 1), (G, Xx): (W, 1), (G, W): (Xx, 1),
        (Xx, I): (Xx, 1), (Xx, G): (W, -1), (W, I): (W, 1), (W, G): (Xx, -1),
    }
    for (i, j), (k, c) in table.items():
        set_prod(i, j, k, c)
    # x·x = x·w = w·x = w·w = 0 (left unset)

    unit = [one, zero, zero, zero]
    comult = [[[zero] * d for _ in range(d)] for _ in range(d)]
    comult[I][I][I] = one
    comult[G][G][G] = one
    comult[Xx][I][Xx] = one   # x ↦ 1⊗x + x⊗g
    comult[Xx][Xx][G] = one
    comult[W][G][W] = one     # w ↦ g⊗w + w⊗1
    comult[W][W][I] = one
    counit = [one, one, zero, zero]
    antipode = [[zero] * d for _ in range(d)]  # S: 1↦1, g↦g, x↦w, w↦-x
    antipode[I][I] = one
    antipode[G][G] = one
    antipode[W][Xx] = one
    antipode[Xx][W] = -one
    return singleton_hopf(field, d, mult, unit, comult, counit, antipode)


# Row reduction as it was before it moved onto raw scalars: one body on the
# public scalars (``Fraction`` or ``FpElement``), kept only as a reference
# for differential tests, with the four functions that called it.

def reference_is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes as bases for every n: the
    primality test that ``scalars.is_prime`` ran before it took seven
    bases below 2**64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def reference_rref(field, rows):
    """Reduced row echelon form in place; returns (rows, pivot_cols)."""
    rows = [list(r) for r in rows]
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
        pv = rows[r][c]
        if pv != field.one:
            rows[r] = [v / pv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def reference_echelon_basis(field, vectors):
    vectors = [list(v) for v in vectors if any(v)]
    if not vectors:
        return []
    rows, pivots = reference_rref(field, vectors)
    return [tuple(rows[i]) for i in range(len(pivots))]


def reference_rank_kernel(f):
    if f.cols == 0:
        return 0, []
    if f.rows == 0:
        one, zero = f.field.one, f.field.zero
        return 0, [tuple(one if i == j else zero for i in range(f.cols))
                   for j in range(f.cols)]
    rows, pivots = reference_rref(f.field, f.entries)
    pivot_set = set(pivots)
    zero, one = f.field.zero, f.field.one
    raw = []
    for fc in [c for c in range(f.cols) if c not in pivot_set]:
        v = [zero] * f.cols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        raw.append(v)
    return len(pivots), reference_echelon_basis(f.field, raw)


def reference_invert(f):
    if f.rows != f.cols:
        return NotInvertible(reference_rank_kernel(f)[0], f.rows, f.cols)
    n = f.rows
    if n == 0:
        return LinMap(f.field, 0, 0, [])
    aug = [list(r) + list(i)
           for r, i in zip(f.entries, LinMap.identity(f.field, n).entries)]
    rows, pivots = reference_rref(f.field, aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return NotInvertible(reference_rank_kernel(f)[0], n, n)
    return LinMap(f.field, n, n, [r[n:] for r in rows])


def reference_solve(a, b):
    if a.cols == 0:
        return LinMap(a.field, 0, b.cols, []) if b.is_zero() else None
    aug = [list(ra) + list(rb) for ra, rb in zip(a.entries, b.entries)]
    rows, pivots = reference_rref(a.field, aug)
    if any(p >= a.cols for p in pivots):
        return None
    zero = a.field.zero
    out = [[zero] * b.cols for _ in range(a.cols)]
    for i, pc in enumerate(pivots):
        for j in range(b.cols):
            out[pc][j] = rows[i][a.cols + j]
    cand = LinMap(a.field, a.cols, b.cols, out)
    return cand if a @ cand == b else None


# -- the per-kind parsers that the slot-table reader replaced -----------------------
#
# ``reference_parse`` is ``fileformat.parse`` as it was before every kind was
# read from one slot table: one hand-written parser per kind.  The parser
# differential test holds the table-driven reader to it.

class _RefLines:
    def __init__(self, text: str):
        self.rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.rows.append((lineno, body.split()))


def _ref_zeros3(field, d1, d2, d3):
    z = field.zero
    return [[[z] * d3 for _ in range(d2)] for _ in range(d1)]


def _ref_take_header(rows, idx, name, required=True):
    if idx < len(rows) and rows[idx][1][0] == name:
        return idx + 1, rows[idx]
    if required:
        lineno = rows[idx][0] if idx < len(rows) else None
        raise ParseError(f"expected '{name}' header", lineno)
    return idx, None


def reference_parse(text: str, base_loader=None):
    """Parse one structure file; ``base_loader(name)`` resolves module bases."""
    rows = _RefLines(text).rows
    if not rows:
        raise ParseError("empty file")
    idx = 0
    idx, (ln, toks) = _ref_take_header(rows, idx, "format")
    if len(toks) != 2 or toks[1] != str(FORMAT_VERSION):
        raise ParseError(f"unsupported format version {toks[1:]}", ln)
    idx, (ln, toks) = _ref_take_header(rows, idx, "kind")
    if len(toks) != 2 or toks[1] not in KINDS:
        raise ParseError(f"unknown kind {toks[1:]}", ln)
    kind = toks[1]
    if kind == "groupoid":
        return _ref_parse_groupoid(rows, idx)

    idx, (ln, toks) = _ref_take_header(rows, idx, "field")
    try:
        field = parse_field(" ".join(toks[1:]))
    except ValueError as e:
        raise ParseError(str(e), ln)
    idx, (ln, toks) = _ref_take_header(rows, idx, "objects")
    objects = tuple(toks[1:])
    if not objects or len(set(objects)) != len(objects):
        raise ParseError("objects line must list distinct labels", ln)

    if kind == "graded-hopf":
        return _ref_parse_graded(rows, idx, field, objects)
    if kind == "weak-hopf":
        return _ref_parse_weak(rows, idx, field, objects)
    if kind in ("module", "comodule", "hopf-module"):
        return _ref_parse_module_like(rows, idx, kind, field, objects, base_loader)
    if kind == "bimonoid":
        return _ref_parse_bimonoid(rows, idx, field, objects)
    return _ref_parse_category_like(rows, idx, kind, field, objects)


def _ref_scalar(field, tok, ln):
    try:
        return field.parse(tok)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad scalar '{tok}': {e}", ln)


def _ref_int(tok, ln):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad integer '{tok}'", ln)


def _ref_check_label(objects, tok, ln):
    if tok not in objects:
        raise ParseError(f"undeclared object label '{tok}'", ln)
    return tok


def _ref_set3(tname, store, key, idxs, dims3, val, ln, seen):
    i, j, k = idxs
    d1, d2, d3 = dims3
    if not (0 <= i < d1 and 0 <= j < d2 and 0 <= k < d3):
        raise ParseError(
            f"{tname} index ({i},{j},{k}) out of range for dims {dims3}", ln)
    mark = (tname, key, i, j, k)
    if mark in seen:
        raise ParseError(f"duplicate {tname} entry at {key} ({i},{j},{k})", ln)
    seen.add(mark)
    if val:
        store[key][i][j][k] = val


def _ref_parse_category_like(rows, idx, kind, field, objects):
    dims = {}
    antipode_flag = None
    dim_rows, entry_rows = [], []
    for lineno, toks in rows[idx:]:
        if toks[0] == "antipode" and len(toks) == 2 and toks[1] in ("yes", "no"):
            antipode_flag = toks[1] == "yes"
        elif toks[0] == "dim":
            dim_rows.append((lineno, toks))
        else:
            entry_rows.append((lineno, toks))
    if antipode_flag is None:
        raise ParseError("missing 'antipode yes|no' header")
    for lineno, toks in dim_rows:
        if len(toks) != 4:
            raise ParseError("dim line needs: dim x y n", lineno)
        x = _ref_check_label(objects, toks[1], lineno)
        y = _ref_check_label(objects, toks[2], lineno)
        if (x, y) in dims:
            raise ParseError(f"duplicate dim({x},{y})", lineno)
        n = _ref_int(toks[3], lineno)
        if n < 0:
            raise ParseError("negative dimension", lineno)
        dims[(x, y)] = n
    for x in objects:
        for y in objects:
            if (x, y) not in dims:
                raise ParseError(f"missing dim({x},{y})")

    if kind == "hopf-category":
        mult = {(x, y, z): _ref_zeros3(field, dims[(x, y)], dims[(y, z)],
                                   dims[(x, z)])
                for x in objects for y in objects for z in objects}
        unit = {x: [field.zero] * dims[(x, x)] for x in objects}
        comult = {(x, y): _ref_zeros3(field, dims[(x, y)], dims[(x, y)],
                                  dims[(x, y)])
                  for x in objects for y in objects}
        counit = {(x, y): [field.zero] * dims[(x, y)]
                  for x in objects for y in objects}
        antipode = None
        if antipode_flag:
            antipode = {(x, y): [[field.zero] * dims[(x, y)]
                                 for _ in range(dims[(y, x)])]
                        for x in objects for y in objects}
        seen = set()
        for lineno, toks in entry_rows:
            tag = toks[0]
            if tag == "mult" and len(toks) == 8:
                x, y, z = (_ref_check_label(objects, t, lineno) for t in toks[1:4])
                i, j, k = (_ref_int(t, lineno) for t in toks[4:7])
                v = _ref_scalar(field, toks[7], lineno)
                _ref_set3("mult", mult, (x, y, z), (i, j, k),
                      (dims[(x, y)], dims[(y, z)], dims[(x, z)]), v, lineno,
                      seen)
            elif tag == "unit" and len(toks) == 4:
                x = _ref_check_label(objects, toks[1], lineno)
                i = _ref_int(toks[2], lineno)
                if not 0 <= i < dims[(x, x)]:
                    raise ParseError(f"unit index {i} out of range", lineno)
                if ("unit", x, i) in seen:
                    raise ParseError(f"duplicate unit entry at {x}", lineno)
                seen.add(("unit", x, i))
                unit[x][i] = _ref_scalar(field, toks[3], lineno)
            elif tag == "comult" and len(toks) == 7:
                x, y = (_ref_check_label(objects, t, lineno) for t in toks[1:3])
                i, j, k = (_ref_int(t, lineno) for t in toks[3:6])
                v = _ref_scalar(field, toks[6], lineno)
                d = dims[(x, y)]
                _ref_set3("comult", comult, (x, y), (i, j, k), (d, d, d), v,
                      lineno, seen)
            elif tag == "counit" and len(toks) == 5:
                x, y = (_ref_check_label(objects, t, lineno) for t in toks[1:3])
                i = _ref_int(toks[3], lineno)
                if not 0 <= i < dims[(x, y)]:
                    raise ParseError(f"counit index {i} out of range", lineno)
                if ("counit", x, y, i) in seen:
                    raise ParseError("duplicate counit entry", lineno)
                seen.add(("counit", x, y, i))
                counit[(x, y)][i] = _ref_scalar(field, toks[4], lineno)
            elif tag == "antipode" and len(toks) == 6:
                if antipode is None:
                    raise ParseError(
                        "antipode entry in a file declaring 'antipode no'",
                        lineno)
                x, y = (_ref_check_label(objects, t, lineno) for t in toks[1:3])
                i, j = _ref_int(toks[3], lineno), _ref_int(toks[4], lineno)
                if not (0 <= i < dims[(x, y)] and 0 <= j < dims[(y, x)]):
                    raise ParseError("antipode index out of range", lineno)
                if ("antipode", x, y, i, j) in seen:
                    raise ParseError("duplicate antipode entry", lineno)
                seen.add(("antipode", x, y, i, j))
                antipode[(x, y)][j][i] = _ref_scalar(field, toks[5], lineno)
            else:
                raise ParseError(f"unrecognized record '{' '.join(toks)}'",
                                 lineno)
        return HopfCatData(field, objects, dims, mult, unit, comult, counit,
                           antipode)

    # dual-hopf-category
    alg = {(x, y): _ref_zeros3(field, dims[(x, y)], dims[(x, y)], dims[(x, y)])
           for x in objects for y in objects}
    unit = {(x, y): [field.zero] * dims[(x, y)]
            for x in objects for y in objects}
    cocomp = {(x, y, z): _ref_zeros3(field, dims[(x, z)], dims[(x, y)],
                                 dims[(y, z)])
              for x in objects for y in objects for z in objects}
    counit = {x: [field.zero] * dims[(x, x)] for x in objects}
    antipode = None
    if antipode_flag:
        antipode = {(x, y): [[field.zero] * dims[(y, x)]
                             for _ in range(dims[(x, y)])]
                    for x in objects for y in objects}
    seen = set()
    for lineno, toks in entry_rows:
        tag = toks[0]
        if tag == "alg" and len(toks) == 7:
            x, y = (_ref_check_label(objects, t, lineno) for t in toks[1:3])
            i, j, k = (_ref_int(t, lineno) for t in toks[3:6])
            d = dims[(x, y)]
            _ref_set3("alg", alg, (x, y), (i, j, k), (d, d, d),
                  _ref_scalar(field, toks[6], lineno), lineno, seen)
        elif tag == "unit" and len(toks) == 5:
            x, y = (_ref_check_label(objects, t, lineno) for t in toks[1:3])
            i = _ref_int(toks[3], lineno)
            if not 0 <= i < dims[(x, y)]:
                raise ParseError("unit index out of range", lineno)
            if ("unit", x, y, i) in seen:
                raise ParseError("duplicate unit entry", lineno)
            seen.add(("unit", x, y, i))
            unit[(x, y)][i] = _ref_scalar(field, toks[4], lineno)
        elif tag == "cocomp" and len(toks) == 8:
            x, y, z = (_ref_check_label(objects, t, lineno) for t in toks[1:4])
            k, a_, b_ = (_ref_int(t, lineno) for t in toks[4:7])
            _ref_set3("cocomp", cocomp, (x, y, z), (k, a_, b_),
                  (dims[(x, z)], dims[(x, y)], dims[(y, z)]),
                  _ref_scalar(field, toks[7], lineno), lineno, seen)
        elif tag == "counit" and len(toks) == 4:
            x = _ref_check_label(objects, toks[1], lineno)
            i = _ref_int(toks[2], lineno)
            if not 0 <= i < dims[(x, x)]:
                raise ParseError("counit index out of range", lineno)
            if ("counit", x, i) in seen:
                raise ParseError("duplicate counit entry", lineno)
            seen.add(("counit", x, i))
            counit[x][i] = _ref_scalar(field, toks[3], lineno)
        elif tag == "antipode" and len(toks) == 6:
            if antipode is None:
                raise ParseError(
                    "antipode entry in a file declaring 'antipode no'", lineno)
            x, y = (_ref_check_label(objects, t, lineno) for t in toks[1:3])
            i, j = _ref_int(toks[3], lineno), _ref_int(toks[4], lineno)
            if not (0 <= i < dims[(y, x)] and 0 <= j < dims[(x, y)]):
                raise ParseError("antipode index out of range", lineno)
            if ("antipode", x, y, i, j) in seen:
                raise ParseError("duplicate antipode entry", lineno)
            seen.add(("antipode", x, y, i, j))
            antipode[(x, y)][j][i] = _ref_scalar(field, toks[5], lineno)
        else:
            raise ParseError(f"unrecognized record '{' '.join(toks)}'", lineno)
    return DualHopfCatData(field, objects, dims, alg, unit, cocomp, counit,
                           antipode)


def _ref_parse_groupoid(rows, idx):
    idx, (ln, toks) = _ref_take_header(rows, idx, "objects")
    objects = tuple(toks[1:])
    morphisms = []
    identities = {}
    compose = {}
    inverses = {}
    names = set()
    for lineno, toks in rows[idx:]:
        tag = toks[0]
        if tag == "morphism" and len(toks) == 4:
            if toks[1] in names:
                raise ParseError(f"duplicate morphism '{toks[1]}'", lineno)
            names.add(toks[1])
            _ref_check_label(objects, toks[2], lineno)
            _ref_check_label(objects, toks[3], lineno)
            morphisms.append((toks[1], toks[2], toks[3]))
        elif tag == "identity" and len(toks) == 3:
            x = _ref_check_label(objects, toks[1], lineno)
            if x in identities:
                raise ParseError(f"duplicate identity for '{x}'", lineno)
            identities[x] = toks[2]
        elif tag == "compose" and len(toks) == 4:
            if (toks[1], toks[2]) in compose:
                raise ParseError("duplicate compose entry", lineno)
            compose[(toks[1], toks[2])] = toks[3]
        elif tag == "inverse" and len(toks) == 3:
            if toks[1] in inverses:
                raise ParseError("duplicate inverse entry", lineno)
            inverses[toks[1]] = toks[2]
        else:
            raise ParseError(f"unrecognized record '{' '.join(toks)}'", lineno)
    return GroupoidData(objects, tuple(morphisms), identities, compose,
                        inverses)


def _ref_parse_graded(rows, idx, field, elements):
    antipode_flag = None
    table = {}
    dims = {}
    entry_rows = []
    for lineno, toks in rows[idx:]:
        tag = toks[0]
        if tag == "antipode" and len(toks) == 2 and toks[1] in ("yes", "no"):
            antipode_flag = toks[1] == "yes"
        elif tag == "gmul" and len(toks) == 4:
            a = _ref_check_label(elements, toks[1], lineno)
            b = _ref_check_label(elements, toks[2], lineno)
            c = _ref_check_label(elements, toks[3], lineno)
            if (a, b) in table:
                raise ParseError("duplicate gmul entry", lineno)
            table[(a, b)] = c
        elif tag == "dim" and len(toks) == 3:
            s = _ref_check_label(elements, toks[1], lineno)
            if s in dims:
                raise ParseError(f"duplicate dim({s})", lineno)
            dims[s] = _ref_int(toks[2], lineno)
        else:
            entry_rows.append((lineno, toks))
    if antipode_flag is None:
        raise ParseError("missing 'antipode yes|no' header")
    group = GroupTable(elements, table)
    group.validate()
    for s in elements:
        if s not in dims:
            raise ParseError(f"missing dim({s})")
    e = group.identity()
    mult = {(s, t): _ref_zeros3(field, dims[s], dims[t],
                            dims[group.mul(s, t)])
            for s in elements for t in elements}
    unit = [field.zero] * dims[e]
    comult = {s: _ref_zeros3(field, dims[s], dims[s], dims[s]) for s in elements}
    counit = {s: [field.zero] * dims[s] for s in elements}
    antipode = None
    if antipode_flag:
        antipode = {s: [[field.zero] * dims[s]
                        for _ in range(dims[group.inverse(s)])]
                    for s in elements}
    seen = set()
    for lineno, toks in entry_rows:
        tag = toks[0]
        if tag == "mult" and len(toks) == 7:
            s = _ref_check_label(elements, toks[1], lineno)
            t = _ref_check_label(elements, toks[2], lineno)
            i, j, k = (_ref_int(tk, lineno) for tk in toks[3:6])
            _ref_set3("mult", mult, (s, t), (i, j, k),
                  (dims[s], dims[t], dims[group.mul(s, t)]),
                  _ref_scalar(field, toks[6], lineno), lineno, seen)
        elif tag == "unit" and len(toks) == 3:
            i = _ref_int(toks[1], lineno)
            if not 0 <= i < dims[e]:
                raise ParseError("unit index out of range", lineno)
            if ("unit", i) in seen:
                raise ParseError("duplicate unit entry", lineno)
            seen.add(("unit", i))
            unit[i] = _ref_scalar(field, toks[2], lineno)
        elif tag == "comult" and len(toks) == 6:
            s = _ref_check_label(elements, toks[1], lineno)
            i, j, k = (_ref_int(tk, lineno) for tk in toks[2:5])
            _ref_set3("comult", comult, s, (i, j, k),
                  (dims[s], dims[s], dims[s]),
                  _ref_scalar(field, toks[5], lineno), lineno, seen)
        elif tag == "counit" and len(toks) == 4:
            s = _ref_check_label(elements, toks[1], lineno)
            i = _ref_int(toks[2], lineno)
            if not 0 <= i < dims[s]:
                raise ParseError("counit index out of range", lineno)
            if ("counit", s, i) in seen:
                raise ParseError("duplicate counit entry", lineno)
            seen.add(("counit", s, i))
            counit[s][i] = _ref_scalar(field, toks[3], lineno)
        elif tag == "antipode" and len(toks) == 5:
            if antipode is None:
                raise ParseError(
                    "antipode entry in a file declaring 'antipode no'", lineno)
            s = _ref_check_label(elements, toks[1], lineno)
            i, j = _ref_int(toks[2], lineno), _ref_int(toks[3], lineno)
            si = group.inverse(s)
            if not (0 <= i < dims[s] and 0 <= j < dims[si]):
                raise ParseError("antipode index out of range", lineno)
            if ("antipode", s, i, j) in seen:
                raise ParseError("duplicate antipode entry", lineno)
            seen.add(("antipode", s, i, j))
            antipode[s][j][i] = _ref_scalar(field, toks[4], lineno)
        else:
            raise ParseError(f"unrecognized record '{' '.join(toks)}'", lineno)
    return GradedHopfData(field, group, dims, mult, unit, comult, counit,
                          antipode)


def _ref_parse_weak(rows, idx, field, objects):
    antipode_flag = None
    blocks = []
    entry_rows = []
    for lineno, toks in rows[idx:]:
        tag = toks[0]
        if tag == "antipode" and len(toks) == 2 and toks[1] in ("yes", "no"):
            antipode_flag = toks[1] == "yes"
        elif tag == "block" and len(toks) == 5:
            x = _ref_check_label(objects, toks[1], lineno)
            y = _ref_check_label(objects, toks[2], lineno)
            blocks.append(((x, y), _ref_int(toks[3], lineno),
                           _ref_int(toks[4], lineno)))
        else:
            entry_rows.append((lineno, toks))
    if antipode_flag is None:
        raise ParseError("missing 'antipode yes|no' header")
    if not blocks:
        raise ParseError("weak-hopf file needs block lines")
    total = sum(ln for (_, _, ln) in blocks)
    mult = _ref_zeros3(field, total, total, total)
    comult = _ref_zeros3(field, total, total, total)
    unit = [field.zero] * total
    counit = [field.zero] * total
    antipode = [[field.zero] * total for _ in range(total)] \
        if antipode_flag else None
    seen = set()
    store_m = {0: mult}
    store_c = {0: comult}
    for lineno, toks in entry_rows:
        tag = toks[0]
        if tag == "mult" and len(toks) == 5:
            i, j, k = (_ref_int(t, lineno) for t in toks[1:4])
            _ref_set3("mult", store_m, 0, (i, j, k), (total, total, total),
                  _ref_scalar(field, toks[4], lineno), lineno, seen)
        elif tag == "comult" and len(toks) == 5:
            i, j, k = (_ref_int(t, lineno) for t in toks[1:4])
            _ref_set3("comult", store_c, 0, (i, j, k), (total, total, total),
                  _ref_scalar(field, toks[4], lineno), lineno, seen)
        elif tag == "unit" and len(toks) == 3:
            i = _ref_int(toks[1], lineno)
            if not 0 <= i < total:
                raise ParseError("unit index out of range", lineno)
            if ("unit", i) in seen:
                raise ParseError("duplicate unit entry", lineno)
            seen.add(("unit", i))
            unit[i] = _ref_scalar(field, toks[2], lineno)
        elif tag == "counit" and len(toks) == 3:
            i = _ref_int(toks[1], lineno)
            if not 0 <= i < total:
                raise ParseError("counit index out of range", lineno)
            if ("counit", i) in seen:
                raise ParseError("duplicate counit entry", lineno)
            seen.add(("counit", i))
            counit[i] = _ref_scalar(field, toks[2], lineno)
        elif tag == "antipode" and len(toks) == 4:
            if antipode is None:
                raise ParseError(
                    "antipode entry in a file declaring 'antipode no'", lineno)
            i, j = _ref_int(toks[1], lineno), _ref_int(toks[2], lineno)
            if not (0 <= i < total and 0 <= j < total):
                raise ParseError("antipode index out of range", lineno)
            if ("antipode", i, j) in seen:
                raise ParseError("duplicate antipode entry", lineno)
            seen.add(("antipode", i, j))
            antipode[j][i] = _ref_scalar(field, toks[3], lineno)
        else:
            raise ParseError(f"unrecognized record '{' '.join(toks)}'", lineno)
    w = DenseWeakHopfData(field, total, tuple(blocks), mult, unit, comult,
                          counit, antipode)
    w.validate_shape()
    return w


def _ref_parse_module_like(rows, idx, kind, field, objects, base_loader):
    base_name = None
    side = "right"
    dims = {}
    entry_rows = []
    for lineno, toks in rows[idx:]:
        tag = toks[0]
        if tag == "base" and len(toks) == 2:
            base_name = toks[1]
        elif tag == "side" and len(toks) == 2 and kind == "module":
            if toks[1] not in ("right", "left"):
                raise ParseError(f"bad side '{toks[1]}'", lineno)
            side = toks[1]
        elif tag == "dim" and len(toks) == 4:
            x = _ref_check_label(objects, toks[1], lineno)
            y = _ref_check_label(objects, toks[2], lineno)
            if (x, y) in dims:
                raise ParseError("duplicate dim entry", lineno)
            dims[(x, y)] = _ref_int(toks[3], lineno)
        else:
            entry_rows.append((lineno, toks))
    if base_name is None:
        raise ParseError(f"{kind} file needs a 'base <name>' header")
    if base_loader is None:
        raise ParseError(f"no loader available to resolve base '{base_name}'")
    base = base_loader(base_name)
    if base.objects != objects:
        raise ParseError(
            f"base '{base_name}' has objects {base.objects}, file declares "
            f"{objects}")
    if kind == "comodule":
        if not isinstance(base, DualHopfCatData):
            raise KindMismatchError(
                f"comodule base '{base_name}' must be a dual-hopf-category")
    else:
        if not isinstance(base, HopfCatData):
            raise KindMismatchError(
                f"{kind} base '{base_name}' must be a hopf-category")
    for x in objects:
        for y in objects:
            if (x, y) not in dims:
                raise ParseError(f"missing dim({x},{y})")

    def act_dims(x, y, z):
        if kind == "module" and side == "left":
            return (base.dim(x, y), dims[(y, z)], dims[(x, z)])
        return (dims[(x, y)], base.dim(y, z), dims[(x, z)])

    action = {(x, y, z): _ref_zeros3(field, *act_dims(x, y, z))
              for x in objects for y in objects for z in objects} \
        if kind != "comodule" else None
    coaction3 = {(x, y, z): _ref_zeros3(field, dims[(x, z)], dims[(x, y)],
                                    base.dim(y, z))
                 for x in objects for y in objects for z in objects} \
        if kind == "comodule" else None
    coaction2 = {(x, y): _ref_zeros3(field, dims[(x, y)], dims[(x, y)],
                                 base.dim(x, y))
                 for x in objects for y in objects} \
        if kind == "hopf-module" else None
    seen = set()
    for lineno, toks in entry_rows:
        tag = toks[0]
        if tag == "action" and len(toks) == 8 and action is not None:
            x, y, z = (_ref_check_label(objects, t, lineno) for t in toks[1:4])
            i, j, k = (_ref_int(t, lineno) for t in toks[4:7])
            _ref_set3("action", action, (x, y, z), (i, j, k), act_dims(x, y, z),
                  _ref_scalar(field, toks[7], lineno), lineno, seen)
        elif tag == "coaction" and len(toks) == 8 and coaction3 is not None:
            x, y, z = (_ref_check_label(objects, t, lineno) for t in toks[1:4])
            i, j, k = (_ref_int(t, lineno) for t in toks[4:7])
            _ref_set3("coaction", coaction3, (x, y, z), (i, j, k),
                  (dims[(x, z)], dims[(x, y)], base.dim(y, z)),
                  _ref_scalar(field, toks[7], lineno), lineno, seen)
        elif tag == "coaction" and len(toks) == 7 and coaction2 is not None:
            x, y = (_ref_check_label(objects, t, lineno) for t in toks[1:3])
            i, j, k = (_ref_int(t, lineno) for t in toks[3:6])
            _ref_set3("coaction", coaction2, (x, y), (i, j, k),
                  (dims[(x, y)], dims[(x, y)], base.dim(x, y)),
                  _ref_scalar(field, toks[6], lineno), lineno, seen)
        else:
            raise ParseError(f"unrecognized record '{' '.join(toks)}'", lineno)
    if kind == "module":
        out = ModuleData(base, side, dims, action)
    elif kind == "comodule":
        out = ComoduleData(base, dims, coaction3)
    else:
        out = HopfModuleData(base, dims, action, coaction2)
    out._base_name = base_name
    return out


def _ref_parse_bimonoid(rows, idx, field, objects):
    dims = {}
    entry_rows = []
    for lineno, toks in rows[idx:]:
        if toks[0] == "dim" and len(toks) == 4:
            x = _ref_check_label(objects, toks[1], lineno)
            y = _ref_check_label(objects, toks[2], lineno)
            if (x, y) in dims:
                raise ParseError("duplicate dim entry", lineno)
            dims[(x, y)] = _ref_int(toks[3], lineno)
        else:
            entry_rows.append((lineno, toks))
    for x in objects:
        for y in objects:
            if (x, y) not in dims:
                raise ParseError(f"missing dim({x},{y})")
    mu = {(x, u, y): _ref_zeros3(field, dims[(x, u)], dims[(u, y)], dims[(x, y)])
          for x in objects for u in objects for y in objects}
    eta = {x: [field.zero] * dims[(x, x)] for x in objects}
    delta = {(x, y): _ref_zeros3(field, dims[(x, y)], dims[(x, y)], dims[(x, y)])
             for x in objects for y in objects}
    eps = {(x, y): [field.zero] * dims[(x, y)]
           for x in objects for y in objects}
    seen = set()
    for lineno, toks in entry_rows:
        tag = toks[0]
        if tag == "mu" and len(toks) == 8:
            x, u, y = (_ref_check_label(objects, t, lineno) for t in toks[1:4])
            i, j, k = (_ref_int(t, lineno) for t in toks[4:7])
            _ref_set3("mu", mu, (x, u, y), (i, j, k),
                  (dims[(x, u)], dims[(u, y)], dims[(x, y)]),
                  _ref_scalar(field, toks[7], lineno), lineno, seen)
        elif tag == "eta" and len(toks) == 4:
            x = _ref_check_label(objects, toks[1], lineno)
            i = _ref_int(toks[2], lineno)
            if not 0 <= i < dims[(x, x)]:
                raise ParseError("eta index out of range", lineno)
            if ("eta", x, i) in seen:
                raise ParseError("duplicate eta entry", lineno)
            seen.add(("eta", x, i))
            eta[x][i] = _ref_scalar(field, toks[3], lineno)
        elif tag == "delta" and len(toks) == 7:
            x, y = (_ref_check_label(objects, t, lineno) for t in toks[1:3])
            i, j, k = (_ref_int(t, lineno) for t in toks[3:6])
            d = dims[(x, y)]
            _ref_set3("delta", delta, (x, y), (i, j, k), (d, d, d),
                  _ref_scalar(field, toks[6], lineno), lineno, seen)
        elif tag == "eps" and len(toks) == 5:
            x, y = (_ref_check_label(objects, t, lineno) for t in toks[1:3])
            i = _ref_int(toks[3], lineno)
            if not 0 <= i < dims[(x, y)]:
                raise ParseError("eps index out of range", lineno)
            if ("eps", x, y, i) in seen:
                raise ParseError("duplicate eps entry", lineno)
            seen.add(("eps", x, y, i))
            eps[(x, y)][i] = _ref_scalar(field, toks[4], lineno)
        else:
            raise ParseError(f"unrecognized record '{' '.join(toks)}'", lineno)
    return BimonoidData(field, MkXObject(objects, dims), mu, eta, delta, eps)


# -- the slot-table writer before its one-walk rewrite -----------------------------
#
# ``reference_serialize`` is ``fileformat.serialize`` as it was when it read
# each stored tensor through ``Slot.stored``, listed its nonzero entries
# through ``Slot.entries`` (sorting a transposed slot's back into record
# order) and formatted every cell's scalar afresh; sparse weak data it
# writes through ``dense_weak``.  The writer differential test holds the
# one-walk writer to it byte for byte.

def _ref_entries(slot, t) -> list:
    """(record indices, value) of the nonzero entries, in record order."""
    out = nonzero_entries(t, len(slot.dims))
    if slot.transposed:
        return sorted((idx[::-1], v) for idx, v in out)
    return out


def reference_serialize(obj) -> str:
    if isinstance(obj, WeakHopfData):
        obj = dense_weak(obj)
    kind = type(obj).layout
    lines = [f"format {FORMAT_VERSION}", f"kind {kind.name}"]
    if kind.name == "groupoid":
        return "\n".join(lines + _serialize_groupoid(obj)) + "\n"
    frame = kind.frame(obj)
    fmt = frame.field.fmt
    labels = frame.labels
    if kind.labels is None:     # weak: the objects named by the blocks
        labels = tuple(dict.fromkeys(
            lbl for (pair, _, _) in obj.blocks for lbl in pair))
    lines.append(f"field {frame.field}")
    lines.append("objects " + " ".join(labels))
    for name in kind.headers:
        lines.extend(_header_lines(obj, name))
    if kind.dim:
        for key in product(frame.labels, repeat=len(kind.dim)):
            d = frame.dims[key[0] if len(key) == 1 else key]
            lines.append(" ".join(("dim", *key, str(d))))
    for slot in sorted(kind.slots, key=lambda s: s.tag):
        data = getattr(obj, slot.tag)
        if data is None:
            continue
        for key in product(frame.labels, repeat=len(slot.keys)):
            head = " ".join((slot.tag, *key))
            lines.extend(" ".join((head, *map(str, idx), fmt(v)))
                         for idx, v in _ref_entries(
                             slot, slot.stored(data, key)))
    return "\n".join(lines) + "\n"
