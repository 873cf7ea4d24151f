"""Independent test-side oracles.

These deliberately avoid the library's verifier: identities are summed out
index by index over the raw structure-constant tensors, and linear solves go
through sympy.  They exist so that every checked value has a second,
unrelated route to it.  The dense matrix verifier at the end of this file is
the engine that ``core.verify_structure`` used before its per-basis rewrite,
kept as a reference whose reports the new engine must reproduce exactly.
"""

from fractions import Fraction

import sympy

from hopfcat.core import LEVELS, MissingAntipodeError
from hopfcat.linalg import LinMap, swap_map
from hopfcat.report import (CheckItem, PreconditionError, Report,
                            check_condition)


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
