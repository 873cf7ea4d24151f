import copy
import os
import re
from itertools import permutations

import pytest

from hopfcat.core import MalformedDataError
from hopfcat.fileformat import kind_of, load, parse, serialize
from hopfcat.graded import GradedHopfData, GroupTable
from hopfcat.scalars import QQ
from hopfcat.schema import LAYOUTS, place, reshaped, tensor, zeros

# one fixture of every kind that carries scalars
FIXTURES = {
    "hopf-category": "taft4",
    "dual-hopf-category": "pair2_dual",
    "weak-hopf": "pair3_packed",
    "graded-hopf": "graded_z2_strong_graded",
    "module": "kz2_left_regular_module",
    "comodule": "kz2_dual_regular_comodule",
    "hopf-module": "kz2_regular_hopf_module",
    "bimonoid": "kz2_bimonoid",
}

HEADER_TEXT = {"antipode": r"antipode yes\|no", "base": "base <name>",
               "side": r"side right\|left", "gmul": "gmul s t st",
               "block": "block x y offset length"}


def table_rows():
    """The README's slot table as the schema gives it."""
    rows = []
    for kind in LAYOUTS.values():
        heads = [HEADER_TEXT[h] for h in kind.headers]
        if kind.dim:
            heads.append(" ".join(("dim", *kind.dim, "n")))
        for n, slot in enumerate(kind.slots):
            record = " ".join((slot.tag, *slot.keys, *"ijk"[:len(slot.dims)],
                               "v"))
            dims = f"`{' '.join(slot.dims)}`"
            if slot.left:
                dims = f"right: {dims}; left: `{' '.join(slot.left)}`"
            if slot.transposed:
                dims += ", stored `[j][i]`"
            if slot.sparse:
                idx = ", ".join("ijk"[:len(slot.dims)])
                if len(slot.dims) == 1:
                    idx += ","
                dims += f", stored `{{({idx}): v}}`"
            if slot.optional:
                dims += ", only with `antipode yes`"
            first = [f"`{kind.name}`", ", ".join(f"`{h}`" for h in heads)]
            rows.append((first if n == 0 else ["", ""])
                        + [f"`{record}`",
                           kind.labels if slot.keys else "none", dims])
    return rows


def test_readme_slot_table_matches_the_schema(fixture_dir):
    with open(os.path.join(fixture_dir, "..", "README.md")) as fh:
        text = fh.read()
    block = text.split("<!-- slot table")[1].split("\n\n")[0]
    rows = [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in block.splitlines()[3:]]
    assert rows == table_rows()


@pytest.mark.parametrize("kind", sorted(FIXTURES))
def test_kind_of_reads_the_table(fixture_dir, kind):
    assert kind_of(load(os.path.join(fixture_dir,
                                     FIXTURES[kind] + ".hc"))) == kind


@pytest.mark.parametrize("kind", sorted(FIXTURES))
def test_shape_check_names_the_malformed_slot(fixture_dir, kind):
    obj = load(os.path.join(fixture_dir, FIXTURES[kind] + ".hc"))
    obj.validate_shape()
    for slot in obj.layout.slots:
        bad = copy.deepcopy(obj)
        data = getattr(bad, slot.tag)
        tensor = next(iter(data.values())) if slot.keys else data
        if slot.sparse:     # an index one past the end of the first axis
            _, shape = next(iter(slot.shapes(bad.layout.frame(bad))))
            tensor[(shape[0],) + (0,) * (len(shape) - 1)] = bad.field.one
        else:
            tensor.append(copy.deepcopy(tensor[0]))
        with pytest.raises(MalformedDataError, match=slot.tag):
            bad.validate_shape()


@pytest.mark.parametrize("kind", ["module", "comodule", "hopf-module"])
def test_module_like_dims_are_shape_errors(fixture_dir, kind):
    bad = load(os.path.join(fixture_dir, FIXTURES[kind] + ".hc"))
    bad.dims[("*", "*")] = -1
    with pytest.raises(MalformedDataError, match="negative dim"):
        bad.validate_shape()


def test_graded_product_degree_is_st_over_a_non_abelian_group():
    """Graded data over S3 with a different dimension in every degree, so
    that mult[(s,t)], of shape d(s) x d(t) x d(st), tells st from ts for
    every pair that does not commute.  It is a layout, not a valid graded
    Hopf structure (a valid one has equal dimensions on its support)."""
    perms = list(permutations(range(3)))
    name = {p: "".join(map(str, p)) for p in perms}
    group = GroupTable(tuple(name.values()), {
        (name[p], name[q]): name[tuple(p[i] for i in q)]
        for p in perms for q in perms})
    G, mul = group.elements, group.mul
    dims = {s: n + 1 for n, s in enumerate(G)}
    zero = QQ.zero

    def zeros(*shape):
        if len(shape) == 1:
            return [zero] * shape[0]
        return [zeros(*shape[1:]) for _ in range(shape[0])]
    mult = {(s, t): zeros(dims[s], dims[t], dims[mul(s, t)])
            for s in G for t in G}
    for (s, t), m in mult.items():
        m[0][0][-1] = QQ.one        # a record at the last index of d(st)
    h = GradedHopfData(QQ, group, dims, mult, zeros(dims[G[0]]),
                       {s: zeros(dims[s], dims[s], dims[s]) for s in G},
                       {s: zeros(dims[s]) for s in G})
    assert sum(mul(s, t) != mul(t, s) for s in G for t in G) == 18
    h.validate_shape()
    assert parse(serialize(h)) == h


# -- the reshaping primitive ---------------------------------------------------------

T = [[[1, 0], [2, 3]], [[0, 4], [5, 0]]]      # t[i][j][k] over (2, 2, 2)


def test_reshaped_moves_each_nonzero_entry():
    assert reshaped(T, 3, (2, 2, 2), 0, lambda i, j, k: (k, j, i)) == \
        [[[1, 0], [2, 5]], [[0, 4], [3, 0]]]
    # a matrix of the bilinear map: row k, column i*2 + j
    assert reshaped(T, 3, (2, 4), 0, lambda i, j, k: (k, i * 2 + j)) == \
        [[1, 2, 0, 5], [0, 3, 4, 0]]
    assert reshaped([0, 7, 8], 1, (5,), 0, lambda i: (i + 2,)) == \
        [0, 0, 0, 7, 8]


def test_place_writes_into_the_given_tensor_and_leaves_the_rest():
    out = [[9] * 3 for _ in range(3)]
    assert place(out, [[1, 0], [0, 2]], 2, lambda i, j: (i + 1, j + 1)) \
        is out
    assert out == [[9, 9, 9], [9, 1, 9], [9, 9, 2]]


def test_a_zero_length_factor_keeps_the_other_sizes():
    # d = (2, 0, 3): stored as two empty lists, with nothing to place
    t = zeros(0, (2, 0, 3))
    assert t == [[], []]
    assert reshaped(t, 3, (3, 0, 2), 0, lambda i, j, k: (k, j, i)) == \
        [[], [], []]
    assert reshaped(t, 3, (3, 0), 0, lambda i, j, k: (k, j)) == \
        [[], [], []]
    # a first factor of length 0 is stored as [], which has lost the rest
    assert zeros(0, (0, 2, 3)) == []
    assert reshaped([], 3, (3, 2, 0), 0, lambda i, j, k: (k, j, i)) == \
        [[[], []], [[], []], [[], []]]
    assert reshaped([], 2, (4,), 0, lambda i, j: (i,)) == [0] * 4


# -- the constructor primitive ---------------------------------------------------------

def test_tensor_places_each_entry_over_zero():
    assert tensor(0, (3,), [((2,), 7), ((0,), 5)]) == [5, 0, 7]
    assert tensor(0, (2, 3), [((1, 2), 4), ((0, 0), 1)]) == \
        [[1, 0, 0], [0, 0, 4]]
    assert tensor(0, (2, 2, 2), [((0, 0, 0), 1), ((0, 1, 1), 2),
                                 ((1, 1, 0), 3)]) == \
        [[[1, 0], [0, 2]], [[0, 0], [3, 0]]]
    # a later entry at the same index wins; no entries is the zero tensor
    assert tensor(0, (2,), [((1,), 1), ((1,), 9)]) == [0, 9]
    assert tensor(0, (2, 1, 2), []) == zeros(0, (2, 1, 2))


def test_tensor_rows_are_not_shared():
    t = tensor(0, (2, 2, 2), [((0, 0, 0), 1)])
    assert t[1] == [[0, 0], [0, 0]] and t[0][1] is not t[1][1]
    assert t[0][0] is not t[0][1]


@pytest.mark.parametrize("shape, stored", [
    ((0,), []),
    ((0, 3), []), ((2, 0), [[], []]),
    ((0, 2, 3), []), ((2, 0, 3), [[], []]), ((2, 3, 0), [[[]] * 3] * 2),
    ((0, 0, 0), []), ((1, 0, 0), [[]]),
])
def test_tensor_with_a_zero_length_factor(shape, stored):
    # no index exists, so there is nothing to place: the empty lists keep
    # the sizes of the factors before the first empty one
    assert tensor(0, shape, []) == stored == zeros(0, shape)
