"""Seeded inputs, job lists and outcome checks for the hopfcat benchmark.

Every workload is a list of *chains*: jobs that must run in order because a
later one reads a file an earlier one writes.  In a traced run each workload
also carries the same small ``tour`` of jobs that calls every traced function
once; untraced runs leave it out, so that it does not count in the end-to-end
figures.  The seed shuffles the chains,
picks the basis permutations and change-of-basis matrices, and picks the
mutants; the job mix, and so the cost of one pass, does not depend on it.

Each job carries an answer known by construction:

- inputs that are valid by construction exit 0, mutants exit 1 and name the
  axiom their mutation breaks among the failed records of their report;
- ``from-groupoid`` and ``from-graded`` write the linearized groupoid, which
  is also written down here directly (``groupoid_category``);
- ``opposite`` of a groupoid category and ``undualize`` of its dual give back
  the input bytes;
- ``recover-antipode`` writes the generated algebra, antipode included;
- ``integrals`` has dimension 1 and ``can-ranks`` full rank.

The library is passed in as ``lib`` (a namespace of its modules) rather than
imported here, because the benchmark imports it afresh for each set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("hom-dim", "dense-fp", "many-objects")

# A large prime: the Mersenne prime 2^61 - 1.
DENSE_PRIME = (1 << 61) - 1


@dataclass
class Job:
    """One ``cli.main`` call and the outcome it must have."""

    argv: list
    exit: int = 0
    axiom: str | None = None      # must be among the failed report records
    out: str | None = None        # file the job writes
    same_as: str | None = None    # ``out`` must equal this file byte for byte
    listing: str | None = None    # 'integrals' or 'can-ranks' listing in out

    @property
    def report(self) -> str:
        return self.argv[self.argv.index("--report") + 1]

    @property
    def label(self) -> str:
        args = self.argv[3:]            # after --quiet --report <path>
        return " ".join(os.path.basename(a) if os.sep in a else a
                        for a in args)


class Inputs:
    """The files of one set-up: a directory tree plus a digest per file."""

    def __init__(self, lib, root: str):
        self.lib = lib
        self.root = root
        self.digests = {}
        self._reports = 0
        for sub in ("inputs", "expected", "out", "reports"):
            os.makedirs(os.path.join(root, sub), exist_ok=True)

    def save(self, sub: str, name: str, obj) -> str:
        path = os.path.join(self.root, sub, name + ".hc")
        self.lib.fileformat.save(path, obj)
        with open(path, "rb") as fh:
            self.digests[f"{sub}/{name}.hc"] = \
                hashlib.sha256(fh.read()).hexdigest()
        return path

    def out(self, name: str, suffix: str = ".hc") -> str:
        return os.path.join(self.root, "out", name + suffix)

    def job(self, args, **expect) -> Job:
        """A job on ``args`` with its own report file."""
        self._reports += 1
        report = os.path.join(self.root, "reports", f"{self._reports}.jsonl")
        return Job(["--quiet", "--report", report] + list(args), **expect)

    def digest(self) -> str:
        """One digest over every file written, to compare two set-ups."""
        return hashlib.sha256(
            json.dumps(self.digests, sort_keys=True).encode()).hexdigest()


# -- one-object algebras in a chosen basis ------------------------------------

def permutation(rng: random.Random, d: int):
    """Integer basis-change matrices (P, P^-1) of a seeded permutation."""
    pi = list(range(d))
    rng.shuffle(pi)
    p = [[int(pi[i] == x) for x in range(d)] for i in range(d)]
    return p, [list(r) for r in zip(*p)]


def unitriangular(rng: random.Random, d: int):
    """A seeded upper unitriangular P and its inverse, which is integral
    because det P = 1.  The entries above the diagonal are nonzero and up to
    16 bits wide, so that no structure constant cancels to zero by chance:
    every seed gives the same density."""
    p = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            p[i][j] = rng.choice((-1, 1)) * rng.randrange(1, 1 << 16)
    inv = [[0] * d for _ in range(d)]
    for col in range(d):
        for i in reversed(range(d)):
            inv[i][col] = int(i == col) - sum(p[i][k] * inv[k][col]
                                              for k in range(i + 1, d))
    return p, inv


def one_object_ints(a) -> dict:
    """The structure constants of a one-object algebra over Q, as ints."""
    key1, key2, key3 = "*", ("*", "*"), ("*", "*", "*")
    d = a.dims[key2]

    def t3(t):
        return [[[int(t[i][j][k]) for k in range(d)] for j in range(d)]
                for i in range(d)]
    return {"d": d, "mult": t3(a.mult[key3]), "comult": t3(a.comult[key2]),
            "unit": [int(v) for v in a.unit[key1]],
            "counit": [int(v) for v in a.counit[key2]],
            "antipode": [[int(v) for v in r] for r in a.antipode[key2]]}


def transport(c: dict, p, inv) -> dict:
    """Structure constants in the basis f_x = sum_i P[i][x] e_i:
    m' = P^-1 m (P x P), delta' = (P^-1 x P^-1) delta P, eps' = eps P,
    1' = P^-1 1 and S' = P^-1 S P, all in plain integer arithmetic."""
    d = c["d"]
    rng = range(d)
    cols = [[(x, p[i][x]) for x in rng if p[i][x]] for i in rng]
    back = [[(z, inv[z][k]) for z in rng if inv[z][k]] for k in rng]
    mult = [[[0] * d for _ in rng] for _ in rng]
    comult = [[[0] * d for _ in rng] for _ in rng]
    for i in rng:
        for j in rng:
            for k in rng:
                v = c["mult"][i][j][k]
                if v:
                    for x, px in cols[i]:
                        for y, py in cols[j]:
                            for z, qz in back[k]:
                                mult[x][y][z] += px * py * qz * v
                v = c["comult"][i][j][k]
                if v:
                    for x, px in cols[i]:
                        for y, qy in back[j]:
                            for z, qz in back[k]:
                                comult[x][y][z] += px * qy * qz * v
    antipode = [[0] * d for _ in rng]
    for i in rng:
        for j in rng:
            v = c["antipode"][j][i]
            if v:
                for x, px in cols[i]:
                    for y, qy in back[j]:
                        antipode[y][x] += px * qy * v
    return {"d": d, "mult": mult, "comult": comult, "antipode": antipode,
            "unit": [sum(inv[x][i] * c["unit"][i] for i in rng) for x in rng],
            "counit": [sum(p[i][x] * c["counit"][i] for i in rng)
                       for x in rng]}


def one_object_algebra(lib, field, c: dict, with_antipode: bool = True):
    """Wrap integer structure constants over ``field`` with the library's
    own constructor."""
    of = field.of

    def t3(t):
        return [[[of(v) for v in q] for q in r] for r in t]
    return lib.fixtures.singleton_hopf(
        field, c["d"], t3(c["mult"]), [of(v) for v in c["unit"]],
        t3(c["comult"]), [of(v) for v in c["counit"]],
        [[of(v) for v in r] for r in c["antipode"]] if with_antipode
        else None)


# Single-coefficient mutants of an algebra whose basis is grouplike, and the
# axiom each one breaks for certain (over Q):
#   eps(g) -> 2        (eps x id) delta(g) = 2g            counit-left
#   delta(g) -> 2 g(x)g (eps x id) delta(g) = 2g           counit-left
#   g.h -> 2 gh        delta(2gh) = 2 gh(x)gh, but (m x m)(delta x delta)
#                      gives 4 gh(x)gh                     comult-mult
#   S(g) -> 2 g^-1     g.S(g) = 2 eps(g) 1                 antipode-left
MUTANTS = ("counit", "comult", "mult", "antipode")
MUTANT_AXIOM = {"counit": "counit-left", "comult": "counit-left",
                "mult": "comult-mult", "antipode": "antipode-left"}


def mutate(c: dict, kind: str, rng: random.Random) -> dict:
    """Double one nonzero coefficient of a grouplike one-object algebra."""
    c = json.loads(json.dumps(c))
    d = c["d"]
    i = rng.randrange(d)
    if kind == "counit":
        c["counit"][i] *= 2
    elif kind == "comult":
        c["comult"][i][i][i] *= 2
    elif kind == "mult":
        j = rng.randrange(d)
        k = next(k for k in range(d) if c["mult"][i][j][k])
        c["mult"][i][j][k] *= 2
    else:
        j = next(j for j in range(d) if c["antipode"][j][i])
        c["antipode"][j][i] *= 2
    return c


def base_algebra(lib, name: str) -> dict:
    qq = lib.scalars.QQ
    if name == "taft4":
        return one_object_ints(lib.fixtures.taft_four_dim(qq))
    return one_object_ints(lib.fixtures.group_algebra(qq, int(name[2:])))


def hom_dim(lib, files: Inputs, rng: random.Random, smoke: bool):
    """kZ/n and taft4 over Q, each copy in a seeded permutation of its
    grouplike basis; a quarter of the jobs verify single-coefficient
    mutants.  The mix puts the tail job (the 11th slowest) inside the block
    of twelve kZ/5 jobs and the median inside the kZ/4 block, so that
    neither sits on the edge between two rungs."""
    qq = lib.scalars.QQ
    # (algebra, copies, verify --strictness as well, mutants)
    ladder = ([("kz4", 1, True, 1), ("taft4", 1, True, 0)] if smoke else
              [("kz4", 4, True, 10), ("kz5", 6, True, 0), ("kz6", 1, False, 0),
               ("kz7", 1, False, 0), ("taft4", 3, True, 0)])
    chains = []
    for name, copies, strict, mutants in ladder:
        base = base_algebra(lib, name)
        for copy in range(copies):
            c = transport(base, *permutation(rng, base["d"]))
            path = files.save("inputs", f"{name}_{copy}",
                              one_object_algebra(lib, qq, c))
            chains.append([files.job(["verify", path])])
            if strict:
                chains.append([files.job(["verify", "--strictness", path])])
        for n in range(mutants):
            c = transport(base, *permutation(rng, base["d"]))
            kind = rng.choice(MUTANTS)
            bad = files.save("inputs", f"{name}_mutant{n}_{kind}",
                             one_object_algebra(lib, qq, mutate(c, kind, rng)))
            chains.append([files.job(["verify", bad], exit=1,
                                     axiom=MUTANT_AXIOM[kind])])
    return chains


def dense_fp(lib, files: Inputs, rng: random.Random, smoke: bool):
    """The same algebras over GF(2^61-1), moved by a seeded unitriangular
    change of basis so that their structure constants are dense."""
    fp = lib.scalars.GF(DENSE_PRIME)
    ladder = ([("kz3", 1), ("taft4", 1)] if smoke else
              [("kz3", 3), ("kz4", 3), ("kz5", 1), ("kz6", 1), ("taft4", 2)])
    chains = []
    for name, copies in ladder:
        base = base_algebra(lib, name)
        for copy in range(copies):
            c = transport(base, *unitriangular(rng, base["d"]))
            stem = f"{name}_{copy}"
            full = files.save("inputs", stem,
                              one_object_algebra(lib, fp, c))
            stripped = files.save("inputs", stem + "_stripped",
                                  one_object_algebra(lib, fp, c, False))
            out = files.out(stem)
            can = files.out(stem + "_can", ".txt")
            ints = files.out(stem + "_int", ".txt")
            chains += [
                [files.job(["verify", "--antipode-theorems", full])],
                [files.job(["analyze", stripped, "recover-antipode",
                            "--out", out], out=out, same_as=full)],
                [files.job(["analyze", full, "can-ranks", "--out", can],
                           out=can, listing="can-ranks")],
                [files.job(["analyze", full, "integrals", "--out", ints],
                           out=ints, listing="integrals")],
            ]
    return chains


# -- categories with many objects --------------------------------------------

def groupoid_category(lib, components):
    """The linearized groupoid of a disjoint union of pair groupoids, written
    down directly: each hom inside a component is spanned by one grouplike
    arrow, every hom across components is zero."""
    qq = lib.scalars.QQ
    one, zero = qq.one, qq.zero
    comp = {x: n for n, xs in enumerate(components) for x in xs}
    objects = tuple(x for xs in components for x in xs)
    dims = {(x, y): int(comp[x] == comp[y]) for x in objects for y in objects}

    def t3(d1, d2, d3):
        return [[[one if d1 * d2 * d3 else zero] * d3 for _ in range(d2)]
                for _ in range(d1)]
    mult = {(x, y, z): t3(dims[(x, y)], dims[(y, z)], dims[(x, z)])
            for x in objects for y in objects for z in objects}
    comult = {k: t3(d, d, d) for k, d in dims.items()}
    counit = {k: [one] * d for k, d in dims.items()}
    antipode = {k: [[one] * d for _ in range(d)] for k, d in dims.items()}
    return lib.core.HopfCatData(qq, objects, dims, mult,
                                {x: [one] for x in objects}, comult, counit,
                                antipode)


def groupoid_table(lib, components):
    """The groupoid itself, from the library's constructors."""
    g = None
    for xs in components:
        p = lib.groupoid.pair_groupoid(tuple(xs))
        g = p if g is None else lib.groupoid.disjoint_union(g, p)
    return g


def components_of(sizes):
    """Object labels a0.., b0.., ... for pair groupoids of the given sizes."""
    return tuple(tuple(f"{chr(97 + n)}{i}" for i in range(size))
                 for n, size in enumerate(sizes))


def cyclic_graded(lib, n: int):
    """kZ/n graded by Z/n: every component spanned by one grouplike."""
    graded = lib.graded
    one = lib.scalars.QQ.one
    elements = tuple(f"g{i}" for i in range(n))
    table = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}"
             for i in range(n) for j in range(n)}
    line = [[[one]]]
    return elements, graded.GradedHopfData(
        lib.scalars.QQ, graded.GroupTable(elements, table),
        {s: 1 for s in elements},
        {(s, t): line for s in elements for t in elements}, [one],
        {s: line for s in elements}, {s: [one] for s in elements},
        {s: [[one]] for s in elements})


def category_mutant(lib, a, kind: str, rng: random.Random):
    """Double one coefficient of a groupoid category; see MUTANTS."""
    two = lib.scalars.QQ.of(2)
    X = a.objects
    pairs = [(x, y) for x in X for y in X if a.dims[(x, y)]]
    x, y = rng.choice(pairs)
    mult, comult = dict(a.mult), dict(a.comult)
    counit, antipode = dict(a.counit), dict(a.antipode)
    if kind == "counit":
        counit[(x, y)] = [two]
    elif kind == "comult":
        comult[(x, y)] = [[[two]]]
    elif kind == "mult":
        mult[(x, x, y)] = [[[two]]]
    else:
        antipode[(x, y)] = [[two]]
    return lib.core.HopfCatData(a.field, X, a.dims, mult, a.unit, comult,
                                counit, antipode)


def many_objects(lib, files: Inputs, rng: random.Random, smoke: bool):
    """Pair groupoids and disjoint unions with one-dimensional homs, the
    Z/n-graded group algebra, regular (Hopf) modules, mutants, and the weak
    Hopf algebras that pack and pack-dual make of groupoid categories: the
    jobs that run weak.py's own calculus over n^3 basis triples."""
    full = (((3,),) if smoke else ((4,), (2, 3)))
    verify_only = () if smoke else ((5,), (7,))
    packed = (((2,),) if smoke else
              ((3,), (1, 2), (2, 2), (1, 3), (2, 3), (1, 1, 2)))
    graded = (3,) if smoke else (4, 6)
    chains = []
    for sizes in packed:
        chains += pack_chains(lib, files, sizes)
    for sizes in full + verify_only:
        comps = components_of(sizes)
        stem = "pair" + "_".join(map(str, sizes))
        cat = lib.groupoid.linearize_groupoid(groupoid_table(lib, comps),
                                              lib.scalars.QQ)
        path = files.save("inputs", stem, cat)
        # A disjoint union is not strict: for x, z in one component and y in
        # another, A(x,y) (x) A(y,z) = 0 cannot cover A(x,z) != 0.
        strict = len(sizes) == 1
        chains.append([files.job(
            ["verify", "--strictness", "--antipode-theorems", path],
            exit=0 if strict else 1,
            axiom=None if strict else "compose-surjective")])
        if sizes in verify_only:
            continue
        grp = files.save("inputs", stem + "_groupoid",
                         groupoid_table(lib, comps))
        want = files.save("expected", stem, groupoid_category(lib, comps))
        lin, dual, back, opp, bim = (files.out(stem + s) for s in (
            "_lin", "_dual", "_back", "_opposite", "_bimonoid"))
        kind = rng.choice(MUTANTS)
        bad = files.save("inputs", f"{stem}_{kind}",
                         category_mutant(lib, cat, kind, rng))
        chains += [
            [files.job(["transform", grp, "from-groupoid", lin], out=lin,
                       same_as=want)],
            [files.job(["transform", path, "dualize", dual]),
             files.job(["verify", dual]),
             files.job(["transform", dual, "undualize", back], out=back,
                       same_as=path)],
            [files.job(["transform", path, "opposite", opp], out=opp,
                       same_as=path),
             files.job(["verify", opp])],
            [files.job(["transform", path, "bimonoid", bim]),
             files.job(["verify", bim])],
            [files.job(["verify", bad], exit=1, axiom=MUTANT_AXIOM[kind])],
        ]
        if sizes == full[0]:
            module = lib.modules.regular_module(cat, "right")
            module._base_name = stem
            hopf_module = lib.fundamental.regular_hopf_module(cat)
            hopf_module._base_name = stem
            chains += [
                [files.job(["verify", files.save("inputs", stem + "_module",
                                                 module)])],
                [files.job(["verify", files.save(
                    "inputs", stem + "_hopf_module", hopf_module)])],
            ]
    for n in graded:
        elements, h = cyclic_graded(lib, n)
        src = files.save("inputs", f"graded_z{n}", h)
        want = files.save("expected", f"graded_z{n}",
                          groupoid_category(lib, (elements,)))
        lifted = files.out(f"graded_z{n}_lift")
        chains.append([files.job(["transform", src, "from-graded", lifted],
                                 out=lifted, same_as=want)])
    return chains


def pack_chains(lib, files: Inputs, sizes):
    """pack and pack-dual of one groupoid category, each followed by verify
    of the weak Hopf algebra it writes."""
    comps = components_of(sizes)
    stem = "pack" + "_".join(map(str, sizes))
    cat = lib.groupoid.linearize_groupoid(groupoid_table(lib, comps),
                                          lib.scalars.QQ)
    path = files.save("inputs", stem, cat)
    dual = files.save("inputs", stem + "_dual", lib.dual.dualize(cat))
    packed, packed_dual = files.out(stem), files.out(stem + "_dual")
    return [[files.job(["transform", path, "pack", packed]),
             files.job(["verify", packed])],
            [files.job(["transform", dual, "pack-dual", packed_dual]),
             files.job(["verify", packed_dual])]]


def tour(lib, files: Inputs):
    """A few jobs on the pair groupoid on two objects that call every traced
    function once, so that no per-layer time reads 0 on any workload.  Only
    traced runs carry them."""
    comps = components_of((2,))
    cat = lib.groupoid.linearize_groupoid(groupoid_table(lib, comps),
                                          lib.scalars.QQ)
    path = files.save("inputs", "tour", cat)
    stripped = files.save("inputs", "tour_stripped", cat.strip_antipode())
    grp = files.save("inputs", "tour_groupoid", groupoid_table(lib, comps))
    want = files.save("expected", "tour", groupoid_category(lib, comps))
    elements, h = cyclic_graded(lib, 2)
    graded = files.save("inputs", "tour_graded", h)
    lifted = files.save("expected", "tour_graded",
                        groupoid_category(lib, (elements,)))
    module = lib.modules.regular_module(cat, "right")
    module._base_name = "tour"
    lin, dual, bim, packed, lift, rec = (files.out("tour" + s) for s in (
        "_lin", "_dual", "_bimonoid", "_pack", "_lift", "_recovered"))
    can, ints = files.out("tour_can", ".txt"), files.out("tour_int", ".txt")
    return [
        [files.job(["transform", grp, "from-groupoid", lin], out=lin,
                   same_as=want)],
        [files.job(["verify", "--strictness", "--antipode-theorems", path])],
        [files.job(["transform", path, "dualize", dual]),
         files.job(["verify", dual])],
        [files.job(["transform", path, "bimonoid", bim]),
         files.job(["verify", bim])],
        [files.job(["transform", path, "pack", packed]),
         files.job(["verify", packed])],
        [files.job(["transform", graded, "from-graded", lift], out=lift,
                   same_as=lifted)],
        [files.job(["verify", files.save("inputs", "tour_module", module)])],
        [files.job(["analyze", stripped, "recover-antipode", "--out", rec],
                   out=rec, same_as=path)],
        [files.job(["analyze", path, "can-ranks", "--out", can], out=can,
                   listing="can-ranks")],
        [files.job(["analyze", path, "integrals", "--out", ints], out=ints,
                   listing="integrals")],
    ]


GENERATORS = {"hom-dim": hom_dim, "dense-fp": dense_fp,
              "many-objects": many_objects}


def build(lib, workload: str, root: str, seed: int, smoke: bool = False,
          with_tour: bool = False):
    """Write the workload's inputs under ``root``, and those of the tour if
    ``with_tour``; return (jobs, inputs).

    The same seed gives the same bytes and the same job order."""
    rng = random.Random(f"{workload}:{seed}")
    files = Inputs(lib, root)
    chains = GENERATORS[workload](lib, files, rng, smoke)
    if with_tour:
        chains += tour(lib, files)
    rng.shuffle(chains)
    return [job for chain in chains for job in chain], files


# -- outcome checks -----------------------------------------------------------

def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def check(job: Job, code) -> str | None:
    """Why the job's outcome differs from its known answer, or None."""
    if code != job.exit:
        return f"exit {code}, expected {job.exit}"
    if job.axiom is not None:
        records = [json.loads(line)
                   for line in (_read(job.report) or b"").splitlines()]
        failed = {r["axiom"] for r in records
                  if r["required"] and not r["ok"]}
        if job.axiom not in failed:
            return f"{job.axiom} not among failed records {sorted(failed)}"
    if job.same_as is not None:
        got = _read(job.out)
        if got is None or got != _read(job.same_as):
            return (f"{os.path.basename(job.out)} differs from "
                    f"{os.path.basename(job.same_as)}")
    if job.listing is not None:
        lines = (_read(job.out) or b"").decode().splitlines()
        if job.listing == "integrals":
            dims = [ln.split("dimension")[1].strip() for ln in lines
                    if "dimension" in ln]
            if not dims or any(d != "1" for d in dims):
                return f"integral dimensions {dims}, expected 1"
        else:
            ranks = [ln.split() for ln in lines if ln.startswith("can[")]
            if not ranks or any(r[2] != r[4] or r[5] != "invertible"
                                for r in ranks):
                return f"canonical maps not all of full rank: {lines}"
    return None
