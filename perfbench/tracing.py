"""Spans and counters around hopfcat's public functions, from outside.

``Tracer.install`` replaces each traced function, in every hopfcat module that
holds a reference to it (so the names ``cli`` and the other modules imported
from it are covered too), with a wrapper that records a span; ``uninstall``
puts the originals back.  Nothing under ``src/`` changes.

A span is (id, parent id, tag, start, end, job, outer): ``tag`` is
``<module>.<what>``, ``job`` is the (pass, job) pair the runner sets, and
``outer`` is false for a span nested inside another span of the same tag, so
that inclusive times do not count nested calls twice.  Spans stay in memory
until ``write``.

The time of each ``verify_structure`` call is split into its category,
coalgebra and antipode groups from its child spans: the stretch from the
call's start (or the previous check's end) to the end of a
``check_map_equal`` span goes to the group of that check's axiom, and the
stretch after the last check to the group of the call's level.  The groups
of the axioms are read off ``verify_structure`` itself, as the axioms each
level adds on a one-dimensional algebra.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from time import perf_counter

# (module, function name, tag) for module-level functions.
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("fileformat", "load", "fileformat.load"),
    ("fileformat", "parse", "fileformat.parse"),
    ("fileformat", "save", "fileformat.save"),
    ("fileformat", "serialize", "fileformat.serialize"),
    ("core", "verify_structure", "core.verify_structure"),
    ("core", "check_antipode_theorems", "core.antipode_theorems"),
    ("core", "check_strictness", "core.strictness"),
    ("core", "transform", "core.transform"),
    ("linalg", "rank_kernel", "linalg.rref"),
    ("linalg", "invert", "linalg.rref"),
    ("linalg", "solve", "linalg.rref"),
    ("linalg", "echelon_basis", "linalg.rref"),
    ("linalg", "swap_map", "linalg.swap_map"),
    ("report", "check_map_equal", "report.check"),
    ("weak", "pack", "weak.pack"),
    ("weak", "pack_dual", "weak.pack"),
    ("weak", "verify_weak_hopf", "weak.verify"),
    ("dual", "dualize", "dual.dualize"),
    ("dual", "undualize", "dual.dualize"),
    ("dual", "verify_dual", "dual.verify"),
    ("duoidal", "verify_bimonoid", "duoidal.verify_bimonoid"),
    ("duoidal", "bimonoid_from_category", "duoidal.convert"),
    ("duoidal", "category_from_bimonoid", "duoidal.convert"),
    ("groupoid", "linearize_groupoid", "groupoid.linearize"),
    ("groupoid", "validate_groupoid", "groupoid.validate"),
    ("graded", "from_graded", "graded.lift"),
    ("graded", "validate_graded", "graded.validate"),
    ("modules", "verify_module", "modules.verify"),
    ("modules", "verify_comodule", "modules.verify"),
    ("fundamental", "recover_antipode", "fundamental.recover"),
    ("fundamental", "can_rank_table", "fundamental.can_ranks"),
    ("fundamental", "integrals", "fundamental.integrals"),
    ("fundamental", "build_can", "fundamental.build_can"),
    ("fundamental", "verify_hopf_module", "fundamental.verify_hopf_module"),
]

# (module, class, method, tag) for methods that get a span.
METHODS = [
    ("linalg", "LinMap", "__matmul__", "linalg.matmul"),
    ("linalg", "LinMap", "kron", "linalg.kron"),
    ("core", "HopfCatData", "validate_shape", "core.validate_shape"),
] + [("core", "HopfCatData", m, "core.map_build")
     for m in ("identity_map", "mult_map", "unit_map", "comult_map",
               "counit_map", "antipode_map")]

LEVELS = ("category", "semihopf", "hopf")


def axiom_levels(lib) -> dict:
    """The level that first checks each axiom of verify_structure."""
    algebra = lib.fixtures.group_algebra(lib.scalars.QQ, 1)
    out = {}
    for level in LEVELS:
        for item in lib.core.verify_structure(algebra, level).items:
            out.setdefault(item.axiom, level)
    return out


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.counts = Counter()          # (pass, counter) -> amount
        self.axiom_level = axiom_levels(lib)
        self.notes = {}                  # span id -> axiom or level
        self.job = None                  # (pass, job) the runner is in
        self._stack = []
        self._active = Counter()
        self._next = 0
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _count(self, key: str, amount: int = 1):
        self.counts[(self.job[0], key)] += amount

    def _span(self, tag: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            outer = tracer._active[tag] == 0
            tracer._active[tag] += 1
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer._active[tag] -= 1
                tracer.spans.append((sid, parent, tag, t0, t1, tracer.job,
                                     outer))
            if after is not None:
                after(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, tag: str):
        """Counters read from a call's arguments or result."""
        count = self._count
        if tag in ("linalg.matmul", "linalg.kron"):
            def after(args, kwargs, result):
                count("linalg.entries_materialized",
                      result.rows * result.cols)
        elif tag == "fileformat.load":
            def after(args, kwargs, result):
                count("fileformat.bytes_read", os.path.getsize(args[0]))
        elif tag == "fileformat.save":
            def after(args, kwargs, result):
                count("fileformat.bytes_written", os.path.getsize(args[0]))
        elif tag == "weak.verify":
            def after(args, kwargs, result):
                count("weak.basis_triples", args[0].total_dim ** 3)
        elif tag in ("core.verify_structure", "report.check"):
            spans, notes = self.spans, self.notes

            def after(args, kwargs, result):
                # the span just closed is this call's
                notes[spans[-1][0]] = args[1] if len(args) > 1 else \
                    kwargs.get("level", kwargs.get("axiom", "hopf"))
        else:
            after = None
        return after

    def _replace(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self):
        lib = self.lib
        modules = list(vars(lib).values())
        for mod_name, fn_name, tag in FUNCTIONS:
            orig = getattr(getattr(lib, mod_name), fn_name)
            wrapped = self._span(tag, orig, self._after(tag))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, name, wrapped)
        for mod_name, cls_name, meth, tag in METHODS:
            cls = getattr(getattr(lib, mod_name), cls_name)
            self._replace(cls, meth, self._span(tag, getattr(cls, meth),
                                                self._after(tag)))
        linmap, fp = lib.linalg.LinMap, lib.scalars.FpElement
        report = lib.report.Report
        self._replace(linmap, "__init__",
                      self._counter("linalg.linmaps_built", linmap.__init__))
        self._replace(fp, "__init__",
                      self._counter("scalars.fp_elements_built", fp.__init__))
        self._replace(report, "add", self._counter("report.items", report.add))

    def _counter(self, key: str, fn):
        """Count calls of ``fn`` (and, for Report.add, the failed items)."""
        count = self._count
        items = key == "report.items"

        def wrapper(obj, *args):
            count(key)
            if items and args[0].required and not args[0].ok:
                count("report.failed_items")
            return fn(obj, *args)
        return wrapper

    def uninstall(self):
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    # -- aggregation --------------------------------------------------------

    def per_pass(self, scale) -> dict:
        """For each pass: inclusive seconds and calls per tag, self seconds
        per module, and the counters.  ``scale`` maps each (pass, job) to
        the factor its span times are multiplied by."""
        child = defaultdict(float)
        for sid, parent, tag, t0, t1, job, outer in self.spans:
            if parent >= 0:
                child[parent] += (t1 - t0) * scale[job]
        out = defaultdict(lambda: {"incl": Counter(), "calls": Counter(),
                                   "self": Counter(), "count": Counter(),
                                   "span_self": Counter(),
                                   "level": Counter()})
        for sid, parent, tag, t0, t1, job, outer in self.spans:
            agg = out[job[0]]
            agg["calls"][tag] += 1
            seconds = (t1 - t0) * scale[job]
            if outer:
                agg["incl"][tag] += seconds
            own = seconds - child[sid]
            agg["self"][tag.split(".")[0]] += own
            agg["span_self"][tag] += own
        for (pass_no, key), amount in self.counts.items():
            out[pass_no]["count"][key] += amount
        for job, level, seconds in self._level_times():
            out[job[0]]["level"][level] += seconds * scale[job]
        return dict(out)

    def _level_times(self):
        """(job, level group, seconds) for each stretch of each
        verify_structure call; see the module docstring."""
        verify = [span for span in self.spans
                  if span[2] == "core.verify_structure"]
        checks = {span[0]: [] for span in verify}   # verify id -> its checks
        for sid, parent, tag, t0, t1, job, outer in self.spans:
            if tag == "report.check" and parent in checks \
                    and sid in self.notes:
                checks[parent].append((t1, self.axiom_level[self.notes[sid]]))
        for sid, parent, tag, t0, t1, job, outer in verify:
            mark, level = t0, "category"
            for end, level in checks[sid]:
                yield job, level, end - mark
                mark = end
            # a call that raised has no level; its last stretch goes to the
            # group of its last check
            yield job, self.notes.get(sid, level), t1 - mark

    def write(self, path: str):
        with open(path, "w") as fh:
            for sid, parent, tag, t0, t1, job, outer in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": tag,
                                     "start": t0, "end": t1,
                                     "job": list(job)}) + "\n")
