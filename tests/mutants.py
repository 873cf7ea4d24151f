"""Mutants of structure data that differ from it in chosen coefficients."""

import copy
from itertools import product


def _slot(holder, tag):
    """The slot ``tag`` of the kind of ``holder``."""
    return next(s for s in type(holder).layout.slots if s.tag == tag)


def mutate(obj, edits):
    """A copy of ``obj`` with each (tensor, key, index path, f) edit applied,
    where f maps the old coefficient to the new one.  ``tensor`` names an
    attribute, dotted to reach into a part (``base.mult``); ``key`` is None
    for a tensor that is not a table.

    Only the edited tensor is copied, together with the parts and tables on
    the way to it.  A tensor that the input shares among keys or parts
    (``from_graded`` shares one per degree, a regular module its base's
    composition) stays shared by all the others, so the mutant differs from
    the input in exactly the edited coefficients.  A sparse tensor (a dict
    keyed by index tuples) reads a missing index as zero and drops an index
    whose new coefficient is zero; every edit replaces it by a new dict.
    """
    out = copy.copy(obj)
    for name, key, path, f in edits:
        *parts, last = name.split(".")
        holder = out
        for part in parts:
            inner = copy.copy(getattr(holder, part))
            setattr(holder, part, inner)
            holder = inner
        table = getattr(holder, last)
        if key is not None:
            table = dict(table)
            setattr(holder, last, table)
        old = table if key is None else table[key]
        if _slot(holder, last).sparse:
            t = dict(old)
            zero = type(holder).layout.frame(holder).field.zero
            v = f(t.get(path, zero))
            if v:
                t[path] = v
            else:
                t.pop(path, None)
        else:
            t = copy.deepcopy(old)
            cell = t
            for i in path[:-1]:
                cell = cell[i]
            cell[path[-1]] = f(cell[path[-1]])
        if key is None:
            setattr(holder, last, t)
        else:
            table[key] = t
    return out


def slots(obj, names):
    """Every coefficient slot of the tensors ``names`` of ``obj`` as
    (tensor name, key, index path): a ``mutate`` edit without its f.  A name
    is dotted to reach into a part (``base.mult``); a table is walked key by
    key in its order, with key None for a tensor that is not a table, and
    each tensor in index order.  A sparse tensor's index paths are its
    record-order index tuples over the whole shape its kind's slot table
    declares, zeros included, not only its stored keys.  An absent tensor
    (None) has no slots."""
    def walk(t, path):
        if isinstance(t, list):
            for i, v in enumerate(t):
                yield from walk(v, path + (i,))
        else:
            yield path

    for name in names:
        holder = obj
        *parts, tag = name.split(".")
        for part in parts:
            holder = getattr(holder, part)
        table, slot = getattr(holder, tag), _slot(holder, tag)
        if table is None:
            continue
        if slot.sparse:
            frame = type(holder).layout.frame(holder)
            for key, shape in slot.shapes(frame):
                key = None if not key else key[0] if len(key) == 1 else key
                for path in product(*map(range, shape)):
                    yield name, key, path
            continue
        tensors = table.items() if slot.keys else [(None, table)]
        for key, t in tensors:
            for path in walk(t, ()):
                yield name, key, path
