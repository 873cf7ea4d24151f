"""Mutants of structure data that differ from it in chosen coefficients."""

import copy


def mutate(obj, edits):
    """A copy of ``obj`` with each (tensor, key, index path, f) edit applied,
    where f maps the old coefficient to the new one.  ``tensor`` names an
    attribute, dotted to reach into a part (``base.mult``); ``key`` is None
    for a tensor that is not a table.

    Only the edited tensor is copied, together with the parts and tables on
    the way to it.  A tensor that the input shares among keys or parts
    (``from_graded`` shares one per degree, a regular module its base's
    composition) stays shared by all the others, so the mutant differs from
    the input in exactly the edited coefficients.
    """
    out = copy.copy(obj)
    for name, key, path, f in edits:
        *parts, last = name.split(".")
        holder = out
        for part in parts:
            inner = copy.copy(getattr(holder, part))
            setattr(holder, part, inner)
            holder = inner
        if key is None:
            t = copy.deepcopy(getattr(holder, last))
            setattr(holder, last, t)
        else:
            table = dict(getattr(holder, last))
            t = table[key] = copy.deepcopy(table[key])
            setattr(holder, last, table)
        for i in path[:-1]:
            t = t[i]
        t[path[-1]] = f(t[path[-1]])
    return out


def slots(obj, names):
    """Every coefficient slot of the tensors ``names`` of ``obj`` as
    (tensor name, key, index path): a ``mutate`` edit without its f.  A name
    is dotted to reach into a part (``base.mult``); a table is walked key by
    key in its order, with key None for a tensor that is not a table, and
    each tensor in index order.  An absent tensor (None) has no slots."""
    def walk(t, path):
        if isinstance(t, list):
            for i, v in enumerate(t):
                yield from walk(v, path + (i,))
        else:
            yield path

    for name in names:
        table = obj
        for part in name.split("."):
            table = getattr(table, part)
        if table is None:
            continue
        tensors = table.items() if isinstance(table, dict) \
            else [(None, table)]
        for key, t in tensors:
            for path in walk(t, ()):
                yield name, key, path
