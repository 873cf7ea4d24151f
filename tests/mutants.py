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
