"""The table-driven reader against the per-kind parsers it replaced.

A seeded corpus of single-line edits of every fixture (substitute a token,
drop the last token, duplicate the line, append a token) goes through
``fileformat.parse`` and through ``oracles.reference_parse``.  Both must
return equal objects, or both must raise the same kind of error, naming a
line if the old parser named one, except for the deliberate changes listed
in ``DELIBERATE``.  Every ``ParseError`` of the reader names a line, also
where the old parser named none.  Every edit also goes through
``fileformat.load``, where every ``ParseError`` must name a line too, and
through ``cli.main``, which must neither raise nor return 3, and so does a
seeded corpus of byte-level edits (truncate at a byte, insert or delete a
byte, split a token, duplicate a run of bytes).  Every edit of either
corpus that the reader accepts, valid data or not, is written back by
``serialize`` as text that reads as an equal object.
"""

import contextlib
import glob
import io
import os
import random
import shutil

import pytest

from hopfcat import cli
from hopfcat.fileformat import ParseError, load, parse, serialize
from hopfcat.graded import GradedError, GroupTable
from hopfcat.schema import LAYOUTS
from hopfcat.weak import WeakHopfData
from oracles import dense_weak, reference_parse

POOL = ["-1", "0", "1", "2", "3", "9", "x", "*", "1/2", "1/0", "-1/3",
        "yes", "no", "left", "right", "dim", "antipode", "base", "side",
        "kz2", "+1"]
EDITS_PER_FIXTURE = 40
BASES = ("kz2", "kz2_dual")


def edits(name: str, text: str):
    """(label, edited text) for ``EDITS_PER_FIXTURE`` seeded edits."""
    rng = random.Random(name)
    lines = text.splitlines()
    own = sorted({t for line in lines for t in line.split()})
    out = []
    for _ in range(EDITS_PER_FIXTURE):
        n = rng.randrange(len(lines))
        toks = lines[n].split()
        op = rng.choice(("substitute", "drop", "duplicate", "append"))
        new = list(lines)
        if op == "substitute":
            toks[rng.randrange(len(toks))] = rng.choice(POOL + own)
            new[n] = " ".join(toks)
        elif op == "drop":
            new[n] = " ".join(toks[:-1])
        elif op == "duplicate":
            new.insert(n, lines[n])
        else:
            new[n] = " ".join(toks + [rng.choice(POOL + own)])
        out.append((f"{name} line {n + 1} {op}", "\n".join(new) + "\n"))
    return out


# what an inserted byte may be: digits, signs, separators, label letters
# and a byte that is not UTF-8
BYTE_POOL = b"0123456789-/* \n\t#xyzq\xff"
BYTE_EDITS_PER_FIXTURE = 30


def byte_edits(name: str, data: bytes):
    """(label, edited bytes) for ``BYTE_EDITS_PER_FIXTURE`` seeded edits."""
    rng = random.Random("bytes " + name)
    out = []
    for _ in range(BYTE_EDITS_PER_FIXTURE):
        n = rng.randrange(len(data))
        op = rng.choice(("truncate", "insert", "delete", "split",
                         "duplicate"))
        if op == "truncate":
            new = data[:n]
        elif op == "insert":
            new = data[:n] + bytes([rng.choice(BYTE_POOL)]) + data[n:]
        elif op == "delete":
            new = data[:n] + data[n + 1:]
        elif op == "split":     # a space inside a token, where there is one
            inner = [i for i in range(1, len(data))
                     if data[i - 1:i + 1].split() == [data[i - 1:i + 1]]]
            n = rng.choice(inner)
            new = data[:n] + b" " + data[n:]
        else:
            m = min(len(data), n + rng.randrange(1, 40))
            new = data[:m] + data[n:m] + data[m:]
        out.append((f"{name} byte {n} {op}", new))
    return out


def _negative_dimension(rows) -> bool:
    for toks in rows:
        if toks[0] in ("dim", "block") and len(toks) > 2:
            try:
                if int(toks[-1]) < 0:
                    return True
            except ValueError:
                pass
    return False


def _repeated_header(rows) -> bool:
    heads = [toks[0] for toks in rows
             if toks[0] in ("antipode", "base", "side") and len(toks) == 2]
    return len(heads) != len(set(heads))


def _groupoid_labels(rows) -> bool:
    if ["kind", "groupoid"] not in rows:
        return False
    labels = next((toks[1:] for toks in rows if toks[0] == "objects"), None)
    return labels is not None and (not labels
                                   or len(set(labels)) != len(labels))


def _untiled_blocks(rows) -> bool:
    total = 0
    for toks in rows:
        if toks[0] == "block" and len(toks) == 5:
            try:
                if int(toks[3]) != total:
                    return True
                total += int(toks[4])
            except ValueError:
                return False
    return False


# header name -> tokens on its line
_HEADER_WIDTH = {"antipode": 2, "base": 2, "side": 2, "gmul": 4, "block": 5}


def _unrecognized_row(rows) -> bool:
    """A row after the first four that is no header, no `dim` line and no
    record of the file's kind, each with its number of tokens."""
    kind = LAYOUTS.get(rows[1][1] if len(rows) > 1 and len(rows[1]) > 1
                       else None)
    if kind is None or kind.name == "groupoid":
        return False
    widths = {slot.tag: slot.width for slot in kind.slots}
    return any(not (_HEADER_WIDTH.get(toks[0]) == len(toks)
                    and toks[0] in kind.headers
                    or toks[0] == "dim" and kind.dim
                    or widths.get(toks[0]) == len(toks))
               for toks in rows[4:])


def _bad_antipode_value(rows) -> bool:
    return any(toks[0] == "antipode" and len(toks) == 2
               and toks[1] not in ("yes", "no") for toks in rows)


def _dim_arity(rows) -> bool:
    arity = 1 if ["kind", "graded-hopf"] in rows else 2
    return any(toks[0] == "dim" and len(toks) != arity + 2 for toks in rows)


def _not_a_group(rows) -> bool:
    if ["kind", "graded-hopf"] not in rows:
        return False
    labels = next((toks[1:] for toks in rows if toks[0] == "objects"), [])
    table = {tuple(toks[1:3]): toks[3] for toks in rows
             if toks[0] == "gmul" and len(toks) == 4}
    try:
        GroupTable(tuple(labels), table).validate()
    except GradedError:
        return True
    return False


# The changes the reader makes on purpose: where one of these holds of a
# file, the reader raises ParseError with a line number where the old
# parsers accepted the file, raised another error or named no line.
# Single-line edits of the fixtures reach only the last two: with records
# present, a negative or repeated label or dimension already fails the old
# parsers too.  ``test_fileformat`` and ``test_cli`` hold the other two.
DELIBERATE = {
    # a row that fits no header, `dim` line or record is rejected at its
    # line before a missing header or dim is looked for (the old parsers
    # reported the header or dim it failed to be, with no line)
    "unrecognized record": _unrecognized_row,
    # an `antipode` header other than yes|no, and a `dim` line with the
    # wrong number of labels, are reported at their line (the old parsers
    # reported a missing header or dim, with no line)
    "bad antipode value": _bad_antipode_value,
    "dim arity": _dim_arity,
    # a negative `dim` or block length is rejected by every kind, not only
    # by hopf-category and dual files
    "negative dimension": _negative_dimension,
    # `antipode`, `base` and `side` headers appear at most once
    "repeated header": _repeated_header,
    # a groupoid's objects line lists distinct labels, at least one
    "groupoid labels": _groupoid_labels,
    # weak-hopf blocks that do not tile, and a graded `gmul` table that is
    # not a group, are rejected with the line of the offending header
    # (the old parsers raised MalformedDataError and GradedError)
    "untiled blocks": _untiled_blocks,
    "not a group": _not_a_group,
}


def outcome(parser, text, loader):
    try:
        obj = parser(text, loader)
    except ParseError as e:
        return ("error", "ParseError", e.line is not None)
    except Exception as e:     # the old parsers let a few others through
        return ("error", type(e).__name__)
    if isinstance(obj, WeakHopfData):   # the old parser built nested lists
        obj = dense_weak(obj)
    return ("ok", obj, getattr(obj, "_base_name", None))


def corpus(fixture_dir):
    for path in sorted(glob.glob(os.path.join(fixture_dir, "*.hc"))):
        name = os.path.basename(path)[:-3]
        with open(path) as fh:
            yield from edits(name, fh.read())


def test_reader_matches_the_per_kind_parsers(fixture_dir):
    def loader(name):
        path = os.path.join(fixture_dir, name + ".hc")
        if not os.path.exists(path):
            raise ParseError(f"cannot resolve base '{name}'")
        return load(path)

    total = accepted = 0
    for label, text in corpus(fixture_dir):
        total += 1
        new = outcome(parse, text, loader)
        old = outcome(reference_parse, text, loader)
        assert new[:2] != ("error", "ParseError") or new[2], (label, new)
        accepted += new[0] == "ok"
        # every ParseError names a line now, where the old parsers named none
        if new == old or (old == ("error", "ParseError", False)
                          and new == ("error", "ParseError", True)):
            continue
        rows = [line.split("#")[0].split() for line in text.splitlines()]
        rows = [toks for toks in rows if toks]
        why = [k for k, holds in DELIBERATE.items() if holds(rows)]
        assert new == ("error", "ParseError", True) and why, \
            (label, old, new)
    assert total == 35 * EDITS_PER_FIXTURE
    assert accepted > 0


def byte_corpus(fixture_dir):
    for path in sorted(glob.glob(os.path.join(fixture_dir, "*.hc"))):
        with open(path, "rb") as fh:
            yield from byte_edits(os.path.basename(path)[:-3], fh.read())


def test_every_edit_that_parses_round_trips(fixture_dir):
    # whatever the reader accepts, valid or not, the writer writes back as
    # text that reads as an equal object
    def loader(name):
        return load(os.path.join(fixture_dir, name + ".hc"))

    parsed = 0
    texts = list(corpus(fixture_dir))
    texts += [(label, data.decode()) for label, data in byte_corpus(
        fixture_dir) if data.isascii()]
    for label, text in texts:
        try:
            obj = parse(text, loader)
        except Exception:   # noqa: BLE001 -- only accepted edits count
            continue
        parsed += 1
        assert parse(serialize(obj), loader) == obj, label
    assert parsed == 111


def verify_codes(fixture_dir, tmp_path, edited) -> set:
    """The exit codes of ``verify`` on each (label, bytes) of ``edited``,
    written next to copies of the module bases; none may raise or be 3,
    and a ``ParseError`` from loading the file must name a line."""
    for name in BASES:
        shutil.copy(os.path.join(fixture_dir, name + ".hc"), tmp_path)
    path = str(tmp_path / "edited.hc")
    codes = set()
    for label, data in edited:
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            load(path)
        except ParseError as e:
            assert e.line is not None, (label, str(e))
        except Exception:   # cli.main below must map it to an exit code
            pass
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(["--quiet", "verify", path])
            except Exception as e:
                pytest.fail(f"{label}: {type(e).__name__}: {e}")
        assert code != 3, label
        codes.add(code)
    return codes


def test_no_edit_crashes_the_cli(fixture_dir, tmp_path):
    edited = ((label, text.encode()) for label, text in corpus(fixture_dir))
    assert verify_codes(fixture_dir, tmp_path, edited) == {0, 1, 2}


def test_no_byte_edit_crashes_the_cli(fixture_dir, tmp_path):
    edited = list(byte_corpus(fixture_dir))
    assert len(edited) == 35 * BYTE_EDITS_PER_FIXTURE
    assert verify_codes(fixture_dir, tmp_path, edited) == {0, 1, 2}
