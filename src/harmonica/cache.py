"""On-disk cache for built spaces: one JSON file per (n, space kind).

A file is one JSON object: a versioned header (format version, n, monomial
order identifier, kind) and a list of records in exact rational text
encoding, one per block of a quotient ("blocks") or per basis piece of a
subspace ("pieces").  Saves and loads go one record at a time, so memory
never holds the file's whole list tree: a save writes each record's text as
it is built (`_save`), byte for byte what one `json.dumps` of the whole file
with sorted keys and no spaces would be, and a load turns each record into
its `Block` or basis as soon as the record is parsed (`_read`).
Files are keyed by those parameters; anything stale or malformed is ignored,
never migrated.  Loaded data is checked for the shape a build produces
(see `_valid_block` and `_valid_basis`) and for the dimensions every build
has (`_complete`), so a file that parses but holds inconsistent or
incomplete data is ignored as well and the space is rebuilt.  A value must
be `str(Fraction)` of a nonzero rational, the text a save writes ("-3/2", not
"0", "2/4", "+1", " 1", "0.5" or "1/0"), checked once per text and file.  Writes go
through a temporary file and an atomic rename, so readers never observe
partial files (single-writer discipline).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional

from .dyck import hook_per_a
from .spaces import Block, GradedSubspace, QuotientSpace
from .superpoly import MONOMIAL_ORDER_ID, TriDegree, count_tridegree

FORMAT_VERSION = 1


def cache_path(cache_dir, kind: str, n: int) -> Path:
    return Path(cache_dir) / f"{kind}-n{n}.json"


def _header(kind: str, n: int) -> dict:
    return {
        "format": FORMAT_VERSION,
        "order": MONOMIAL_ORDER_ID,
        "kind": kind,
        "n": n,
    }


def _save(cache_dir, kind: str, n: int, key: str, records: Iterator[dict]) -> Path:
    """Write the file of (kind, n) with `records` under `key`, one record at
    a time: the header's text up to its list, each record's text as
    `records` yields it, then the tail.  The bytes are those of one
    `json.dumps` of the whole file with sorted keys and no spaces."""
    # The whole file with an empty list, cut between the list's brackets.
    empty = json.dumps({**_header(kind, n), key: []}, sort_keys=True, separators=(",", ":"))
    opening = json.dumps(key) + ":["
    cut = empty.index(opening) + len(opening)
    path = cache_path(cache_dir, kind, n)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(empty[:cut])
            for i, record in enumerate(records):
                fh.write("," if i else "")
                fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            fh.write(empty[cut:])
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def _vec_out(vec: dict) -> list:
    # `str` of an int is `str` of the equal `Fraction`, so no value is re-wrapped.
    # Pairs are tuples, which json writes as it writes lists: a tuple of atoms
    # leaves the garbage collector's view at its first pass, so saving the
    # n = 5 hook (1.1M pairs) runs 2 full collections, not 10.
    return [(j, str(vec[j])) for j in sorted(vec)]


# `str(Fraction)` of a nonzero rational, but for lowest terms; only this reaches `Fraction`.
_VALUE_TEXT = re.compile(r"-?[1-9][0-9]*(/[1-9][0-9]*)?")


class _Values(dict):
    """Value text -> Fraction for one file; each distinct text is parsed and
    checked once, on its first use."""

    def __missing__(self, text):
        value = Fraction(text) if isinstance(text, str) and _VALUE_TEXT.fullmatch(text) else None
        if value is None or str(value) != text:
            raise ValueError(f"value {text!r} is not the text a save writes")
        self[text] = value
        return value


def _vec_in(items, values: _Values) -> dict:
    vec = {int(j): values[s] for j, s in items}
    if len(vec) != len(items):
        raise ValueError("a column is listed twice")
    return vec


def _valid_block(block: Block) -> bool:
    """Reps are nonempty, strictly increasing and, with the nf keys, exactly
    the ambient columns; every nf vector lives on rep columns.  The columns
    are counted before they are listed, so a degree far past any basis
    lists none."""
    reps, dim = block.reps, block.ambient_dim
    if not reps or any(a >= b for a, b in zip(reps, reps[1:])):
        return False
    if len(reps) + len(block.nf) != dim or sorted(reps + list(block.nf)) != list(range(dim)):
        return False
    return all(j in block._rep_pos for vec in block.nf.values() for j in vec)


def _valid_basis(vecs: list, dim: int) -> bool:
    """The vectors are the reduced row-echelon basis every build saves, as
    `GradedSubspace.coords` needs: entries (nonzero, by `_Values`) on ambient
    columns only, leading columns strictly increasing, each leading entry 1
    and every other vector zero at that column."""
    leads = [min(v, default=-1) for v in vecs]
    return (all(lead >= 0 and v[lead] == 1 and max(v) < dim for lead, v in zip(leads, vecs))
            and all(a < b for a, b in zip(leads, leads[1:]))
            and all(j == lead or j not in v for j in leads for lead, v in zip(leads, vecs)))


def _complete(space) -> bool:
    """Whether the space has the dimensions every build has: the Schroder
    count at each odd degree for the hook (`hook_per_a`), (n+1)^(n-1) in all
    for drn and dh.  A file that drops or adds a block or piece fails."""
    if space.kind == "hook":
        return space.hilbert().per_a() == hook_per_a(space.n)
    return space.total_dim() == (space.n + 1) ** (space.n - 1)


def _read(cache_dir, kind: str, n: int, key: str, fields: tuple, record, space_type):
    """The space of the (kind, n) file, or None when the file is missing,
    unreadable or not JSON, its header differs from `_header(kind, n)`, a
    record under `key` is not one `record` accepts, two records share a
    degree, or the space is not `_complete`.

    One `json.loads` reads the file.  Its hook hands every object that has
    `fields` to `record` as soon as the object is parsed, and keeps the
    (degree, block or basis) it returns, so a record's lists are dropped
    once its block or basis exists and the file's list tree never does.
    An object `record` rejects (returns None or raises) stays the dict it
    was parsed as, so it rejects the file where a record is read, in the
    list under `key`, and nowhere else: the files that load are those a
    whole-file parse followed by the same checks would load, but for a file
    whose top-level object is itself a valid record."""
    path = cache_path(cache_dir, kind, n)
    if not path.is_file():
        return None

    def hook(pairs):
        obj = dict(pairs)
        if all(f in obj for f in fields):
            try:
                made = record(obj)
            except (KeyError, TypeError, ValueError):
                made = None
            if made is not None:
                return made
        return obj

    try:
        payload = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=hook)
    except (OSError, ValueError):  # unreadable, not UTF-8 or not JSON
        return None
    if not (isinstance(payload, dict) and all(payload.get(k) == v for k, v in _header(kind, n).items())):
        return None
    records = payload.get(key)
    # A made record is a tuple, which no JSON value is.
    if not isinstance(records, list) or not all(type(r) is tuple for r in records):
        return None
    items = dict(records)
    if len(items) != len(records):
        return None
    try:
        space = space_type(n, kind, items)
        return space if _complete(space) else None
    except (KeyError, TypeError, ValueError):
        return None


def save_quotient(cache_dir, space: QuotientSpace) -> Path:
    # A zero normal form (634,423 of 839,371 in the n = 5 hook) is written as is.
    return _save(cache_dir, space.kind, space.n, "blocks", (
        {"deg": list(deg),
         "reps": block.reps,
         "nf": [(piv, _vec_out(vec) if (vec := block.nf[piv]) else ()) for piv in sorted(block.nf)]}
        for deg, block in sorted(space.blocks.items())))


def load_quotient(cache_dir, kind: str, n: int) -> Optional[QuotientSpace]:
    values, zero = _Values(), {}

    def block(rec) -> Optional[tuple]:
        deg = TriDegree(*rec["deg"])
        # Zero normal forms share one dict, as in a build (634,423 of 839,371 in the n = 5 hook).
        nf = {int(piv): zero if vec == [] else _vec_in(vec, values) for piv, vec in rec["nf"]}
        blk = Block(n, deg, [int(r) for r in rec["reps"]], nf)
        return (deg, blk) if len(nf) == len(rec["nf"]) and _valid_block(blk) else None

    return _read(cache_dir, kind, n, "blocks", ("deg", "reps", "nf"), block, QuotientSpace)


def save_subspace(cache_dir, space: GradedSubspace) -> Path:
    return _save(cache_dir, space.kind, space.n, "pieces", (
        {"deg": list(deg), "basis": [_vec_out(v) for v in vecs]}
        for deg, vecs in sorted(space.pieces.items())))


def load_subspace(cache_dir, kind: str, n: int) -> Optional[GradedSubspace]:
    values = _Values()

    def piece(rec) -> Optional[tuple]:
        deg = TriDegree(*rec["deg"])
        vecs = [_vec_in(v, values) for v in rec["basis"]]
        return (deg, vecs) if _valid_basis(vecs, count_tridegree(n, deg)) else None

    return _read(cache_dir, kind, n, "pieces", ("deg", "basis"), piece, GradedSubspace)
