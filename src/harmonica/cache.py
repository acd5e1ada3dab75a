"""On-disk cache for built spaces: one JSON file per (n, space kind).

Each file carries a versioned header (format version, n, monomial order
identifier) followed by the per-degree data in exact rational text encoding.
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
from typing import Optional

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


def _atomic_write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _vec_out(vec: dict) -> list:
    return [[int(j), str(Fraction(v))] for j, v in sorted(vec.items())]


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


def save_quotient(cache_dir, space: QuotientSpace) -> Path:
    payload = _header(space.kind, space.n)
    payload["blocks"] = [
        {
            "deg": list(deg),
            "reps": list(block.reps),
            "nf": [[int(piv), _vec_out(vec)] for piv, vec in sorted(block.nf.items())],
        }
        for deg, block in sorted(space.blocks.items())
    ]
    path = cache_path(cache_dir, space.kind, space.n)
    _atomic_write(path, payload)
    return path


def _read(cache_dir, kind: str, n: int) -> Optional[dict]:
    """The parsed file of (kind, n), or None when it is missing, unreadable
    or its header differs from `_header(kind, n)`."""
    path = cache_path(cache_dir, kind, n)
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(payload, dict) and all(payload.get(k) == v for k, v in _header(kind, n).items()):
        return payload
    return None


def load_quotient(cache_dir, kind: str, n: int) -> Optional[QuotientSpace]:
    payload = _read(cache_dir, kind, n)
    if payload is None:
        return None
    try:
        blocks, values, zero = {}, _Values(), {}
        for rec in payload["blocks"]:
            deg = TriDegree(*rec["deg"])
            # Zero normal forms share one dict, as in a build (634,423 of 839,371 in the n = 5 hook).
            nf = {int(piv): zero if vec == [] else _vec_in(vec, values) for piv, vec in rec["nf"]}
            block = Block(n, deg, [int(r) for r in rec["reps"]], nf)
            if deg in blocks or len(nf) != len(rec["nf"]) or not _valid_block(block):
                return None
            blocks[deg] = block
        space = QuotientSpace(n, kind, blocks)
        return space if _complete(space) else None
    except (KeyError, TypeError, ValueError):
        return None


def save_subspace(cache_dir, space: GradedSubspace) -> Path:
    payload = _header(space.kind, space.n)
    payload["pieces"] = [
        {"deg": list(deg), "basis": [_vec_out(v) for v in vecs]}
        for deg, vecs in sorted(space.pieces.items())
    ]
    path = cache_path(cache_dir, space.kind, space.n)
    _atomic_write(path, payload)
    return path


def load_subspace(cache_dir, kind: str, n: int) -> Optional[GradedSubspace]:
    payload = _read(cache_dir, kind, n)
    if payload is None:
        return None
    try:
        pieces, values = {}, _Values()
        for rec in payload["pieces"]:
            deg = TriDegree(*rec["deg"])
            vecs = [_vec_in(v, values) for v in rec["basis"]]
            if deg in pieces or not _valid_basis(vecs, count_tridegree(n, deg)):
                return None
            pieces[deg] = vecs
        space = GradedSubspace(n, kind, pieces)
        return space if _complete(space) else None
    except (KeyError, TypeError, ValueError):
        return None
