"""The cache serializer as it was before saves streamed one record at a time,
kept only as a test oracle.

`payload` builds the whole file as one dict, with every value re-wrapped in
`Fraction` and every normal form, zero ones included, listed through
`_vec_out`; `dumps` is the one `json.dumps` of it that a save wrote.
`test_cache.py` holds `cache.save_quotient` and `cache.save_subspace` to
these bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from harmonica.cache import _header
from harmonica.spaces import GradedSubspace


def _vec_out(vec: dict) -> list:
    return [[int(j), str(Fraction(v))] for j, v in sorted(vec.items())]


def payload(space) -> dict:
    out = _header(space.kind, space.n)
    if isinstance(space, GradedSubspace):
        out["pieces"] = [
            {"deg": list(deg), "basis": [_vec_out(v) for v in vecs]}
            for deg, vecs in sorted(space.pieces.items())
        ]
    else:
        out["blocks"] = [
            {
                "deg": list(deg),
                "reps": list(block.reps),
                "nf": [[int(piv), _vec_out(vec)] for piv, vec in sorted(block.nf.items())],
            }
            for deg, block in sorted(space.blocks.items())
        ]
    return out


def dumps(space) -> str:
    return json.dumps(payload(space), sort_keys=True, separators=(",", ":"))
