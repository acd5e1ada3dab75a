"""Every function in `harmonica` is reached by some command, or is on an
allowlist that says why it stays.

The CLI runs in this process, as from a cold start (registry and every
`lru_cache` cleared), under a `sys.setprofile` hook that records each code
object called:
- every suite at n = 2 and 3, one at a time, and `verify --n 2 --suite all`;
- `export` as json and as csv, at n = 2 and 3, and once with `--dict`;
- `compute` of every kind at n = 2 and 3;
- `compute` of the cached kinds cold and then warm with `--cache-dir`;
- one refusal, `compute` past the default cap.

A function defined in `src/harmonica` and never called is code no command
reaches.  Delete it, or name it in ALLOWLIST with its reason.  An allowlisted
name that a command does reach must leave the list, so the list stays the
set of unreached names.  Adding n = 4 (its suites, exports and cached
kinds; its ideal kinds do not finish) reaches the same set.  Code run only
in the workers of `--suite all` is reached by the suites run one at a time.
"""

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import harmonica
from harmonica import cli, spaces, verify
from harmonica.structure import GradingDictionary

HARNESS = "a `perfbench/tracing.py` target, which `tests/test_bench_hooks.py` requires to exist"
CONSTRUCTOR = "a constructor tests build polynomials with"
DUNDER = "a dunder of Python's data model (equality, hashing, repr, indexing) that tests use"

ALLOWLIST = {
    "superpoly.act": HARNESS,
    "superpoly.alt": HARNESS,
    "superpoly.perm_sign": HARNESS + "; called by `alt`",
    "superpoly._sort_sign": HARNESS + "; called by `act`",
    "superpoly.pairing": HARNESS,
    "linalg.membership": HARNESS,
    "spaces.clear_registry": "the reset that `perfbench/workloads.py` and the tests call between builds",
    "superpoly.Polynomial.zero": CONSTRUCTOR + "; called by `alt`",
    "superpoly.Polynomial.scale": CONSTRUCTOR + "; called by `alt`",
    "superpoly.Polynomial.odd_var": CONSTRUCTOR,
    "dyck.DyckPath.__eq__": DUNDER,
    "dyck.DyckPath.__hash__": DUNDER,
    "dyck.DyckPath.__repr__": DUNDER,
    "linalg.SparseMatrix.__hash__": DUNDER,
    "linalg.SparseMatrix.__repr__": DUNDER,
    "spaces.GradedSubspace.__repr__": DUNDER,
    "spaces.HilbertSeries.__getitem__": DUNDER,
    "spaces.HilbertSeries.__hash__": DUNDER,
    "spaces.HilbertSeries.__repr__": DUNDER,
    "spaces.QuotientSpace.__repr__": DUNDER,
    "superpoly.DiffOperator.__repr__": DUNDER,
    "superpoly.Polynomial.__eq__": DUNDER,
    "superpoly.Polynomial.__hash__": DUNDER,
    "superpoly.Polynomial.__repr__": DUNDER,
}

SRC = str(Path(harmonica.__file__).resolve().parent)


def _defined_functions():
    """'module.name' or 'module.Class.name' -> code object, for every
    function, method and property getter whose code is in `src/harmonica`,
    seen through `lru_cache`, classmethod and staticmethod wrappers."""
    out = {}
    for info in pkgutil.iter_modules(harmonica.__path__):
        mod = importlib.import_module(f"harmonica.{info.name}")
        members = []
        for name, obj in vars(mod).items():
            if not isinstance(obj, type):
                members.append((f"{info.name}.{name}", getattr(obj, "__wrapped__", obj)))
            elif obj.__module__ == mod.__name__:
                members += [(f"{info.name}.{name}.{attr}",
                             m.fget if isinstance(m, property) else getattr(m, "__func__", m))
                            for attr, m in vars(obj).items()]
        for name, func in members:
            code = getattr(func, "__code__", None)
            if code is not None and code.co_filename.startswith(SRC) and func.__module__ == mod.__name__:
                out[name] = code
    return out


def _cold_start():
    spaces.clear_registry()
    for info in pkgutil.iter_modules(harmonica.__path__):
        for obj in vars(importlib.import_module(f"harmonica.{info.name}")).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _commands(tmp_path):
    out = str(tmp_path / "out")
    dict_path = tmp_path / "dict.json"
    dict_path.write_text(json.dumps(GradingDictionary.default_for(3).to_mapping()))
    for n in (2, 3):
        for suite in verify.SUITES:
            if n in verify._SUITE_DOMAINS.get(suite, (n,)):
                yield ["verify", "--n", str(n), "--suite", suite, "--out", out], 0
        for fmt in ("json", "csv"):
            yield ["export", "--n", str(n), "--format", fmt, "--out", out], 0
        for kind in cli.SPACE_KINDS:
            yield ["compute", "--n", str(n), "--space", kind, "--out", out], 0
    yield ["verify", "--n", "2", "--suite", "all", "--out", out], 0
    yield ["export", "--n", "3", "--dict", str(dict_path), "--out", out], 0
    cache = str(tmp_path / "cache")
    for _ in ("cold", "warm"):
        _cold_start()
        for kind in ("drn", "drn-sign", "dh", "dh-sign", "hook"):
            yield ["compute", "--n", "3", "--space", kind, "--cache-dir", cache, "--out", out], 0
        yield ["export", "--n", "3", "--cache-dir", cache, "--out", out], 0
    yield ["compute", "--n", "5", "--space", "drn", "--out", out], 3


def test_every_function_is_reached_or_allowlisted(tmp_path):
    defined = _defined_functions()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    _cold_start()
    wrong = []
    try:
        for argv, expected in _commands(tmp_path):
            sys.setprofile(record)  # only while a command runs
            try:
                code = cli.main(argv)
            finally:
                sys.setprofile(None)
            if code != expected:
                wrong.append((argv, code))
    finally:
        _cold_start()
    assert wrong == []
    unreached = {name for name, code in defined.items() if code not in called}
    assert unreached - set(ALLOWLIST) == set(), "no command reaches these; delete them or allowlist them"
    assert set(ALLOWLIST) - unreached == set(), "a command reaches these; take them off the allowlist"
