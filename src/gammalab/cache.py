"""Checksummed on-disk cache for recomputable values.

One JSON-lines file per kind (``d_n``, ``stirling_row``, ``constant``)
under the cache directory; every line carries a sha256 over its canonical
payload.  Corrupt or truncated lines are silently skipped so a damaged
cache degrades to recomputation, never to wrong answers.  The
cache is inert until :func:`activate` is called (the CLI does this when
``--cache-dir`` or ``GAMMALAB_CACHE`` is set).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Any, Dict, Optional

KINDS = ("d_n", "stirling_row", "constant")

_lock = threading.Lock()
_active_dir: Optional[str] = None
_loaded: Dict[str, Dict[str, Any]] = {}


def _canon(kind: str, key, value) -> str:
    return json.dumps([kind, key, value], sort_keys=True, separators=(",", ":"))


def _digest(kind: str, key, value) -> str:
    return hashlib.sha256(_canon(kind, key, value).encode()).hexdigest()


def _key_str(key) -> str:
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def _path(kind: str) -> str:
    assert _active_dir is not None
    return os.path.join(_active_dir, f"{kind}.jsonl")


def _load_kind(kind: str) -> Dict[str, Any]:
    table: Dict[str, Any] = {}
    path = _path(kind)
    if not os.path.exists(path):
        return table
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    if _digest(kind, entry["key"], entry["value"]) != entry["sha256"]:
                        continue  # corrupt: recompute rather than trust
                    table[_key_str(entry["key"])] = entry["value"]
                except (ValueError, KeyError, TypeError):
                    continue
    except OSError:
        pass
    return table


def activate(directory: str) -> None:
    global _active_dir
    with _lock:
        os.makedirs(directory, exist_ok=True)
        _active_dir = directory
        _loaded.clear()


def deactivate() -> None:
    global _active_dir
    with _lock:
        _active_dir = None
        _loaded.clear()


def is_active() -> bool:
    return _active_dir is not None


def get(kind: str, key) -> Optional[Any]:
    if _active_dir is None:
        return None
    if kind not in KINDS:
        raise ValueError(f"unknown cache kind {kind!r}")
    with _lock:
        if kind not in _loaded:
            _loaded[kind] = _load_kind(kind)
        return _loaded[kind].get(_key_str(key))


def put(kind: str, key, value) -> None:
    if _active_dir is None:
        return
    if kind not in KINDS:
        raise ValueError(f"unknown cache kind {kind!r}")
    with _lock:
        if kind not in _loaded:
            _loaded[kind] = _load_kind(kind)
        ks = _key_str(key)
        if ks in _loaded[kind]:
            return
        _loaded[kind][ks] = value
        entry = {"key": key, "value": value, "sha256": _digest(kind, key, value)}
        try:
            with open(_path(kind), "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
                fh.write("\n")
        except OSError:
            pass  # cache is best-effort; computation already succeeded


def encode_raw(x) -> list:
    """JSON-able exact encoding of a raw mpf tuple."""
    sign, man, exp, bc = x
    return [int(sign), format(int(man), "x"), int(exp), int(bc)]


def decode_raw(obj) -> tuple:
    from mpmath.libmp import from_man_exp

    sign, man_hex, exp, _bc = obj
    man = int(man_hex, 16)
    if sign:
        man = -man
    return from_man_exp(man, int(exp))
