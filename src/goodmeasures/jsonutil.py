"""Canonical JSON: sorted keys, fixed separators, no floats, trailing newline.

Every artifact this package writes goes through ``dumps``/``write`` so that
identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def _check_no_floats(obj) -> None:
    if isinstance(obj, float):
        raise TypeError("floating point values are banned from canonical JSON")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_no_floats(k)
            _check_no_floats(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _check_no_floats(v)


def dumps(obj) -> str:
    _check_no_floats(obj)
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _reject_float(text: str):
    raise TypeError(f"inexact number {text}; write fractions as strings such as \"1/10\"")


def loads(text: str):
    return json.loads(text, parse_float=_reject_float)


def write(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def read(path: str | Path):
    return loads(Path(path).read_text(encoding="utf-8"))


def digest(obj) -> str:
    return hashlib.sha256(dumps(obj).encode("utf-8")).hexdigest()
