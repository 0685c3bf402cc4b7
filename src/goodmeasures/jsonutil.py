"""Canonical JSON: sorted keys, fixed separators, no floats, trailing newline.

Every artifact this package writes is canonical text, so that identical
inputs always produce byte-identical files: ``dumps`` of a JSON value, or a
text assembled from the parts below ``dumps`` (``encode``, ``string``,
``array`` and ``layout``), which lay out the same separators, indentation
and key order, so that a writer such as ``GoodMeasureChain.to_text`` builds
no JSON tree.  A known canonical text goes into a larger one in one way:
as a ``Canonical`` leaf of the value, which ``dumps`` writes from its text
instead of walking the value it stands for.  ``write`` writes a text it is
given.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from json.encoder import encode_basestring as _encode_str
from pathlib import Path

_INT, _STR = frozenset([int]), frozenset([str])


class Canonical(str):
    """The canonical text ``dumps(v)`` of a JSON value v, standing in for v
    as a leaf of a larger value: ``dumps`` writes it as v's text, not as a
    string.  The only newlines of canonical text are structural (a string
    writes its own as ``\\n``), so indenting its lines by one ``replace``
    gives the bytes of the walk of v."""

    __slots__ = ()


def dumps(obj) -> str:
    """Canonical text of obj: the text of
    ``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``,
    each ``Canonical`` leaf read as the value it stands for.

    The stdlib reaches its C encoder only without ``indent``, so the same text
    is assembled here, pieces joined once.  Floats raise ``TypeError``, as in
    ``loads``, and so do dict keys that are not strings.
    """
    chunks: list[str] = []
    _encode(obj, chunks.append, "\n")
    chunks.append("\n")
    return "".join(chunks)


def _encode(o, out, nl: str) -> None:
    """Append the text of o, whose lines after the first begin with ``nl``."""
    if type(o) is str:
        out(_encode_str(o))
    elif type(o) is int:  # a position, a stage or a level
        out(int.__repr__(o))
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        inner = nl + "  "
        lead, sep = "{" + inner, "," + inner
        for k in sorted(o):
            out(lead)
            out(_encode_str(k))  # a TypeError if k is not a string
            out(": ")
            _encode(o[k], out, inner)
            lead = sep
        out(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out("[]")
            return
        if _INT.issuperset(map(type, o)):  # positions: one join, no call per member
            out(array(map(int.__repr__, o), nl))
            return
        inner = nl + "  "
        lead, sep = "[" + inner, "," + inner
        for v in o:
            out(lead)
            _encode(v, out, inner)
            lead = sep
        out(nl + "]")
    elif type(o) is Canonical:
        out(o[:-1].replace("\n", nl))
    else:
        out(_scalar(o))


def _scalar(o) -> str:
    """The text of a JSON leaf, tested in the stdlib encoder's order."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        raise TypeError(f"inexact number {o!r}; write fractions as strings such as \"1/10\"")
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# -- canonical text in parts ------------------------------------------------------
#
# Each part is the text of a JSON value as it stands inside a larger canonical
# text: its lines after the first begin with ``nl``, a newline and the
# indentation of the line the value starts on, and it has no trailing newline.
# A member of an array or object at ``nl`` is written for ``nl + "  "``.

#: The text of a JSON string, as ``dumps`` writes it.
string = _encode_str


def encode(obj, nl: str = "\n") -> str:
    """The text of the JSON value obj at nl; ``dumps(obj)`` is
    ``encode(obj) + "\\n"``."""
    chunks: list[str] = []
    _encode(obj, chunks.append, nl)
    return "".join(chunks)


def array(texts: Iterable[str], nl: str) -> str:
    """The text of a JSON array at nl whose members have the given texts, in
    one join: ``array(map(int.__repr__, positions), nl)`` for a list of ints,
    ``array(map(string, ids), nl)`` for a list of cell ids."""
    inner = nl + "  "
    body = ("," + inner).join(texts)  # no member's text is empty
    return "[" + inner + body + nl + "]" if body else "[]"


def layout(keys: Sequence[str], nl: str) -> str:
    """A ``str.format`` template of the text of a JSON object at nl with
    these keys: ``layout(keys, nl).format(*texts)``, given the text of each
    key's value in the order of keys, is the object's text, its members in
    sorted key order.  A writer fixes the template once per key set and
    indentation, and fills it once per object."""
    inner = nl + "  "
    members = [
        string(k).replace("{", "{{").replace("}", "}}") + ": {" + str(keys.index(k)) + "}"
        for k in sorted(keys)
    ]
    return "{{" + inner + ("," + inner).join(members) + nl + "}}"


def _reject_float(text: str):
    raise TypeError(f"inexact number {text}; write fractions as strings such as \"1/10\"")


#: A surrogate escape, ``\ud800`` to ``\udfff``, or an escaped backslash
#: before such letters, which only the walk of ``_lone_surrogate`` tells apart.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89abcdefABCDEF]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def loads(text: str):
    """The value of JSON text.  A float, and the ``NaN``, ``Infinity`` and
    ``-Infinity`` the stdlib parser accepts, raise ``TypeError`` wherever
    they stand, before any command reads the value.  A string with an
    unpaired surrogate escape, which no UTF-8 text can hold, raises
    ``ValueError``.  The parser joins each escaped pair into one character,
    so only a text with a surrogate escape is walked for a lone one, and a
    text is searched for such escapes only if it holds a backslash, which
    a one-character search (``memchr``) tells."""
    value = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        lone = _lone_surrogate(value)
        if lone is not None:
            raise ValueError(f"a JSON string holds the unpaired surrogate U+{ord(lone):04X}")
    return value


def _lone_surrogate(value) -> str | None:
    """The first surrogate character met in a string of value, keys included."""
    stack = [value]
    while stack:
        v = stack.pop()
        if type(v) is str:
            if m := _SURROGATE.search(v):
                return m[0]
        elif type(v) is dict:
            stack += v
            stack += v.values()
        elif type(v) is list:
            stack += v
    return None


def write(path: str | Path, text: str) -> None:
    """Write text, a canonical text such as ``dumps(obj)`` or
    ``GoodMeasureChain.to_text()``."""
    Path(path).write_text(text, encoding="utf-8")


def read(path: str | Path, texts: dict[int, tuple] | None = None):
    """The value of the JSON file at path.  With ``texts``, the file's text is
    kept there as ``texts[id(value)] = (value, text)``; the value is kept
    too, so that its id stays its own while the entry lives."""
    text = Path(path).read_text(encoding="utf-8")
    value = loads(text)
    if texts is not None:
        texts[id(value)] = (value, text)
    return value


def text_digest(text: str) -> str:
    """The sha256 of text's UTF-8 bytes, in hex: the one hash of the package."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(obj) -> str:
    """The digest of obj's canonical text, ``text_digest(dumps(obj))``."""
    return text_digest(dumps(obj))


# -- exact numbers in JSON ------------------------------------------------------


def parse_fraction(text) -> Fraction:
    """An exact fraction from a string, an int or a Fraction.

    Binary floats (a JSON ``0.1`` is not 1/10) and bools are rejected.
    """
    if isinstance(text, (float, bool)):
        raise TypeError(f"inexact number {text!r}; write fractions as strings such as \"1/10\"")
    return Fraction(text)


def parse_int(text) -> int:
    """An integer from a string or an int; floats and bools are rejected, not truncated."""
    if isinstance(text, (float, bool)):
        raise TypeError(f"inexact number {text!r} where an integer is required")
    return int(text)


_JSON_TYPES = {
    dict: "a JSON object",
    list: "a JSON array",
    str: "a JSON string",
    bool: "a JSON boolean",
    int: "a JSON number",
    float: "a JSON number",
    type(None): "JSON null",
}


def json_type(value) -> str:
    """The JSON type of a parsed value, as a one-line message names it."""
    return _JSON_TYPES.get(type(value), f"a Python {type(value).__name__}")


class Place:
    """A place name built only when a refusal prints it: ``str(place)`` is
    ``name()``.  Every parser here takes one for ``what``, which it formats
    only in its refusal line, so a loop may name each of its items without
    formatting a name per item."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __str__(self) -> str:
        return self.name()


def parse_object(value, what: str) -> Mapping:
    """value, if it is a JSON object; otherwise a one-line ValueError naming
    the place and the JSON type found there, never the value itself, which
    may be as large as a whole level's map."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} is {json_type(value)}, not an object")
    return value


def parse_array(value, what: str) -> list:
    """value, if it is a JSON array; otherwise a one-line ValueError naming
    the place and the JSON type found there, as ``parse_object`` does."""
    if not isinstance(value, list):
        raise ValueError(f"{what} is {json_type(value)}, not an array")
    return value


def parse_ids(value, what: str):
    """value, if each of its members is a JSON string, such as a cell id;
    otherwise a one-line ValueError naming the place and the JSON type of
    the first other member."""
    if not _STR.issuperset(map(type, value)):
        bad = next(v for v in value if type(v) is not str)
        raise ValueError(f"{what} holds {json_type(bad)}, not a cell id")
    return value


def parse_positions(value, n: int, m: int, what: str) -> list[int]:
    """value, if it is a JSON array of n positions, each an integer in
    range(m); otherwise a one-line ValueError naming the place and what is
    wrong there.  A boolean is not a position, although Python's ``True``
    indexes a list."""
    parse_array(value, what)
    if len(value) != n:
        raise ValueError(f"{what} has {len(value)} positions, expected {n}")
    if not _INT.issuperset(map(type, value)):
        bad = next(p for p in value if type(p) is not int)
        raise ValueError(f"{what} holds {json_type(bad)}, not a position")
    if value and (min(value) < 0 or max(value) >= m):
        bad = next(p for p in value if not 0 <= p < m)
        raise ValueError(f"{what} holds position {bad}, not in 0..{m - 1}")
    return value


_RATIO_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_ratio(text) -> tuple[int, int]:
    """``parse_fraction(text)`` as a numerator and denominator in lowest terms.

    Text of the form n or n/d is read straight into integers; anything else
    goes through ``Fraction``, which accepts and rejects the same inputs.
    """
    if isinstance(text, str):
        m = _RATIO_TEXT.fullmatch(text)
        d = int(m[2] or 1) if m else 0
        if d:
            n = int(m[1])
            g = math.gcd(n, d)
            return n // g, d // g
    q = parse_fraction(text)
    return q.numerator, q.denominator


def format_ratio(n: int, d: int) -> str:
    """n/d in lowest terms as "n" or "n/d", for d > 0."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"
