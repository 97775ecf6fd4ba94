"""The one JSON writer: indented text with the bytes of ``json.dumps(indent=2)``.

``json`` leaves its C encoder for a slow pure-Python one whenever ``indent``
is set. Here a container whose members are all scalars (a verdict record, a
cycle, an arc's flag list, a cache entry) goes through the C encoder in one
call, with the line break and indent folded into its item separator; only the
containers above those are laid out in Python. The text comes out in pieces,
one per member of the top two levels, so a long list is never held whole.
"""

from __future__ import annotations

import json
from functools import cache
from json.encoder import c_make_encoder, encode_basestring
from typing import Iterator

_INDENT = "  "
# members of exactly these types go to the C encoder with their container
_SCALARS = frozenset({str, int, float, bool, type(None)})
_STREAMED_LEVELS = 2  # a member deeper than this is written whole, as one piece


@cache
def _layout(level: int) -> tuple:
    """For a container at ``level``: the C encoder that writes its members one to a
    line, and the line breaks before a member and before the closing bracket."""
    inner = "\n" + _INDENT * (level + 1)
    # markers, default, string encoder, indent, key and item separators,
    # sort_keys, skipkeys, allow_nan
    encoder = c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring, None, ": ", "," + inner,
        False, False, True,
    )
    return encoder, inner, "\n" + _INDENT * level


def _key(key: object) -> str:
    """A dict key as JSON text: ``json`` writes a scalar key as its JSON text, quoted."""
    if isinstance(key, str):
        return encode_basestring(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring(_text(key, 0))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _text(value: object, level: int) -> str:
    """``value`` as JSON text, its members indented one step past ``level``."""
    if isinstance(value, str):
        return encode_basestring(value)
    encoder, inner, outer = _layout(level)
    if isinstance(value, dict):
        if not value:
            return "{}"
        if _SCALARS.issuperset(map(type, value.values())):
            body = "".join(encoder(value, 0))[1:-1]
        else:
            body = ("," + inner).join(
                [f"{_key(key)}: {_text(member, level + 1)}" for key, member in value.items()]
            )
        return f"{{{inner}{body}{outer}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _SCALARS.issuperset(map(type, value)):
            body = "".join(encoder(value, 0))[1:-1]
        else:
            body = ("," + inner).join([_text(member, level + 1) for member in value])
        return f"[{inner}{body}{outer}]"
    return "".join(encoder(value, 0))


def _chunks(value: object, level: int) -> Iterator[str]:
    """``value`` as JSON text in pieces, one per member down to ``_STREAMED_LEVELS``."""
    is_dict = isinstance(value, dict)
    members = value.values() if is_dict else value
    if not isinstance(value, (dict, list, tuple)) or _SCALARS.issuperset(map(type, members)):
        yield _text(value, level)
        return
    _, inner, outer = _layout(level)
    separator = ("{" if is_dict else "[") + inner
    for member in value.items() if is_dict else value:
        if is_dict:
            separator += _key(member[0]) + ": "
            member = member[1]
        if level + 1 < _STREAMED_LEVELS:
            yield separator
            yield from _chunks(member, level + 1)
        else:
            yield separator + _text(member, level + 1)
        separator = "," + inner
    yield outer + ("}" if is_dict else "]")


def _json_chunks(payload: object, end: str = "\n") -> Iterator[str]:
    """``payload`` as indented JSON text plus ``end``, in pieces.

    The pieces join to ``json.dumps(payload, indent=2, ensure_ascii=False) + end``.
    """
    yield from _chunks(payload, 0)
    yield end
