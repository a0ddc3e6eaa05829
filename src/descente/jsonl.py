"""The JSON-lines writer: one flat record per line, without loading json.

For a dict of str keys and str, int, float, bool or None values, dumps
returns exactly what json.dumps returns: ASCII only, with the short escapes
for quote, backslash, \\b, \\f, \\n, \\r and \\t, \\u00XX for the other C0
controls and DEL, \\uXXXX for every other non-ASCII character (a surrogate
pair above U+FFFF), int.__repr__ and float.__repr__.
"""

_SHORT = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _escape(c: str) -> str:
    n = ord(c)
    if c in _SHORT:
        return _SHORT[c]
    if 0x20 <= n < 0x7F:
        return c
    if n > 0xFFFF:
        n -= 0x10000
        return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
    return f"\\u{n:04x}"


def _string(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(map(_escape, s)) + '"'


def _value(v) -> str:
    if v is None:
        return "null"
    if v is True or v is False:
        return "true" if v else "false"
    if isinstance(v, str):
        return _string(v)
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        r = float.__repr__(v)
        return _NON_FINITE.get(r, r)
    raise TypeError(f"a JSONL record holds no {type(v).__name__}")


def dumps(record: dict) -> str:
    """The one-line JSON text of a flat record, keys in their order."""
    return "{" + ", ".join(f"{_string(k)}: {_value(v)}" for k, v in record.items()) + "}"
