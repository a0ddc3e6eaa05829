"""The JSON-lines writer: one record per line, by the C encoder json.dumps runs.

dumps(record) == json.dumps(record) for every acyclic record, and a value json
rejects raises json's TypeError. It builds CPython's private _json encoder (so
the package needs CPython >= 3.10), since `import json` also loads re and enum.
markers is None, not json's {}: the one encoder is shared, {} would keep each
record whose encoding raised, and the package builds no cyclic record.
"""

from _json import encode_basestring_ascii, make_encoder


def _reject(value):
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


_encode = make_encoder(None, _reject, encode_basestring_ascii, None, ": ", ", ", False, False, True)


def dumps(record: dict) -> str:
    """The one-line JSON text of a record, keys in their order."""
    return "".join(_encode(record, 0))
