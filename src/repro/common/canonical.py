"""The one canonical JSON encoding: every CRC input and byte-identity form."""

import json


def canonical_json(obj) -> bytes:
    """Sorted keys, compact separators, UTF-8.

    ``json.dumps`` with sorted keys and fixed separators is stable across
    dump/parse round-trips (Python floats serialize to their shortest
    round-trip repr), so a CRC over these bytes can be recomputed from a
    parsed envelope.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
