"""Exception hierarchy shared by all modules, and the file reader and
integer, string and object checks the JSON loaders share.

The CLI maps these onto exit codes: ValidationFailure -> 1,
SchemaError -> 2, BoundError -> 3.
"""

import json


class StratvalError(Exception):
    """Base class for all structured errors raised by this package."""


class SchemaError(StratvalError):
    """Malformed input data: bad JSON shape, unparsable expression, unknown id."""


class ValidationFailure(StratvalError):
    """A mathematical precondition failed (poset axioms, chart bonds, ...)."""


class ChartError(StratvalError):
    """A chart cannot evaluate the requested function (zero image, degenerate
    restriction, inconsistent divisor data)."""


class BoundError(StratvalError):
    """A configured enumeration bound would be exceeded; refused rather than
    attempted."""


def json_int(value) -> int:
    """`value` if it is a JSON integer.  `int()` would truncate 1.5 and accept
    true and "2"; raises TypeError, which each loader reports as a SchemaError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_str(value) -> str:
    """`value` if it is a JSON string; raises TypeError, which each loader
    reports as a SchemaError, where an object would later fail as a key."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def json_object(value) -> dict:
    """`value` if it is a JSON object; raises TypeError, which each loader
    reports as a SchemaError, where `.items()` would raise AttributeError."""
    if type(value) is not dict:
        raise TypeError(f"expected an object, got {value!r}")
    return value


def read_json(path: str):
    """The JSON document in the file at path.  A file that cannot be read,
    is not UTF-8 or is not JSON is a SchemaError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SchemaError(f"{path}: {e}") from None
