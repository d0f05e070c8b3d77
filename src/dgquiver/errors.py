"""The ways a call ends without a plain answer.

An exception when the answer cannot be given: InvalidInputError for bad
input (CLI exit 2) and ResourceLimitError for a path cap that was hit
(exit 3).  A check report when a check ran: passed (exit 0), or failed
with the witness that refutes it (exit 1), so no failing report is built
without one.
"""

import os

DEFAULT_PATH_CAP = 10**6


class DGQuiverError(Exception):
    """Base class for errors raised by this package."""


class InvalidInputError(DGQuiverError):
    """Malformed quivers, elements, presentations or CLI parameters."""


class ResourceLimitError(DGQuiverError):
    """A path-enumeration cap was exceeded (see DGQ_PATH_CAP)."""


def path_cap() -> int:
    """The path cap: DGQ_PATH_CAP, a positive integer, or DEFAULT_PATH_CAP
    when it is unset or empty.  Read at each call, the one setting of the
    cap; any other value of the variable is invalid input."""
    env = os.environ.get("DGQ_PATH_CAP")
    if not env:
        return DEFAULT_PATH_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise InvalidInputError(f"DGQ_PATH_CAP must be a positive integer, got {env!r}")
    return cap


def passed(check: str, **fields) -> dict:
    """The report of a check that passed, with any fields it states."""
    return {"check": check, "status": "pass", **fields}


def failed(check: str, **witness) -> dict:
    """The report of a check that failed, with the witness that refutes it."""
    return {"check": check, "status": "fail", "witness": witness}
