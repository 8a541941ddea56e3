"""Global validation switch.

Release mode validates input data when it is constructed (the ``make_*``
constructors).  Debug mode additionally re-checks every derived value
(``corrcat._trusted_*``), the composites of the pairing included.  The flag
is a process-wide toggle; all algebra values themselves stay immutable.
"""

from contextlib import contextmanager

_debug_validate = False


def debug_enabled() -> bool:
    return _debug_validate


@contextmanager
def debug_validation(enabled: bool = True):
    """Temporarily switch expensive re-validation on (or off)."""
    global _debug_validate
    previous = _debug_validate
    _debug_validate = bool(enabled)
    try:
        yield
    finally:
        _debug_validate = previous
