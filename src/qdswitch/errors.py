"""Exception types shared across the package, and the one scalar domain check.

Each scalar's domain is declared once, on a dataclass field with domain()
or as a config key's third element.  check_value tests a float kind for
finiteness first, then its bound, and raises DomainError("duty must be in
(0, 1), got 1.0", field=...).  A config file's message adds "<file>:<line>: "
before that and " (config key <key>)" after it.
"""

import dataclasses
import math
import sys


class QdSwitchError(Exception):
    """Base class for all package errors."""


class DomainError(QdSwitchError, ValueError):
    """Input outside an operation's physical or numerical domain; field, when
    set, names the constructor argument a validated type rejected."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DegenerateFitError(DomainError):
    """Least-squares problem is rank deficient or otherwise unsolvable."""


class DegenerateTraceError(DomainError):
    """Time trace unsuitable for the requested statistic."""


class ConfigError(QdSwitchError):
    """Configuration file missing, malformed, or holding invalid values."""


class IngestError(QdSwitchError):
    """Input data file could not be parsed."""


class AdiabaticityWarning(UserWarning):
    """Drive frequency approaches the optical linewidth; quasi-static
    evaluation becomes questionable."""


_MAX = sys.float_info.max

# kind -> (closed range of the domain given its bound, rule).  Comparisons
# with NaN are False and the range ends at the largest finite float, so a
# value inside is finite; math.nextafter closes a strict bound.
_KINDS = {
    "finite": (lambda b: (-_MAX, _MAX), "be finite"),
    ">": (lambda b: (math.nextafter(b, math.inf), _MAX), "be > {0:g}"),
    ">=": (lambda b: (b, _MAX), "be >= {0:g}"),
    "()": (lambda b: (math.nextafter(b[0], math.inf), math.nextafter(b[1], -math.inf)),
           "be in ({0[0]:g}, {0[1]:g})"),
    "[]": (lambda b: b, "be in [{0[0]:g}, {0[1]:g}]"),
    "int>=": (lambda b: (b, _MAX), "be an integer >= {0:g}"),
}


def _message(label: str, value, kind: str, bound) -> str:
    rule = _KINDS[kind][1] if kind == "int>=" or math.isfinite(value) else "be finite"
    return f"{label} must {rule.format(bound)}, got {value}"


def check_value(label: str, value, kind: str, bound=None, field: str | None = None):
    """Return value if it lies in the domain (kind, bound), else raise
    DomainError("<label> must ..., got <value>", field=field)."""
    low, high = _KINDS[kind][0](bound)
    if not low <= value <= high or kind == "int>=" and value % 1:
        raise DomainError(_message(label, value, kind, bound), field=field)
    return value


def domain(kind: str, bound=None, *, label: str | None = None, default=dataclasses.MISSING):
    """Dataclass field that check_domains tests against (kind, bound); label
    names it in messages (the field name by default)."""
    return dataclasses.field(default=default, metadata={"domain": (kind, bound, label)})


# class -> (name, low, high, kind, bound, label, optional) per domain() field
_SPECS: dict[type, tuple] = {}


def check_domains(obj) -> None:
    """Test every domain() field of a dataclass instance, in field order; a
    field whose default is None also accepts None.  A float inside its
    range passes without a call; a message is built only on failure."""
    cls = type(obj)
    if cls not in _SPECS:
        _SPECS[cls] = tuple((f.name, *_KINDS[k][0](b), k, b, lab or f.name, f.default is None)
                            for f in dataclasses.fields(cls) if "domain" in f.metadata
                            for k, b, lab in [f.metadata["domain"]])
    for name, low, high, kind, bound, label, optional in _SPECS[cls]:
        value = getattr(obj, name)
        if not (optional and value is None or low <= value <= high and kind != "int>="):
            check_value(label, value, kind, bound, field=name)
