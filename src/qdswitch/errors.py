"""Exception types shared across the package, and the one domain check.

Each scalar's domain is declared once, on a dataclass field with domain()
or as a config key's third element.  check_value tests a float kind for
finiteness first, then its bound, and raises DomainError("duty must be in
(0, 1), got 1.0", field=...).  config.parse_config names the key: it adds
" (config key <key>)" after the message, and "<file>:<line>: " before it for
a key checked as its line is read.

An array's rules, in domain("array", rules) or check_array, run in order:
an int n (1-D, n values or more), a scalar (kind, bound) for every value,
or "increasing", "uniform" or "distinct" along the axis.  The message names
the first bad value: "intensities must be >= 0, got -1.0".
"""

import dataclasses
import math
import sys

import numpy as np


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


BLOCK_SAMPLES = 8192  # values per step of an array check


def _uniform_steps(b, a):
    """Steps of block b within np.isclose(rtol=1e-9, atol=0) of a's first step.
    An overflowing step is bad; the other rules only compare, which raises no
    floating-point warning, NaN included."""
    with np.errstate(over="ignore", invalid="ignore"):
        return abs(b[1:] - b[:-1] - (a[1] - a[0])) <= 1e-9 * abs(a[1] - a[0])


# axis rule -> (rule, good steps of a block led by the value before it); distinct
# sorts, as np.unique imports numpy.ma.
_AXES = {
    "increasing": ("be strictly increasing", lambda b, a: b[1:] > b[:-1]),
    "uniform": ("be uniformly sampled", _uniform_steps),
    "distinct": ("be distinct", lambda b, a: b[1:] != b[:-1]),
}


def check_array(label: str, values, rules, field: str | None = None):
    """Return values as float64 if they meet every rule, in order, else raise
    DomainError("<label> must ..., got <first bad value>", field=field)."""
    array = np.asarray(values, dtype=float)
    for rule in rules:
        if isinstance(rule, int):
            if array.ndim != 1 or array.size < rule:
                raise DomainError(f"{label} must be 1-D with >= {rule} values, "
                                  f"got shape {array.shape}", field=field)
            continue
        if rule in _AXES:
            text, good = _AXES[rule]
            walked, back = np.sort(array, axis=None) if rule == "distinct" else array.ravel(), 1
        else:
            kind, bound = (*rule, None)[:2]
            low, high = _KINDS[kind][0](bound)
            walked, back, good = array.ravel(), 0, lambda b, a: (low <= b) & (b <= high)
        # Each block of BLOCK_SAMPLES values reaches back one more for a step.
        for start in range(back, walked.size, BLOCK_SAMPLES):
            block = walked[start - back:start + BLOCK_SAMPLES]
            ok = good(block, walked)
            if not ok.all():
                value = float(block[back + ok.argmin()])
                if rule not in _AXES:
                    check_value(label, value, kind, bound, field=field)  # raises
                raise DomainError(f"{label} must {text}, got {value}", field=field)
    return array


def domain(kind: str, bound=None, *, label: str | None = None, default=dataclasses.MISSING):
    """Dataclass field that check_domains tests against (kind, bound), or against
    check_array's rules if kind is "array"; label names it (the field name by default)."""
    return dataclasses.field(default=default, metadata={"domain": (kind, bound, label)})


# class -> (name, low, high, kind, bound, label, optional) per domain() field
_SPECS: dict[type, tuple] = {}


def check_domains(obj) -> None:
    """Test every domain() field of a dataclass instance, in field order; a
    field whose default is None also accepts None.  A float inside its
    range passes without a call; a message is built only on failure.  An
    array field is stored checked as float64, in the first one's shape."""
    cls = type(obj)
    if cls not in _SPECS:
        _SPECS[cls] = tuple((f.name, *(_KINDS[k][0](b) if k in _KINDS else (None, None)), k, b,
                             lab or f.name, f.default is None)
                            for f in dataclasses.fields(cls) if "domain" in f.metadata
                            for k, b, lab in [f.metadata["domain"]])
    first = None
    for name, low, high, kind, bound, label, optional in _SPECS[cls]:
        value = getattr(obj, name)
        if kind == "array":
            array = check_array(label, value, bound, field=name)
            first = first or (label, array.shape)
            if array.shape != first[1]:
                raise DomainError(f"{label} must have shape {first[1]} like {first[0]}, "
                                  f"got shape {array.shape}", field=name)
            object.__setattr__(obj, name, array)
        elif not (optional and value is None or low <= value <= high and kind != "int>="):
            check_value(label, value, kind, bound, field=name)
