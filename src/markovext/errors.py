"""Exception hierarchy shared by all modules, and the integer, real and array argument checks."""
import math
import numbers
import operator


class MarkovExtError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(MarkovExtError, ValueError):
    """Malformed or inconsistent arguments (length/dimension mismatches, unsupported sizes)."""


class DomainError(MarkovExtError, ValueError):
    """A parameter lies outside the mathematical domain of a formula."""


class ConstructionError(MarkovExtError):
    """A combinatorial object (e.g. a weak design) cannot be built for the requested parameters."""


class CompositionError(MarkovExtError):
    """Extractor composition preconditions (strongness, dimensions) are violated."""


class ResourceBudgetError(MarkovExtError):
    """An exact enumeration would exceed the configured budget; oracles never fall back to sampling."""


class CertificationError(MarkovExtError):
    """A min-entropy claim cannot be certified for the given state."""


def checked_index(value, what: str) -> int:
    """`value` as an int through `operator.index`; a bool, float or string raises
    InvalidArgumentError instead of being truncated or escaping as TypeError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")


def checked_real(value, what: str, error=DomainError) -> float:
    """`value` as a finite float: a real number (an int, Fraction or numpy scalar included)
    that is not a bool. A bool, a string, a Decimal, a non-finite value and an int beyond
    the float range raise `error` instead of escaping as TypeError or OverflowError."""
    # a float skips the ABC test, which costs more than a DEOR law call (~6 to a solve)
    if type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise error(f"{what} must be a finite real number, got {value!r}")


def _numbers_only(a, kinds: str) -> bool:
    """Every element of the nested lists, tuples and ndarrays `a` is a number of a numpy
    dtype kind in `kinds`: an ndarray or numpy scalar by its dtype alone (an object array
    is not one of numbers), anything else one by one."""
    dtype = getattr(a, "dtype", None)
    if dtype is not None:
        return dtype.kind in kinds
    if isinstance(a, (list, tuple)):
        return all(_numbers_only(x, kinds) for x in a)
    number = numbers.Complex if "c" in kinds else numbers.Real
    return isinstance(a, number) and not isinstance(a, bool)


def numeric_array(a, dtype, what: str, copy: bool = True):
    """`a` as a new numpy array of `dtype` (float or complex); with copy=False, an ndarray
    that already has `dtype` is returned itself. Ragged nesting, a value beyond the float
    range, and any element that is not a number (a string, a bool) raise
    InvalidArgumentError instead of being converted."""
    import numpy as np

    if _numbers_only(a, "iufc" if dtype is complex else "iuf"):
        try:
            return (np.array if copy else np.asarray)(a, dtype=dtype)
        except (TypeError, ValueError, OverflowError):  # ragged rows, huge ints
            pass
    raise InvalidArgumentError(f"{what} must be an array of numbers")
