"""Exception hierarchy shared across the package, the one guard that turns
a request for an impossibly large array into a ``MemoryError``, the one
range test of the argument checks, and the one shape of every evaluation."""

import numpy as np

#: the most values one array may be asked for: 2**50 float64 values are
#: 8 PiB, beyond any machine's memory, and far larger counts make numpy
#: raise ValueError where it would otherwise raise MemoryError
MAX_ARRAY_SIZE = 2 ** 50


class GluecopError(Exception):
    """Base class for all package errors."""


class ParameterError(GluecopError):
    """A copula family parameter is outside its admissible range."""


class DomainError(GluecopError):
    """An input lies outside the domain of the operation (unit square, support)."""


class DataError(GluecopError):
    """Input data is malformed or insufficient (too few points, NaNs, bad CSV)."""


class NumericalError(GluecopError):
    """A numerical routine failed to converge or lost accuracy beyond tolerance."""


def check_array_size(name: str, n: int) -> None:
    """``MemoryError`` if ``n`` values (the argument ``name``) exceed
    ``MAX_ARRAY_SIZE``; smaller requests are left to numpy's allocator."""
    if n > MAX_ARRAY_SIZE:
        raise MemoryError(f"{name} = {n} is more than the {MAX_ARRAY_SIZE} "
                          "values an array may hold")


def out_of_range(a, lo: float, hi: float) -> bool:
    """True when the array ``a`` holds a value outside [lo, hi] or a NaN.

    A NaN is rejected with the values out of range: it compares false with
    everything, so it would pass through a bisection or an interpolation
    and come out as a number that means nothing.  Two reductions do the
    whole test, since ``min`` and ``max`` propagate a NaN and a NaN fails
    both comparisons; an empty array holds nothing out of range."""
    return bool(a.size) and not (a.min() >= lo and a.max() <= hi)


def on_arrays(f, *args):
    """f on ``args`` as float arrays; on scalars alone, f on 1-element arrays
    and its value as a float, so that a scalar gets the bits of the array
    call (numpy can round a 0-d ``pow`` differently in the last bit)."""
    arrays = [np.asarray(a, dtype=float) for a in args]
    if any(a.ndim for a in arrays):
        return f(*arrays)
    return float(f(*(a.reshape(1) for a in arrays))[0])
