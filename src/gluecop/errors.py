"""Exception hierarchy shared across the package, and the one guard that
turns a request for an impossibly large array into a ``MemoryError``."""

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
