"""Exception hierarchy shared by all symba modules, and the strict integer
read that every JSON loader validates numbers with."""

import numpy as np


class SymbaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SymbaError):
    """Malformed encodings, shape mismatches, bad preconditions."""


def json_int(value, what: str) -> int:
    """`value` as an int, if it is an integer and not a bool.

    JSON numbers such as 1.9 or true are refused, not truncated by int().
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    return int(value)


class ResourceCapError(SymbaError):
    """An enumeration would exceed the configured size cap."""


class UnsupportedModulusError(InvalidInputError):
    """Operation needs a prime modulus but got a composite one."""


class EmptyWindowError(SymbaError):
    """Window dynamics shrank the domain to nothing before finishing."""


class EmbeddingCollisionError(SymbaError):
    """A candidate embedding identifies two distinct source elements.

    `first` and `second` are the colliding elements, in canonical order;
    `group` is the group they live in, which serializes them. For a
    product embedding that is the factor whose embedding collided.
    """

    def __init__(self, first, second, group):
        self.first = first
        self.second = second
        self.group = group
        super().__init__(f"embedding collision: {first!r} and {second!r}")


class NotInvertibleError(SymbaError):
    """A map that had to be injective is not; carries a collision witness."""

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or "map is not injective")


class UncertifiedInverseError(SymbaError):
    """A transported inverse does not lift back to the universe.

    The finite transport was bijective, but the rule read back from it
    failed a one-sided inverse check over the universe, so it is no inverse
    there; the automaton may have none (the 3-cell xor over Z is bijective
    on Z/5 and Z/7, yet not invertible on Z). `ca` is the candidate
    automaton; `left` and `right` are the outcomes of the two checks.
    """

    def __init__(self, ca, left, right):
        self.ca = ca
        self.left = left
        self.right = right
        super().__init__(f"transported inverse failed certification (left={left}, right={right})")
