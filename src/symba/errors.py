"""Exception hierarchy shared by all symba modules."""


class SymbaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SymbaError):
    """Malformed encodings, shape mismatches, bad preconditions."""


class ResourceCapError(SymbaError):
    """An enumeration would exceed the configured size cap."""


class UnsupportedModulusError(InvalidInputError):
    """Operation needs a prime modulus but got a composite one."""


class UnsupportedSubgroupError(InvalidInputError):
    """Memory does not lie in a recognizable standard subgroup."""


class EmptyWindowError(SymbaError):
    """Window dynamics shrank the domain to nothing before finishing."""


class EmbeddingCollisionError(SymbaError):
    """A candidate embedding identifies two distinct source elements.

    `first` and `second` are the colliding elements, in canonical order;
    `group` is the group they live in, which serializes them. For a
    product embedding that is the factor whose embedding collided.
    """

    def __init__(self, first, second, group, message=None):
        self.first = first
        self.second = second
        self.group = group
        super().__init__(message or f"embedding collision: {first!r} and {second!r}")


class NotInvertibleError(SymbaError):
    """A map that had to be injective is not; carries a collision witness."""

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or "map is not injective")
