"""Exception types shared across the package."""


class QuadtuneError(Exception):
    """A package error; the CLI exits 2 on it, and 1 on the two subclasses below."""


class ConfigError(QuadtuneError):
    """Malformed or inconsistent run configuration."""


class InvalidArgumentError(QuadtuneError):
    """A precondition on an argument was violated."""
