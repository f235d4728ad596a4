"""Exception types shared across the package."""


class QuadtuneError(Exception):
    """A package error; the CLI exits 2 on it, and 1 on InvalidArgumentError."""


class InvalidArgumentError(QuadtuneError):
    """Bad input: a malformed or inconsistent config, or an argument out of range.

    The CLI prints it as ``config error:`` and exits 1.
    """
