"""The error class of inputs that cannot be used."""


class DataError(ValueError):
    """A corpus, program, vocabulary, checkpoint or query that cannot be
    used; the command line ends its run with exit code 2."""
