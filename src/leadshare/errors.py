"""Exception taxonomy.

Three branches map onto the CLI exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4. Anything else escaping a stage is a
plain bug (exit 1).
"""


class LeadshareError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LeadshareError):
    """Invalid configuration file, key, or value."""


class DataError(LeadshareError):
    """Malformed, inconsistent, or missing input data."""


class NumericError(LeadshareError):
    """Algorithmic preconditions not met (too few points, degenerate input)."""


class RecordError(DataError):
    """A bad input line; source names the file once a reader knows it."""

    def __init__(self, line_no, field, message, source=None):
        self.line_no = line_no
        self.field = field
        self.message = message
        self.source = source
        super().__init__(line_no, field, message)

    def __str__(self):
        where = f"{self.source}: " if self.source else ""
        line = "" if self.line_no is None else f"line {self.line_no}, "
        return f"{where}{line}field {self.field!r}: {self.message}"


class MalformedRecord(RecordError):
    """Syntactically bad input line."""


class InvariantViolation(RecordError):
    """Syntactically valid record that breaks a domain invariant."""


class UnknownCountry(DataError):
    def __init__(self, country, paper_id=None, source=None):
        self.country = country
        where = f"{source}: " if source else ""
        if paper_id is not None:
            where += f"paper {paper_id!r}: "
        super().__init__(f"{where}country not in region table: {country!r}")


class TableIntegrityError(DataError):
    """Packaged static table failed checksum or structural validation."""


class DuplicatePaperId(DataError):
    def __init__(self, paper_id):
        self.paper_id = paper_id
        super().__init__(f"duplicate paper id: {paper_id!r}")


class EmptyCorpus(DataError):
    pass


class InconsistentPair(DataError):
    pass


class MissingUpstream(DataError):
    """A required upstream stage artifact does not exist."""


class HashMismatch(DataError):
    """An upstream artifact exists but no longer matches the manifest."""


class VocabularyTooSmall(NumericError):
    pass


class NonConvergence(NumericError):
    pass


class AmbiguousLabeling(NumericError):
    pass


class NoKnownVerbs(NumericError):
    pass


class TooFewExamples(NumericError):
    pass


class NoLeaders(NumericError):
    pass


class NoSupporters(NumericError):
    pass


class TooFewPoints(NumericError):
    pass


class ZeroVariance(NumericError):
    pass
