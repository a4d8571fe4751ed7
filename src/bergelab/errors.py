"""Exception types shared across the package.

Policy: violated operation preconditions raise PreconditionUnmet (or a more
specific subclass); InternalProofFailure is reserved for states the
underlying counting arguments rule out, so it firing means a bug or a
genuine counterexample and is never swallowed.
"""


class BergelabError(Exception):
    """Base class for all package errors."""


class MalformedLine(BergelabError):
    pass


class DuplicateEdge(BergelabError):
    pass


class VertexOutOfRange(BergelabError):
    pass


class EdgeSizeMismatch(BergelabError):
    pass


class PreconditionUnmet(BergelabError):
    pass


class NotLinear(PreconditionUnmet):
    pass


class Disconnected(PreconditionUnmet):
    pass


class InvalidParameters(PreconditionUnmet):
    pass


class ClassificationFailure(BergelabError):
    """A hyperedge touching the skeleton fits no level class."""


class InternalProofFailure(BergelabError):
    """A step the counting arguments guarantee has failed; carries the step name."""

    def __init__(self, step: str, detail: str = ""):
        self.step = step
        self.detail = detail
        super().__init__(f"{step}: {detail}" if detail else step)


class VerificationFailure(BergelabError):
    pass
