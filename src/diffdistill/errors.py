"""Exception types shared across the library."""

import copyreg


class DiffDistillError(Exception):
    """Base class for all library errors.

    Pickles as its message plus attributes, not its __init__ arguments, so
    subclasses with their own __init__ still cross a process boundary.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ZeroNormRow(DiffDistillError):
    """A row of a raw embedding matrix has (near-)zero Euclidean norm."""

    def __init__(self, row: int, norm: float = 0.0):
        super().__init__(f"row {row} has norm {norm:.3e}, cannot normalize")
        self.row = row
        self.norm = norm


class DegenerateGraph(DiffDistillError):
    """An affinity graph has nonpositive node degrees where positive ones are required."""

    def __init__(self, rows, message: str | None = None):
        rows = tuple(int(r) for r in rows)
        super().__init__(message or f"degenerate affinity graph: rows {rows} have no positive degree")
        self.rows = rows


class SingularSystem(DiffDistillError):
    """The diffusion linear system (I - omega*S) could not be solved."""


class NotConverged(DiffDistillError):
    """Iterative diffusion hit its iteration cap; carries the best iterate."""

    def __init__(self, result, tol: float):
        super().__init__(
            f"diffusion did not reach tol={tol:.3e} within {result.iterations} iterations"
        )
        self.result = result


class InsufficientClasses(DiffDistillError):
    """Too few classes with at least two samples to assemble a batch."""


class NoValidPairs(DiffDistillError):
    """A batch contains no sample pairs, so the contrastive loss is undefined."""


class KTooLarge(DiffDistillError):
    """A recall cutoff K exceeds the available neighbor pool."""


class UndefinedDensity(DiffDistillError):
    """Embedding-space density needs >= 2 classes and one class with >= 2 samples."""


class RankDeficient(DiffDistillError):
    """The retained singular spectrum is numerically zero."""
