"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class FormatError(ValueError):
    """A tensor file is malformed, truncated, or otherwise unreadable."""


class DegenerateBatchError(ValueError):
    """Batch statistics were requested over fewer than two samples."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, step: int):
        self.epoch = epoch
        self.step = step
        super().__init__(f"non-finite loss at epoch {epoch}, step {step}")


class SearchDivergedError(RuntimeError):
    """A search has no result to report: every objective evaluation, or the
    baseline its improvement is measured against, was non-finite."""
