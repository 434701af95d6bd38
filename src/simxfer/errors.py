"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: SpecError -> 1, DataError -> 2,
ShapeError / ContractError / NumericError -> 3.
"""


class SimxferError(Exception):
    """Base class for all package errors."""


class ShapeError(SimxferError):
    """Operands do not conform to an operation's shape rule."""

    def __init__(self, op: str, *shapes, detail: str = ""):
        msg = f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ContractError(SimxferError):
    """A caller violated an operation's precondition."""


class DataError(SimxferError):
    """A data file is missing, malformed beyond recovery, or empty."""


class NumericError(SimxferError):
    """A computation produced a non-finite or degenerate result."""


class SpecError(SimxferError):
    """An experiment spec file is invalid or inconsistent."""
