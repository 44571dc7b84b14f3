"""Shared exception type and argument conversion."""


class DomainError(ValueError):
    """An argument fell outside the stated domain of an operation."""


def to_float(x) -> float:
    """float(x), with a number beyond the double range as +-inf, outside every domain."""
    try:
        return float(x)
    except OverflowError:
        return float("inf") if x > 0 else float("-inf")
