"""The workspace memo of one n, for tests that read or seed what was built."""

from harmonica import spaces


def memo(n: int) -> dict:
    """n's workspace memo, by key: ("space", kind), ("even", a, b),
    ("tower",), ("basis", deg), ... (the key table in `harmonica.spaces`)."""
    return spaces._WORKSPACES[n]._memo
