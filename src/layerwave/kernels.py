"""Compiled-kernel status.

Every computation runs in pure Python; there is no compiled extension.
"""


def compiled_available() -> bool:
    return False
