"""Argument guards and the n cap shared across the package.

This module imports nothing from :mod:`guhecke`, and the package root
re-exports nothing, so a module that needs only a guard or MAX_N does not
load the Laurent or root-datum code with it, nor ``cli`` the acceptance
suite, at run time as well as in the import graph.
"""

MAX_N = 15  # every --n of the CLI; selftest certifies each odd n up to it


def _require_odd(n: int) -> None:
    """ValueError unless n is an int (a bool is not), odd and at least 3."""
    if type(n) is not int or n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
