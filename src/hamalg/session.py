"""Global calculus state: space dimension, declared names, free variables.

A session fixes the number n of space dimensions (multi-index length), the
registry of declared coefficient-function names, and an interning table for
free-variable names.  One module-level session is shared by default; tests
that need isolation call reset().
"""

from __future__ import annotations

import os

from .errors import DeclarationError

_DEFAULT_FUNCTIONS = ("f", "g", "j")

#: names with fixed meaning in the text format; never usable as identifiers
RESERVED = frozenset(
    {"int", "qint", "phi", "pi", "Phi", "Pi", "delta", "delta0",
     "intdelta2", "vol", "D", "h", "i", "m"}
)


class Session:
    def __init__(self, dimension: int | None = None):
        # None: HAMALG_DIM, read and checked on first use, not at import
        self._dimension = None if dimension is None else self._check_dim(dimension)
        self.max_derivative_order = 8
        self._functions: set[str] = set(_DEFAULT_FUNCTIONS)
        self._free_names: list[str] = []
        self._free_index: dict[str, int] = {}

    @staticmethod
    def _check_dim(n: int) -> int:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"space dimension must be a positive integer, got {n!r}")
        return n

    @property
    def dimension(self) -> int:
        if self._dimension is None:
            raw = os.environ.get("HAMALG_DIM", "1")
            try:
                self._dimension = self._check_dim(int(raw))
            except ValueError:
                raise ValueError(
                    f"HAMALG_DIM must be a positive integer, got {raw!r}") from None
        return self._dimension

    @dimension.setter
    def dimension(self, n: int) -> None:
        self._dimension = self._check_dim(n)

    # -- declared coefficient functions ------------------------------------

    def declare(self, name: str) -> None:
        if not name.isidentifier() or name in RESERVED:
            raise DeclarationError(f"invalid function name {name!r}")
        self._functions.add(name)

    def functions(self) -> frozenset[str]:
        return frozenset(self._functions)

    def require_function(self, name: str) -> None:
        if name not in self._functions:
            raise DeclarationError(
                f"function {name!r} was not declared (known: {sorted(self._functions)})"
            )

    # -- free variables -----------------------------------------------------

    def intern_free(self, name: str) -> int:
        """Return the stable index of the free variable called `name`."""
        if not name.isidentifier() or name in RESERVED or name in self._functions:
            raise DeclarationError(f"invalid variable name {name!r}")
        idx = self._free_index.get(name)
        if idx is None:
            idx = len(self._free_names)
            self._free_names.append(name)
            self._free_index[name] = idx
        return idx

    def free_name(self, index: int) -> str:
        return self._free_names[index]

    def reset(self, dimension: int | None = None) -> None:
        self.__init__(dimension if dimension is not None else self._dimension)


#: the shared default session
SESSION = Session()
