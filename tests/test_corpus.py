"""Canonical forms pinned in the repository: brackets, products, variational
derivatives and nested brackets of symbols drawn from criterion 1's
generator, as format_expression prints them, in one dimension and in two.

The files are written by

    PYTHONPATH=src python tests/test_corpus.py

Rewrite them only for an intended change of canonical forms.
"""

from pathlib import Path

from hamalg import (SESSION, RandomSymbolGenerator, bracket, free_var,
                    multiply, vderiv)
from hamalg.parser import format_expression

CORPUS = Path(__file__).parent / "data" / "canonical_corpus.txt"
CORPUS_2D = Path(__file__).parent / "data" / "canonical_corpus_2d.txt"


def _generator():
    # criterion 1's draws (check_algebra's defaults at the suite seed)
    return RandomSymbolGenerator(42, max_grade=3, max_deriv=2, max_terms=1,
                                 max_factors=3)


def corpus_lines() -> list[str]:
    fmt = format_expression
    y = free_var("y")
    gen = _generator()
    lines = []
    for k in range(12):
        a, b = gen.symbol(), gen.symbol()
        field = ("phi", "pi")[k % 2]
        lines += [f"{{{fmt(a)}, {fmt(b)}}} = {fmt(bracket(a, b))}",
                  f"({fmt(a)}) * ({fmt(b)}) = {fmt(multiply(a, b))}",
                  f"d({fmt(a)})/d{field}(y) = {fmt(vderiv(a, field, y))}"]
    # Jacobi's outer brackets, where the final canonicalization fans out most
    gen = _generator()
    for _ in range(4):
        a, b, c = gen.symbol(), gen.symbol(), gen.symbol()
        lines.append(f"{{{fmt(a)}, {{{fmt(b)}, {fmt(c)}}}}} = "
                     f"{fmt(bracket(a, bracket(b, c)))}")
    return lines


def corpus_lines_2d() -> list[str]:
    """The same lines in two dimensions, under check_algebra's raised
    derivative bound."""
    saved = SESSION.dimension, SESSION.max_derivative_order
    SESSION.dimension = 2
    SESSION.max_derivative_order = max(saved[1], 4 * (2 + 2))
    try:
        return corpus_lines()
    finally:
        SESSION.dimension, SESSION.max_derivative_order = saved


def test_corpus_reproduces_the_pinned_canonical_forms():
    assert corpus_lines() == CORPUS.read_text().splitlines()


def test_corpus_2d_reproduces_the_pinned_canonical_forms():
    assert corpus_lines_2d() == CORPUS_2D.read_text().splitlines()


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text("\n".join(corpus_lines()) + "\n")
    CORPUS_2D.write_text("\n".join(corpus_lines_2d()) + "\n")
