"""Reference s-expression reader: a token list, then grouping.

Independent of certkernel.frontend.Lexemes on purpose; the differential
tests in test_frontend.py compare the two, and the readers built on each
(see naive_term.py), on the corpus and on seeded character edits.  It
walks the text one character at a time into a list of tokens, brackets
included, and then groups that list into Token and SList trees, so every
error it reports in the first pass (an unexpected character) wins over
every error of the second (an unbalanced or a missing closing bracket).
"""

from __future__ import annotations

from dataclasses import dataclass

from certkernel.errors import ParseError


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    line: int
    col: int


@dataclass(slots=True)
class SList:
    items: list
    bracket: str
    line: int
    col: int


_SYMBOL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "~!@$%^&*_-+=<>.?/#")
_CLOSING = {"(": ")", "{": "}"}


def naive_tokenize(text: str, first_line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = first_line, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "(){}":
            tokens.append(Token(ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] in _SYMBOL_CHARS:
                i += 1
                col += 1
            if i == start:
                raise ParseError(f"unexpected character {ch!r}", line, col)
            tokens.append(Token(text[start:i], line, start_col))
    return tokens


def naive_read_sexprs(text: str, first_line: int = 1) -> list:
    tokens = naive_tokenize(text, first_line)
    items: list = []
    open_lists: list[tuple[list, Token]] = []  # (enclosing items, opening token)
    for t in tokens:
        if t.text in _CLOSING:
            open_lists.append((items, t))
            items = []
        elif t.text in (")", "}"):
            if not open_lists or _CLOSING[open_lists[-1][1].text] != t.text:
                raise ParseError(f"unbalanced {t.text!r}", t.line, t.col)
            outer, opener = open_lists.pop()
            outer.append(SList(items, opener.text, opener.line, opener.col))
            items = outer
        else:
            items.append(t)
    if open_lists:
        last = tokens[-1]
        raise ParseError(f"missing closing {_CLOSING[open_lists[-1][1].text]!r}",
                         last.line, last.col)
    return items
