"""Reference lexer: the one-regex ``findall`` lexer that
``certkernel.frontend.Lexemes`` replaced.

``Lexemes`` now cuts a text with ``str.split`` once comments are removed
and stray characters are ruled out.  This is the lexer it replaced, kept
verbatim but for its name: one ``findall`` yields symbols, brackets and
stray characters, skipping blanks and ``;`` comments, and one pass records
each opening bracket's closer.  ``test_frontend.py`` compares the two on
seeded texts: the same ``words`` and ``close``, or the same error type,
message, line and column.
"""

from __future__ import annotations

import re
from itertools import islice

from certkernel.errors import ParseError

_SYM = re.escape("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
                 "~!@$%^&*_-+=<>.?/#")
_SKIP = r"[ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*"
_LEADING = re.compile(_SKIP)
_LEXEME = re.compile(rf"([{_SYM}]+|[^ \t\r\n;]){_SKIP}")
_STRAY = re.compile(rf"[^{_SYM}(){{}}]")
_CLOSING = {"(": ")", "{": "}"}
_OPENING = frozenset("({")
_BRACKETS = frozenset("(){}")


class FindallLexemes:
    __slots__ = ("words", "close", "text", "first_line")

    def __init__(self, text: str, first_line: int = 1):
        self.text, self.first_line = text, first_line
        self.words = words = _LEXEME.findall(text, _LEADING.match(text).end())
        if stray := _STRAY.search("".join(words)):  # a stray lexeme is one character
            raise self.error(words.index(stray[0]), f"unexpected character {stray[0]!r}")
        self.close = close = list(range(len(words)))
        opened: list[int] = []
        for k, word in enumerate(words):
            if word in _OPENING:
                opened.append(k)
            elif word in _BRACKETS:
                if not opened or _CLOSING[words[opened[-1]]] != word:
                    raise self.error(k, f"unbalanced {word!r}")
                close[opened.pop()] = k
        if opened:
            raise self.error(len(words) - 1, f"missing closing {_CLOSING[words[opened[-1]]]!r}")

    def pos(self, k: int | None) -> tuple[int, int]:
        if k is None:
            return self.first_line, 1
        text = self.text
        at = next(islice(_LEXEME.finditer(text, _LEADING.match(text).end()), k, None)).start()
        return self.first_line + text.count("\n", 0, at), at - text.rfind("\n", 0, at)

    def error(self, k: int | None, message: str, cls=ParseError) -> ParseError:
        return cls(message, *self.pos(k))
