#!/usr/bin/env python3
"""Count the code lines of Python files: no comments, docstrings or blank lines.

Usage: python scripts/code_lines.py FILE [FILE ...]

Prints the total, and with more than one file each file's count first.
A line counts when a token other than a comment, a docstring or a line
break lies on it; a token that spans lines, such as a multi-line string
that is not a docstring, counts every line it spans.  A docstring is a
string that makes up a whole statement on its own, where Python would
store it as ``__doc__`` and wherever else it is written.  ``tokenize``
reads the file, so a string that holds ``#`` or a blank line is not
mistaken for a comment or a gap.
"""

from __future__ import annotations

import io
import sys
import tokenize

_GAPS = {tokenize.COMMENT, tokenize.NL}
_LAYOUT = _GAPS | {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                   tokenize.ENCODING, tokenize.ENDMARKER}
# the tokens after which a statement starts
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def count_code_lines(source: str) -> int:
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines: set[int] = set()
    previous = tokenize.ENCODING  # the type of the last token that is not a gap
    for at, token in enumerate(tokens):
        if token.type in _LAYOUT:
            if token.type not in _GAPS:
                previous = token.type
            continue
        docstring = False
        if token.type == tokenize.STRING and previous in _STATEMENT_START:
            after = at + 1  # the stream ends with ENDMARKER, which is no gap
            while tokens[after].type in _GAPS:
                after += 1
            docstring = tokens[after].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        previous = token.type
        if not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python scripts/code_lines.py FILE [FILE ...]", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            count = count_code_lines(handle.read())
        if len(paths) > 1:
            print(f"{count:6d}  {path}")
        total += count
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
