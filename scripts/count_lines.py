#!/usr/bin/env python3
"""Count the lines of each effectkit module.

Prints, per module of src/effectkit, the physical lines (as `wc -l` counts
them) and the lines holding code, then the totals.  A line holds code when
tokenize finds a token on it other than a comment, a line break, an
indentation change or a docstring, that is, a statement made of one string
literal alone.  A line that a code token shares with a comment or a
docstring counts as code.

Run: python scripts/count_lines.py
"""

import io
import os
import tokenize

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "effectkit")

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(text):
    """The numbers of the lines of Python source text that hold code."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT:
            # a logical line made of one string literal is a docstring
            if tok.type == tokenize.NEWLINE and not (
                len(statement) == 1 and statement[0].type == tokenize.STRING
            ):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            if tok.type == tokenize.NEWLINE:
                statement = []
            continue
        statement.append(tok)
    return lines


def main():
    total_physical = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            text = f.read()
        physical, code = text.count("\n"), len(code_lines(text))
        total_physical += physical
        total_code += code
        print(f"{name:<16} {physical:>6} {code:>6}")
    print(f"{'total':<16} {total_physical:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
