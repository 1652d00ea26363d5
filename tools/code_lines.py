"""Count the code lines of Python files: the lines that hold a token other
than a comment or a docstring, so blank lines, comments and docstrings are
left out.  A docstring here is any statement that is a string literal
alone.  Prints one count per file and the total, as ``wc -l`` does.

    python3 tools/code_lines.py src/totpos/*.py

Standard library only (``tokenize``).
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with tokenize.open(path) as source:
        for token in tokenize.generate_tokens(source.readline):
            if token.type not in LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    counts = [(code_lines(Path(name)), name) for name in argv]
    total = sum(count for count, _ in counts)
    width = len(str(total))
    for count, name in counts:
        print(f"{count:>{width}} {name}")
    print(f"{total:>{width}} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
