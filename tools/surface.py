#!/usr/bin/env python3
"""Print the size of a source tree's public surface.

    python3 tools/surface.py            # the repository's src/
    python3 tools/surface.py REV

REV is as ``tools/revs.py`` defines it, but a directory may hold any packages.
Prints three ``name value`` lines:

- ``lines``: every line of every ``*.py`` file under the REV's source;
- ``code``: the lines that hold a token other than a comment, a blank
  line or a docstring.  A docstring is a string literal that is a whole
  statement; a line that only continues a multi-line statement, such as a
  closing bracket, counts as code;
- ``exports``: for each package directly under it (a directory with an
  ``__init__.py``), the length of its ``__all__`` after importing it, as
  ``exports <package> <count>``.
"""

from __future__ import annotations

import io
import sys
import tempfile
import tokenize
from pathlib import Path

from revs import ROOT, load, source

_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_SKIP = _STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment, a blank
    line or a docstring."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for k, tok in enumerate(tokens):
        if tok.type in _SKIP:
            continue
        if (tok.type == tokenize.STRING
                and (k == 0 or tokens[k - 1].type in _STATEMENT_START)
                and k + 1 < len(tokens) and tokens[k + 1].type == tokenize.NEWLINE):
            continue  # a string that is a whole statement: a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def measure(src: Path) -> tuple[int, int, dict[str, int]]:
    """(lines, code lines, {package: len(__all__)}) for ``src``."""
    lines = code = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        code += code_lines(text)
    exports = {}
    for init in sorted(src.glob("*/__init__.py")):
        name = init.parent.name
        exports[name] = len(load(src, name, name).__all__)
    return lines, code, exports


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        lines, code, exports = measure(source(argv[0] if argv else str(ROOT / "src"), Path(tmp)))
    print(f"lines {lines}")
    print(f"code {code}")
    for name, count in exports.items():
        print(f"exports {name} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
