#!/usr/bin/env python3
"""Print the size of a Python tree: its raw lines and its lines of code.

Usage: ``python scripts/src_lines.py [DIR]`` (DIR defaults to ``src/``)

The raw count is every line of every ``*.py`` file under DIR, as
``find DIR -name '*.py' | xargs wc -l`` counts them.  A line of code is
one that holds a token other than a comment, a docstring (a string that
is a statement of its own) or a line break, as :mod:`tokenize` reads the
file; a token spanning several lines counts each of them.
"""

import argparse
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# tokens that hold no code, and those after which a string starts a
# statement of its own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING, None}


def code_lines(text: str) -> int:
    """The number of lines of code in the Python source ``text``."""
    rows = set()
    prev = None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        docstring = (tok.type == tokenize.STRING
                     and prev in _STATEMENT_START)
        if tok.type not in _LAYOUT and not docstring:
            rows.update(range(tok.start[0], tok.end[0] + 1))
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            prev = tok.type
    return len(rows)


def tree_size(top: str):
    """``(raw lines, lines of code)`` summed over the ``*.py`` files
    under ``top``."""
    raw = code = 0
    for folder, _, names in os.walk(top):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    text = fh.read()
                raw += text.count("\n")
                code += code_lines(text)
    return raw, code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=os.path.join(ROOT, "src"))
    raw, code = tree_size(parser.parse_args(argv).dir)
    print(f"{raw} raw lines, {code} lines of code")


if __name__ == "__main__":
    main()
