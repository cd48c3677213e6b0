"""Every ``python -m repro.cli ...`` line in the docs must still parse.

The CLI has shed subcommands and flags more than once; a README that
names a removed one is a broken instruction.  This check extracts every
documented invocation and resolves its subcommand words and ``--flags``
against ``build_parser()`` (nothing is executed).
"""

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "EXPERIMENTS.md",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        *sorted((ROOT / "docs").glob("*.md"))]

#: An invocation runs to the end of its line or its closing backtick;
#: a backslash-newline continues it, and prose may wrap right after
#: ``repro.cli``.
_INVOCATION = re.compile(r"python -m repro\.cli\s+([^`\n]*)")


def documented_invocations():
    for path in DOCS:
        text = path.read_text().replace("\\\n", " ")
        for match in _INVOCATION.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            yield f"{path.relative_to(ROOT)}:{line}", match.group(1)


def _subparsers(parser):
    return next((action for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)), None)


def test_documented_cli_invocations_parse():
    invocations = list(documented_invocations())
    assert len(invocations) >= 10          # the extraction found the docs
    problems = []
    for where, tail in invocations:
        words = tail.split("#")[0].split()
        parser = build_parser()
        while (sub := _subparsers(parser)) is not None:
            word = words.pop(0) if words else "<nothing>"
            if word not in sub.choices:
                problems.append(f"{where}: no command {word!r} "
                                f"(have {sorted(sub.choices)})")
                break
            parser = sub.choices[word]
        else:
            for flag in re.findall(r"--[a-z][a-z-]*", " ".join(words)):
                if flag not in parser._option_string_actions:
                    problems.append(f"{where}: {parser.prog} has no "
                                    f"flag {flag}")
    assert not problems, "\n".join(problems)
