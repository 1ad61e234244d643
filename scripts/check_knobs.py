#!/usr/bin/env python3
"""Check that the README's knob table lists exactly the LNB_* knobs in code.

    python3 scripts/check_knobs.py [REPO_ROOT]

Collects every "LNB_..." string literal under src/ and bench/ (the
names the runtime and the bench binaries read) and every `LNB_...`
name in the first cell of a README.md table row. Exits 1 and prints
both differences when the two sets are not equal, so a knob cannot be
added, renamed or removed without its documentation following.
"""
import os
import re
import sys

LITERAL = re.compile(r'"(LNB_[A-Z0-9_]+)')
TABLE_ROW = re.compile(r'^\|\s*`(LNB_[A-Z0-9_]+)')
SOURCE_SUFFIXES = (".h", ".cc", ".cpp", ".hpp")


def code_knobs(root):
    knobs = set()
    for top in ("src", "bench"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                if not name.endswith(SOURCE_SUFFIXES):
                    continue
                with open(os.path.join(dirpath, name),
                          encoding="utf-8", errors="replace") as f:
                    knobs.update(LITERAL.findall(f.read()))
    return knobs


def readme_knobs(root):
    knobs = set()
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        for line in f:
            m = TABLE_ROW.match(line)
            if m:
                knobs.add(m.group(1))
    return knobs


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    in_code = code_knobs(root)
    in_readme = readme_knobs(root)
    if not in_code:
        print("check_knobs: no LNB_* literals found under %s" % root)
        return 1
    undocumented = sorted(in_code - in_readme)
    stale = sorted(in_readme - in_code)
    for knob in undocumented:
        print("check_knobs: %s is read in src/ or bench/ but missing from "
              "the README knob table" % knob)
    for knob in stale:
        print("check_knobs: %s is in the README knob table but no code "
              "reads it" % knob)
    if undocumented or stale:
        return 1
    print("check_knobs: %d knobs, README table matches" % len(in_code))
    return 0


if __name__ == "__main__":
    sys.exit(main())
