#!/usr/bin/env python3
"""Line counts of the C++ sources, at a git revision and in the working tree.

    scripts/loc.py [REV]

Counts the lines of every `.cpp` and `.hpp` file under src/, tests/, bench/
and examples/ at REV (default HEAD) and in the working tree, and prints one
row per directory with the difference. The working tree counts tracked files
that still exist plus untracked files that git does not ignore, so a new file
counts before it is committed.
"""

import argparse
import pathlib
import subprocess
import sys

DIRS = ("src", "tests", "bench", "examples")
SUFFIXES = (".cpp", ".hpp")


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True).stdout


def counted(path):
    return path.split("/", 1)[0] in DIRS and path.endswith(SUFFIXES)


def at_revision(repo, rev):
    listing = git(repo, "ls-tree", "-r", "--name-only", "-z", rev, "--", *DIRS)
    paths = [p for p in listing.decode().split("\0") if p and counted(p)]
    # One cat-file process for every blob; each answer is a header line
    # "<sha> blob <size>" followed by the content and a newline.
    request = "".join(f"{rev}:{p}\n" for p in paths).encode()
    out = subprocess.run(["git", "-C", str(repo), "cat-file", "--batch"],
                         input=request, check=True, capture_output=True).stdout
    totals = dict.fromkeys(DIRS, 0)
    pos = 0
    for path in paths:
        header_end = out.index(b"\n", pos)
        size = int(out[pos:header_end].split()[2])
        body = out[header_end + 1:header_end + 1 + size]
        totals[path.split("/", 1)[0]] += body.count(b"\n")
        pos = header_end + 1 + size + 1
    return totals


def in_worktree(repo):
    listing = git(repo, "ls-files", "-z", "--cached", "--others",
                  "--exclude-standard", "--", *DIRS)
    totals = dict.fromkeys(DIRS, 0)
    for path in sorted(set(listing.decode().split("\0"))):
        file = repo / path
        if path and counted(path) and file.is_file():
            totals[path.split("/", 1)[0]] += file.read_bytes().count(b"\n")
    return totals


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    args = parser.parse_args()
    repo = pathlib.Path(__file__).resolve().parent.parent
    try:
        short = git(repo, "rev-parse", "--short", args.rev).decode().strip()
    except subprocess.CalledProcessError:
        sys.exit(f"loc.py: unknown revision {args.rev!r}")
    before = at_revision(repo, args.rev)
    after = in_worktree(repo)
    print(f"{'.cpp/.hpp lines':<16}{short:>10}{'worktree':>10}{'change':>9}")
    for name in (*DIRS, "total"):
        old = sum(before.values()) if name == "total" else before[name]
        new = sum(after.values()) if name == "total" else after[name]
        print(f"{name:<16}{old:>10}{new:>10}{new - old:>+9}")


if __name__ == "__main__":
    main()
