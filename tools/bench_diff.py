#!/usr/bin/env python3
"""Compares two BENCH_*.json files key by key.

    python3 tools/bench_diff.py BASE.json NEW.json

Each file is flattened to dotted keys over its numeric leaves: object
members by name, list items by index (host.nproc, rows.3.p50_ms). Every
key present in both files prints one line with the base value, the new
value and new/base. Keys present in one file only are listed after the
table. Strings and booleans are skipped, so a host block's CPU model or
git SHA never counts as a difference.

Exit status: 0 when both files have the same numeric keys, 1 when a key
is present in one file only, 2 when a file cannot be read or parsed.
Standard library only; no network.
"""
import argparse
import json
import sys


def flatten(value, prefix="", out=None):
    """{dotted key: number} for every numeric leaf under `value`."""
    if out is None:
        out = {}
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[prefix] = value
        return out
    for key, child in children:
        flatten(child, "%s.%s" % (prefix, key) if prefix else str(key), out)
    return out


def load(path):
    try:
        with open(path) as f:
            return flatten(json.load(f))
    except (OSError, ValueError) as e:
        print("bench_diff.py: %s: %s" % (path, e), file=sys.stderr)
        sys.exit(2)


def ratio(base, new):
    if base == 0:
        return "-" if new == 0 else "inf"
    return "%.3f" % (new / base)


def main():
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_*.json files key by key.")
    parser.add_argument("base", help="the reference file")
    parser.add_argument("new", help="the file compared against it")
    args = parser.parse_args()
    base = load(args.base)
    new = load(args.new)

    shared = [key for key in base if key in new]
    width = max([len("key")] + [len(key) for key in shared])
    print("%-*s  %14s  %14s  %8s" % (width, "key", "base", "new", "new/base"))
    for key in shared:
        print("%-*s  %14.6g  %14.6g  %8s" % (width, key, base[key], new[key],
                                             ratio(base[key], new[key])))

    one_sided = False
    for path, keys, other in ((args.base, base, new), (args.new, new, base)):
        missing = [key for key in keys if key not in other]
        if missing:
            one_sided = True
            print("\nonly in %s:" % path)
            for key in missing:
                print("  " + key)
    return 1 if one_sided else 0


if __name__ == "__main__":
    sys.exit(main())
