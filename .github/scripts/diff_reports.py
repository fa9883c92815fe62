#!/usr/bin/env python3
"""Checks that two atacsim-bench report directories hold the same reports.

Usage: diff_reports.py DIR_A DIR_B

Both directories must hold the same file names, and each JSON or CSV report
must match its counterpart once the host-side fields (wall_seconds, jobs)
are stripped. Prints each report that differs and exits 1 if any does.
"""
import csv
import json
import os
import sys

HOST = {"wall_seconds", "jobs"}  # host timing, not simulation


def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items() if k not in HOST}
    if isinstance(v, list):
        return [strip(x) for x in v]
    return v


def load(path):
    with open(path) as f:
        if path.endswith(".json"):
            return strip(json.load(f))
        return [strip(r) for r in csv.DictReader(f)]


def main():
    a, b = sys.argv[1:]
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        sys.exit(f"{a} and {b} hold different reports")
    bad = [n for n in names
           if load(os.path.join(a, n)) != load(os.path.join(b, n))]
    for n in bad:
        print(f"{n}: differs between {a} and {b}")
    print(f"{len(names) - len(bad)} of {len(names)} reports match")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
