#!/usr/bin/env python3
"""Summarizes atacsim-bench's claim lines and tables them in a markdown file.

Usage: claims.py STDOUT MARKDOWN

STDOUT is the driver's standard output. Each paper claim an entry checks is
one tab-separated line there:

    claim  ENTRY  holds|fails  TEXT  MEASURED  [known: WHY]

Prints a markdown summary: how many claims hold, how many are listed as
known failures, and every claim whose verdict differs from its listing.
Then replaces the text between the lines <!-- claims:begin --> and
<!-- claims:end --> of MARKDOWN with one table row per claim, in the
driver's order. Exits 1 if STDOUT holds no claim line or a malformed one,
or if MARKDOWN lacks the markers; a verdict that differs from its listing
does not change the exit status (the driver judges those).
"""
import sys

BEGIN = "<!-- claims:begin -->"
END = "<!-- claims:end -->"
KNOWN = "known: "


def parse(path):
    """Claim lines as (entry, holds, text, measured, why) tuples; `why` is
    empty for a claim that is not a listed known failure."""
    claims = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if not line.startswith("claim\t"):
                continue
            fields = line.rstrip("\n").split("\t")
            ok = len(fields) in (5, 6) and fields[2] in ("holds", "fails")
            if len(fields) == 6:
                ok = ok and fields[5].startswith(KNOWN)
            if not ok:
                sys.exit(f"{path}:{n}: malformed claim line: {line!r}")
            why = fields[5][len(KNOWN):] if len(fields) == 6 else ""
            claims.append((fields[1], fields[2] == "holds", fields[3],
                           fields[4], why))
    if not claims:
        sys.exit(f"{path}: no claim lines")
    return claims


def differs(claim):
    _, holds, _, _, why = claim
    return holds == bool(why)


def tally(claims):
    """(claims that hold, claims listed as known failures)"""
    return sum(c[1] for c in claims), sum(bool(c[4]) for c in claims)


def summary(claims):
    holds, known = tally(claims)
    lines = ["### Paper claims",
             f"{holds} of {len(claims)} claims hold, {known} listed as "
             f"known failures"]
    for entry, h, text, measured, why in filter(differs, claims):
        listed = f"listed as a known failure: {why}" if why else "not listed"
        lines.append(f"- differs from its listing: {entry} | "
                     f"{'holds' if h else 'fails'} | {text} | {measured} | "
                     f"{listed}")
    return lines


def cell(s):
    return s.replace("|", "\\|")


def table(claims):
    holds, known = tally(claims)
    rows = [f"{len(claims)} claims: {holds} hold, {len(claims) - holds} "
            f"fail, {known} listed as known failures.",
            "",
            "| entry | claim | verdict | measured | known failure |",
            "|---|---|---|---|---|"]
    for entry, h, text, measured, why in claims:
        verdict = "holds" if h else "**fails**"
        rows.append(f"| `{entry}` | {cell(text)} | {verdict} | "
                    f"{cell(measured)} | {cell(why)} |")
    return rows


def rewrite(path, rows):
    with open(path, newline="") as f:
        lines = f.read().split("\n")
    try:
        b = lines.index(BEGIN)
        e = lines.index(END, b + 1)
    except ValueError:
        sys.exit(f"{path}: needs a line {BEGIN} and, after it, a line {END}")
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines[:b + 1] + rows + lines[e:]))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    stdout, markdown = sys.argv[1:]
    claims = parse(stdout)
    print("\n".join(summary(claims)))
    rewrite(markdown, table(claims))


if __name__ == "__main__":
    main()
