#!/usr/bin/env python3
"""Runs .github/scripts/claims.py on real atacsim-bench output.

Usage: claims_script_test.py ATACSIM_BENCH CLAIMS_PY

Runs two entries on the 8x2 machine at scale 0.05, with the cache and the
reports in a temporary directory, then the script on that stdout and on a
markdown file holding only the two markers. Fails unless both exit 0 and
the table holds one row per claim line, in the driver's order.
"""
import os
import subprocess
import sys
import tempfile


def main():
    bench, script = sys.argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, ATACSIM_BENCH_MESH="8x2", ATACSIM_SCALE="0.05",
                   ATACSIM_CACHE=os.path.join(tmp, "cache"),
                   ATACSIM_REPORT_DIR=os.path.join(tmp, "reports"))
        out = os.path.join(tmp, "stdout.txt")
        with open(out, "w") as f:
            subprocess.run([bench, "fig04_app_runtime", "tab05_swmr_util"],
                           env=env, stdout=f, check=True)
        doc = os.path.join(tmp, "claims.md")
        with open(doc, "w") as f:
            f.write("# claims\n<!-- claims:begin -->\n<!-- claims:end -->\n")
        subprocess.run([sys.executable, script, out, doc], check=True,
                       stdout=subprocess.DEVNULL)
        with open(out) as f:
            claims = [l.split("\t") for l in f if l.startswith("claim\t")]
        with open(doc) as f:
            rows = [l for l in f if l.startswith("| `")]
    if not claims or len(rows) != len(claims):
        sys.exit(f"{len(claims)} claim lines, {len(rows)} table rows")
    for c, row in zip(claims, rows):
        text = c[3].replace("|", "\\|")
        if not row.startswith(f"| `{c[1]}` | {text} |"):
            sys.exit(f"row {row!r} does not table claim {c[3]!r} of {c[1]}")
    print(f"{len(rows)} claims tabled")


if __name__ == "__main__":
    main()
