#!/usr/bin/env python3
"""Plot the three steering-vs-shift series from a shifts.csv file."""

import argparse
import csv
import sys
from pathlib import Path


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("csv_path", help="shifts.csv written by the shift subcommand")
    ap.add_argument("--out", default=None, help="output image (default: alongside the csv)")
    args = ap.parse_args()

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is not installed; it comes with the plot extra: pip install .[plot]", file=sys.stderr)
        sys.exit(1)

    path = Path(args.csv_path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        print(f"{path}: no data rows", file=sys.stderr)
        sys.exit(1)

    shifts = [int(r["shift_px"]) for r in rows]
    fig, ax = plt.subplots(figsize=(6, 4))
    for column, label in (
        ("steer_class1", "salient objects shifted"),
        ("steer_class2", "everything else shifted"),
        ("steer_all", "whole frame shifted"),
    ):
        ax.plot(shifts, [float(r[column]) for r in rows], marker="o", ms=3, label=label)
    ax.set_xlabel("lateral shift (px)")
    ax.set_ylabel("predicted steering (1/m)")
    ax.axhline(0.0, color="gray", lw=0.5)
    ax.axvline(0.0, color="gray", lw=0.5)
    ax.legend(fontsize=8)
    fig.tight_layout()

    out = Path(args.out) if args.out else path.with_suffix(".png")
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
