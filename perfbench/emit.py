"""Benchmark set-up: build one workload's corpus with the generators and
write each instance as XCSP3 into a directory.

``run.py`` starts this in a fresh interpreter and times it, so set-up time
covers interpreter start, imports, generation and writing.

    python3 perfbench/emit.py --workload csp-search --seed 1 --dir OUT [--tiny]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
from xcspkit.io import write_instance  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    for position, member in enumerate(corpus.members(args.workload, args.seed, args.tiny)):
        (out / corpus.file_name(position, member)).write_text(write_instance(member.build()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
