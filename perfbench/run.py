#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload compile_cold|execute_warm|paper_sim|all \\
        --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune (build output goes to stderr),
then runs it with the same arguments plus the checkout's commit id. The
executable prints every metric by name; its last stdout line is the JSON
result. Exits with the executable's code, or non-zero without a result
when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def read_commit():
    """The commit checked out at ROOT, read from .git inside ROOT only."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    os.chdir(ROOT)
    # The dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    proc = subprocess.run([EXE, "--commit", read_commit()] + sys.argv[1:])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
