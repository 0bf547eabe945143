#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload figures|adaptation|compile \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) in Release
mode; its output goes to stderr. The benchmark binary's last stdout line
is the result JSON (see perfbench/src/main.cpp). Traced runs write their
Chrome trace and per-layer JSON to .bench_out/. Exits nonzero without a
result when the program sources are missing or the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no program sources under src/; nothing to build")
    out = sys.stderr
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=out, stderr=out)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=out, stderr=out)
    return build_dir / "perfbench"


def main() -> int:
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    # The program reads SPF_* knobs (scale, faults, trace budget) from the
    # environment; the benchmark pins its inputs through flags instead.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPF_")}
    cmd = [str(binary), *sys.argv[1:],
           "--reference-dir", str(BENCH_DIR / "reference"),
           "--out-dir", str(ROOT / ".bench_out")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
