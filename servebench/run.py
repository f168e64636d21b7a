#!/usr/bin/env python3
"""Build the checked-out commit in Release and run one servebench workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program's sources (../src) and this
package are configured into .bench_build/servebench (or
$CARGO_TARGET_DIR/servebench when that is set) and built incrementally;
build output goes to stderr, so the benchmark's own lines are the only
standard output and the last of them is the result JSON. Chrome traces of
traced runs land in .bench_build/traces/.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "servebench", base / "traces"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}; "
             "run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "servebench"


def main():
    out, traces = build_dir()
    binary = build(out)
    traces.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([str(binary), *sys.argv[1:],
                           "--trace-dir", str(traces)])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
