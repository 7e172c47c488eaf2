#!/usr/bin/env python3
"""lockbench: the end-to-end and per-layer benchmark of lockin.

Usage, from the root of the source tree:

    python3 lockbench/run.py --workload cold|daemon|sections --seed N \
        --seconds S --trace 0|1 [--tiny] [--inject FAULT]

Builds the benchmark (lockbench/CMakeLists.txt, which compiles the lockin
libraries from src/) into $CARGO_TARGET_DIR/lockbench, or
.bench_build/lockbench when that variable is unset, then runs one workload:

  cold      repeated cold compiles of the golden programs, seeded
            megaprograms and long, shallow programs (the compile passes);
  daemon    two closed-loop clients resubmitting and editing their units
            on an in-process daemon (the service tier);
  sections  seeded section streams on the lock runtime, on real threads
            (fine, coarse and uncontended phases).

With --trace 0 the result holds the end-to-end metrics, each filled by the
workload with its own layer's work:

  metric            cold                    daemon          sections
  setup_s           generate the corpus     start, prime    runtime, leaves
  peak_rss_mb       VmHWM when the timed window starts (after warm-up)
  throughput_per_s  source lines/s          requests/s      fine sections/s
  light_op_us       shallow program         resubmit p50    uncontended section
  heavy_op_us       megaprogram             edit p50        coarse section

With --trace 1 it holds the per-layer metrics, timed around each call into
a layer, and the tracing overhead; the layers a workload does not drive are
measured on a tiny probe of the workload that does. Spans and a record of
each run go to .lockbench/.

The last line of standard output is the result JSON; the line before it is
the host stamp. Exit status: 0 when every correctness check passed, 1 when
one failed, 2 when the build or the arguments failed, 3 when the run did
not end in time (it is then killed and prints no result).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_SECONDS = 60


def source_revision():
    """The git commit when ROOT is a git work tree, else a digest of the
    sources the benchmark builds."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and \
                os.path.realpath(top.stdout.strip()) == os.path.realpath(ROOT):
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "lockbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("lockbench: no lockin sources at %s/src" % ROOT, file=sys.stderr)
        return None
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "lockbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "lockbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as err:
            print("lockbench: %s: %s" % (cmd[0], err), file=sys.stderr)
            return None
        if rc != 0:
            print("lockbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "lockbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold", "daemon", "sections"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    parser.add_argument("--inject",
                        choices=["wrong-golden", "corrupt-word", "repeat-edit"],
                        help="make one correctness check fail (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error("--seed must be >= 0 and --seconds in [1, %d]"
                     % MAX_SECONDS)

    exe = build()
    if exe is None:
        return 2
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--revision", source_revision()]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    # Set-up, warm-up and the checks after the timed windows take well
    # under a minute.
    timeout = 60 + 2 * args.seconds
    try:
        # The benchmark reads and writes relative to the root of the tree.
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        print("lockbench: run killed after %d s" % timeout, file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode if run.returncode in (0, 1, 2) else 1


if __name__ == "__main__":
    sys.exit(main())
