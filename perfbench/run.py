#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload paper-sessions --seed 0 --seconds 45 --trace 0

The Go program is built from source into .bench_build/perfbench with
its build cache and temporary files under .bench_build as well, so
nothing outside the checkout is read or written beyond the Go
toolchain itself. Every argument is passed to the program; its exit
code is this script's.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench", "bin", "perfbench")
# One run of one workload must end well inside the 180 s it is allowed;
# --workload all (the default) runs the two workloads in turn.
RUN_TIMEOUT_S = 170
WORKLOADS = 2
# The first build compiles the standard library and the repository's
# packages from source; build and run together stay within 900 s.
BUILD_TIMEOUT_S = 700


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "gotmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "CGO_ENABLED": "0",
    })
    return env


def build():
    env = go_env()
    for d in (env["GOCACHE"], env["GOTMPDIR"], os.path.dirname(BIN)):
        os.makedirs(d, exist_ok=True)
    subprocess.run(
        ["go", "build", "-trimpath", "-o", BIN, "."],
        cwd=os.path.join(ROOT, "perfbench"), env=env, check=True,
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )


def run_timeout(args):
    workload = "all"
    for i, a in enumerate(args):
        if a in ("--workload", "-workload") and i + 1 < len(args):
            workload = args[i + 1]
        elif a.startswith(("--workload=", "-workload=")):
            workload = a.split("=", 1)[1]
    return RUN_TIMEOUT_S * (WORKLOADS if workload == "all" else 1)


def main():
    timeout = run_timeout(sys.argv[1:])
    try:
        build()
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    proc = subprocess.Popen([BIN] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s; stopping it", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
