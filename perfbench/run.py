#!/usr/bin/env python3
"""Runs one workload of the sampler benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout. The first run configures
and builds the library, the frontier_serve daemon and the benchmark runner
(Release) under $CARGO_TARGET_DIR (default .bench_build)/perfbench; later
runs only rebuild what changed. Each run works in a fresh directory under
that build tree and removes it afterwards. Traced runs (--trace 1) also
write their spans to <build>/perfbench/traces/<workload>-seed<N>.json.

Stdout ends with three JSON lines: the host block, the runner's summary
(failed-op fraction, latency sample counts) and the result object
{"correct", "attempted", "failed", "metrics"}. Any failure exits nonzero
without a result line.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream_offline", "replicate_gab", "serve_mixed")
TARGETS = ("perfbench_runner", "frontier_serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def cmake_cache(build_dir):
    values = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and not line.startswith(("#", "//")):
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return values


def child_env(build_dir):
    """The environment for child processes: temporary files (the
    compiler's included) stay inside the build tree."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("the library sources are not next to perfbench/; "
            "run from the root of a repository checkout")
    home = cmake_cache(build_dir).get("CMAKE_HOME_DIRECTORY")
    if home is not None and os.path.realpath(home) != os.path.realpath(HERE):
        shutil.rmtree(build_dir)  # configured for another checkout
    env = child_env(build_dir)
    # Configuring every time is quick with a cache, and picks up targets
    # added since the last run, which `--build --target` alone would not.
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", "4", "--target", *TARGETS]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            die("build failed: %s" % e)
        if done.returncode != 0:
            die("build failed: %s" % " ".join(cmd))


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def fs_type(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def host_block(build_dir, spool_dir):
    cpu = "unknown"
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read_text(os.path.join(base, index, "level"))
        kind = read_text(os.path.join(base, index, "type"))
        size = read_text(os.path.join(base, index, "size"))
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches["L%s%s" % (level, suffix)] = size
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")) if x)
    return {
        "cpu_model": cpu,
        "logical_cores": os.cpu_count(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "kernel": platform.release(),
        "compiler": version,
        "cxx_flags": flags,
        "build_type": build_type,
        "failpoints_compiled": cache.get("FRONTIER_FAILPOINTS", "ON"),
        "failpoints_env": "cleared",
        "spool_fs": fs_type(spool_dir),
    }


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, or None
    when the file is absent."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return None
    except ValueError:
        die("BENCHMARK.json is not JSON")
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"] for m in spec.get(key, [])}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_workload(cmd, run_dir, build_dir):
    # Fault injection and the FS_* experiment knobs change what the
    # library does; the workloads run with neither.
    env = {k: v for k, v in child_env(build_dir).items()
           if k != "FRONTIER_FAILPOINTS" and not k.startswith("FS_")}
    proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the daemon too
        proc.communicate()
        die("the workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray children, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        log = read_text(os.path.join(run_dir, "daemon.log"))
        if log:
            print(log, file=sys.stderr)
        die("the runner exited with status %d" % proc.returncode)
    return out.splitlines()


def main():
    args = parse_args()
    build_dir = build_root()
    build(build_dir)
    run_dir = os.path.join(build_dir, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--serve-bin", os.path.join(build_dir, "frontier", "tools",
                                       "frontier_serve")]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        host = host_block(build_dir, run_dir)
        lines = run_workload(cmd, run_dir, build_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if len(lines) < 2:
        die("the runner printed no result")
    try:
        summary = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except ValueError:
        die("the runner's result is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("the runner's result has the wrong keys")
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        die("the runner's metrics differ from BENCHMARK.json: %s" % sorted(
            set(result["metrics"]) ^ declared))
    print(json.dumps({"host": host}))
    print(json.dumps(summary))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
