#!/usr/bin/env python3
"""Builds and runs the Lancet benchmark.

Usage (from the repository root):

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Validates BENCHMARK.json, refuses to run with any LANCET_* variable
exported, builds benchmark/ with cargo (offline, release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, and checks that
the result line names exactly the metrics BENCHMARK.json lists. The last
line of standard output is the result object; the exit code is non-zero
when the build, the run or a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
MANIFEST = os.path.join("benchmark", "Cargo.toml")
BINARY = "lancet-benchmark"
RUN_TIMEOUT_S = 170

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def _names_ok(items, keys, errors, what):
    seen = set()
    for item in items:
        if not isinstance(item, dict) or set(item) != keys:
            errors.append(f"{what}: every entry needs exactly the keys {sorted(keys)}")
            continue
        name = item["name"]
        if not isinstance(name, str) or not NAME.match(name):
            errors.append(f"{what}: bad name {name!r}")
        elif name in seen:
            errors.append(f"{what}: {name} used twice")
        seen.add(name)
        if "unit" in keys and not (isinstance(item["unit"], str) and UNIT.match(item["unit"])):
            errors.append(f"{what}: bad unit {item['unit']!r} for {name}")
        if "better" in keys and item["better"] not in ("lower", "higher"):
            errors.append(f"{what}: better must be lower or higher for {name}")


def validate_spec(spec, size=0):
    """Returns the ways `spec` (a parsed BENCHMARK.json) breaks the contract."""
    errors = []
    if size > 64 * 1024:
        errors.append("BENCHMARK.json is larger than 64 KiB")
    if not isinstance(spec, dict) or set(spec) != TOP_KEYS:
        return errors + [f"top level needs exactly the keys {sorted(TOP_KEYS)}"]
    paths, command = spec["paths"], spec["command"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errors.append("paths: 1 to 16 directories")
        paths = []
    for p in paths:
        if not (isinstance(p, str) and PATH.match(p)) or p.startswith("/") or ".." in p.split("/"):
            errors.append(f"paths: bad path {p!r}")
    if not (isinstance(command, list) and 1 <= len(command) <= 32):
        errors.append("command: 1 to 32 strings")
        command = []
    for arg in command:
        if not (isinstance(arg, str) and len(arg) <= 200) or arg.startswith("/") or ".." in arg.split("/"):
            errors.append(f"command: bad argument {arg!r}")
        elif "/" in arg and not any(arg == p or arg.startswith(p.rstrip("/") + "/") for p in paths):
            errors.append(f"command: {arg!r} lies outside paths")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        errors.append("run_seconds: a whole number from 1 to 60")
    workloads, e2e, layers = spec["workloads"], spec["end_to_end"], spec["per_layer"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        errors.append("workloads: 2 to 8")
        workloads = []
    _names_ok(workloads, {"name", "why"}, errors, "workloads")
    for w in workloads:
        why = w.get("why") if isinstance(w, dict) else None
        if not (isinstance(why, str) and why and len(why) <= 200 and "\n" not in why):
            errors.append(f"workloads: `why` must be one line of at most 200 characters")
    if not (isinstance(e2e, list) and 1 <= len(e2e) <= 16):
        errors.append("end_to_end: 1 to 16 metrics")
        e2e = []
    _names_ok(e2e, {"name", "unit", "better", "bound"}, errors, "end_to_end")
    for m in e2e:
        bound = m.get("bound") if isinstance(m, dict) else None
        if not (isinstance(bound, (int, float)) and not isinstance(bound, bool) and 0 <= bound <= 0.25):
            errors.append(f"end_to_end: bound of {m.get('name')} must lie in [0, 0.25]")
    if not any(isinstance(m, dict) and m.get("name") == "setup_s" and m.get("unit") == "s"
               and m.get("better") == "lower" for m in e2e):
        errors.append("end_to_end: needs setup_s in s, better lower")
    if not (isinstance(layers, list) and 1 <= len(layers) <= 128):
        errors.append("per_layer: 1 to 128 metrics")
        layers = []
    _names_ok(layers, {"name", "unit", "better"}, errors, "per_layer")
    e2e_names = {m.get("name") for m in e2e if isinstance(m, dict)}
    for m in layers:
        if isinstance(m, dict) and m.get("name") in e2e_names:
            errors.append(f"{m.get('name')} is both end-to-end and per-layer")
    return errors


def validate_result(line, spec, trace):
    """Returns the ways a result line fails the output contract."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return [f"last line is not JSON: {e}"]
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result needs exactly the keys correct, attempted, failed, metrics"]
    errors = []
    if not isinstance(result["correct"], bool):
        errors.append("correct must be true or false")
    for key, least in (("attempted", 1), ("failed", 0)):
        v = result[key]
        if not (isinstance(v, int) and not isinstance(v, bool) and v >= least):
            errors.append(f"{key} must be a whole number of at least {least}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    if not isinstance(got, dict):
        return errors + ["metrics must be an object"]
    if set(got) != set(want):
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        errors.append(f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}")
    for name, m in got.items():
        if not (isinstance(m, dict) and set(m) == {"value", "unit"}):
            errors.append(f"{name}: needs exactly value and unit")
            continue
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            errors.append(f"{name}: value is not a number")
        if name in want and m["unit"] != want[name]:
            errors.append(f"{name}: unit {m['unit']!r}, BENCHMARK.json says {want[name]!r}")
        if not trace and m["value"] == 0:
            errors.append(f"{name}: an end-to-end metric read 0")
    return errors


def revision():
    """The source revision: the git commit when there is one, and always a
    hash of the sources the benchmark builds."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, n) for n in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "benchmark")]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out", ".bench_build", "__pycache__"))
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    rev = f"tree:{h.hexdigest()[:16]}"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
        rev = f"git:{sha.stdout.strip()} {rev}"
    except (OSError, subprocess.CalledProcessError):
        pass
    return rev


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args(argv)

    try:
        with open(SPEC, "rb") as f:
            raw = f.read()
        spec = json.loads(raw)
    except (OSError, ValueError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    errors = validate_spec(spec, len(raw))
    if errors:
        print("error: BENCHMARK.json: " + "; ".join(errors), file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: BENCHMARK.json lists no workload {args.workload!r}", file=sys.stderr)
        return 2
    knobs = sorted(k for k in os.environ if k.startswith("LANCET_"))
    if knobs:
        print(f"error: refusing to run with LANCET_* knobs exported: {', '.join(knobs)}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    binary = os.path.join(ROOT, target, "release", BINARY)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out", os.path.join("benchmark", "out"),
           "--rustc", rustc_version(), "--revision", revision()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 and not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        print(f"error: the run failed with exit code {run.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    errors = validate_result(lines[-1], spec, args.trace == "1")
    if errors:
        print("error: result: " + "; ".join(errors), file=sys.stderr)
        return 1
    print(lines[-1])
    sys.stdout.flush()
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
