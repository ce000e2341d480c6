#!/usr/bin/env python3
"""Build and run the whole-run benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds `perfbench` (a package of its own, against the
repository's crates) and runs one workload; the last line of stdout is the
JSON result. The repository's `[profile.release]` is mirrored into the
build, so a change to the workspace's build settings is measured too.

`--self-test` runs every workload of BENCHMARK.json at minimal size, traced
and untraced, and checks that each run is correct and emits exactly the
metrics BENCHMARK.json names, with their units.

The build goes to $CARGO_TARGET_DIR (default `.bench_build`), reports and
spans to `.bench_out/`.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tomllib

ROOT = pathlib.Path.cwd()
MANIFEST = pathlib.Path(__file__).resolve().parent / "Cargo.toml"
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
# Sources whose digest identifies the measured program.
DIGEST_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]


def profile_env():
    """CARGO_PROFILE_RELEASE_* variables mirroring the root manifest."""
    try:
        manifest = tomllib.loads((ROOT / "Cargo.toml").read_text())
    except (OSError, tomllib.TOMLDecodeError):
        return {}
    env = {}
    for key, value in manifest.get("profile", {}).get("release", {}).items():
        if isinstance(value, dict):
            continue
        name = "CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")
        env[name] = str(value).lower() if isinstance(value, bool) else str(value)
    return env


def source_digest():
    """SHA-256 over the workspace sources (paths and contents)."""
    h = hashlib.sha256()
    for top in DIGEST_ROOTS:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            rel = path.relative_to(ROOT).as_posix()
            if "/target/" in f"/{rel}":
                continue
            h.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    """Builds the benchmark; returns (binary path, environment for runs)."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env.update(profile_env())
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        env=env,
        check=True,
        stdout=sys.stderr,
    )
    binary = ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    commit = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "unknown"
    env["PERFBENCH_COMMIT"] = commit if commit != "unknown" else "none (not a git checkout)"
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    return binary, env


def self_test(binary, env):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            run = subprocess.run(
                [str(binary), *args], env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
            )
            lines = run.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no JSON result (exit {run.returncode})\n{run.stderr}")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if run.returncode != 0 or not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{label}: exit {run.returncode}, result {lines[-1][:200]}\n{run.stderr}")
            got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(n for n in got if n in expected[trace] and got[n] != expected[trace][n])
                problems.append(f"{label}: missing {missing}, unexpected {extra}, wrong units {units}")
            if trace == 0:
                zero = [n for n, m in result.get("metrics", {}).items() if not m.get("value", 0) > 0]
                if zero:
                    problems.append(f"{label}: end-to-end metrics not positive: {zero}")
            print(f"self-test {label}: {len(got)} metrics", file=sys.stderr)
    for p in problems:
        print(f"self-test FAIL {p}", file=sys.stderr)
    print(json.dumps({"self_test": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv):
    try:
        binary, env = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if argv == ["--self-test"]:
        return self_test(binary, env)
    try:
        return subprocess.run([str(binary), *argv], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
