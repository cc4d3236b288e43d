#!/usr/bin/env python3
"""The benchmark's memory: BENCH_gbench.json, one entry per measured commit.

Each entry is {git_sha, pr, host, runs}: the commit measured, the number
of the change that made it, what the host looked like, and the runs
exactly as `gbench/run.sh --seed S --out FILE` wrote them (schema
gbench.runs.v1). A commit cannot name its own sha, so each change
appends the entry of its parent.

    python3 scripts/bench_history.py append --sha SHA --pr N --runs RUNS.json
    python3 scripts/bench_history.py extract --sha SHA --out RUNS.json
    python3 scripts/bench_history.py check

`append` adds an entry built from a run set; `extract` writes an entry's
runs back out as a run set for `gbench --compare A B`; `check` holds the
file to the schema below and every entry's sha to being an ancestor of
HEAD (`git merge-base --is-ancestor`). Standard library only.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys

SCHEMA = "gravel.bench_history.v1"
RUNS_SCHEMA = "gbench.runs.v1"
DEFAULT_FILE = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_gbench.json"))
RUN_KEYS = {
    "workload": str,
    "seed": int,
    "seconds": (int, float),
    "trace": bool,
    "smoke": bool,
    "correct": bool,
    "attempted": int,
    "failed": int,
    "metrics": dict,
}
HOST_KEYS = {"nproc": int, "cpu": str, "mem_gb": (int, float), "os": str}


def load(path):
    if not os.path.exists(path):
        return {"schema": SCHEMA, "entries": []}
    with open(path) as f:
        return json.load(f)


def save(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def host_probe():
    """What the runs were measured on: cores, CPU model, memory, kernel."""
    cpu = platform.processor() or "unknown"
    mem_gb = 0.0
    try:
        with open("/proc/cpuinfo") as f:
            names = re.findall(r"^model name\s*:\s*(.+)$", f.read(), re.M)
        cpu = names[0].strip() if names else cpu
        with open("/proc/meminfo") as f:
            kb = re.search(r"^MemTotal:\s*(\d+) kB", f.read(), re.M)
        mem_gb = round(int(kb.group(1)) / 2**20, 1) if kb else 0.0
    except OSError:
        pass
    return {
        "nproc": os.cpu_count() or 0,
        "cpu": cpu,
        "mem_gb": mem_gb,
        "os": f"{platform.system()} {platform.release()}",
    }


def typed(value, want):
    # bool is an int in Python; a count must not be a flag.
    if want is int or want == (int, float):
        return isinstance(value, want) and not isinstance(value, bool)
    return isinstance(value, want)


def schema_errors(doc):
    """Every way `doc` departs from the schema, as readable lines."""
    errs = []
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return [f"not a {SCHEMA} document"]
    entries = doc.get("entries")
    if not isinstance(entries, list):
        return ["no entries array"]
    seen = set()
    for i, e in enumerate(entries):
        at = f"entry {i}"
        if not isinstance(e, dict) or set(e) != {"git_sha", "pr", "host", "runs"}:
            errs.append(f"{at}: keys must be git_sha, pr, host, runs")
            continue
        sha = e["git_sha"]
        if not (isinstance(sha, str) and re.fullmatch(r"[0-9a-f]{40}", sha)):
            errs.append(f"{at}: git_sha must be 40 lowercase hex digits")
        elif sha in seen:
            errs.append(f"{at}: {sha} measured twice")
        seen.add(sha)
        if not typed(e["pr"], int) or e["pr"] < 0:
            errs.append(f"{at}: pr must be a non-negative integer")
        host = e["host"]
        if not isinstance(host, dict) or any(not typed(host.get(k), t) for k, t in HOST_KEYS.items()):
            errs.append(f"{at}: host must hold {', '.join(HOST_KEYS)}")
        runs = e["runs"]
        if not isinstance(runs, list) or not runs:
            errs.append(f"{at}: no runs")
            continue
        for j, r in enumerate(runs):
            if not isinstance(r, dict) or any(not typed(r.get(k), t) for k, t in RUN_KEYS.items()):
                errs.append(f"{at}, run {j}: not a {RUNS_SCHEMA} run")
            elif r["smoke"]:
                errs.append(f"{at}, run {j}: a smoke run is not comparable")
    return errs


def find(doc, sha):
    hits = [e for e in doc["entries"] if e["git_sha"].startswith(sha)]
    if len(hits) != 1:
        sys.exit(f"{len(hits)} entries match {sha!r}")
    return hits[0]


def cmd_append(args):
    doc = load(args.file)
    with open(args.runs) as f:
        runset = json.load(f)
    if runset.get("schema") != RUNS_SCHEMA:
        sys.exit(f"{args.runs}: not a {RUNS_SCHEMA} run set")
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", args.sha + "^{commit}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    doc["entries"].append({"git_sha": sha, "pr": args.pr, "host": host_probe(), "runs": runset["runs"]})
    errs = schema_errors(doc)
    if errs:
        sys.exit("\n".join(errs))
    save(args.file, doc)
    print(f"{args.file}: entry for {sha[:12]} (PR {args.pr}), {len(runset['runs'])} runs")


def cmd_extract(args):
    entry = find(load(args.file), args.sha)
    save(args.out, {"schema": RUNS_SCHEMA, "runs": entry["runs"]})
    print(f"{args.out}: {len(entry['runs'])} runs of {entry['git_sha'][:12]}")


def cmd_check(args):
    doc = load(args.file)
    errs = schema_errors(doc)
    for e in doc.get("entries", []) if not errs else []:
        sha = e["git_sha"]
        ancestor = subprocess.run(["git", "merge-base", "--is-ancestor", sha, "HEAD"], capture_output=True)
        if ancestor.returncode != 0:
            errs.append(f"{sha}: not an ancestor of HEAD")
    if errs:
        sys.exit("\n".join(errs))
    print(f"{args.file}: {len(doc['entries'])} entries, schema and ancestry ok")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--file", default=DEFAULT_FILE, help="history file (default: BENCH_gbench.json)")
    sub = p.add_subparsers(dest="cmd", required=True)
    a = sub.add_parser("append", help="add an entry from a gbench run set")
    a.add_argument("--sha", required=True, help="the commit the runs measured")
    a.add_argument("--pr", required=True, type=int, help="the number of the change that made it")
    a.add_argument("--runs", required=True, help="run set written by gbench --out")
    a.set_defaults(run=cmd_append)
    x = sub.add_parser("extract", help="write an entry's runs as a gbench run set")
    x.add_argument("--sha", required=True, help="the entry's sha or a unique prefix")
    x.add_argument("--out", required=True)
    x.set_defaults(run=cmd_extract)
    c = sub.add_parser("check", help="validate the schema and each sha's ancestry")
    c.set_defaults(run=cmd_check)
    args = p.parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
