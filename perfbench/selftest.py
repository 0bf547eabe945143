#!/usr/bin/env python3
"""Self-test of the benchmark, at reduced scale (about two minutes).

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks that
  * every workload, untraced and traced, prints every metric BENCHMARK.json
    names, with the unit it gives, and passes its own correctness checks;
  * a stored reference with one deliberately corrupted value makes the run
    fail: correct is false and pass_share drops below 1.
Exits 0 when all checks hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the launcher: builds the binary)

SCALE = "0.05"
WORK = run.ROOT / ".bench_out" / "selftest"


def bench(binary, *args):
    cmd = [str(binary), "--scale", SCALE, "--seconds", "1",
           "--out-dir", str(WORK), *args]
    p = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited {p.returncode}\n"
                         f"{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    binary = run.build(run.ROOT / ".bench_build")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    failures = []

    refs = str(WORK / "no-reference")
    for w in spec["workloads"]:
        for trace, metrics in (("0", spec["end_to_end"]),
                               ("1", spec["per_layer"])):
            r = bench(binary, "--workload", w["name"], "--trace", trace,
                      "--reference-dir", refs)
            tag = f"{w['name']} --trace {trace}"
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                failures.append(f"{tag}: correct={r['correct']} "
                                f"failed={r['failed']}")
            for m in metrics:
                got = r["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    failures.append(f"{tag}: metric {m['name']} missing or "
                                    f"not in {m['unit']}: {got}")
            extra = set(r["metrics"]) - {m["name"] for m in metrics}
            if extra:
                failures.append(f"{tag}: metrics not in BENCHMARK.json: "
                                f"{sorted(extra)}")
            print(f"ok   {tag}: {len(r['metrics'])} metrics, "
                  f"{r['attempted']} operations")

    # A reference recorded at this scale, then corrupted in one value.
    refs = WORK / "corrupted"
    refs.mkdir()
    for w in ("figures", "compile"):
        bench(binary, "--workload", w, "--trace", "0", "--write-reference",
              "--reference-dir", str(refs))
        path = next(refs.glob(f"{w}-*.json"))
        doc = json.loads(path.read_text())
        op = sorted(doc["ops"])[0]
        field = sorted(doc["ops"][op])[0]
        doc["ops"][op][field] += 1
        path.write_text(json.dumps(doc))
        r = bench(binary, "--workload", w, "--trace", "0",
                  "--reference-dir", str(refs))
        share = r["metrics"]["pass_share"]["value"]
        if r["correct"] or r["failed"] < 1 or share >= 1:
            failures.append(f"{w}: corrupted {op}.{field} went unnoticed "
                            f"(correct={r['correct']}, pass_share={share})")
        else:
            print(f"ok   {w}: corrupted {op}.{field} -> "
                  f"failed={r['failed']}, pass_share={share:.6f}")

    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
