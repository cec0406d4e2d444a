"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks, using the cheapest subset of each workload (``--tiny``):

* both modes print a last line with exactly the result keys, every metric
  of BENCHMARK.json by name with its unit, and no failed check;
* in a copy of the checkout, a reference value perturbed by ten
  tolerances makes checks fail, so ``failed_frac`` rises above 0 and
  ``answer_dev`` above 1;
* in a directory holding only BENCHMARK.json and this directory the
  benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"


def _run(*extra, cwd=ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def _copy_tree(dest: Path, with_src: bool) -> Path:
    """BENCHMARK.json and this directory, plus ``src/`` when asked, in ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _run("--workload", workload, "--trace", str(trace), "--tiny")
            tag = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None, f"{tag}: exits 0 with a result line")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            expect(result["attempted"] >= 1 and result["failed"] == 0 and result["correct"],
                   f"{tag}: {result['attempted']} checked, none failed")
            wanted = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(got == wanted, f"{tag}: every {section} metric with its unit")

    # a copy of the checkout whose recorded U-cell rate of (kappa, lambda) =
    # (0.8, 7) is moved by ten tolerances
    copy = _copy_tree(SCRATCH / "perturbed", with_src=True)
    ref_path = copy / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    for row in ref["scan"]["rows"]:
        if row["kappa"] == 0.8:
            row["cells"][0]["lyap_minus"] *= 1.0 + 1e-8
    ref_path.write_text(json.dumps(ref))
    code, result = _run("--workload", "scan", "--trace", "1", "--tiny", cwd=copy)
    frac = result["metrics"]["failed_frac"]["value"] if result else None
    expect(code == 0 and result is not None and not result["correct"] and frac > 0,
           f"perturbed reference: failed_frac = {frac}")
    code, result = _run("--workload", "scan", "--trace", "0", "--tiny", cwd=copy)
    dev = result["metrics"]["answer_dev"]["value"] if result else None
    expect(result is not None and dev > 1, f"perturbed reference: answer_dev = {dev}")

    bare = _copy_tree(SCRATCH / "bare", with_src=False)
    code, result = _run("--workload", "scan", "--trace", "0", cwd=bare)
    expect(code != 0 and result is None, f"bare directory: exit {code}, no result line")
    shutil.rmtree(SCRATCH)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
