#!/usr/bin/env python3
"""Layering lint for src/: fails when a module includes a higher layer, or
when the `ompfuzz` source list in CMakeLists.txt and the src/**/*.cpp files
on disk disagree (a file missing from the list, or a listed file that does
not exist), so deleting a module cannot leave a stale entry or an orphan.

The dependency order of the library, lowest first:

    support < fp < ast < {interp, emit, runtime} < profiler < analysis
            < core < {harness, reduce}

A file in module M may include headers from modules of rank <= rank(M);
same-rank includes (within one module, or between modules sharing a rank)
are fine. The inversion this guards against most directly: ast must never
depend on fp's classification tables (fixed in PR 1), and fp must never
grow an include of ast in return.

Cross-cutting instrumentation lives at rank 0 on purpose: the fault
injector (support/fault_injection) and the telemetry registry/tracer
(support/telemetry) are included by harness, store, and executor code
alike, which is only legal because they sit in support and depend on
nothing above it. Keep it that way — if fault_injection or telemetry ever
needs a type from a higher layer, pass the data in, don't include up.
(The metrics sampler, which knows campaign-level names, sits above in
harness/campaign_metrics for the same reason.)

tests/, bench/, and examples/ sit on top of everything and are exempt.

Usage: tools/check_layering.py [repo_root]   (exits 1 on any violation)
"""
import re
import sys
from pathlib import Path

RANK = {
    "support": 0,
    "fp": 1,
    "ast": 2,
    "interp": 3,
    "emit": 3,
    "runtime": 3,
    "profiler": 4,
    "analysis": 5,
    "core": 6,
    "harness": 7,
    "reduce": 7,
}

# Grandfathered edges (includer-path, included-header), checked verbatim.
# Empty and asserted so: the last exception (result_store -> core/outlier)
# died when the RunStatus/RunResult vocabulary moved down into
# support/run_result.hpp. Fix inversions by moving the shared vocabulary
# down a layer, never by adding an entry here.
EXCEPTIONS = {}
assert not EXCEPTIONS, "no grandfathered layering exceptions are allowed"

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
LIBRARY_RE = re.compile(r"add_library\(ompfuzz\s+STATIC\s+([^)]*)\)")


def source_list_violations(root: Path) -> list:
    """Differences between the ompfuzz target's sources and src/**/*.cpp."""
    m = LIBRARY_RE.search((root / "CMakeLists.txt").read_text())
    if not m:
        return ["CMakeLists.txt: no add_library(ompfuzz STATIC ...) source list"]
    listed = {tok for tok in m.group(1).split() if tok.endswith(".cpp")}
    on_disk = {p.relative_to(root).as_posix() for p in (root / "src").rglob("*.cpp")}
    return [f"{rel}: not in the ompfuzz source list in CMakeLists.txt"
            for rel in sorted(on_disk - listed)] + [
        f"CMakeLists.txt: ompfuzz lists {rel}, which does not exist"
        for rel in sorted(listed - on_disk)]


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    src = root / "src"
    if not src.is_dir():
        print(f"check_layering: no src/ under {root}", file=sys.stderr)
        return 2

    violations = source_list_violations(root)
    checked = 0
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        module = path.relative_to(src).parts[0]
        if module not in RANK:
            violations.append(f"{rel}: unknown module '{module}' — add it to RANK")
            continue
        checked += 1
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            header = m.group(1)
            target = header.split("/")[0]
            if target not in RANK:
                continue  # non-project include quoted by style
            if (rel, header) in EXCEPTIONS:
                continue
            if RANK[target] > RANK[module]:
                violations.append(
                    f"{rel}:{lineno}: {module} (rank {RANK[module]}) includes "
                    f'"{header}" ({target}, rank {RANK[target]})'
                )
            if module == "fp" and target == "ast":
                # Redundant with the rank test, but stated explicitly: this
                # is the PR 1 inversion and must never come back.
                violations.append(f"{rel}:{lineno}: fp must not include ast")

    if violations:
        print(f"check_layering: {len(violations)} violation(s) in {checked} files:")
        for v in violations:
            print(f"  {v}")
        return 1
    print(f"check_layering: OK ({checked} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
