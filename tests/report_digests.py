"""SHA-256 digests of what ``curvbound verify`` and ``sturm`` write, to diff two checkouts.

For each bundled scenario at resolutions 16, 32 and 48 it runs ``verify``
with ``--emit-report`` and ``--emit-samples`` and prints one digest each of
the report JSON (``timing_ms`` masked), the stdout (the run time and the
output paths masked) and the samples CSV.  For a few growth bounds it also
prints the digests of ``sturm``'s stdout and CSV.  It imports the library
from the ``src/`` beside it, so run it from the root of each checkout and
diff the outputs:

    python tests/report_digests.py > digests.txt

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from curvbound.cli import main  # noqa: E402
from curvbound.harness import bundled_scenarios  # noqa: E402

RESOLUTIONS = (16, 32, 48)
STURM_BOUNDS = ("const(1)", "const(2)", "affine(1,1)", "sqrt_growth(1)", "sqrt_growth(0)")
STURM_T = "5"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list, tmp: Path) -> bytes:
    """The stdout of ``curvbound <argv>``, with the temporary directory masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue().replace(str(tmp), "<dir>").encode()


def verify_digests(name: str, resolution: int, tmp: Path) -> dict:
    report, samples = tmp / "report.json", tmp / "samples.csv"
    stdout = run(["verify", "--scenario", name, "--resolution", str(resolution),
                  "--emit-report", str(report), "--emit-samples", str(samples)], tmp)
    stdout = re.sub(rb"\([0-9.]+ ms\)", b"(<ms> ms)", stdout)
    masked = json.loads(report.read_text())
    masked["timing_ms"] = None
    return {"report": sha(json.dumps(masked, indent=2).encode()), "stdout": sha(stdout),
            "samples": sha(samples.read_bytes())}


def sturm_digests(spec: str, tmp: Path) -> dict:
    profile = tmp / "sturm.csv"
    stdout = run(["sturm", "--G", spec, "--T", STURM_T, "--emit-csv", str(profile)], tmp)
    return {"stdout": sha(stdout), "csv": sha(profile.read_bytes())}


def main_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in bundled_scenarios():
            for resolution in RESOLUTIONS:
                for kind, digest in verify_digests(name, resolution, tmp).items():
                    print(f"verify {name} {resolution} {kind} {digest}", flush=True)
        for spec in STURM_BOUNDS:
            for kind, digest in sturm_digests(spec, tmp).items():
                print(f"sturm {spec} T={STURM_T} {kind} {digest}", flush=True)


if __name__ == "__main__":
    main_digests()
