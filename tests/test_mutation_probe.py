"""The mutation probe's mutants still apply to the library they mutate."""

from pathlib import Path

from mutation_probe import EQUIVALENT, MUTANTS

SRC = Path(__file__).resolve().parents[1] / "src" / "curvbound"


def test_every_probe_mutant_applies_once():
    # a mutant whose old text is gone or repeated would stop the probe minutes
    # into its run; here it fails at once and names the mutant
    counts = {name: (SRC / file).read_text().count(old) for name, file, old, _ in MUTANTS}
    assert {name: count for name, count in counts.items() if count != 1} == {}
    assert len(counts) == len(MUTANTS)  # names are unique
    assert set(EQUIVALENT) <= set(counts)
