"""scripts/unrun.py: the package functions no golden or benchmark input
enters."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "unrun.py"
spec = importlib.util.spec_from_file_location("unrun", SCRIPT)
unrun = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unrun)


def test_the_unrun_list_names_sampling_and_not_check_courant():
    """No verdict samples, so sampling.sample_poly is listed; every
    check-courant job enters courant.check_courant, so it is not."""
    names = unrun.unrun()
    assert "sampling.sample_poly" in names
    assert "courant.check_courant" not in names
