"""Top-level package surface."""

import importlib
import pkgutil

import repro


def _packages():
    """``repro`` and every subpackage under it, imported."""
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        """Every name in any package's ``__all__`` resolves, so a deleted
        name left in an export list fails here."""
        for package in _packages():
            for name in getattr(package, "__all__", ()):
                assert getattr(package, name) is not None, (package.__name__, name)

    def test_policies_exported(self):
        assert repro.POLICIES["Dynamic"] is repro.DYNAMIC
        assert repro.POLICIES["Equipartition"] is repro.EQUIPARTITION

    def test_quickstart_snippet_runs(self):
        """The README/docstring quickstart must keep working."""
        result = repro.run_mix(1, repro.DYN_AFF, seed=1)
        assert result.mean_response_time() > 0

    def test_applications_registry(self):
        assert set(repro.APPLICATIONS) == {"MVA", "MATRIX", "GRAVITY"}

    def test_machine_constants(self):
        assert repro.SEQUENT_SYMMETRY.n_processors == 20
        fast = repro.future_machine(4.0, 2.0)
        assert fast.processor_speed == 4.0
