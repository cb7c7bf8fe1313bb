"""Completeness gate: every algorithm module on disk is declared.

A module added under ``src/repro/algorithms/`` without a
``LINT_SCHEMAS`` entry would silently escape the analyzer; this test
turns that gap into a failure.  Genuinely out-of-scope modules must be
listed in ``EXEMPT`` with a reason, which keeps the exemption itself
reviewable.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro import algorithms

#: module stem -> reason it is exempt from lint schema coverage.
EXEMPT: dict[str, str] = {}


def on_disk_modules():
    package_dir = Path(algorithms.__file__).parent
    return {
        path.stem
        for path in package_dir.glob("*.py")
        if path.stem != "__init__" and not path.stem.startswith("_")
    }


class TestSchemaCompleteness:
    def test_every_module_on_disk_has_a_schema(self):
        missing = (
            on_disk_modules() - set(algorithms.LINT_SCHEMAS) - set(EXEMPT)
        )
        assert not missing, (
            "algorithm modules without a LINT_SCHEMAS entry (add a "
            f"schema or an EXEMPT reason): {sorted(missing)}"
        )

    def test_no_dangling_schema_entries(self):
        dangling = set(algorithms.LINT_SCHEMAS) - on_disk_modules()
        assert not dangling, (
            f"LINT_SCHEMAS names modules that do not exist: "
            f"{sorted(dangling)}"
        )

    def test_exemptions_are_live_and_justified(self):
        for stem, reason in EXEMPT.items():
            assert stem in on_disk_modules(), (
                f"stale exemption for deleted module {stem!r}"
            )
            assert stem not in algorithms.LINT_SCHEMAS, (
                f"{stem!r} is both exempted and declared"
            )
            assert reason.strip(), f"exemption for {stem!r} needs a reason"

    def test_schemas_match_public_exports(self):
        assert set(algorithms.LINT_SCHEMAS) == set(algorithms.__all__)


class TestSchemaLocation:
    def test_importing_the_algorithms_does_not_load_the_analyzer(self):
        # The schemas live beside the algorithms so that campaign
        # workers and the kernel cache pay for the algorithms only.
        src = str(Path(algorithms.__file__).parents[2])
        probe = (
            "import sys, repro.algorithms; "
            "print(sorted(m for m in ('repro.lint', 'repro.checker') "
            "if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        ).stdout
        assert out.strip() == "[]"

    def test_lint_reexports_the_schema_classes(self):
        from repro import lint

        assert lint.ModuleSchema is algorithms.ModuleSchema
        assert lint.RegisterSchema is algorithms.RegisterSchema
