"""The committed coverage manifest gate: regressions and stale
compiler tags are problems, a freshly written manifest is clean."""

import json

from repro.kernel.compiler import COMPILER_TAG
from repro.kernel.coverage import (
    MANIFEST,
    CoverageRow,
    check_manifest,
    write_manifest,
)

ROWS = [CoverageRow("demo.auto", "compiled", "1 sites")]


def rewrite_manifest(root, **changes):
    path = root / MANIFEST
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.update(changes)
    path.write_text(json.dumps(payload), encoding="utf-8")


class TestCheckManifest:
    def test_fresh_manifest_is_clean(self, tmp_path):
        write_manifest(ROWS, tmp_path)
        assert check_manifest(ROWS, tmp_path) == []

    def test_stale_compiler_tag_is_a_problem(self, tmp_path):
        write_manifest(ROWS, tmp_path)
        rewrite_manifest(tmp_path, compiler="0:stale")
        problems = check_manifest(ROWS, tmp_path)
        assert len(problems) == 1
        assert "'0:stale'" in problems[0]
        assert repr(COMPILER_TAG) in problems[0]

    def test_coverage_regression_is_a_problem(self, tmp_path):
        write_manifest(ROWS, tmp_path)
        fallback = [CoverageRow("demo.auto", "fallback", "not a generator")]
        assert check_manifest(fallback, tmp_path) == [
            "demo.auto: coverage regressed 'compiled' -> 'fallback'"
        ]
