"""Contract linter: per-rule unit tests over synthetic sources, the seeded
kernel-signature mutation (exactly one REPRO-K001), the repo's own
cleanliness under ``--strict``, allowlist mechanics, and the CLI
exit-code/format contract (0 clean, 1 findings, 2 internal error)."""

from __future__ import annotations

import json
import textwrap

import pytest

import repro.analysis.static.lint as lint_mod
from repro.analysis.static.lint import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL,
    format_text,
    lint_source,
    main,
    parse_allowlist,
    run_lint,
)


def src(text: str) -> str:
    return textwrap.dedent(text)


def active(findings):
    return [f for f in findings if not f.allowed]


class TestK001KernelContract:
    def test_seeded_mutation_exactly_one_finding(self):
        """The acceptance-criteria mutation: a public kernel without
        accumulate_dtype."""
        found = lint_source(src("""
            import numpy as np

            def injected_stats(x):
                return x.mean(axis=0), x.var(axis=0)
        """), "kernels/injected.py")
        assert len(found) == 1
        assert found[0].rule == "REPRO-K001"
        assert found[0].symbol == "injected_stats"

    def test_accumulate_dtype_param_passes(self):
        found = lint_source(src("""
            def good_stats(x, accumulate_dtype=None):
                return x
        """), "kernels/injected.py")
        assert found == []

    def test_private_defs_exempt(self):
        found = lint_source(src("""
            def _helper(x):
                return x
        """), "kernels/injected.py")
        assert found == []

    def test_out_of_scope_module_exempt(self):
        found = lint_source(src("""
            def free_function(x):
                return x
        """), "perf/simulator.py")
        assert found == []

    def test_inline_allow_suppresses(self):
        found = lint_source(src("""
            # repro-lint: allow REPRO-K001 (fixed-width by design)
            def strict_variant(x):
                return x
        """), "kernels/injected.py")
        assert len(found) == 1 and found[0].allowed
        assert found[0].allow_source == "inline"


class TestDeterminismRules:
    def test_det001_global_random(self):
        found = lint_source("import random\nv = random.random()\n",
                            "sweep/fake.py")
        assert [f.rule for f in active(found)] == ["REPRO-DET001"]

    def test_det001_seedless_Random(self):
        found = lint_source("import random\nr = random.Random()\n",
                            "faults/fake.py")
        assert [f.rule for f in active(found)] == ["REPRO-DET001"]

    def test_seeded_Random_passes(self):
        found = lint_source("import random\nr = random.Random(42)\n",
                            "sweep/fake.py")
        assert found == []

    def test_det001_legacy_np_random(self):
        found = lint_source("import numpy as np\nv = np.random.rand(3)\n",
                            "sweep/fake.py")
        assert [f.rule for f in found] == ["REPRO-DET001"]

    def test_seeded_default_rng_passes(self):
        found = lint_source(
            "import numpy as np\nr = np.random.default_rng(7)\n",
            "sweep/fake.py")
        assert found == []

    def test_det002_wall_clock(self):
        found = lint_source("import time\nt = time.time()\n",
                            "sweep/fake.py")
        assert [f.rule for f in found] == ["REPRO-DET002"]

    def test_monotonic_and_sleep_pass(self):
        found = lint_source(
            "import time\nt = time.monotonic()\ntime.sleep(0.1)\n",
            "sweep/fake.py")
        assert found == []

    def test_det002_datetime_now(self):
        found = lint_source(
            "import datetime\nd = datetime.datetime.now()\n",
            "faults/fake.py")
        assert [f.rule for f in found] == ["REPRO-DET002"]

    def test_out_of_scope_dir_exempt(self):
        found = lint_source("import time\nt = time.time()\n",
                            "perf/fake.py")
        assert found == []


class TestAllocRule:
    def test_ufunc_without_out_flagged(self):
        found = lint_source(
            "import numpy as np\ndef f(a, b, accumulate_dtype=None):\n"
            "    return np.multiply(a, b)\n",
            "kernels/blocked.py")
        assert [f.rule for f in found] == ["REPRO-ALLOC001"]

    def test_ufunc_with_out_passes(self):
        found = lint_source(
            "import numpy as np\ndef f(a, b, accumulate_dtype=None):\n"
            "    return np.multiply(a, b, out=a)\n",
            "kernels/blocked.py")
        assert found == []

    def test_empty_like_flagged(self):
        found = lint_source(
            "import numpy as np\ndef f(a, accumulate_dtype=None):\n"
            "    return np.empty_like(a)\n",
            "kernels/blocked.py")
        assert [f.rule for f in found] == ["REPRO-ALLOC001"]

    def test_out_of_scope_kernel_module_exempt(self):
        found = lint_source(
            "import numpy as np\ndef f(a, accumulate_dtype=None):\n"
            "    return np.empty_like(a)\n",
            "kernels/bn_stats.py")
        assert found == []


class TestRepoIsClean:
    def test_repo_lints_clean(self):
        report = run_lint()
        assert report.clean, format_text(report)
        assert report.files_checked > 50
        # The intentional exceptions stay visible as suppressions.
        assert any(f.rule == "REPRO-K001" for f in report.suppressed)
        assert any(f.rule == "REPRO-ALLOC001" for f in report.suppressed)
        assert any(f.rule == "REPRO-DET002" for f in report.suppressed)
        # The atomic publish inside store's shard lock is allowlisted
        # (LINT_ALLOWLIST), not silently invisible.
        assert any(f.rule == "REPRO-C002" and f.allow_source == "allowlist"
                   and f.symbol == "store" for f in report.suppressed)

    def test_repo_strict_graph_sweep_clean(self, monkeypatch):
        monkeypatch.setattr(lint_mod, "STRICT_MODELS", ("tiny_cnn",))
        monkeypatch.setattr(lint_mod, "STRICT_PRECISIONS", ("fp16",))
        report = run_lint(strict=True)
        assert report.clean, format_text(report)


class TestWalkHygiene:
    def _pkg(self, tmp_path):
        root = tmp_path / "pkg"
        (root / "sweep").mkdir(parents=True)
        (root / "sweep" / "ok.py").write_text("x = 1\n")
        return root

    def test_walk_skips_pycache_and_sweep_cache(self, tmp_path):
        root = self._pkg(tmp_path)
        for skipped in ("__pycache__", ".sweep_cache"):
            (root / skipped).mkdir()
            # Unparseable on purpose: reaching these files would raise.
            (root / skipped / "junk.py").write_text("def broken(:\n")
        report = run_lint(root=root, allowlist_path=tmp_path / "none")
        assert report.clean
        assert report.files_checked == 1

    def test_unparseable_file_is_clean_error(self, tmp_path):
        root = self._pkg(tmp_path)
        (root / "sweep" / "bad.py").write_text("def broken(:\n")
        with pytest.raises(ValueError, match="cannot parse sweep/bad.py"):
            run_lint(root=root, allowlist_path=tmp_path / "none")

    def test_unreadable_file_is_clean_error(self, tmp_path):
        root = self._pkg(tmp_path)
        bad = root / "sweep" / "noread.py"
        bad.write_text("x = 1\n")
        bad.chmod(0o000)
        try:
            if bad.read_text() is not None:  # running as root: no EACCES
                pytest.skip("cannot make file unreadable on this platform")
        except OSError:
            pass
        with pytest.raises(ValueError, match="cannot read sweep/noread.py"):
            run_lint(root=root, allowlist_path=tmp_path / "none")


class TestAllowlistFile:
    def test_entry_suppresses_and_strict_flags_stale(self, tmp_path):
        allow = tmp_path / "LINT_ALLOWLIST"
        allow.write_text(
            "# comment lines are fine\n"
            "REPRO-DET002 sweep/persist.py  mtime comparison\n"
            "REPRO-K001 kernels/never_existed.py::ghost  stale entry\n"
        )
        entries = parse_allowlist(allow)
        assert len(entries) == 2
        report = run_lint(allowlist_path=allow, strict=True,
                          paths=["sweep/persist.py"])
        stale = [f for f in report.active if f.rule == "REPRO-META001"]
        assert len(stale) == 2  # neither matched: persist.py allows inline
        assert not report.clean

    def test_strict_stale_checking_covers_c_family(self, tmp_path):
        """A REPRO-C allowlist entry that matches nothing is flagged
        stale like any other rule family."""
        allow = tmp_path / "LINT_ALLOWLIST"
        allow.write_text(
            "REPRO-C002 sweep/never_existed.py::ghost  stale entry\n")
        report = run_lint(allowlist_path=allow, strict=True,
                          paths=["sweep/cache.py"])
        stale = [f for f in report.active if f.rule == "REPRO-META001"]
        assert len(stale) == 1
        assert "REPRO-C002" in stale[0].message

    def test_malformed_entry_raises(self, tmp_path):
        allow = tmp_path / "LINT_ALLOWLIST"
        allow.write_text("JUSTARULE\n")
        with pytest.raises(ValueError, match="malformed allowlist entry"):
            parse_allowlist(allow)


class TestCli:
    def test_clean_exit_and_text_format(self, capsys):
        assert main(["kernels/bn_stats.py"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "clean" in out

    def test_json_format_contract(self, capsys):
        assert main(["--format", "json", "kernels/blocked.py"]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert "findings" in payload and "counts_by_rule" in payload
        # suppressed findings are reported, marked allowed
        assert all(f["allowed"] for f in payload["findings"])

    def test_findings_exit_code(self, tmp_path, capsys):
        allow = tmp_path / "LINT_ALLOWLIST"
        allow.write_text("REPRO-K001 kernels/never_existed.py  stale\n")
        rc = main(["--strict", "--allowlist", str(allow),
                   "kernels/bn_stats.py"])
        assert rc == EXIT_FINDINGS
        assert "REPRO-META001" in capsys.readouterr().out

    def test_internal_error_exit_code(self, tmp_path, capsys):
        allow = tmp_path / "LINT_ALLOWLIST"
        allow.write_text("MALFORMED\n")
        assert main(["--allowlist", str(allow)]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err

    def test_repo_relative_path_spellings_accepted(self, capsys):
        """`src/repro/...`, `repro/...` and bare package-relative paths
        all select the same file — a prefixed path must never silently
        lint zero files."""
        for spelling in ("kernels/bn_stats.py", "repro/kernels/bn_stats.py",
                         "src/repro/kernels/bn_stats.py"):
            assert main([spelling]) == EXIT_CLEAN
            assert "1 files checked" in capsys.readouterr().out

    def test_directory_path_selects_subtree(self, capsys):
        assert main(["kernels"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "0 findings" in out and "1 files checked" not in out

    def test_nonexistent_path_is_an_error(self, capsys):
        assert main(["does/not/exist.py"]) == EXIT_INTERNAL
        assert "match" in capsys.readouterr().err

    def test_experiments_alias(self, capsys):
        from repro.experiments.runner import main as exp_main

        assert exp_main(["lint", "kernels/bn_stats.py"]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_text_output_groups_by_rule_then_file(self, monkeypatch,
                                                  tmp_path, capsys):
        """CI contract: findings grouped by rule id, then by file."""
        allow = tmp_path / "LINT_ALLOWLIST"
        allow.write_text(
            "REPRO-K001 kernels/a.py  stale one\n"
            "REPRO-ALLOC001 kernels/b.py  stale two\n")
        rc = main(["--strict", "--allowlist", str(allow),
                   "kernels/bn_stats.py"])
        assert rc == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert out.index("REPRO-META001") < out.index("LINT_ALLOWLIST")
