"""Concurrency analysis: the static lock-discipline rules.

:mod:`repro.analysis.concurrency.static` holds the ``REPRO-C`` lint
family (nested lock acquisition, blocking calls under locks / in async
bodies, fork-with-held-locks), wired into ``python -m repro.lint``.

See the "Concurrency analysis" section of docs/analysis.md.
"""

from repro.analysis.concurrency.static import CFinding, file_findings, in_scope

__all__ = ["CFinding", "file_findings", "in_scope"]
