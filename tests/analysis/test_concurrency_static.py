"""Static concurrency rules (REPRO-C family): per-rule unit tests over
synthetic sources, including the nested-acquisition shapes REPRO-C001
must flag and the sequential ones it must leave alone."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.concurrency.static import file_findings, in_scope
from repro.analysis.static.lint import lint_source


def src(text: str) -> str:
    return textwrap.dedent(text)


def rules(findings):
    return [f.rule for f in findings]


class TestC002BlockingUnderLock:
    def test_sleep_under_lock_flagged(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import threading, time
            LOCK = threading.Lock()
            def f():
                with LOCK:
                    time.sleep(1)
        """)))
        assert rules(found) == ["REPRO-C002"]
        assert found[0].symbol == "f"
        assert "time.sleep" in found[0].message

    def test_sleep_without_lock_passes(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import time
            def f():
                time.sleep(1)
        """)))
        assert found == []

    def test_open_under_aliased_lock_flagged(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import threading
            def f(self):
                guard = threading.Lock()
                with guard:
                    data = open("x").read()
        """)))
        assert rules(found) == ["REPRO-C002"]

    def test_flock_under_stripe_flagged(self):
        # A lock looked up in a table and aliased: the blocking flock
        # under it is C002 (and, as a second lock, C001).
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import fcntl
            class Cache:
                def f(self, fd, shard):
                    stripe = self._locks[shard]
                    with stripe:
                        fcntl.flock(fd, fcntl.LOCK_EX)
        """)))
        assert rules(found) == ["REPRO-C002", "REPRO-C001"]
        assert "Cache._locks" in found[0].message

    def test_blocking_after_with_block_passes(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import threading, time
            LOCK = threading.Lock()
            def f():
                with LOCK:
                    x = 1
                time.sleep(1)
        """)))
        assert found == []

    def test_out_of_scope_module_exempt(self):
        assert not in_scope("kernels/blocked.py")
        found = file_findings("kernels/blocked.py", ast.parse(src("""
            import threading, time
            LOCK = threading.Lock()
            def f():
                with LOCK:
                    time.sleep(1)
        """)))
        assert found == []


class TestC003BlockingInAsync:
    def test_sleep_in_async_flagged(self):
        found = file_findings("serve/fake.py", ast.parse(src("""
            import time
            async def handler():
                time.sleep(0.1)
        """)))
        assert rules(found) == ["REPRO-C003"]

    def test_asyncio_sleep_passes(self):
        found = file_findings("serve/fake.py", ast.parse(src("""
            import asyncio
            async def handler():
                await asyncio.sleep(0.1)
        """)))
        assert found == []

    def test_file_io_in_async_flagged(self):
        found = file_findings("serve/fake.py", ast.parse(src("""
            async def handler(path):
                return open(path).read()
        """)))
        assert rules(found) == ["REPRO-C003"]

    def test_nested_sync_def_not_flagged(self):
        # A sync closure defined inside an async body runs wherever it is
        # called (typically the executor) — only the async body itself is
        # loop-confined.
        found = file_findings("serve/fake.py", ast.parse(src("""
            import time
            async def handler(loop):
                def work():
                    time.sleep(0.1)
                await loop.run_in_executor(None, work)
        """)))
        assert found == []


class TestC004ForkUnderLock:
    def test_pool_dispatch_under_lock_flagged(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import threading
            LOCK = threading.Lock()
            def f(pool, g):
                with LOCK:
                    return pool.apply_async(g)
        """)))
        assert rules(found) == ["REPRO-C004"]

    def test_pool_creation_under_lock_flagged(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import multiprocessing, threading
            LOCK = threading.Lock()
            def f():
                with LOCK:
                    return multiprocessing.Pool(2)
        """)))
        assert rules(found) == ["REPRO-C004"]

    def test_pool_dispatch_without_lock_passes(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            def f(pool, g):
                return pool.apply_async(g)
        """)))
        assert found == []

    def test_non_pool_receiver_not_flagged(self):
        found = file_findings("sweep/fake.py", ast.parse(src("""
            import threading
            LOCK = threading.Lock()
            def f(results):
                with LOCK:
                    return results.join()
        """)))
        assert found == []


class TestC001NestedAcquisition:
    def c001(self, text):
        found = file_findings("sweep/fake.py", ast.parse(src(text)))
        return [f for f in found if f.rule == "REPRO-C001"]

    def test_direct_nesting_flagged(self):
        found = self.c001("""
            import threading
            LOCK_A = threading.Lock()
            LOCK_B = threading.Lock()
            def f():
                with LOCK_A:
                    with LOCK_B:
                        pass
        """)
        assert len(found) == 1
        assert found[0].symbol == "f" and found[0].line == 7
        assert "sweep.fake:LOCK_B" in found[0].message
        assert "sweep.fake:LOCK_A" in found[0].message

    def test_consistent_order_nesting_flagged(self):
        # Two functions nesting in the same order form no cycle, but each
        # nesting is still a finding: the rule forbids nesting outright.
        found = self.c001("""
            import threading
            LOCK_A = threading.Lock()
            LOCK_B = threading.Lock()
            def one():
                with LOCK_A:
                    with LOCK_B:
                        pass
            def two():
                with LOCK_A:
                    with LOCK_B:
                        pass
        """)
        assert sorted(f.symbol for f in found) == ["one", "two"]

    def test_same_module_helper_under_lock_flagged(self):
        found = self.c001("""
            import threading
            LOCK_A = threading.Lock()
            LOCK_B = threading.Lock()
            def outer():
                with LOCK_A:
                    helper()
            def helper():
                with LOCK_B:
                    pass
        """)
        assert len(found) == 1
        assert found[0].symbol == "outer" and found[0].line == 7
        assert "helper()" in found[0].message

    def test_shard_lock_then_with_lock_flagged(self):
        # `with self._shard_lock():` is an acquisition in its own right
        # (a lock-named context manager), so a lock under it nests.
        found = self.c001("""
            import contextlib, fcntl, threading
            LOCK_B = threading.Lock()
            class C:
                @contextlib.contextmanager
                def _shard_lock(self, fd):
                    fcntl.flock(fd, fcntl.LOCK_EX)
                    yield
                def f(self, fd):
                    with self._shard_lock(fd):
                        with LOCK_B:
                            pass
        """)
        assert len(found) == 1
        assert found[0].symbol == "f" and found[0].line == 11
        assert "C._shard_lock" in found[0].message

    def test_flock_under_lock_flagged(self):
        found = self.c001("""
            import fcntl, threading
            LOCK = threading.Lock()
            def f(fd):
                with LOCK:
                    fcntl.flock(fd, fcntl.LOCK_EX)
        """)
        assert len(found) == 1
        assert "sweep.fake:flock" in found[0].message

    def test_stats_lock_counted_under_shard_lock_flagged(self):
        # A method counting a stat under the shard lock takes the stats
        # lock inside the flock (the shape PersistentCache.gc must avoid).
        found = self.c001("""
            import contextlib, fcntl, os, threading
            class Cache:
                @contextlib.contextmanager
                def _shard_lock(self, shard):
                    fd = os.open(shard, os.O_RDWR)
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX)
                        yield
                    finally:
                        os.close(fd)
                def _count(self, counter):
                    with self._stats_lock:
                        self.n += 1
                def gc(self, shard, path):
                    with self._shard_lock(shard):
                        os.unlink(path)
                        self._count("evicted")
        """)
        assert len(found) == 1
        assert found[0].symbol == "gc" and found[0].line == 18
        assert "self._count()" in found[0].message
        assert "Cache._stats_lock" in found[0].message

    def test_sequential_acquisitions_clean(self):
        found = self.c001("""
            import fcntl, threading
            LOCK_A = threading.Lock()
            LOCK_B = threading.Lock()
            def helper():
                with LOCK_B:
                    pass
            def f(fd):
                with LOCK_A:
                    x = 1
                with LOCK_B:
                    y = 2
                helper()
                fcntl.flock(fd, fcntl.LOCK_EX)
        """)
        assert found == []

    def test_call_into_other_module_not_followed(self):
        # Resolution stays inside the file: `two.take_b()` is not
        # analyzed even if that function takes a lock.
        found = self.c001("""
            import threading
            from repro.sweep import two
            LOCK_A = threading.Lock()
            def f():
                with LOCK_A:
                    two.take_b()
        """)
        assert found == []


class TestLintIntegration:
    def test_lint_source_runs_c_rules(self):
        found = lint_source(src("""
            import threading, time
            LOCK = threading.Lock()
            def f():
                with LOCK:
                    time.sleep(1)
        """), "sweep/fake.py")
        assert [f.rule for f in found] == ["REPRO-C002"]

    def test_inline_allow_suppresses_c_rule(self):
        found = lint_source(src("""
            import threading, time
            LOCK = threading.Lock()
            def f():
                with LOCK:
                    # repro-lint: allow REPRO-C002 (test pacing)
                    time.sleep(1)
        """), "sweep/fake.py")
        assert len(found) == 1 and found[0].allowed
        assert found[0].allow_source == "inline"
