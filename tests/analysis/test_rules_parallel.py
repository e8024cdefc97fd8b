"""RPP rule pack: true positives, true negatives, suppressions."""

from __future__ import annotations

from lintutils import active, rules_of


class TestSharedStateMutation:
    def test_flags_global_statement(self, lint):
        findings = lint("""\
            _CACHE = None

            def build():
                global _CACHE
                _CACHE = 1
        """)
        hits = rules_of(findings, "RPP003")
        assert len(hits) == 1
        assert "_CACHE" in hits[0].message

    def test_flags_rng_default_argument(self, lint):
        findings = lint("""\
            import numpy as np

            def sample(n, rng=np.random.default_rng(0)):
                return rng.random(n)
        """)
        hits = rules_of(findings, "RPP003")
        assert len(hits) == 1
        assert "default argument" in hits[0].message

    def test_allows_none_default_with_coercion(self, lint):
        findings = lint("""\
            from repro.utils.rng import as_generator

            def sample(n, rng=None):
                rng = as_generator(rng)
                return rng.random(n)
        """)
        assert rules_of(findings, "RPP003") == []


class TestWorkerMutatesEngineState:
    def test_flags_lambda_mutating_self_collection(self, lint):
        findings = lint("""\
            class Engine:
                def dispatch(self, pool, runner, u):
                    pool.submit(lambda: self.evals.append(runner(u)))
        """)
        hits = rules_of(findings, "RPP004")
        assert len(hits) == 1
        assert "self.evals.append" in hits[0].message

    def test_flags_nested_worker_assigning_self_attribute(self, lint):
        findings = lint("""\
            class Engine:
                def dispatch(self, pool, runner, u):
                    def task():
                        result = runner(u)
                        self.best = result
                        return result
                    pool.submit(task)
        """)
        hits = rules_of(findings, "RPP004")
        assert len(hits) == 1
        assert "assigns self.best" in hits[0].message

    def test_flags_augmented_assignment_through_subscript(self, lint):
        findings = lint("""\
            class Engine:
                def dispatch(self, pool, runner, i):
                    def task():
                        self.counts[i] += 1
                        return runner(i)
                    pool.submit(task)
        """)
        hits = rules_of(findings, "RPP004")
        assert len(hits) == 1
        assert "self.counts" in hits[0].message

    def test_allows_pure_worker_closure(self, lint):
        findings = lint("""\
            class Engine:
                def dispatch(self, pool, runner, u, threshold):
                    pool.submit(lambda r=runner, v=u, t=threshold: r(v, t))
        """)
        assert rules_of(findings, "RPP004") == []

    def test_allows_mutation_outside_the_worker(self, lint):
        findings = lint("""\
            class Engine:
                def fold(self, pool):
                    tag, result = pool.next_completed()
                    self.evals.append(result)
        """)
        assert rules_of(findings, "RPP004") == []

    def test_suppression(self, lint):
        findings = lint("""\
            class Engine:
                def dispatch(self, pool, runner, u):
                    def task():
                        self.started.add(u)  # repro: noqa RPP004 -- lock-guarded progress set; never read by decisions
                        return runner(u)
                    pool.submit(task)
        """)
        hits = rules_of(findings, "RPP004")
        assert len(hits) == 1 and hits[0].suppressed
        assert active(findings) == []


class TestUnboundedBlockingCall:
    def test_flags_bare_queue_get(self, lint):
        findings = lint("""\
            def drain(queue):
                return queue.get()
        """)
        hits = rules_of(findings, "RPP005")
        assert len(hits) == 1
        assert ".get()" in hits[0].message

    def test_flags_future_result_and_thread_join(self, lint):
        findings = lint("""\
            def wait_all(futures, worker):
                values = [f.result() for f in futures]
                worker.join()
                return values
        """)
        assert len(rules_of(findings, "RPP005")) == 2

    def test_allows_timeout_keyword(self, lint):
        findings = lint("""\
            def drain(queue, worker):
                item = queue.get(timeout=5.0)
                worker.join(timeout=1.0)
                return item
        """)
        assert rules_of(findings, "RPP005") == []

    def test_allows_positional_overloads(self, lint):
        # dict.get(key), str.join(parts) and os.path.join(a, b) all take
        # positionals — they are lookups, not blocking waits.
        findings = lint("""\
            import os

            def lookup(table, parts, a, b):
                return (table.get("key"), ",".join(parts),
                        os.path.join(a, b))
        """)
        assert rules_of(findings, "RPP005") == []

    def test_only_supervise_is_exempt(self, lint):
        findings = lint("""\
            def drain(queue):
                return queue.get()
        """, rel="src/repro/utils/parallel.py")
        assert len(rules_of(findings, "RPP005")) == 1

    def test_supervise_package_exempt(self, lint):
        findings = lint("""\
            def drain(queue):
                return queue.get()
        """, rel="src/repro/supervise/supervisor.py")
        assert rules_of(findings, "RPP005") == []

    def test_out_of_tree_modules_exempt(self, lint):
        findings = lint("""\
            def drain(queue):
                return queue.get()
        """, rel="benchmarks/test_smoke.py")
        assert rules_of(findings, "RPP005") == []

    def test_suppression(self, lint):
        findings = lint("""\
            def drain(queue):
                return queue.get()  # repro: noqa RPP005 -- producer guaranteed alive by construction; bounded by test harness
        """)
        hits = rules_of(findings, "RPP005")
        assert len(hits) == 1 and hits[0].suppressed
        assert active(findings) == []
