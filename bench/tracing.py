"""Spans around calls into each fma_tv module, installed from outside.

`Tracer.install()` replaces module and class attributes with timing
wrappers and restores them on exit; the package itself is not modified.
Spans are aggregated in memory per name (calls, inclusive time, time spent
in child spans), which is enough to give every layer its self time.  A
patch target that no longer exists is skipped and listed in `missing`, so
a later refactor shows up as a zero layer rather than a crash.
"""

from __future__ import annotations

import contextlib
import time

from fma_tv import cli, denotation, error_model, refinement


class _Stat:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.missing: list[str] = []
        # id of a block or compiled bound -> the span name its calls are booked under
        self.labels: dict[int, str] = {}
        self.blocks: dict[str, object] = {}
        self.render_end = 0.0
        self._stack: list[float] = []

    def stat(self, name: str) -> _Stat:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = _Stat()
        return s

    def _wrap(self, name, fn, label_arg: bool = False):
        """Time `fn`; with `label_arg`, book the call under the label of its first argument."""
        stack = self._stack
        clock = time.perf_counter
        labels = self.labels
        stat = self.stat
        fixed = None if label_arg else stat(name)

        def span(*args, **kwargs):
            s = fixed or stat(labels.get(id(args[0]), name))
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                s.calls += 1
                s.total += dt
                s.child += stack.pop()
                if stack:
                    stack[-1] += dt

        return span

    def _hooks(self):
        """(owner, attribute, wrapper factory) for every traced entry point."""
        tracer = self

        def checker_init(orig_init):
            timed = tracer._wrap("refinement.checker_init", orig_init)

            def init(checker, *args, **kwargs):
                timed(checker, *args, **kwargs)
                for tag in ("original", "optimized"):
                    block = getattr(checker, tag, None)
                    tracer.labels[id(block)] = f"denotation.interp_{tag}"
                    tracer.blocks[tag] = block

            return init

        def compiler(tag):
            def factory(orig):
                timed = tracer._wrap("error_model.compile", orig)

                def compile_bound(*args, **kwargs):
                    compiled = timed(*args, **kwargs)
                    tracer.labels[id(compiled)] = f"error_model.{tag}_bound"
                    return compiled

                return compile_bound

            return factory

        def render(orig):
            timed = tracer._wrap("cli.report_render", orig)

            def wrapped(*args, **kwargs):
                try:
                    return timed(*args, **kwargs)
                finally:
                    tracer.render_end = time.perf_counter()

            return wrapped

        def plain(name, label_arg=False):
            return lambda fn: tracer._wrap(name, fn, label_arg)

        return [
            (cli, "cmd_validate", plain("cli.validate")),
            (cli, "sample_tuple", plain("cli.sample_tuple")),
            (cli, "corpus_tuples", plain("cli.corpus_tuples")),
            (cli, "parse_module", plain("ir_core.parse_module")),
            (cli, "load_alignment", plain("refinement.load_alignment")),
            (cli.Report, "render", render),
            (refinement.EquivChecker, "__init__", checker_init),
            (refinement.EquivChecker, "check", plain("refinement.check")),
            (refinement.Verdict, "to_json", plain("refinement.verdict_to_json")),
            (refinement, "interp_cfg2", plain("denotation.interp_cfg2", label_arg=True)),
            (refinement, "compile_derived_bound", compiler("derived")),
            (refinement, "compile_paper_bound", compiler("paper")),
            (error_model.CompiledBound, "__call__", plain("error_model.bound_call", label_arg=True)),
            (error_model.CompiledBound, "_eval_exact", plain("error_model.exact_eval")),
            (denotation, "b64_fma", plain("fp_semantics.b64_fma")),
        ]

    @contextlib.contextmanager
    def install(self):
        saved = []
        self.missing = []
        try:
            for owner, attr, factory in self._hooks():
                orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if orig is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, orig))
                setattr(owner, attr, factory(orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
