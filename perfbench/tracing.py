"""Tracing from outside the program.

``Tracer.install`` wraps fpverify's public functions in every fpverify
module namespace that holds them (``fpverify.verify.enumerate_cosets`` as
well as ``fpverify.coset.enumerate_cosets``), a few methods that carry a
layer's work (``CosetTable.compact``/``validate``/``standardize`` and the
``Scenario`` loaders), and ``Word.__init__``.  While a job is open, each
wrapped call records a span (name, start, end, parent, job id) in memory.
Word construction is only counted: it runs inside every other layer, and a
span around it would move its time out of its callers' self time.
``Tracer.restore`` puts every original back.  ``job_metrics`` turns one
job's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

from fpverify import certificates, corpus, coset, presentation, snf, verify
from fpverify.words import Word

LAYER_MODULES = (presentation, coset, snf, certificates, corpus, verify)
METHODS = (
    (coset, coset.CosetTable, ("compact", "validate", "standardize")),
    (corpus, corpus.Scenario, ("presentation", "certificates", "derivations")),
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _cert_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["cert"]


# Span attributes read from a wrapped call's arguments and result.
OBSERVERS = {
    "coset.enumerate_cosets": lambda a, k, r: {
        "defined": r.cosets_defined_total, "coincidences": r.coincidences,
        "live_max": r.cosets_live_max},
    "certificates.derive_by_collapse": lambda a, k, r: {"steps": len(r.steps)},
    "certificates.certificate_product": lambda a, k, r: {
        "factors": len(_cert_arg(a, k).factors)},
    "verify.run_scenario": lambda a, k, r: {
        "steps": len(r.steps),
        "failed": sum(s.status != "pass" for s in r.steps)},
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.job, self.attrs]


def wrap_targets() -> list[tuple[object, str, object, str]]:
    """(owner, attribute, original, span name) for every name to wrap."""
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "fpverify" or name.startswith("fpverify.")]
    targets = []
    for module in LAYER_MODULES:
        for name, fn in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            for ns in namespaces:
                for attr, value in vars(ns).items():
                    if value is fn:
                        targets.append((ns, attr, fn, f"{_layer(module)}.{name}"))
    for module, cls, names in METHODS:
        for name in names:
            targets.append((cls, name, cls.__dict__[name],
                            f"{_layer(module)}.{cls.__name__}.{name}"))
    return targets


class Tracer:
    """Records spans and Word counts for jobs run between install and
    restore.  Calls made while no job is open pass straight through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job: int | None = None
        self.words = [0, 0]  # Word objects built, letters passed in
        self.word_counts: dict[int, tuple[int, int]] = {}
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, original, name in wrap_targets():
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        self._saved.append((Word, "__init__", Word.__dict__["__init__"]))
        Word.__init__ = self._wrap_word_init(Word.__dict__["__init__"])

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_job(self, job: int) -> None:
        self.job = job
        self.words = [0, 0]

    def end_job(self) -> None:
        self.word_counts[self.job] = tuple(self.words)
        self.job = None

    def _wrap(self, name: str, fn):
        tracer = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = tracer.job
            if job is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = Span(len(tracer.spans), name, 0.0, 0.0,
                        stack[-1].id if stack else None, job)
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if observe is not None:
                span.attrs.update(observe(args, kwargs, result))
            return result

        return wrapper

    def _wrap_word_init(self, init):
        tracer = self

        @functools.wraps(init)
        def counted_init(word, letters=()):
            if tracer.job is not None:
                if type(letters) is not tuple and type(letters) is not list:
                    letters = tuple(letters)
                counts = tracer.words
                counts[0] += 1
                counts[1] += len(letters)
            init(word, letters)

        return counted_init


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# Time metrics: summed self time of the spans named (a trailing "." takes
# every span of that layer).
TIME_GROUPS = {
    "certificates.collapse_s": ("certificates.derive_by_collapse",),
    "certificates.verify_s": ("certificates.verify_certificate",
                              "certificates.verify_derivation",
                              "certificates.certificate_product"),
    "coset.enumerate_s": ("coset.enumerate_cosets", "coset.verify_trivial"),
    "coset.compact_s": ("coset.CosetTable.compact",),
    "coset.finish_s": ("coset.CosetTable.validate",
                       "coset.CosetTable.standardize"),
    "presentation.parse_s": ("presentation.parse_presentation",
                             "presentation.parse_word"),
    "corpus.load_s": ("corpus.",),
    "snf.h1_s": ("snf.",),
    "verify.self_s": ("verify.",),
}


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith(".") and name.startswith(p))
               for p in patterns)


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        p = by_id[parent]
        if p.name == name:
            return True
        parent = p.parent
    return False


def job_metrics(spans: list[Span], words: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of one job from its spans and Word counts."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    m = {metric: sum(selfs[s.id] for s in spans if _matches(s.name, names))
         for metric, names in TIME_GROUPS.items()}
    lemmas = [s for s in named("certificates.search_certificate")
              if _has_ancestor(s, "certificates.derive_by_collapse", by_id)]
    found = [s for s in lemmas if "raised" not in s.attrs]
    parses = [s for s in spans if _matches(s.name, TIME_GROUPS["presentation.parse_s"])]
    defined = attr_sum("coset.enumerate_cosets", "defined")
    m.update({
        "words.built": words[0],
        "words.letters_in": words[1],
        "certificates.lemmas": len(lemmas),
        "certificates.lemma_search_s": sum(s.end - s.start for s in lemmas),
        "certificates.lemma_found_ratio":
            len(found) / len(lemmas) if lemmas else 0.0,
        "certificates.derivation_steps":
            attr_sum("certificates.derive_by_collapse", "steps"),
        "certificates.factors_verified":
            attr_sum("certificates.certificate_product", "factors"),
        "coset.cosets_defined": defined,
        "coset.coincidences": attr_sum("coset.enumerate_cosets", "coincidences"),
        "coset.us_per_coset":
            m["coset.enumerate_s"] * 1e6 / defined if defined else 0.0,
        "coset.compactions": len(named("coset.CosetTable.compact")),
        "coset.live_max": max((s.attrs.get("live_max", 0)
                               for s in named("coset.enumerate_cosets")), default=0),
        "presentation.parse_calls": len(parses),
        "verify.steps": attr_sum("verify.run_scenario", "steps"),
        "verify.steps_failed": attr_sum("verify.run_scenario", "failed"),
    })
    return m
