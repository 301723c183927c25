"""Spans around the public functions of each probmink module.

`Tracer.prepare` wraps every public function defined in the layer
modules, each `Distribution` subclass's `digit_of`, `DigitSeq`'s
canonicalising `__post_init__` and `cli.main`. A wrapper replaces the
original in every probmink namespace that holds it (`minkowski.shift`,
`cli.decode_periodic`, the package itself) while the tracer is enabled,
so calls are traced whichever module makes them. Each call appends a span (name, start, end, parent,
op, note) to an in-memory list; a layer's self time is its spans'
duration minus the time their child spans cover.
"""

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("distribution", "expansion", "series", "minkowski", "integral", "fmt")
GROWTH_LAYERS = ("series.alt_series_exact", "expansion.decode_periodic", "expansion.encode")
FAMILIES = ("dyadic", "geometric", "custom")

# layers each workload must load; a layer with no calls fails the run
REQUIRED = {
    "exact_eval": (
        "cli.main", "distribution.parse_distribution", "distribution.digit_of",
        "fmt.parse_rational", "fmt.render_decimal", "expansion.parse_digit_seq",
        "expansion.shift", "expansion.decode", "expansion.decode_periodic",
        "expansion.encode", "expansion.DigitSeq", "series.alt_series_exact",
        "series.prefix_enclosure", "minkowski.eval_minkowski",
        "minkowski.eval_minkowski_enclosure", "minkowski.eval_question_mark",
        "minkowski.continued_fraction",
    ),
    "graph_sweep": (
        "cli.main", "distribution.parse_distribution", "expansion.parse_digit_seq",
        "expansion.encode", "expansion.DigitSeq", "series.alt_series_exact",
        "fmt.render_decimal", "minkowski.graph_points", "minkowski.cylinder_increment",
        "minkowski.singularity_ratio_step",
    ),
    "integral_mc": (
        "cli.main", "distribution.parse_distribution", "distribution.digit_of",
        "expansion.shift", "expansion.decode", "series.prefix_enclosure",
        "minkowski.eval_minkowski_enclosure", "integral.integral_mc",
        "integral.integral_quadrature", "integral.integral_closed",
        "integral.integral_report", "integral.alpha", "integral.gamma", "fmt.render_decimal",
    ),
}


class CoverageError(Exception):
    """A layer the workload must load recorded no calls."""


def _series_note(args, kwargs, result):
    stream = args[0]
    terms = len(stream.preperiod) + len(stream.period) if hasattr(stream, "period") else len(stream)
    return terms, max(result.numerator.bit_length(), result.denominator.bit_length())


def _mc_note(args, kwargs, result):
    return args[0].spec_string().split(":", 1)[0], result.samples


NOTES = {
    "expansion.decode_periodic": lambda args, kwargs, result: hasattr(result, "period"),
    "series.alt_series_exact": _series_note,
    "minkowski.graph_points": lambda args, kwargs, result: len(result.points),
    "integral.integral_mc": _mc_note,
}


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op index, note]
        self.stack = []
        self.op = None
        self._patches = []  # (owner, attribute, original, wrapper)

    def _wrap(self, name, fn):
        stack, clock = self.stack, time.perf_counter
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec[5] = note(args, kwargs, result)
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def prepare(self, package) -> None:
        """Build a wrapper for every layer function, method and namespace entry."""
        try:
            self._prepare(package)
        except (KeyError, AttributeError) as e:
            raise CoverageError(f"a traced layer is missing: {e!r}") from e

    def _prepare(self, package) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        wrappers = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        cli = sys.modules[f"{package.__name__}.cli"]
        wrappers[cli.main] = self._wrap("cli.main", cli.main)
        for mod in modules:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj, wrappers[obj]))
        dist = sys.modules[f"{package.__name__}.distribution"]
        classes, pending = [], [dist.Distribution]
        while pending:
            cls = pending.pop()
            classes.append(cls)
            pending.extend(cls.__subclasses__())
        for cls in classes:
            if "digit_of" in vars(cls):
                fn = vars(cls)["digit_of"]
                self._patches.append((cls, "digit_of", fn,
                                      self._wrap("distribution.digit_of", fn)))
        seq = sys.modules[f"{package.__name__}.expansion"].DigitSeq
        fn = vars(seq)["__post_init__"]
        self._patches.append((seq, "__post_init__", fn, self._wrap("expansion.DigitSeq", fn)))
        self._modules = modules
        self._originals = wrappers

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        left = [f"{m.__name__}.{a}" for m in self._modules for a, o in vars(m).items()
                if inspect.isfunction(o) and o in self._originals]
        if left:
            raise CoverageError(f"unwrapped references remain: {left}")

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def metrics(self, workload: str, ops, traced_s: float, overhead: float,
                output_bytes: int) -> dict:
        """Per-layer metrics of one traced pass; raises CoverageError on gaps.

        `traced_s` is the summed wall time of the pass's traced ops, and
        `overhead` the traced over the untraced wall time of the same ops.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        steps = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
                if rec[0] == "expansion.shift":
                    steps[rec[3]] += 1
        calls = defaultdict(int)
        self_s = defaultdict(float)
        per_op = defaultdict(float)  # (layer, op index) -> self time
        detected = terms = bits = points = 0
        mc_samples = defaultdict(int)
        mc_self = defaultdict(float)
        mc_incl = defaultdict(float)
        dp_steps = 0
        root_s = self_total = 0.0
        for i, (name, start, end, parent, op, note) in enumerate(spans):
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            self_total += own
            per_op[name, op] += own
            if parent < 0:
                if name != "cli.main":
                    raise CoverageError(f"span {name} ran outside cli.main")
                root_s += end - start
            if name == "expansion.decode_periodic":
                detected += bool(note)
                dp_steps += steps[i]
            elif name == "series.alt_series_exact" and note:
                terms += note[0]
                bits = max(bits, note[1])
            elif name == "minkowski.graph_points" and note:
                points += note
            elif name == "integral.integral_mc" and note:
                mc_samples[note[0]] += note[1]
                mc_self[note[0]] += own
                mc_incl[note[0]] += end - start
        missing = [n for n in REQUIRED[workload] if not calls[n]]
        if workload == "integral_mc":
            missing += [f"integral.integral_mc.{f}" for f in FAMILIES if not mc_samples[f]]
        if missing:
            raise CoverageError(f"no calls recorded on {workload} for: {', '.join(missing)}")
        if abs(self_total - root_s) > 1e-6 * max(1.0, root_s) or root_s > traced_s:
            raise CoverageError(
                f"self times {self_total:.6f} s do not add up to the traced "
                f"cli.main time {root_s:.6f} s within the ops' wall time {traced_s:.6f} s")

        def s(name):
            return self_s[name], "s"

        def count(name):
            return calls[name], "count"

        out = {
            "distribution.digit_of.calls": count("distribution.digit_of"),
            "distribution.digit_of.self_s": s("distribution.digit_of"),
            "expansion.decode_periodic.calls": count("expansion.decode_periodic"),
            "expansion.decode_periodic.self_s": s("expansion.decode_periodic"),
            "expansion.decode_periodic.steps": (dp_steps, "count"),
            "expansion.decode_periodic.detected_ratio": (
                detected / calls["expansion.decode_periodic"]
                if calls["expansion.decode_periodic"] else 0.0, "ratio"),
            "expansion.shift.calls": count("expansion.shift"),
            "expansion.shift.self_s": s("expansion.shift"),
            "expansion.encode.calls": count("expansion.encode"),
            "expansion.encode.self_s": s("expansion.encode"),
            "expansion.DigitSeq.self_s": s("expansion.DigitSeq"),
            "expansion.decode.self_s": s("expansion.decode"),
            "series.alt_series_exact.calls": count("series.alt_series_exact"),
            "series.alt_series_exact.self_s": s("series.alt_series_exact"),
            "series.alt_series_exact.terms": (terms, "count"),
            "series.alt_series_exact.result_bits_max": (bits, "bits"),
            "series.prefix_enclosure.self_s": s("series.prefix_enclosure"),
            "minkowski.graph_points.self_s": s("minkowski.graph_points"),
            "minkowski.graph_points.points": (points, "count"),
            "integral.integral_quadrature.self_s": s("integral.integral_quadrature"),
            "integral.alpha_gamma.self_s": (self_s["integral.alpha"] + self_s["integral.gamma"],
                                            "s"),
            "fmt.render_decimal.calls": count("fmt.render_decimal"),
            "fmt.render_decimal.self_s": s("fmt.render_decimal"),
            "fmt.parse_rational.self_s": s("fmt.parse_rational"),
            "cli.main.self_s": s("cli.main"),
            "cli.output_bytes": (output_bytes, "bytes"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
        for name in ("eval_minkowski", "eval_question_mark", "continued_fraction",
                     "eval_minkowski_enclosure", "cylinder_increment"):
            out[f"minkowski.{name}.self_s"] = s(f"minkowski.{name}")
        for fam in FAMILIES:
            out[f"integral.integral_mc.samples.{fam}"] = (mc_samples[fam], "count")
            out[f"integral.integral_mc.self_s.{fam}"] = (mc_self[fam], "s")
            out[f"integral.integral_mc.us_per_sample.{fam}"] = (
                1e6 * mc_incl[fam] / mc_samples[fam] if mc_samples[fam] else 0.0, "us")
        for layer in GROWTH_LAYERS:
            out[f"{layer}.growth_exp"] = (_growth(layer, per_op, ops), "slope")
        return out


def _growth(layer: str, per_op: dict, ops) -> float:
    """Log-log slope of a layer's mean self time per op against period length.

    Uses the ops on the exact_eval period ladder; 0.0 on a workload
    without a ladder.
    """
    by_len = defaultdict(list)
    for (name, op), own in per_op.items():
        if name == layer and op is not None and ops[op].ladder and own > 0:
            by_len[ops[op].ladder].append(own)
    pts = [(math.log(n), math.log(sum(v) / len(v))) for n, v in by_len.items()]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))
