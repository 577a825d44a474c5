"""Run one ``speccat`` CLI job with its layers wrapped in timing spans.

Usage: python3 trace_job.py SPANS.json CLI-ARGS...

Wrappers are installed from outside: every public function of the layer
modules, the public methods of the classes they define, the two construction
validators (``__post_init__``, reported as ``validate``) and ``cli._emit``.
Each wrapper replaces the original in every ``speccat`` module namespace that
bound it.  Spans are aggregated in memory per name (calls, self time, total
time) and written to SPANS.json when the job ends.  Self time is a span's
duration minus that of the wrapped spans it directly contains; total time
counts only the outermost of nested calls to the same name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("catcore", "limits", "monoclasses", "fractions", "spectral",
          "registry", "cli")
# private names that are layer boundaries all the same, with report names
RENAMED = {
    ("catcore", "FiniteObject", "__post_init__"): "catcore.FiniteObject.validate",
    ("catcore", "ConcreteMorphism", "__post_init__"):
        "catcore.ConcreteMorphism.validate",
    ("cli", None, "_emit"): "cli._emit",
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts = {"catcore.enumerate_hom.homs": 0,
                       "fractions.fraction_equal.equal": 0}
        self.stack: list[list[float]] = []  # child time of each open span
        self.covered = [0.0]  # summed duration of root spans

    def wrap(self, name, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, covered, counts = self.stack, self.covered, self.counts
        depth = [0]
        if name == "catcore.enumerate_hom":
            def note(result):
                counts["catcore.enumerate_hom.homs"] += len(result)
        elif name == "fractions.fraction_equal":
            def note(result):
                counts["fractions.fraction_equal.equal"] += bool(result[0])
        else:
            note = None

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[0] -= 1
                rec[0] += 1
                rec[1] += dt - frame[0]
                if not depth[0]:
                    rec[2] += dt
                if stack:
                    stack[-1][0] += dt
                else:
                    covered[0] += dt
            if note is not None:
                note(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap the layer functions and rebind them wherever imported."""
        replaced = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"speccat.{layer}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(layer, obj)
                    continue
                name = self._report_name(layer, None, attr)
                if name and inspect.isfunction(inspect.unwrap(obj)):
                    replaced[id(obj)] = (obj, self.wrap(name, obj))
        for mod in list(sys.modules.values()):
            if mod is None or not (mod.__name__ == "speccat"
                                   or mod.__name__.startswith("speccat.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            name = self._report_name(layer, cls.__name__, attr)
            if name and inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))

    @staticmethod
    def _report_name(layer, cls_name, attr):
        renamed = RENAMED.get((layer, cls_name, attr))
        if renamed:
            return renamed
        if attr.startswith("_"):
            return None
        return ".".join(p for p in (layer, cls_name, attr) if p)

    def dump(self, path, rc):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rc": rc, "covered_s": self.covered[0],
                       "spans": self.stats, "counts": self.counts}, fh,
                      sort_keys=True)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    import speccat.cli
    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        rc = speccat.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
