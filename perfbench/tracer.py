"""In-process span tracer for the package's public functions.

The tracer replaces each traced function at every place a caller looks it
up: every ``parity_board`` module namespace that holds the function object
(``verify`` and ``tables`` import the enumerators into their own), or the
class attribute for a method.  Each call records one span: its name, start,
end, the span that was open when it was called, and the invocation id.
Spans are kept in flat arrays and written out at the end of a run.

Self time is a span's busy time minus the busy time of the spans nested in
it.  A call's busy time is its duration.  When a traced function returns an
iterator, the span stays open until the iterator is used up, and its busy
time is the time spent inside ``next``; time the consumer spends between
items belongs to the consumer.  Summed over all spans, self time therefore
equals the busy time of the outermost spans.

Pool workers forked during a traced sweep stop recording, so their spans
are not seen; ``getrusage`` around each sweep gives their CPU time instead.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
from array import array
from collections import defaultdict
from time import perf_counter

_FIELDS = (
    ("name", "H"),
    ("parent", "i"),
    ("inv", "H"),
    ("start", "d"),
    ("end", "d"),
    ("busy", "d"),
    ("child", "d"),
    ("c1", "q"),
    ("c2", "q"),
)


def _rows(tracer, sid, args, result):
    if hasattr(result, "__next__"):
        return _TracedIter(tracer, sid, result, count_bytes=False)
    tracer.c1[sid] += len(result)
    return result


def _lines(tracer, sid, args, result):
    return _TracedIter(tracer, sid, iter(result), count_bytes=True)


def _hits(tracer, sid, args, result):
    tracer.c1[sid] += int(result)
    return result


def _mul_ops(tracer, sid, args, result):
    # coefficient pairs the product visits: (n + 1 - i) per nonzero x_i
    n = args[0].trunc_order
    tracer.c1[sid] += sum(n + 1 - i for i, x in enumerate(args[0].coeffs) if x)
    return result


def _recip_ops(tracer, sid, args, result):
    n = args[0].trunc_order
    tracer.c1[sid] += n * (n + 1) // 2
    return result


def _checks(tracer, sid, args, result):
    tracer.c1[sid] += result.checks_run
    return result


# (module, attribute, metric prefix, counter, stats reported)
ENUMERATOR = ("calls", "rows", "self_s")
PLAIN = ("calls", "self_s")
HITS = ("calls", "hits", "self_s")
OPS = ("calls", "ops", "self_s")
SWEEP = ("cells", "checks", "self_s")
EMIT = ("rows", "bytes", "self_s")

TARGETS = (
    ("partitions", "enumerate_partitions", None, _rows, ENUMERATOR),
    ("partitions", "enumerate_strict_partitions", None, _rows, ENUMERATOR),
    ("abseq", "enumerate_sequences", None, _rows, ENUMERATOR),
    ("partitions", "partition_count", None, None, PLAIN),
    ("partitions", "columns", None, None, PLAIN),
    ("partitions", "from_columns", None, None, PLAIN),
    ("partitions", "bg_rank", None, None, PLAIN),
    ("bijections", "partition_from_sequence", None, None, PLAIN),
    ("bijections", "sequence_from_partition", None, None, PLAIN),
    ("bijections", "partition_from_sequence_by_filling", None, None, PLAIN),
    ("bijections", "split_strict", None, None, PLAIN),
    ("bijections", "unsplit_strict", None, None, PLAIN),
    ("bijections", "count_strict_by_parts_rank_formula", None, None, PLAIN),
    ("bijections", "in_durfee_class", None, _hits, HITS),
    ("bijections", "count_strict_by_parts_rank", None, _hits, HITS),
    ("qseries", "TruncatedSeries.__mul__", None, _mul_ops, OPS),
    ("qseries", "TruncatedSeries.reciprocal", None, _recip_ops, OPS),
    ("qseries", "pochhammer_q", None, None, PLAIN),
    ("qseries", "gf_coefficients", None, None, PLAIN),
    ("qseries", "strict_count_by_rank", None, None, PLAIN),
    ("verify", "verify_bijection_phi", "verify.phi", _checks, SWEEP),
    ("verify", "verify_gf", "verify.gf", _checks, SWEEP),
    ("verify", "verify_iota", "verify.iota", _checks, SWEEP),
    ("verify", "verify_theorem34", "verify.thm34", _checks, SWEEP),
    ("verify", "verify_euler_vandervelde", "verify.euler", _checks, SWEEP),
    ("verify", "verify_congruences", "verify.congruences", _checks, SWEEP),
    ("tables", "emit_table", None, _lines, EMIT),
    ("tables", "emit_partitions", None, _lines, EMIT),
    ("tables", "emit_strict_partitions", None, _lines, EMIT),
    ("tables", "emit_sequences", None, _lines, EMIT),
    ("cli", "build_parser", None, None, ()),
    ("cli", "main", None, None, ()),
)

LAYERS = ("partitions", "abseq", "bijections", "qseries", "verify", "tables", "cli")
POOL_STATS = ("parent_cpu_s", "worker_cpu_s", "wait_s")


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class _TracedIter:
    """Iterator proxy whose span stays open until the iterator is used up."""

    def __init__(self, tracer, sid, it, count_bytes):
        self.tracer, self.sid, self.it, self.count_bytes = tracer, sid, it, count_bytes

    def __iter__(self):
        return self

    def __next__(self):
        tracer, sid = self.tracer, self.sid
        if not tracer.on:
            return next(self.it)
        stack = tracer.stack
        stack.append(sid)
        t0 = perf_counter()
        try:
            item = next(self.it)
        except StopIteration:
            tracer.end[sid] = perf_counter()
            raise
        finally:
            stack.pop()
            d = perf_counter() - t0
            tracer.busy[sid] += d
            tracer.child[stack[-1]] += d
        tracer.c1[sid] += 1
        if self.count_bytes:
            tracer.c2[sid] += len(item.encode()) + 1
        return item


class Tracer:
    """Records spans for the functions in ``TARGETS`` while installed.

    Span 0 stands for everything outside the traced calls.
    """

    def __init__(self) -> None:
        for field, code in _FIELDS:
            setattr(self, field, array(code, [0]))
        self.parent[0] = -1
        self.names: list[str] = ["(outside)"]
        self.stack = [0]
        self.invocation = 0
        self.on = False
        self.missing: list[str] = []
        self.pool = dict.fromkeys(POOL_STATS, 0.0)
        self._patches: list[tuple[object, str, object, object]] = []
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.on = False

    def _open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.inv.append(self.invocation)
        for field in ("start", "end", "busy", "child"):
            getattr(self, field).append(0.0)
        self.c1.append(0)
        self.c2.append(0)
        return sid

    def _wrap(self, name: str, fn, counter, sweep: bool):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = tracer._open(name_id)
            stack = tracer.stack
            if sweep:
                cpu0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[sid], tracer.end[sid] = t0, t1
                tracer.busy[sid] = t1 - t0
                tracer.child[stack[-1]] += t1 - t0
            if sweep:
                parent_cpu = _cpu(resource.RUSAGE_SELF) - cpu0[0]
                tracer.pool["parent_cpu_s"] += parent_cpu
                tracer.pool["worker_cpu_s"] += _cpu(resource.RUSAGE_CHILDREN) - cpu0[1]
                tracer.pool["wait_s"] += (t1 - t0) - parent_cpu
            return counter(tracer, sid, args, result) if counter else result

        traced.__wrapped__ = fn
        return traced

    def _count_cells(self, fn):
        tracer = self

        def counted(cell_fn, cells, *rest, **kwargs):
            for sid in reversed(tracer.stack):
                if tracer.names[tracer.name[sid]].startswith("verify."):
                    tracer.c2[sid] += len(cells)
                    break
            return fn(cell_fn, cells, *rest, **kwargs)

        return counted

    def _build(self) -> None:
        """Make a wrapper for every place a target is looked up."""
        for layer in LAYERS:
            importlib.import_module(f"parity_board.{layer}")
        package = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "parity_board"]
        for module_name, attr, prefix, counter, _ in TARGETS:
            module = importlib.import_module(f"parity_board.{module_name}")
            name = prefix or f"{module_name}.{attr}"
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or method not in vars(owner):
                    self.missing.append(name)
                    continue
                original = vars(owner)[method]
                self._patches.append((owner, method, original, self._wrap(name, original, counter, False)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counter, name.startswith("verify."))
            for mod in package:
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        verify = sys.modules["parity_board.verify"]
        run_cells = getattr(verify, "_run_cells", None)
        if run_cells is not None:
            self._patches.append((verify, "_run_cells", run_cells, self._count_cells(run_cells)))

    def install(self) -> None:
        """Put the wrappers in place and start recording."""
        if not self._patches:
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.on = True

    def uninstall(self) -> None:
        """Stop recording and put the original functions back."""
        self.on = False
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.name) - 1

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time, the two counters, busy time."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "c1": 0, "c2": 0, "busy_s": 0.0})
        names, name, busy, child, c1, c2 = self.names, self.name, self.busy, self.child, self.c1, self.c2
        for sid in range(1, len(name)):
            row = out[names[name[sid]]]
            row["calls"] += 1
            row["self_s"] += busy[sid] - child[sid]
            row["busy_s"] += busy[sid]
            row["c1"] += c1[sid]
            row["c2"] += c2[sid]
        return dict(out)

    def root_busy(self) -> float:
        """Busy time of the outermost spans (those opened outside any other)."""
        return self.child[0]

    def dump(self, path) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.name),
            "fields": [[field, code] for field, code in _FIELDS],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                getattr(self, field).tofile(fh)
