"""Per-layer tracing from outside the program.

Each traced function is replaced, where its caller looks it up, by a
wrapper that records one span: name, parent span, start, end and an
integer amount (1 by default; rows, nodes or capped words where a tally
says so).  Spans are kept in flat arrays and turned into the per-layer
metrics only after the measured work is done.

The lookup site matters: ``transformer`` imports ``adam_step`` and
``edit_distance`` by name and ``baselines`` imports ``nw_align``, so those
are wrapped in the importing module; wrapping ``engine.adam_step`` would
record nothing.  A function that no longer exists is reported as an
absent span instead of failing the run.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from protoform import baselines as B
from protoform import corpus as C
from protoform import engine as E
from protoform import metrics as M
from protoform import phylo as P
from protoform import synth as S
from protoform import transformer as T

# Op kinds the model calls today; their per-layer metrics are always
# reported, and any further kind in ``engine.OP_KINDS`` is traced as well.
MODEL_OP_KINDS = (
    "matmul", "add", "mul", "scale", "reshape", "transpose", "embedding_lookup",
    "softmax", "layer_norm", "relu", "dropout", "masked_fill", "cross_entropy",
)

# Every per-layer metric, in report order, with its unit.  The engine op,
# backward, Adam and zero-grad figures, nodes and ``transformer.forward*``
# are per step: a train step on the train workloads, the whole evaluate
# sequence on ``evaluate``.  ``synth.*``, ``corpus.parse`` and
# ``engine.checkpoint_save`` are per set-up, ``corpus.encode`` per set-up
# plus operation, and the rest per operation (one ``train`` call or one
# evaluate sequence).
PER_LAYER = (
    [("engine.nodes_per_step", "count")]
    + [m for k in MODEL_OP_KINDS
       for m in ((f"engine.op.{k}.calls", "count"), (f"engine.op.{k}.fwd_ms", "ms"))]
    + [
        ("engine.backward_ms", "ms"),
        ("engine.adam_ms", "ms"),
        ("engine.zero_grads_ms", "ms"),
        ("engine.checkpoint_save_ms", "ms"),
        ("engine.checkpoint_load_ms", "ms"),
        ("transformer.forward_ms", "ms"),
        ("transformer.forward_self_ms", "ms"),
        ("transformer.collate_ms", "ms"),
        ("transformer.val_decode_ms", "ms"),
        ("transformer.decode_ms", "ms"),
        ("transformer.encode_ms", "ms"),
        ("transformer.decoder_passes", "count"),
        ("transformer.decode_tokens", "count"),
        ("transformer.rows_at_max_len", "count"),
        ("metrics.evaluate_ms", "ms"),
        ("metrics.edit_distance.calls", "count"),
        ("metrics.nw_align.calls", "count"),
        ("metrics.fer_ms", "ms"),
        ("metrics.bcubed_ms", "ms"),
        ("metrics.breakdown_ms", "ms"),
        ("baselines.align_cognates.calls", "count"),
        ("baselines.align_cognates_ms", "ms"),
        ("baselines.pattern_fit_ms", "ms"),
        ("baselines.linear_fit_ms", "ms"),
        ("baselines.reconstruct_ms", "ms"),
        ("baselines.majority_ms", "ms"),
        ("baselines.nw_align.calls", "count"),
        ("baselines.supports_majority.calls", "count"),
        ("phylo.distance_ms", "ms"),
        ("phylo.ward_ms", "ms"),
        ("phylo.consensus_ms", "ms"),
        ("phylo.gqd_ms", "ms"),
        ("synth.generate_ms", "ms"),
        ("corpus.parse_ms", "ms"),
        ("corpus.encode_ms", "ms"),
        ("trace.sets_per_s", "1/s"),
        ("trace.absent_spans", "count"),
    ]
)

# Work counters: exact, so they must repeat from one traced op to the next.
COUNTERS = tuple(name for name, unit in PER_LAYER
                 if unit == "count" and not name.startswith("trace."))


def _is_node(args, kwargs, result):
    """An op call builds a graph node unless it hands back its input
    (dropout in eval mode)."""
    return int(not (args and result is args[0]))


def _rows(args, kwargs, result):
    tgt_in = args[2] if len(args) > 2 else kwargs["tgt_in"]
    return int(tgt_in.shape[0])


def _rows_at_max_len(args, kwargs, result):
    max_len = args[2] if len(args) > 2 else kwargs["max_len"]
    return sum(len(word) >= max_len for word in result)


def sites():
    """(owner, attribute, span name, tally) for every wrapped function,
    keyed to the module or class through which callers reach it."""
    kinds = list(MODEL_OP_KINDS)
    kinds += [k for k in getattr(E, "OP_KINDS", ()) if k not in kinds]
    out = []
    for kind in kinds:
        attr = kind if hasattr(E, kind) else kind + "_"
        out.append((E, attr, f"engine.op.{kind}", _is_node))
    out += [
        (E, "backward", "engine.backward", None),
        (T, "adam_step", "engine.adam", None),
        (E, "zero_grads", "engine.zero_grads", None),
        (E, "save_checkpoint", "engine.checkpoint_save", None),
        (E, "load_checkpoint", "engine.checkpoint_load", None),
        (T, "train", "transformer.train", None),
        (T.Model, "loss_batch", "transformer.loss_batch", None),
        (T.Model, "encode_batch", "transformer.encode_batch", None),
        (T.Model, "decode_batch", "transformer.decode_batch", _rows),
        (T, "collate", "transformer.collate", None),
        (T, "greedy_decode", "transformer.greedy_decode", _rows_at_max_len),
        (T, "edit_distance", "metrics.edit_distance", None),
        (M, "edit_distance", "metrics.edit_distance", None),
        (M, "evaluate", "metrics.evaluate", None),
        (M, "nw_align", "metrics.nw_align", None),
        (M, "feature_error_rate", "metrics.fer", None),
        (M, "bcubed_f", "metrics.bcubed", None),
        (M, "error_breakdown", "metrics.breakdown", None),
        (B, "align_cognates", "baselines.align_cognates", None),
        (B.PatternClassifier, "fit", "baselines.pattern_fit", None),
        (B.LinearClassifier, "fit", "baselines.linear_fit", None),
        (B, "reconstruct_with_classifier", "baselines.reconstruct", None),
        (B, "majority_constituent", "baselines.majority", None),
        (B, "nw_align", "baselines.nw_align", None),
        (B, "supports_majority_constituent", "baselines.supports_majority", None),
        (P, "cosine_distance_matrix", "phylo.distance", None),
        (P, "ward_cluster", "phylo.ward", None),
        (P, "consensus", "phylo.consensus", None),
        (P, "gqd", "phylo.gqd", None),
        (S, "generate_tsv", "synth.generate", None),
        (C, "parse_dataset", "corpus.parse", None),
        (C, "encode_dataset", "corpus.encode", None),
        (T, "encode_dataset", "corpus.encode", None),
    ]
    return out


class Tracer:
    """Span recorder.  ``install`` patches the lookup sites, ``on`` gates
    recording, ``uninstall`` restores every original attribute."""

    def __init__(self):
        self.on = False
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self._stack = [-1]
        self._undo: list = []
        self.absent: list[str] = []

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.span_names)
            self.span_names.append(span)
        return self._ids[span]

    def __len__(self) -> int:
        return len(self.name)

    def install(self, site_list) -> None:
        for owner, attr, span, tally in site_list:
            target = getattr(owner, attr, None)
            if target is None:
                self.absent.append(f"{span} ({owner.__name__}.{attr})")
                continue
            raw = vars(owner).get(attr)   # None when a class inherits it
            wrapped = self._wrap(target, self._id(span), tally)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = staticmethod(wrapped)   # ``target`` is already bound
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, fn, nid: int, tally):
        name, parent, start, end, amount = self.name, self.parent, self.start, self.end, self.amount
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            amount.append(1)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if tally is not None:
                try:
                    amount[i] = tally(args, kwargs, result)
                except (TypeError, IndexError, KeyError, AttributeError):
                    amount[i] = 0  # the signature moved; the span still counts time
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict:
        return {
            "names": np.array(self.span_names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.int64).copy(),
        }


class _Spans:
    """Vectorised queries over one slice [lo, hi) of the recorded spans."""

    def __init__(self, tr: Tracer, lo: int, hi: int):
        self.ids = tr._ids
        a = tr.arrays()
        self.name = a["name"]
        self.parent = a["parent"]
        self.dur_ms = (a["end"] - a["start"]) * 1e3
        self.amount = a["amount"]
        self.window = np.zeros(len(self.name), dtype=bool)
        self.window[lo:hi] = True

    def mask(self, span: str) -> np.ndarray:
        nid = self.ids.get(span, -1)
        return (self.name == nid) & self.window

    def prefix(self, pre: str) -> np.ndarray:
        ids = [i for s, i in self.ids.items() if s.startswith(pre)]
        return np.isin(self.name, ids) & self.window

    def under(self, span: str) -> np.ndarray:
        """Spans that have an ancestor named ``span``."""
        inside = np.zeros(len(self.name) + 1, dtype=bool)   # last slot: no parent
        anchor = np.zeros(len(self.name) + 1, dtype=bool)
        anchor[:-1] = self.name == self.ids.get(span, -1)
        parent = np.where(self.parent < 0, len(self.name), self.parent)
        while True:
            nxt = np.zeros_like(inside)
            nxt[:-1] = anchor[parent] | inside[parent]
            if (nxt == inside).all():
                break
            inside = nxt
        return inside[:-1] & self.window

    def ms(self, m) -> float:
        return float(self.dur_ms[m].sum())

    def calls(self, m) -> int:
        return int(m.sum())

    def total(self, m) -> int:
        return int(self.amount[m].sum())


def per_layer(tr: Tracer, setup_range, op_range, steps: int, step_scope: str | None) -> dict:
    """Per-layer metrics of one traced set-up plus operation.

    ``step_scope`` names the span a train step's forward runs under; engine
    op counts are restricted to it, so validation decode inside ``train``
    is not counted as step work.  Without one, every op in the operation
    counts (``evaluate``).
    """
    s = _Spans(tr, *setup_range)
    o = _Spans(tr, *op_range)
    out: dict = {}
    scope = o.under(step_scope) if step_scope else o.window
    ops = o.prefix("engine.op.") & scope
    out["engine.nodes_per_step"] = o.total(ops) / steps
    for kind in MODEL_OP_KINDS:
        m = o.mask(f"engine.op.{kind}") & scope
        out[f"engine.op.{kind}.calls"] = o.calls(m) / steps
        out[f"engine.op.{kind}.fwd_ms"] = o.ms(m) / steps
    out["engine.backward_ms"] = o.ms(o.mask("engine.backward")) / steps
    out["engine.adam_ms"] = o.ms(o.mask("engine.adam")) / steps
    out["engine.zero_grads_ms"] = o.ms(o.mask("engine.zero_grads")) / steps
    out["engine.checkpoint_save_ms"] = s.ms(s.mask("engine.checkpoint_save"))
    out["engine.checkpoint_load_ms"] = o.ms(o.mask("engine.checkpoint_load"))

    fwd = o.mask("transformer.loss_batch")
    engine_in_fwd = o.prefix("engine.") & o.under("transformer.loss_batch")
    out["transformer.forward_ms"] = o.ms(fwd) / steps
    out["transformer.forward_self_ms"] = (o.ms(fwd) - o.ms(engine_in_fwd)) / steps
    out["transformer.collate_ms"] = o.ms(o.mask("transformer.collate"))
    decode = o.mask("transformer.greedy_decode")
    out["transformer.val_decode_ms"] = o.ms(decode & o.under("transformer.train"))
    out["transformer.decode_ms"] = o.ms(decode)
    out["transformer.encode_ms"] = o.ms(o.mask("transformer.encode_batch"))
    passes = o.mask("transformer.decode_batch") & o.under("transformer.greedy_decode")
    out["transformer.decoder_passes"] = o.calls(passes)
    out["transformer.decode_tokens"] = o.total(passes)
    out["transformer.rows_at_max_len"] = o.total(decode)

    out["metrics.evaluate_ms"] = o.ms(o.mask("metrics.evaluate"))
    out["metrics.edit_distance.calls"] = o.calls(o.mask("metrics.edit_distance"))
    out["metrics.nw_align.calls"] = o.calls(o.mask("metrics.nw_align"))
    out["metrics.fer_ms"] = o.ms(o.mask("metrics.fer"))
    out["metrics.bcubed_ms"] = o.ms(o.mask("metrics.bcubed"))
    out["metrics.breakdown_ms"] = o.ms(o.mask("metrics.breakdown"))

    align = o.mask("baselines.align_cognates")
    out["baselines.align_cognates.calls"] = o.calls(align)
    out["baselines.align_cognates_ms"] = o.ms(align)
    out["baselines.pattern_fit_ms"] = o.ms(o.mask("baselines.pattern_fit"))
    out["baselines.linear_fit_ms"] = o.ms(o.mask("baselines.linear_fit"))
    out["baselines.reconstruct_ms"] = o.ms(o.mask("baselines.reconstruct"))
    out["baselines.majority_ms"] = o.ms(o.mask("baselines.majority"))
    out["baselines.nw_align.calls"] = o.calls(o.mask("baselines.nw_align"))
    out["baselines.supports_majority.calls"] = o.calls(o.mask("baselines.supports_majority"))

    for part in ("distance", "ward", "consensus", "gqd"):
        out[f"phylo.{part}_ms"] = o.ms(o.mask(f"phylo.{part}"))

    out["synth.generate_ms"] = s.ms(s.mask("synth.generate"))
    out["corpus.parse_ms"] = s.ms(s.mask("corpus.parse"))
    # encoding happens in set-up (evaluate) or inside ``train``: count both
    out["corpus.encode_ms"] = s.ms(s.mask("corpus.encode")) + o.ms(o.mask("corpus.encode"))
    return out
