"""Encoder-decoder transformer for protoform reconstruction.

The encoder consumes all attested daughter forms concatenated into one
sequence; sinusoidal positional encoding restarts at every daughter
boundary and an additive per-language embedding marks which daughter each
token belongs to.  The decoder autoregressively emits the protoform.
Training uses teacher forcing with early stopping on validation phoneme
edit distance; inference is greedy.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import engine as E
from .corpus import (
    BOS_ID, EOS_ID, PAD_ID, SPECIALS, UNK_ID,
    Dataset, Vocabulary, encode_dataset,
)
from .engine.rng import DetRng, mix64, philox
from .engine.optim import AdamState, adam_step
from .metrics import edit_distance

MAX_SOURCE_LEN = 1024
DECODE_CHUNK = 128  # rows greedy-decoded at once


@dataclass(frozen=True)
class TransformerConfig:
    d_model: int = 128
    n_heads: int = 8
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    d_feedforward: int = 256
    dropout_p: float = 0.1
    lr: float = 1e-3
    warmup_epochs: int = 10
    total_epochs: int = 100
    weight_decay: float = 0.0
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        # one check for the INI values and a checkpoint's sidecar: an int
        # field takes an int, a float field an int or a float; never a bool
        for f in fields(self):
            value, is_int = getattr(self, f.name), f.type == "int"
            if isinstance(value, bool) or not isinstance(value, int if is_int else (int, float)):
                raise ValueError(f"{f.name} {value!r} is not {'an integer' if is_int else 'a number'}")
        for name in ("d_model", "n_heads", "d_feedforward", "batch_size", "total_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} {getattr(self, name)} must be at least 1")
        for name in ("n_encoder_layers", "n_decoder_layers", "warmup_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} {getattr(self, name)} must not be negative")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr {self.lr} must be positive and finite")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay {self.weight_decay} must be finite and not negative")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p {self.dropout_p} outside [0, 1)")

    def with_seed(self, seed: int) -> "TransformerConfig":
        return replace(self, seed=seed)


def lr_at(epoch: int, cfg: TransformerConfig) -> float:
    """Linear ramp from 0 to ``cfg.lr`` over the warmup epochs, then constant."""
    if epoch < cfg.warmup_epochs:
        return cfg.lr * (epoch + 1) / cfg.warmup_epochs
    return cfg.lr


ROMANCE = TransformerConfig(
    d_model=128, n_heads=8, n_encoder_layers=3, n_decoder_layers=3,
    d_feedforward=128, dropout_p=0.202, lr=0.00013, warmup_epochs=50,
    total_epochs=200, weight_decay=0.0, batch_size=1, seed=0,
)

SINITIC = TransformerConfig(
    d_model=128, n_heads=8, n_encoder_layers=2, n_decoder_layers=5,
    d_feedforward=647, dropout_p=0.1708861, lr=0.0007487, warmup_epochs=32,
    total_epochs=200, weight_decay=1e-7, batch_size=32, seed=0,
)

PRESETS = {"romance": ROMANCE, "sinitic": SINITIC}


@functools.cache
def sinusoid_table(n_positions: int, d_model: int, dtype=np.float64) -> np.ndarray:
    """PE[p, 2i] = sin(p / 10000^(2i/d)), PE[p, 2i+1] = cos(same angle),
    computed in float64; an odd ``d_model`` ends in a sine column.  Cached:
    every model of a width and dtype reads the same read-only table."""
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    i = np.arange(0, d_model, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, i / d_model)
    table = np.zeros((n_positions, d_model), dtype)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, :d_model // 2])
    table.flags.writeable = False
    return table


@dataclass
class Batch:
    src: np.ndarray       # (B, S) source token ids, PAD-padded
    pos: np.ndarray       # (B, S) daughter-local positions
    lang: np.ndarray      # (B, S) daughter language indices
    src_pad: np.ndarray   # (B, S) True at padding
    tgt: np.ndarray       # (B, T) BOS + proto + EOS, PAD-padded

    @property
    def tgt_in(self):
        return self.tgt[:, :-1]

    @property
    def tgt_out(self):
        return self.tgt[:, 1:]


def collate(examples) -> Batch:
    B = len(examples)
    S = max(len(e.source) for e in examples)
    T = max(len(e.target) for e in examples)
    src = np.full((B, S), PAD_ID, dtype=np.int64)
    pos = np.zeros((B, S), dtype=np.int64)
    lang = np.zeros((B, S), dtype=np.int64)
    pad = np.ones((B, S), dtype=bool)
    tgt = np.full((B, T), PAD_ID, dtype=np.int64)
    for b, e in enumerate(examples):
        n = len(e.source)
        src[b, :n] = e.source
        pos[b, :n] = e.positions
        lang[b, :n] = e.languages
        pad[b, :n] = False
        tgt[b, :len(e.target)] = e.target
    return Batch(src, pos, lang, pad, tgt)


def _same_names(what: str, given, expected) -> None:
    """Raise naming what ``given`` has beyond ``expected`` or lacks of it."""
    for how, odd in (("unknown", set(given) - set(expected)),
                     ("missing", set(expected) - set(given))):
        if odd:
            raise E.EngineError(f"{how} {what} {', '.join(sorted(odd))}")


@dataclass
class _DropCtx:
    """Keys every dropout site by (run seed, site id, step)."""
    seed: int
    step: int
    p: float

    def __call__(self, t, site: int):
        return E.dropout(t, self.p, (self.seed, site, self.step))

    def matmul(self, t, v, site: int):
        """``matmul(self(t, site), v)`` as one node."""
        return E.dropout_matmul(t, v, self.p, (self.seed, site, self.step))


_EVAL = _DropCtx(seed=0, step=0, p=0.0)


class Model:
    """Parameter container plus the forward passes."""

    def __init__(self, cfg: TransformerConfig, vocab: Vocabulary, languages, state=None):
        """``state``, a checkpoint's tensors, stands in for the seed's draw."""
        self.cfg = cfg
        self.vocab = vocab
        self.languages = list(languages)
        self.dtype = E.default_dtype()
        self.pe = sinusoid_table(MAX_SOURCE_LEN, cfg.d_model, self.dtype)
        self.load_state(self._initial_state() if state is None else state)

    # -- parameters -------------------------------------------------------

    def param_table(self) -> list:
        """Every parameter as (name, shape, init), in the order of the seed's
        draw and of the checkpoint manifest; ``init`` is "uniform", "zeros"
        or "ones"."""
        cfg, d, f = self.cfg, self.cfg.d_model, self.cfg.d_feedforward
        n_target = self.vocab.n_target
        attention = ([(f"w{p}", (d, d), "uniform") for p in "qkvo"]
                     + [(f"b{p}", (d,), "zeros") for p in "qkvo"])
        norm = [("g", (d,), "ones"), ("b", (d,), "zeros")]
        ff = [("w1", (d, f), "uniform"), ("b1", (f,), "zeros"),
              ("w2", (f, d), "uniform"), ("b2", (d,), "zeros")]
        layers = {"enc": [("attn", attention), ("ln1", norm), ("ff", ff), ("ln2", norm)],
                  "dec": [("self", attention), ("ln1", norm), ("cross", attention), ("ln2", norm),
                          ("ff", ff), ("ln3", norm)]}
        table = [("src_emb", (self.vocab.n_source, d), "uniform"),
                 ("tgt_emb", (n_target, d), "uniform"),
                 ("lang_emb", (len(self.languages), d), "uniform")]
        for stack, n in (("enc", cfg.n_encoder_layers), ("dec", cfg.n_decoder_layers)):
            table += [(f"{stack}{i}.{part}.{name}", shape, init) for i in range(n)
                      for part, params in layers[stack] for name, shape, init in params]
        return table + [("out.w", (d, n_target), "uniform"), ("out.b", (n_target,), "zeros")]

    def _initial_state(self) -> dict:
        """One uniform(-1/sqrt(d_model), 1/sqrt(d_model)) draw per weight, in
        table order from the seed's Philox stream, each cast to the model's
        dtype as soon as it is drawn; zeros and ones besides."""
        rng = philox(0x1217, self.cfg.seed)
        bound = 1.0 / np.sqrt(self.cfg.d_model)
        return {name: rng.uniform(-bound, bound, shape).astype(self.dtype, copy=False)
                if init == "uniform" else getattr(np, init)(shape, self.dtype)
                for name, shape, init in self.param_table()}

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state(self, state: dict) -> None:
        """Adopt ``state``, which must name exactly the table's parameters,
        each with its shape; on a mismatch nothing changes."""
        table = self.param_table()
        _same_names("parameter(s)", state, [name for name, _, _ in table])
        params = {}
        for name, shape, _ in table:
            t = params[name] = E.Tensor(state[name], requires_grad=True, dtype=self.dtype)
            if t.data.shape != shape:
                raise E.EngineError(
                    f"parameter {name} has shape {t.data.shape}, the model's is {shape}")
        self.params = params

    # -- layers -----------------------------------------------------------

    def _linear(self, x, w, b):
        return E.linear(x, self.params[w], self.params[b])

    def _ln(self, x, name):
        return E.layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

    def _project_kv(self, kv_in, prefix):
        """Per-head keys (B, H, dh, Tk) and values (B, H, Tk, dh)."""
        H = self.cfg.n_heads
        B, Tk, d = kv_in.data.shape
        dh = d // H
        k = self._linear(kv_in, f"{prefix}.wk", f"{prefix}.bk")
        v = self._linear(kv_in, f"{prefix}.wv", f"{prefix}.bv")
        k = E.transpose(E.reshape(k, (B, Tk, H, dh)), (0, 2, 3, 1))
        v = E.transpose(E.reshape(v, (B, Tk, H, dh)), (0, 2, 1, 3))
        return k, v

    def _attend(self, q_in, kv, fill_mask, prefix, drop, site):
        """Project the queries, attend over ``kv`` (from ``_project_kv``) and
        project the merged heads out."""
        H = self.cfg.n_heads
        B, Tq, d = q_in.data.shape
        dh = d // H
        k, v = kv
        q = self._linear(q_in, f"{prefix}.wq", f"{prefix}.bq")
        q = E.transpose(E.reshape(q, (B, Tq, H, dh)), (0, 2, 1, 3))
        scores = E.scale(E.matmul(q, k), 1.0 / np.sqrt(dh))
        if fill_mask is not None:
            scores = E.masked_fill(scores, fill_mask, -np.inf)
        out = drop.matmul(E.softmax(scores), v, site)
        out = E.reshape(E.transpose(out, (0, 2, 1, 3)), (B, Tq, d))
        return self._linear(out, f"{prefix}.wo", f"{prefix}.bo")

    def _feedforward(self, x, prefix, drop, site):
        h = E.relu(self._linear(x, f"{prefix}.w1", f"{prefix}.b1"))
        h = drop(h, site)
        return self._linear(h, f"{prefix}.w2", f"{prefix}.b2")

    # -- forward ----------------------------------------------------------

    def encode_batch(self, batch: Batch, drop=_EVAL):
        """Memory over the concatenated daughter sequence, (B, S, d_model)."""
        if batch.src.shape[1] > MAX_SOURCE_LEN:
            raise E.EngineError(
                f"source length {batch.src.shape[1]} exceeds maximum {MAX_SOURCE_LEN}"
            )
        x = E.embedding_lookup(self.params["src_emb"], batch.src)
        x = E.add(x, E.Tensor(self.pe[batch.pos]))
        x = E.add(x, E.embedding_lookup(self.params["lang_emb"], batch.lang))
        x = drop(x, 1)
        key_mask = batch.src_pad[:, None, None, :]
        for i in range(self.cfg.n_encoder_layers):
            base = 10 + 8 * i
            # keys and values passed inline die with the block: holding them
            # across layers raised peak memory by ~10% at batch 128
            h = self._attend(x, self._project_kv(x, f"enc{i}.attn"), key_mask, f"enc{i}.attn",
                             drop, base)
            x = self._ln(E.add(x, drop(h, base + 1)), f"enc{i}.ln1")
            f = self._feedforward(x, f"enc{i}.ff", drop, base + 2)
            x = self._ln(E.add(x, drop(f, base + 3)), f"enc{i}.ln2")
        return x

    def decode_batch(self, memory, tgt_in: np.ndarray, src_pad: np.ndarray,
                     drop=_EVAL, cache=None):
        """Decoder logits for positions ``t..T-1`` of ``tgt_in``,
        (B, T - t, n_target), where ``t`` is the number of positions held in
        ``cache`` (0 without one).

        Teacher forcing passes no cache.  Greedy decoding passes the same
        list, empty at first, with the whole prefix at every step: each
        call appends the new position's self-attention keys and values to
        every layer's entry, and only the first projects the cross-attention
        keys and values of ``memory``.  A greedy prefix holds no PAD and its
        newest position sees every cached one: no self-attention mask.
        """
        T = tgt_in.shape[1]
        if T > MAX_SOURCE_LEN:
            raise E.EngineError(f"target length {T} exceeds maximum {MAX_SOURCE_LEN}")
        cached = bool(cache)  # decided once: the loop below fills an empty cache
        t = cache[0][1].data.shape[2] if cached else 0   # values are (B, H, t, dh)
        x = E.embedding_lookup(self.params["tgt_emb"], tgt_in[:, t:])
        x = E.add(x, E.Tensor(self.pe[t:T]))
        x = drop(x, 2)
        # the causal mask alone: PAD only ends a row of ``tgt_in``, so no real
        # position sees a PAD key, and a PAD position feeds only ignored logits
        self_mask = np.triu(np.ones((1, 1, T, T), dtype=bool), k=1) if cache is None else None
        cross_mask = src_pad[:, None, None, :]
        for i in range(self.cfg.n_decoder_layers):
            k, v = self._project_kv(x, f"dec{i}.self")
            if cached:
                k0, v0, cross_kv = cache[i]
                k = E.Tensor(np.concatenate([k0.data, k.data], axis=-1))
                v = E.Tensor(np.concatenate([v0.data, v.data], axis=-2))
                cache[i] = (k, v, cross_kv)
            else:
                cross_kv = self._project_kv(memory, f"dec{i}.cross")
                if cache is not None:
                    cache.append((k, v, cross_kv))
            base = 1000 + 8 * i
            h = self._attend(x, (k, v), self_mask, f"dec{i}.self", drop, base)
            x = self._ln(E.add(x, drop(h, base + 1)), f"dec{i}.ln1")
            c = self._attend(x, cross_kv, cross_mask, f"dec{i}.cross", drop, base + 2)
            x = self._ln(E.add(x, drop(c, base + 3)), f"dec{i}.ln2")
            f = self._feedforward(x, f"dec{i}.ff", drop, base + 4)
            x = self._ln(E.add(x, drop(f, base + 5)), f"dec{i}.ln3")
        return self._linear(x, "out.w", "out.b")

    def loss_batch(self, batch: Batch, drop=_EVAL):
        memory = self.encode_batch(batch, drop)
        logits = self.decode_batch(memory, batch.tgt_in, batch.src_pad, drop)
        return E.cross_entropy(logits, batch.tgt_out)


def greedy_decode(model: Model, examples, max_len: int):
    """Greedy autoregressive decoding; PAD/BOS/UNK are never emitted.

    Stops each row at EOS or after max_len tokens; an immediate EOS yields
    an empty word (callers flag those).
    """
    words = []
    for start in range(0, len(examples), DECODE_CHUNK):
        for row in _greedy_chunk(model, collate(examples[start:start + DECODE_CHUNK]), max_len):
            toks = []
            for idx in row[1:]:
                if idx == EOS_ID:
                    break
                toks.append(model.vocab.tgt_token(int(idx)))
            words.append(tuple(toks))
    return words


def _greedy_chunk(model: Model, batch: Batch, max_len: int) -> np.ndarray:
    """BOS and the greedy tokens of every row of ``batch``, (B, 1 + steps).
    The chunk's memory, cache and logits die on return, before the next
    chunk is encoded."""
    B = batch.src.shape[0]
    banned = [PAD_ID, BOS_ID, UNK_ID]
    with E.no_grad():
        memory = model.encode_batch(batch)
        cache = []
        ys = np.full((B, 1), BOS_ID, dtype=np.int64)
        done = np.zeros(B, dtype=bool)
        for _ in range(max_len):
            logits = model.decode_batch(memory, ys, batch.src_pad, cache=cache)
            last = logits.data[:, -1, :]   # masked in place: nothing else reads them
            last[:, banned] = -np.inf
            nxt = np.argmax(last, axis=-1)
            nxt[done] = EOS_ID
            ys = np.concatenate([ys, nxt[:, None]], axis=1)
            done |= nxt == EOS_ID
            if done.all():
                break
    return ys


def extract_language_embeddings(model: Model) -> dict:
    """Copies of the language embedding table rows, keyed by name in table order."""
    table = model.params["lang_emb"].data
    return {name: row.copy() for name, row in zip(model.languages, table)}


def _distinct_strings(value) -> bool:
    return (type(value) is list and all(type(v) is str for v in value)
            and len(set(value)) == len(value))


_TOKEN_LIST = (lambda v: _distinct_strings(v) and tuple(v[:len(SPECIALS)]) == SPECIALS,
               f"a list of distinct strings starting with {', '.join(SPECIALS)}")
# what ``TrainedModel.load`` accepts for each sidecar key; ``config`` must
# also hold exactly the fields of ``TransformerConfig``, each checked by it
_SIDECAR = {
    "config": (lambda v: type(v) is dict, "an object"),
    "max_decode_len": (lambda v: type(v) is int and 1 <= v <= MAX_SOURCE_LEN,
                       f"an integer from 1 to {MAX_SOURCE_LEN}"),
    "languages": (_distinct_strings, "a list of distinct strings"),
    "source_tokens": _TOKEN_LIST,
    "target_tokens": _TOKEN_LIST,
    "best_epoch": (lambda v: type(v) is int and v >= 0, "an integer of at least 0"),
    "best_val_ped": (lambda v: type(v) in (int, float) and 0 <= v < math.inf,
                     "a finite number of at least 0"),
    "history": (lambda v: type(v) is list and all(type(row) is dict for row in v),
                "a list of objects"),
    "proto_name": (lambda v: type(v) is str, "a string"),
}


@dataclass
class TrainedModel:
    model: Model
    config: TransformerConfig
    vocab: Vocabulary
    history: list          # per-epoch dicts: epoch, lr, train_loss, val_ped
    best_epoch: int
    best_val_ped: float
    max_decode_len: int
    proto_name: str = ""

    def save(self, prefix: str) -> None:
        E.save_checkpoint(prefix + ".ckpt", self.model.state())
        sidecar = {
            "config": asdict(self.config),
            "source_tokens": list(self.vocab.source_tokens),
            "target_tokens": list(self.vocab.target_tokens),
            "languages": self.model.languages,
            "proto_name": self.proto_name,
            "best_epoch": self.best_epoch,
            "best_val_ped": self.best_val_ped,
            "max_decode_len": self.max_decode_len,
            "history": self.history,
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, ensure_ascii=False, indent=1, sort_keys=True)

    @classmethod
    def load(cls, prefix: str) -> "TrainedModel":
        with open(prefix + ".json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        if type(sidecar) is not dict:
            raise E.EngineError("sidecar is not a JSON object")
        sidecar.setdefault("proto_name", "")
        for key, (ok, what) in _SIDECAR.items():
            if not ok(sidecar[key]):
                raise E.EngineError(f"{key} {reprlib.repr(sidecar[key])} is not {what}")
        # a missing field would take its default and change the model
        _same_names("config key(s)", sidecar["config"], [f.name for f in fields(TransformerConfig)])
        cfg = TransformerConfig(**sidecar["config"])
        vocab = Vocabulary(sidecar["source_tokens"], sidecar["target_tokens"])
        model = Model(cfg, vocab, sidecar["languages"], state=E.load_checkpoint(prefix + ".ckpt"))
        return cls(model, cfg, vocab, sidecar["history"], sidecar["best_epoch"],
                   sidecar["best_val_ped"], sidecar["max_decode_len"], sidecar["proto_name"])


def train(model: Model, train_split: Dataset, val_split: Dataset,
          cfg: TransformerConfig) -> TrainedModel:
    """Teacher-forced minibatch training with early stopping.

    After every epoch the validation split is greedy-decoded and scored by
    mean phoneme edit distance; the returned parameters are those of the
    epoch with the lowest validation distance.
    """
    if not train_split.sets or not val_split.sets:
        raise E.EngineError("train and validation splits must be nonempty")
    vocab = model.vocab
    train_enc = encode_dataset(train_split, vocab)
    val_enc = encode_dataset(val_split, vocab)
    val_gold = [cs.proto for cs in val_split.sets]
    longest = max(len(cs.proto) for cs in train_split.sets)
    if longest > MAX_SOURCE_LEN - 1:   # BOS and the proto fill the decoder's positions
        raise E.EngineError(f"proto length {longest} exceeds maximum {MAX_SOURCE_LEN - 1}")
    max_decode = min(MAX_SOURCE_LEN, max(20, 2 * longest))
    adam = AdamState(weight_decay=cfg.weight_decay)
    step = 0
    best_ped, best_epoch, best_state = np.inf, -1, None
    history = []
    n = len(train_enc)

    for epoch in range(cfg.total_epochs):
        lr = lr_at(epoch, cfg)
        order = DetRng(mix64(cfg.seed, 0xE70C, epoch)).permutation(n)
        loss_sum, loss_batches = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            batch = collate([train_enc[i] for i in order[lo:lo + cfg.batch_size]])
            drop = _DropCtx(cfg.seed, step, cfg.dropout_p)
            loss = model.loss_batch(batch, drop)
            if not np.isfinite(loss.data):
                raise E.EngineError(f"training diverged (loss={loss.data}) at epoch {epoch}")
            E.backward(loss)
            adam_step(model.params, adam, lr)
            step += 1
            loss_sum += float(loss.data)
            loss_batches += 1
        preds = greedy_decode(model, val_enc, max_decode)
        val_ped = sum(edit_distance(p, g) for p, g in zip(preds, val_gold)) / len(val_gold)
        history.append({
            "epoch": epoch,
            "lr": lr,
            "train_loss": loss_sum / loss_batches,
            "val_ped": val_ped,
        })
        if val_ped < best_ped:
            best_ped, best_epoch, best_state = val_ped, epoch, model.state()

    model.load_state(best_state)
    return TrainedModel(model, cfg, vocab, history, best_epoch, best_ped, max_decode,
                        train_split.proto_name)
