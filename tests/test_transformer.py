import functools
import hashlib
import weakref
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

import protoform.engine as E
from protoform import corpus as C
from protoform import synth as S
from protoform import transformer as T
from protoform.corpus import ParseOptions, TokenizerOptions, build_vocab, parse_dataset
from protoform.engine.gradcheck import central_difference
from protoform.engine.rng import philox
from protoform.engine.tensor import _toposort

ORTH = ParseOptions(tokenizer=TokenizerOptions(mode="orthographic"))

TINY = T.TransformerConfig(
    d_model=32, n_heads=4, n_encoder_layers=1, n_decoder_layers=1,
    d_feedforward=64, dropout_p=0.0, lr=3e-3, warmup_epochs=5,
    total_epochs=40, weight_decay=0.0, batch_size=4, seed=3,
)


def toy_dataset(n=24, seed=0):
    rng = philox(99, seed)
    rows = ["id\tA\tB\tP"]
    alphabet = "ptkmnsaiu"
    for i in range(n):
        proto = "".join(alphabet[j] for j in rng.integers(0, 9, size=3))
        rows.append(f"s{i}\t{proto}{'x' * (i % 3)}\t{proto[::-1]}\t{proto}")
    return parse_dataset("\n".join(rows), ORTH)


@pytest.fixture(scope="module")
def toy():
    ds = toy_dataset()
    vocab = build_vocab(ds)
    return ds, vocab


class TestPositionalEncoding:
    def test_restart_indices(self):
        ds = parse_dataset("id\tA\tB\tP\nx\tab\tcd\tab\n", ORTH)
        vocab = build_vocab(ds)
        enc = C.encode_cognate_set(ds.sets[0], vocab, ds)
        assert enc.positions == [0, 1, 0, 1]
        np.testing.assert_array_equal(T.collate([enc]).pos[0], [0, 1, 0, 1])
        model = T.Model(TINY, vocab, ds.languages)
        np.testing.assert_allclose(model.pe[:2], T.sinusoid_table(2, TINY.d_model),
                                   rtol=0, atol=1e-15)

    def test_position_zero_row(self):
        row = T.sinusoid_table(1, 8)[0]
        np.testing.assert_allclose(row, [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-15)

    def test_position_one_first_pair(self):
        row = T.sinusoid_table(2, 8)[1]
        assert row[0] == pytest.approx(np.sin(1.0), abs=1e-15)
        assert row[1] == pytest.approx(np.cos(1.0), abs=1e-15)

    def test_odd_width_ends_in_a_sine_column(self):
        odd = T.sinusoid_table(10, 15)
        assert odd.shape == (10, 15)
        # seven sine-cosine pairs, then the sine of the eighth angle
        angle = np.arange(10.0)[:, None] / np.power(10000.0, np.arange(0, 15, 2) / 15)
        np.testing.assert_array_equal(odd[:, 0::2], np.sin(angle))
        np.testing.assert_array_equal(odd[:, 1::2], np.cos(angle[:, :7]))

    def test_odd_width_model_trains_and_decodes(self, toy):
        ds, vocab = toy
        train_ds = C.Dataset(ds.sets[:12], ds.languages, ds.proto_name)
        val_ds = C.Dataset(ds.sets[12:16], ds.languages, ds.proto_name)
        cfg = replace(TINY, d_model=15, n_heads=3, total_epochs=2, dropout_p=0.1)
        trained = T.train(T.Model(cfg, vocab, ds.languages), train_ds, val_ds, cfg)
        assert all(np.isfinite(h["train_loss"]) for h in trained.history)
        words = T.greedy_decode(trained.model, C.encode_dataset(val_ds, vocab), 6)
        assert len(words) == 4 and all(len(w) <= 6 for w in words)

    def test_restart_makes_position_k_identical_everywhere(self):
        ds = parse_dataset("id\tA\tB\tC\tP\nx\tabc\tabcde\tab\tabc\n", ORTH)
        vocab = build_vocab(ds)
        cfg = T.TransformerConfig(d_model=16, n_heads=2, n_encoder_layers=0,
                                  n_decoder_layers=1, d_feedforward=16,
                                  dropout_p=0.0, seed=1)
        model = T.Model(cfg, vocab, ds.languages)
        enc = C.encode_cognate_set(ds.sets[0], vocab, ds)
        # with no encoder layers the memory is token + position + language embedding
        memory = model.encode_batch(T.collate([enc])).data[0]
        pe = (memory - model.params["src_emb"].data[enc.source]
              - model.params["lang_emb"].data[enc.languages])
        table = T.sinusoid_table(5, 16)
        # daughter-local position 1 appears at offsets 1, 4, and 9
        for off in (1, 4, 9):
            np.testing.assert_allclose(pe[off], table[1], rtol=0, atol=1e-12)


class TestEncoder:
    def test_language_embedding_additivity(self, toy):
        ds, vocab = toy
        cfg = T.TransformerConfig(d_model=16, n_heads=2, n_encoder_layers=0,
                                  n_decoder_layers=1, d_feedforward=16,
                                  dropout_p=0.0, seed=1)
        model = T.Model(cfg, vocab, ds.languages)
        cs = C.CognateSet("x", ("p",), {"A": ("a",), "B": ("a",)})
        enc = C.encode_cognate_set(cs, vocab, ds)
        memory = model.encode_batch(T.collate([enc])).data[0]
        lang = model.params["lang_emb"].data
        np.testing.assert_allclose(memory[0] - memory[1], lang[0] - lang[1],
                                   rtol=0, atol=1e-12)

    def test_pad_columns_get_zero_attention(self, toy):
        # Padded source positions carry other tokens, positions and
        # languages: the padded memory rows change, every other row keeps
        # every bit.
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        batch = T.collate(C.encode_dataset(ds, vocab)[:3])
        pad = batch.src_pad
        assert pad.any()
        other = replace(batch, src=np.where(pad, 5, batch.src), pos=np.where(pad, 1, batch.pos),
                        lang=np.where(pad, 1, batch.lang))
        with E.no_grad():
            a = model.encode_batch(batch).data
            b = model.encode_batch(other).data
        np.testing.assert_array_equal(a[~pad], b[~pad])
        assert np.all(np.any(a[pad] != b[pad], axis=-1))

    def test_daughter_order_is_meaningful(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        a = C.EncodedExample([5, 6, 7], [0, 1, 0], [0, 0, 1], [1, 5, 2])
        b = C.EncodedExample([7, 5, 6], [0, 0, 1], [1, 0, 0], [1, 5, 2])
        with E.no_grad():
            ma = model.encode_batch(T.collate([a])).data
            mb = model.encode_batch(T.collate([b])).data
        assert not np.allclose(ma, mb)

    def test_source_longer_than_maximum_rejected(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        n = T.MAX_SOURCE_LEN + 1
        long = C.EncodedExample([5] * n, [0] * n, [0] * n, [1, 2])
        with pytest.raises(E.EngineError, match="maximum"):
            model.encode_batch(T.collate([long]))


class TestDecoder:
    def test_causality_exact(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        enc = C.encode_dataset(ds, vocab)[0]

        def logits(example):
            batch = T.collate([example])
            with E.no_grad():
                memory = model.encode_batch(batch)
                return model.decode_batch(memory, batch.tgt_in, batch.src_pad).data[0]

        base = logits(enc)
        for t in range(1, len(enc.target) - 1):
            perturbed = C.EncodedExample(
                enc.source, enc.positions, enc.languages,
                enc.target[:t] + [(enc.target[t] + 1) % vocab.n_target or 4] + enc.target[t + 1:],
            )
            np.testing.assert_array_equal(base[:t], logits(perturbed)[:t])

    def test_pad_targets_do_not_change_loss(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        enc = C.encode_dataset(ds, vocab)[0]
        batch = T.collate([enc])
        padded = T.Batch(batch.src, batch.pos, batch.lang, batch.src_pad,
                         np.concatenate([batch.tgt, np.zeros((1, 3), np.int64)], axis=1))
        with E.no_grad():
            a = float(model.loss_batch(batch).data)
            b = float(model.loss_batch(padded).data)
        assert a == b

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_causal_mask_alone_keeps_the_training_step(self, dtype, monkeypatch):
        # The decoder's self-attention once also hid PAD keys.  PAD only ends
        # a row of tgt_in, so under the causal mask no real position sees
        # one: a Sinitic step on a ragged batch of 32 keeps the bits of its
        # loss and of every parameter gradient under that older mask.
        prev = np.dtype(E.default_dtype()).name
        E.set_default_dtype(dtype)
        try:
            ds, vocab, enc = sinitic_test_split(1)
            batch = T.collate(enc[:32])
            lengths = (batch.tgt_in != C.PAD_ID).sum(axis=1)
            assert lengths.min() < lengths.max() == batch.tgt_in.shape[1]

            def step():
                model = T.Model(T.SINITIC, vocab, ds.languages)
                loss = model.loss_batch(batch, T._DropCtx(0, 5, T.SINITIC.dropout_p))
                E.backward(loss)
                assert model.params["out.w"].grad.dtype == np.dtype(dtype)
                return loss.data.tobytes(), {n: p.grad.tobytes() for n, p in model.params.items()}

            causal_only = step()
            real_attend, masks = T.Model._attend, []

            def causal_or_pad(model, q_in, kv, fill_mask, prefix, drop, site):
                if prefix.startswith("dec") and prefix.endswith(".self"):
                    n = batch.tgt_in.shape[1]
                    assert np.array_equal(fill_mask, np.triu(np.ones((1, 1, n, n), bool), k=1))
                    fill_mask = fill_mask | (batch.tgt_in == C.PAD_ID)[:, None, None, :]
                    masks.append(prefix)
                return real_attend(model, q_in, kv, fill_mask, prefix, drop, site)

            monkeypatch.setattr(T.Model, "_attend", causal_or_pad)
            assert step() == causal_only
            assert len(masks) == T.SINITIC.n_decoder_layers
        finally:
            E.set_default_dtype(prev)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fused_dropout_keeps_the_training_step(self, dtype, monkeypatch):
        # Attention once applied dropout to its weights as a node of its
        # own, then multiplied by the values; one ``dropout_matmul`` node now
        # does both.  A Sinitic step keeps the bits of its loss and of every
        # parameter gradient under that older attention.
        prev = np.dtype(E.default_dtype()).name
        E.set_default_dtype(dtype)
        try:
            ds, vocab, enc = sinitic_test_split(1)
            batch = T.collate(enc[:32])
            calls = []

            def step():
                model = T.Model(T.SINITIC, vocab, ds.languages)
                loss = model.loss_batch(batch, T._DropCtx(0, 5, T.SINITIC.dropout_p))
                E.backward(loss)
                return loss.data.tobytes(), {n: p.grad.tobytes() for n, p in model.params.items()}

            def unfused_attend(model, q_in, kv, fill_mask, prefix, drop, site):
                calls.append(prefix)
                H = model.cfg.n_heads
                B, Tq, d = q_in.data.shape
                dh = d // H
                k, v = kv
                q = model._linear(q_in, f"{prefix}.wq", f"{prefix}.bq")
                q = E.transpose(E.reshape(q, (B, Tq, H, dh)), (0, 2, 1, 3))
                scores = E.scale(E.matmul(q, k), 1.0 / np.sqrt(dh))
                if fill_mask is not None:
                    scores = E.masked_fill(scores, fill_mask, -np.inf)
                attn = drop(E.softmax(scores), site)
                out = E.matmul(attn, v)
                out = E.reshape(E.transpose(out, (0, 2, 1, 3)), (B, Tq, d))
                return model._linear(out, f"{prefix}.wo", f"{prefix}.bo")

            fused = step()
            monkeypatch.setattr(T.Model, "_attend", unfused_attend)
            assert step() == fused
            assert len(calls) == T.SINITIC.n_encoder_layers + 2 * T.SINITIC.n_decoder_layers
        finally:
            E.set_default_dtype(prev)

    def test_pad_memory_rows_get_zero_attention(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        batch = T.collate(C.encode_dataset(ds, vocab)[:3])
        assert batch.src_pad.any()
        with E.no_grad():
            memory = model.encode_batch(batch).data
            other = memory.copy()
            other[batch.src_pad] = philox(5).uniform(-3, 3, other[batch.src_pad].shape)
            a = model.decode_batch(E.Tensor(memory), batch.tgt_in, batch.src_pad).data
            b = model.decode_batch(E.Tensor(other), batch.tgt_in, batch.src_pad).data
        np.testing.assert_array_equal(a, b)

    def test_logit_shapes_on_two_set_batch(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        batch = T.collate(C.encode_dataset(ds, vocab)[:2])
        with E.no_grad():
            memory = model.encode_batch(batch)
            logits = model.decode_batch(memory, batch.tgt_in, batch.src_pad)
        assert memory.data.shape == (2, batch.src.shape[1], TINY.d_model)
        assert logits.data.shape == (2, batch.tgt.shape[1] - 1, vocab.n_target)


class TestGreedyDecode:
    def test_max_len_truncation(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        model.params["out.b"].data[C.EOS_ID] = -1e9  # EOS never wins
        enc = C.encode_dataset(ds, vocab)[:2]
        words = T.greedy_decode(model, enc, max_len=5)
        assert all(len(w) == 5 for w in words)

    def test_immediate_eos_gives_empty_word(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        model.params["out.b"].data[C.EOS_ID] = 1e9
        words = T.greedy_decode(model, C.encode_dataset(ds, vocab)[:2], max_len=5)
        assert words == [(), ()]

    def test_specials_never_emitted(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        for w in T.greedy_decode(model, C.encode_dataset(ds, vocab)[:4], max_len=6):
            assert all(t not in C.SPECIALS for t in w)

    def test_only_encoder_and_cross_attention_are_masked(self, toy, monkeypatch):
        # a greedy prefix holds no PAD and attends to every cached position,
        # so no decoder pass builds a self-attention mask
        from protoform.engine import ops

        ds, vocab = toy
        cfg = replace(TINY, n_encoder_layers=2, n_decoder_layers=3)
        model = T.Model(cfg, vocab, ds.languages)
        built, passes = [], []
        real_node, real_decode = ops.make_node, T.Model.decode_batch

        def recording(data, op, parents, backward):
            built.append(op)
            return real_node(data, op, parents, backward)

        def counted(self, *args, **kwargs):
            passes.append(1)
            return real_decode(self, *args, **kwargs)

        monkeypatch.setattr(ops, "make_node", recording)
        monkeypatch.setattr(T.Model, "decode_batch", counted)
        monkeypatch.setattr(T, "DECODE_CHUNK", 10)
        T.greedy_decode(model, C.encode_dataset(ds, vocab), max_len=6)
        chunks = -(-len(ds.sets) // 10)
        assert len(passes) > chunks
        assert built.count("masked_fill") == (chunks * cfg.n_encoder_layers
                                              + len(passes) * cfg.n_decoder_layers)

    def test_a_chunk_is_freed_before_the_next_is_encoded(self, toy, monkeypatch):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        enc = C.encode_dataset(ds, vocab)[:5]
        words = T.greedy_decode(model, enc, 8)
        monkeypatch.setattr(T, "DECODE_CHUNK", 2)
        real_encode, real_decode = T.Model.encode_batch, T.Model.decode_batch
        refs, alive_at_encode = [], []

        def encode(self, batch, drop=T._EVAL):
            alive_at_encode.append(sum(ref() is not None for ref in refs))
            memory = real_encode(self, batch, drop)
            refs.append(weakref.ref(memory.data))
            return memory

        def decode(self, memory, tgt_in, src_pad, drop=T._EVAL, cache=None):
            logits = real_decode(self, memory, tgt_in, src_pad, drop, cache)
            refs.append(weakref.ref(logits.data))
            refs.extend(weakref.ref(t.data) for k, v, (ck, cv) in cache for t in (k, v, ck, cv))
            return logits

        monkeypatch.setattr(T.Model, "encode_batch", encode)
        monkeypatch.setattr(T.Model, "decode_batch", decode)
        assert T.greedy_decode(model, enc, 8) == words
        # three chunks; the memory, logits and cache of each die before the next
        assert alive_at_encode == [0, 0, 0] and len(refs) > 3

    def test_past_the_positional_table_raises(self, toy):
        # Greedy decoding asks for position 1,024 at its 1,025th step, one
        # past the table: an EngineError, not an empty slice broadcast away.
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        model.params["out.b"].data[C.EOS_ID] = -1e9  # EOS never wins
        enc = C.encode_dataset(ds, vocab)[:1]
        assert len(T.greedy_decode(model, enc, max_len=T.MAX_SOURCE_LEN)[0]) == T.MAX_SOURCE_LEN
        with pytest.raises(E.EngineError, match=f"target length {T.MAX_SOURCE_LEN + 1} "
                                                f"exceeds maximum {T.MAX_SOURCE_LEN}"):
            T.greedy_decode(model, enc, max_len=T.MAX_SOURCE_LEN + 1)


class TestDecodeGolden:
    # Words of random-init models on the toy fixture, max_len 8; "-" is the
    # empty word.  Float64 and float32 decode the same words.  The TINY
    # words were decoded by re-running the decoder over the whole prefix at
    # every step (before greedy decoding used a key/value cache), the
    # two-decoder-layer words by an earlier cached decoder; that case
    # carries the cache through a second layer.  Scaling every parameter by
    # 6 makes rows end at different steps.
    GOLDEN = {
        "1.0": (TINY, 1.0,
                "nuiupnnn nuiinnnn nuiinnnn nuiupnnn nuiinnnn nuiinnnn nuiupnnn nuiunnnn "
                "nuiinnnn nuiunnnn nuiupnnn nuiinnnn nuiunnnn nuiunnnn nuiinnnn nuiinnnn "
                "nuiupnnn nuiinnnn nuiunnnn nuiunnnn nuiinnnn nuiunnnn nuiupnnn nuiinnnn"),
        "6.0": (TINY, 6.0,
                "pppppppp pppppppp - pppppppp pppppppp pppppppp pnpppppp pppppppp "
                "pppppppp pppppppp pppppppp pnnnnnnn pppppppn pppppppp pppppppp pppppppp "
                "pppppppp pppppppp pppppppp nnnnpnnn pnnnnnnn pppppppp npnnnnnn ppp"),
        "2-layers-6.0": (replace(TINY, n_decoder_layers=2, seed=0), 6.0,
                         "pppppppp pppppppp - - - pppppppp ippppppp pp pppppppp - pppppppp it "
                         "p pppppppp - pppppppp ippiiipp pp iiiiiiii tppppppp - piiiiiii - "
                         "pppppppp"),
    }
    MAX_LEN = 8

    @pytest.fixture(params=["float64", "float32"])
    def dtype(self, request):
        prev = np.dtype(E.default_dtype()).name
        E.set_default_dtype(request.param)
        yield request.param
        E.set_default_dtype(prev)

    def scaled_model(self, ds, vocab, case):
        cfg, scale, _ = self.GOLDEN[case]
        model = T.Model(cfg, vocab, ds.languages)
        for p in model.params.values():
            p.data *= scale
        return model

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    @pytest.mark.parametrize("chunk", [1, 3, T.DECODE_CHUNK])
    def test_words_match_recorded(self, toy, dtype, case, chunk, monkeypatch):
        ds, vocab = toy
        model = self.scaled_model(ds, vocab, case)
        monkeypatch.setattr(T, "DECODE_CHUNK", chunk)
        words = T.greedy_decode(model, C.encode_dataset(ds, vocab), self.MAX_LEN)
        assert " ".join("".join(w) or "-" for w in words) == self.GOLDEN[case][2]

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_words_are_the_teacher_forced_argmax(self, toy, dtype, case):
        ds, vocab = toy
        model = self.scaled_model(ds, vocab, case)
        enc = C.encode_dataset(ds, vocab)
        words = T.greedy_decode(model, enc, self.MAX_LEN)
        tgt = np.full((len(words), self.MAX_LEN + 1), C.PAD_ID, dtype=np.int64)
        for r, word in enumerate(words):
            ids = [C.BOS_ID] + [vocab.tgt_id(t) for t in word]
            if len(word) < self.MAX_LEN:
                ids.append(C.EOS_ID)
            tgt[r, :len(ids)] = ids
        batch = T.collate(enc)
        with E.no_grad():
            logits = model.decode_batch(model.encode_batch(batch), tgt[:, :-1],
                                        batch.src_pad).data
        logits[..., [C.PAD_ID, C.BOS_ID, C.UNK_ID]] = -np.inf
        for r, word in enumerate(words):
            n = len(word) + (len(word) < self.MAX_LEN)
            assert list(logits[r, :n].argmax(axis=-1)) == list(tgt[r, 1:n + 1]), r


def batched_linear(x, w, b):
    """``linear`` as grad mode runs it: numpy's product per leading index."""
    return E.Tensor(np.matmul(x.data, w.data) + b.data, dtype=x.data.dtype)


@functools.lru_cache(maxsize=None)
def sinitic_test_split(seed):
    """The evaluate benchmark's corpus: 800 Sinitic-style sets of 12
    varieties, split with seed 0; the encoded test split and its vocabulary."""
    rules = S.parse_rules(resources.files("protoform.data").joinpath("sinitic_style.rules")
                          .read_text("utf-8"))
    ds = parse_dataset(S.generate_tsv(rules, 800, 12, seed))
    train, _, test = C.split_dataset(ds, 0)
    vocab = build_vocab(train)
    return ds, vocab, C.encode_dataset(test, vocab)


class TestNoGradGemmWords:
    """Greedy decoding runs each affine layer as one 2-D GEMM, whose logits
    may differ in the last bits from the batched product's that training
    uses.  The words must not: a near-tie argmax must not flip.  Float32,
    the dtype the evaluate benchmark decodes in; scaling every parameter
    by 6 sharpens the logits."""

    @pytest.fixture(autouse=True)
    def float32(self):
        prev = np.dtype(E.default_dtype()).name
        E.set_default_dtype("float32")
        yield
        E.set_default_dtype(prev)

    @staticmethod
    def assert_same_words(model, enc, max_len, monkeypatch):
        words = T.greedy_decode(model, enc, max_len)
        with monkeypatch.context() as m:
            m.setattr(E, "linear", batched_linear)
            assert T.greedy_decode(model, enc, max_len) == words

    @pytest.mark.parametrize("case", sorted(TestDecodeGolden.GOLDEN))
    def test_golden_corpus(self, toy, case, monkeypatch):
        ds, vocab = toy
        model = TestDecodeGolden().scaled_model(ds, vocab, case)
        self.assert_same_words(model, C.encode_dataset(ds, vocab), TestDecodeGolden.MAX_LEN,
                               monkeypatch)

    @pytest.mark.parametrize("scale", [1.0, 6.0])
    @pytest.mark.parametrize("seed", [121, 1])
    def test_sinitic_corpora(self, seed, scale, monkeypatch):
        ds, vocab, enc = sinitic_test_split(seed)
        model = T.Model(T.SINITIC.with_seed(0), vocab, ds.languages)
        for p in model.params.values():
            p.data *= scale
        assert model.params["out.w"].data.dtype == np.float32
        self.assert_same_words(model, enc, 20, monkeypatch)


class TestTraining:
    def test_epoch_zero_loss_near_log_vocab(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        batch = T.collate(C.encode_dataset(ds, vocab))
        with E.no_grad():
            loss = float(model.loss_batch(batch).data)
        assert loss == pytest.approx(np.log(vocab.n_target), rel=0.10)

    def test_overfits_single_example(self, toy):
        ds, vocab = toy
        single = C.Dataset(ds.sets[:1], ds.languages, ds.proto_name)
        cfg = T.TransformerConfig(
            d_model=32, n_heads=4, n_encoder_layers=1, n_decoder_layers=1,
            d_feedforward=64, dropout_p=0.0, lr=3e-3, warmup_epochs=5,
            total_epochs=60, weight_decay=0.0, batch_size=1, seed=7,
        )
        model = T.Model(cfg, vocab, ds.languages)
        trained = T.train(model, single, single, cfg)
        pred = T.greedy_decode(trained.model, C.encode_dataset(single, vocab),
                               trained.max_decode_len)
        assert pred[0] == single.sets[0].proto

    def test_training_is_bitwise_deterministic(self, toy):
        ds, vocab = toy
        train_ds = C.Dataset(ds.sets[:12], ds.languages, ds.proto_name)
        val_ds = C.Dataset(ds.sets[12:16], ds.languages, ds.proto_name)
        cfg = T.TransformerConfig(
            d_model=16, n_heads=2, n_encoder_layers=1, n_decoder_layers=1,
            d_feedforward=32, dropout_p=0.1, lr=1e-3, warmup_epochs=2,
            total_epochs=4, weight_decay=1e-7, batch_size=4, seed=11,
        )
        runs = []
        for _ in range(2):
            model = T.Model(cfg, vocab, ds.languages)
            runs.append(T.train(model, train_ds, val_ds, cfg))
        assert runs[0].best_val_ped == runs[1].best_val_ped
        assert runs[0].best_epoch == runs[1].best_epoch
        for name in runs[0].model.params:
            np.testing.assert_array_equal(runs[0].model.params[name].data,
                                          runs[1].model.params[name].data)

    def test_best_epoch_minimizes_validation_ped(self, toy):
        ds, vocab = toy
        train_ds = C.Dataset(ds.sets[:12], ds.languages, ds.proto_name)
        val_ds = C.Dataset(ds.sets[12:16], ds.languages, ds.proto_name)
        cfg = T.TransformerConfig(
            d_model=16, n_heads=2, n_encoder_layers=1, n_decoder_layers=1,
            d_feedforward=32, dropout_p=0.0, lr=2e-3, warmup_epochs=2,
            total_epochs=6, weight_decay=0.0, batch_size=4, seed=2,
        )
        trained = T.train(T.Model(cfg, vocab, ds.languages), train_ds, val_ds, cfg)
        peds = [h["val_ped"] for h in trained.history]
        assert trained.best_val_ped == min(peds)
        assert trained.best_epoch == peds.index(min(peds))

    def test_divergence_aborts_with_epoch(self, toy):
        ds, vocab = toy
        train_ds = C.Dataset(ds.sets[:8], ds.languages, ds.proto_name)
        cfg = T.TransformerConfig(
            d_model=16, n_heads=2, n_encoder_layers=1, n_decoder_layers=1,
            d_feedforward=32, dropout_p=0.0, lr=1.0, warmup_epochs=1,
            total_epochs=3, weight_decay=0.0, batch_size=4, seed=2,
        )
        model = T.Model(cfg, vocab, ds.languages)
        model.params["out.w"].data[0, 0] = np.nan
        with pytest.raises(E.EngineError, match="diverged at epoch|epoch 0"):
            T.train(model, train_ds, train_ds, cfg)


class TestNumericsGolden:
    # Pins the training numerics for engine refactors.  Recorded in float64:
    # per-epoch (train_loss, val_ped), then the sum and the sum of squares
    # of the returned parameters.  The tolerance absorbs BLAS and threading
    # differences between hosts, not a changed computation.
    GOLDEN = {
        0.0: ([(2.7058419942904575, 19.25), (2.513187755337447, 7.25)],
              144.40155788743147, 388.88805239073645),
        0.1: ([(2.640622637732106, 19.25), (2.575635714629568, 7.25)],
              143.66412171978067, 388.8553440997226),
    }

    @pytest.mark.parametrize("dropout_p", sorted(GOLDEN))
    def test_two_epochs_match_recorded_numbers(self, toy, dropout_p):
        if E.default_dtype() != np.float64:
            pytest.skip("golden recorded in float64")
        ds, vocab = toy
        train_ds = C.Dataset(ds.sets[:16], ds.languages, ds.proto_name)
        val_ds = C.Dataset(ds.sets[16:], ds.languages, ds.proto_name)
        cfg = replace(TINY, total_epochs=2, dropout_p=dropout_p)
        trained = T.train(T.Model(cfg, vocab, ds.languages), train_ds, val_ds, cfg)
        history, total, squares = self.GOLDEN[dropout_p]
        got = [(h["train_loss"], h["val_ped"]) for h in trained.history]
        np.testing.assert_allclose(got, history, rtol=1e-9, atol=0)
        flat = np.concatenate([t.data.ravel() for t in trained.model.params.values()])
        np.testing.assert_allclose([flat.sum(), (flat * flat).sum()], [total, squares],
                                   rtol=1e-9, atol=0)


def _backward_keeping_graph(loss):
    """The reverse pass as it was before ``E.backward`` released the graph:
    the same closures in the same order, every node keeping its gradient,
    closure and parent links."""
    order = _toposort(loss.node)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node.backward is not None and node.grad is not None:
            node.backward(node.grad)


class TestBackwardRelease:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_the_loop_that_kept_the_graph(self, toy, dtype):
        ds, vocab = toy
        cfg = replace(TINY, dropout_p=0.3)
        batch = T.collate(C.encode_dataset(ds, vocab)[:4])
        prev = np.dtype(E.default_dtype()).name
        E.set_default_dtype(dtype)
        try:
            runs = []
            for walk in (E.backward, _backward_keeping_graph):
                model = T.Model(cfg, vocab, ds.languages)
                walk(model.loss_batch(batch, T._DropCtx(cfg.seed, 5, cfg.dropout_p)))
                grads = {name: t.grad for name, t in model.params.items() if t.grad is not None}
                E.adam_step(model.params, E.AdamState(), cfg.lr)
                runs.append((grads, model.params))
        finally:
            E.set_default_dtype(prev)
        (grads, params), (kept_grads, kept_params) = runs
        assert list(grads) == list(kept_grads) and grads
        for name, g in kept_grads.items():
            assert grads[name].dtype == np.dtype(dtype), name
            np.testing.assert_array_equal(grads[name], g, err_msg=name)
        for name, p in kept_params.items():
            np.testing.assert_array_equal(params[name].data, p.data, err_msg=name)


class TestLanguageEmbeddings:
    def test_shape_and_keys(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        embs = T.extract_language_embeddings(model)
        assert list(embs) == model.languages == ds.languages   # table order
        assert all(v.shape == (TINY.d_model,) for v in embs.values())

    def test_untrained_equals_initialization_draw(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        rng = philox(0x1217, TINY.seed)
        bound = 1.0 / np.sqrt(TINY.d_model)
        rng.uniform(-bound, bound, (vocab.n_source, TINY.d_model))
        rng.uniform(-bound, bound, (vocab.n_target, TINY.d_model))
        expected = rng.uniform(-bound, bound, (len(ds.languages), TINY.d_model))
        embs = T.extract_language_embeddings(model)
        for index, name in enumerate(ds.languages):
            np.testing.assert_array_equal(embs[name], expected[index].astype(embs[name].dtype))

    def test_keys_follow_the_table_not_the_names(self, toy):
        _, vocab = toy
        model = T.Model(TINY, vocab, ["B", "A"])
        embs = T.extract_language_embeddings(model)
        assert list(embs) == ["B", "A"]
        np.testing.assert_array_equal(embs["B"], model.params["lang_emb"].data[0])

    def test_copies_are_detached(self, toy):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        embs = T.extract_language_embeddings(model)
        embs[ds.languages[0]][:] = 0
        assert not np.all(model.params["lang_emb"].data[0] == 0)


class TestCheckpointRoundTrip:
    def test_save_load_decode_parity(self, toy, tmp_path):
        ds, vocab = toy
        train_ds = C.Dataset(ds.sets[:12], ds.languages, ds.proto_name)
        val_ds = C.Dataset(ds.sets[12:16], ds.languages, ds.proto_name)
        cfg = T.TransformerConfig(
            d_model=16, n_heads=2, n_encoder_layers=1, n_decoder_layers=1,
            d_feedforward=32, dropout_p=0.1, lr=1e-3, warmup_epochs=1,
            total_epochs=2, weight_decay=0.0, batch_size=4, seed=5,
        )
        trained = T.train(T.Model(cfg, vocab, ds.languages), train_ds, val_ds, cfg)
        prefix = str(tmp_path / "run")
        trained.save(prefix)
        loaded = T.TrainedModel.load(prefix)
        assert loaded.best_epoch == trained.best_epoch
        enc = C.encode_dataset(val_ds, vocab)
        a = T.greedy_decode(trained.model, enc, trained.max_decode_len)
        b = T.greedy_decode(loaded.model, enc, loaded.max_decode_len)
        assert a == b

    def test_vocabulary_round_trip(self, toy, tmp_path):
        ds, vocab = toy
        cfg = T.TransformerConfig(d_model=8, n_heads=2, n_encoder_layers=0,
                                  n_decoder_layers=0, d_feedforward=8)
        prefix = str(tmp_path / "run")
        T.TrainedModel(T.Model(cfg, vocab, ds.languages), cfg, vocab, [], 0, 0.0, 20).save(prefix)
        loaded, built = T.TrainedModel.load(prefix).vocab, build_vocab(ds)
        assert loaded == built
        assert loaded.source_index == built.source_index
        assert loaded.target_index == built.target_index
        assert [loaded.tgt_id(t) for t in built.target_tokens] == list(range(built.n_target))


class TestParameterTable:
    # sha256 over (name, shape, dtype) and the bytes of every array of
    # ``Model.state()``, in order, for random-init models on the toy
    # vocabulary; recorded when each parameter kind had its own constructor
    DIGESTS = {
        ("TINY", 0, "float64"): "76ba21b9632a4c769c392e79",
        ("TINY", 1, "float64"): "d0e79e6f2654459c58dd2a48",
        ("ROMANCE", 0, "float64"): "a18ec0f45b2af49ba849814e",
        ("ROMANCE", 1, "float64"): "dd3d2a63323cb6b5e5bc2d5d",
        ("SINITIC", 0, "float64"): "f38fadc3c799743efadc4b3c",
        ("SINITIC", 1, "float64"): "785d0c68a9037445d7bf1a9f",
        ("TINY", 0, "float32"): "96eb829d5eafa6c85e960b87",
        ("TINY", 1, "float32"): "fcb930a7a6017352ec49cb7c",
        ("ROMANCE", 0, "float32"): "88990574417a6383b1d80d42",
        ("ROMANCE", 1, "float32"): "1b036fa3b6070647a9739e32",
        ("SINITIC", 0, "float32"): "276b7835ba5088490a5e458d",
        ("SINITIC", 1, "float32"): "c0574494f882485f69c9f820",
    }

    @pytest.fixture(params=["float64", "float32"])
    def dtype(self, request):
        prev = np.dtype(E.default_dtype()).name
        E.set_default_dtype(request.param)
        yield request.param
        E.set_default_dtype(prev)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("preset", ["TINY", "ROMANCE", "SINITIC"])
    def test_initial_state_matches_recorded(self, toy, dtype, preset, seed):
        ds, vocab = toy
        cfg = {"TINY": TINY, "ROMANCE": T.ROMANCE, "SINITIC": T.SINITIC}[preset]
        model = T.Model(cfg.with_seed(seed), vocab, ds.languages)
        digest = hashlib.sha256()
        for name, arr in model.state().items():
            digest.update(f"{name} {arr.shape} {arr.dtype.str}\n".encode())
            digest.update(arr.tobytes())
        assert digest.hexdigest()[:24] == self.DIGESTS[preset, seed, dtype]

    def test_load_draws_nothing(self, toy, tmp_path, monkeypatch):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        prefix = str(tmp_path / "seed3")
        T.TrainedModel(model, TINY, vocab, [], 0, 0.0, 20).save(prefix)
        keys = []
        real = np.random.Philox

        def spy(*args, **kwargs):
            keys.append(kwargs.get("key"))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", spy)
        loaded = T.TrainedModel.load(prefix)
        assert keys == []
        for name, arr in model.state().items():
            np.testing.assert_array_equal(loaded.model.params[name].data, arr, err_msg=name)
        T.Model(TINY, vocab, ds.languages)   # the spy sees a random init's one stream
        assert len(keys) == 1

    @pytest.mark.parametrize("case", ["extra", "missing", "shape"])
    def test_load_state_names_the_parameter(self, toy, case):
        ds, vocab = toy
        model = T.Model(TINY, vocab, ds.languages)
        before = model.state()
        state = model.state()
        if case == "extra":
            state["enc0.attn.wz"] = np.zeros(3)
        elif case == "missing":
            del state["enc0.attn.wq"]
        else:
            state["enc0.attn.wq"] = state["enc0.attn.wq"][:, :-1]
        message = {"extra": "unknown parameter(s) enc0.attn.wz",
                   "missing": "missing parameter(s) enc0.attn.wq",
                   "shape": "parameter enc0.attn.wq has shape (32, 31), the model's is (32, 32)"}
        with pytest.raises(E.EngineError) as exc:
            model.load_state(state)
        assert str(exc.value) == message[case]
        for name, arr in before.items():   # nothing changed
            np.testing.assert_array_equal(model.params[name].data, arr, err_msg=name)

    def test_models_share_one_positional_table(self, toy, dtype):
        ds, vocab = toy
        a = T.Model(TINY, vocab, ds.languages)
        b = T.Model(replace(TINY, n_heads=8, seed=9), vocab, ds.languages[:1])
        assert a.pe is b.pe and a.pe.dtype == np.dtype(dtype)
        assert not a.pe.flags.writeable
        assert T.Model(replace(TINY, d_model=16), vocab, ds.languages).pe is not a.pe
        # float64 angles, cast once to the model's dtype
        np.testing.assert_array_equal(
            a.pe, T.sinusoid_table.__wrapped__(T.MAX_SOURCE_LEN, 32).astype(dtype))


class TestEndToEndGradient:
    def test_tiny_transformer_matches_finite_differences(self, toy):
        ds, vocab = toy
        cfg = T.TransformerConfig(
            d_model=8, n_heads=2, n_encoder_layers=2, n_decoder_layers=2,
            d_feedforward=16, dropout_p=0.0, lr=1e-3, warmup_epochs=1,
            total_epochs=1, weight_decay=0.0, batch_size=2, seed=13,
        )
        model = T.Model(cfg, vocab, ds.languages)
        batch = T.collate(C.encode_dataset(ds, vocab)[:2])

        def loss_value():
            with E.no_grad():
                return float(model.loss_batch(batch).data)

        E.backward(model.loss_batch(batch))

        rng = philox(1234)
        names = sorted(model.params)
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 200:
            attempts += 1
            name = names[int(rng.integers(0, len(names)))]
            p = model.params[name]
            flat = p.data.reshape(-1)
            i = int(rng.integers(0, flat.size))
            analytic = 0.0 if p.grad is None else p.grad.reshape(-1)[i]
            numeric = central_difference(loss_value, flat, i)
            if abs(analytic) < 1e-7 and abs(numeric) < 1e-7:
                continue  # unused parameter entry (e.g. never-seen token row)
            assert abs(analytic - numeric) / max(abs(analytic), abs(numeric)) < 1e-3, name
            checked += 1
        assert checked == 20
