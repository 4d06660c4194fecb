//! Property-test suite for the tape-free encoder forward (shims/proptest):
//! `decode::encode_source`, the inference path every decode entry point and
//! the daemon run per request, must equal `transformer::encode` — the
//! autograd-tape training path and the one independent oracle — **bit for
//! bit**, for any ids, length and architecture.
//!
//! The generator aims at the kernel seams: lengths 1..=`max_enc_len` that
//! are mostly not multiples of `batch_linear_packed`'s 8-row register block
//! (so the 4/2/1-row remainders run), `d_model`/`d_ff` that are mostly not
//! multiples of its 16-column panel (so the narrow remainder panel runs), odd widths
//! (a zero last positional column), 1–4 heads and 1–3 layers. Biases and
//! LayerNorm parameters are randomized — `build_params` leaves them at 0/1,
//! which would hide a misplaced bias add or a swapped gain.
//!
//! The scheduler runs the same forward as an [`EncoderRun`] paused after
//! any layer, several runs interleaved on one thread; a second property
//! steps two to four runs layer by layer in a random interleaving and pins
//! each to `encode_source` and to the tape.
//!
//! The forward splits its rows into one block per thread above a work
//! threshold; the suite forces three blocks (`MPIRICAL_LANE_PAR`) so uneven
//! partitions run at every shape on any host, and lengths 1 and 2 still
//! cover the one- and two-block cases.
//!
//! Case counts elevate via `PROPTEST_CASES` (CI runs the suite a second
//! time with a larger count).

use mpirical_model::decode::encode_source;
use mpirical_model::transformer::{build_params, encode, ForwardMode, TransformerParams};
use mpirical_model::{EncoderRun, ModelConfig};
use mpirical_tensor::{ParamStore, Tape, Tensor};
use proptest::prelude::*;

/// Force the row partition onto three threads regardless of the work
/// estimate (read once per process, so every test calls this first).
fn force_row_blocks() {
    static SET: std::sync::Once = std::sync::Once::new();
    SET.call_once(|| std::env::set_var("MPIRICAL_LANE_PAR", "3"));
}

/// The oracle: the encoder forward recorded on a throwaway tape.
fn tape_encode(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    ids: &[usize],
) -> Tensor {
    let mut tape = Tape::new();
    let out = encode(&mut tape, store, params, cfg, ids, ForwardMode::inference());
    tape.value(out).clone()
}

/// A model of the given shape with every 1-D parameter (biases, LayerNorm
/// gain and shift) moved off its 0/1 initial value by a seeded xorshift.
fn random_model(cfg: &ModelConfig, seed: u64) -> (ParamStore, TransformerParams) {
    let mut store = ParamStore::new();
    let params = build_params(cfg, &mut store, seed);
    let mut state = seed | 1;
    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        if store.shape(id).len() != 1 {
            continue;
        }
        let mut value = store.tensor(id);
        for v in value.data.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v += (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        }
        store.set(id, value);
    }
    (store, params)
}

/// Equal shapes and equal bits, reporting the first element that differs.
fn assert_bitwise(fast: &Tensor, oracle: &Tensor, what: &str) {
    assert_eq!(fast.shape, oracle.shape, "{what}: shape");
    for (i, (a, b)) in fast.data.iter().zip(&oracle.data).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: element {i} of {:?}: {a} vs {b}",
            fast.shape
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tape_free_encoder_is_bitwise_the_tape_encoder(
        n_heads in 1usize..=4,
        d_head in 1usize..=13,
        d_ff in 1usize..=45,
        n_enc_layers in 1usize..=3,
        max_enc_len in 1usize..=44,
        len_pick in 0usize..10_000,
        id_picks in proptest::collection::vec(0usize..10_000, 44),
        vocab_size in 2usize..40,
        seed in 0u64..1_000_000,
    ) {
        force_row_blocks();
        let cfg = ModelConfig {
            vocab_size,
            d_model: n_heads * d_head,
            n_heads,
            d_ff,
            n_enc_layers,
            n_dec_layers: 1,
            max_enc_len,
            max_dec_len: 4,
            dropout: 0.0,
        };
        let (store, params) = random_model(&cfg, seed);
        let len = 1 + len_pick % max_enc_len;
        let ids: Vec<usize> = id_picks[..len].iter().map(|p| p % vocab_size).collect();
        assert_bitwise(
            &encode_source(&store, &params, &cfg, &ids),
            &tape_encode(&store, &params, &cfg, &ids),
            &format!("{len} ids, {n_heads} heads, d_ff {d_ff}, {n_enc_layers} layers"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Runs paused after any layer and resumed in any order interleave
    /// without touching each other: two to four runs over different ids of
    /// one model, stepped one layer at a time in a random order, each finish
    /// bitwise as `encode_source` and the tape.
    #[test]
    fn interleaved_runs_are_each_bitwise_the_forward(
        n_heads in 1usize..=3,
        d_head in 1usize..=9,
        d_ff in 1usize..=29,
        n_enc_layers in 1usize..=3,
        runs in proptest::collection::vec(
            (1usize..=24, proptest::collection::vec(0usize..10_000, 24)),
            2..5,
        ),
        order in proptest::collection::vec(0usize..4, 0..16),
        vocab_size in 2usize..30,
        seed in 0u64..1_000_000,
    ) {
        force_row_blocks();
        let cfg = ModelConfig {
            vocab_size,
            d_model: n_heads * d_head,
            n_heads,
            d_ff,
            n_enc_layers,
            n_dec_layers: 1,
            max_enc_len: 24,
            max_dec_len: 4,
            dropout: 0.0,
        };
        let (store, params) = random_model(&cfg, seed);
        let ids: Vec<Vec<usize>> = runs
            .iter()
            .map(|(len, picks)| picks[..*len].iter().map(|p| p % vocab_size).collect())
            .collect();
        let mut live: Vec<EncoderRun> = ids
            .iter()
            .map(|ids| EncoderRun::new(&store, &params, &cfg, ids))
            .collect();
        // The random order first, then every run to its end in turn.
        let n = live.len();
        let rest = (0..n).flat_map(|k| std::iter::repeat_n(k, n_enc_layers));
        for k in order.iter().map(|&k| k % n).chain(rest) {
            if !live[k].is_done() {
                live[k].step_layer();
            }
        }
        for (run, ids) in live.into_iter().zip(&ids) {
            let what = format!("{} ids, {n_heads} heads, {n_enc_layers} layers", ids.len());
            let out = run.finish();
            assert_bitwise(&out, &encode_source(&store, &params, &cfg, ids), &what);
            assert_bitwise(&out, &tape_encode(&store, &params, &cfg, ids), &what);
        }
    }
}

/// The serving shape the daemon and the perf ledger run (d=256, 4 heads,
/// d_ff 1024, 2 layers) at a full and a ragged window: here the tape path
/// takes its threaded `matmul` branch, which the tiny shapes above never do.
#[test]
fn serving_shape_is_bitwise_the_tape_encoder() {
    force_row_blocks();
    let cfg = ModelConfig {
        vocab_size: 4096,
        d_model: 256,
        n_heads: 4,
        d_ff: 1024,
        n_enc_layers: 2,
        n_dec_layers: 1,
        max_enc_len: 256,
        max_dec_len: 4,
        dropout: 0.0,
    };
    let (store, params) = random_model(&cfg, 20230911);
    for len in [256usize, 203] {
        let ids: Vec<usize> = (0..len).map(|i| (i * 37 + 11) % cfg.vocab_size).collect();
        assert_bitwise(
            &encode_source(&store, &params, &cfg, &ids),
            &tape_encode(&store, &params, &cfg, &ids),
            &format!("{len} ids"),
        );
    }
}

/// The guards of the tape path survive the rewrite, message for message.
#[test]
#[should_panic(expected = "exceeds max")]
fn over_length_input_is_rejected() {
    force_row_blocks();
    let mut cfg = ModelConfig::tiny();
    cfg.vocab_size = 16;
    let (store, params) = random_model(&cfg, 1);
    encode_source(&store, &params, &cfg, &vec![1; cfg.max_enc_len + 1]);
}

#[test]
#[should_panic(expected = "out of vocab")]
fn out_of_vocabulary_id_is_rejected() {
    force_row_blocks();
    let mut cfg = ModelConfig::tiny();
    cfg.vocab_size = 16;
    let (store, params) = random_model(&cfg, 1);
    encode_source(&store, &params, &cfg, &[1, 16, 2]);
}
