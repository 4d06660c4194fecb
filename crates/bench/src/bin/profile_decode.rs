//! Throwaway profiler for the decode hot path (not wired into CI).

use mpirical_model::decode::encode_source;
use mpirical_model::transformer::build_params;
use mpirical_model::{
    decode_step_batch, BatchScratch, DecoderCache, DecoderWeights, ModelConfig, Precision,
};
use mpirical_tensor::{
    batch_matmul_packed, batch_matmul_slice, vecmat, vecmat_bt, vecmat_q, PackedMat, ParamStore,
    QuantMat, Tensor,
};
use std::time::Instant;

fn time(label: &str, iters: usize, mut f: impl FnMut()) {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let el = t0.elapsed();
    println!("{label:40} {:>10.2?} / iter", el / iters as u32);
}

fn main() {
    let cfg = ModelConfig {
        vocab_size: 2048,
        d_model: 256,
        n_heads: 4,
        d_ff: 512,
        n_enc_layers: 2,
        n_dec_layers: 2,
        max_enc_len: 64,
        max_dec_len: 80,
        dropout: 0.0,
    };
    let mut store = ParamStore::new();
    let params = build_params(&cfg, &mut store, 1);
    let src: Vec<usize> = (0..48).map(|i| 6 + (i % 200)).collect();
    let enc = encode_source(&store, &params, &cfg, &src);

    // kernels
    let w_out = Tensor::from_vec(
        &[256, 2048],
        (0..256 * 2048).map(|i| (i % 13) as f32 * 0.01).collect(),
    );
    let w_sq = Tensor::from_vec(
        &[256, 256],
        (0..256 * 256).map(|i| (i % 7) as f32 * 0.02).collect(),
    );
    let kmat = Tensor::from_vec(
        &[48, 64],
        (0..48 * 64).map(|i| (i % 11) as f32 * 0.03).collect(),
    );
    let v64 = vec![0.5f32; 256];
    let q16 = vec![0.25f32; 64];
    let mut out512 = vec![0.0f32; 2048];
    let mut out64 = vec![0.0f32; 256];
    let mut out128 = vec![0.0f32; 48];
    let x8 = vec![0.5f32; 8 * 256];
    let mut bout = vec![0.0f32; 8 * 2048];
    let mut bout64 = vec![0.0f32; 8 * 256];

    time("vecmat 256x2048", 5000, || {
        vecmat(&v64, &w_out, &mut out512)
    });
    time("8x vecmat 256x2048", 1000, || {
        for _ in 0..8 {
            vecmat(&v64, &w_out, &mut out512)
        }
    });
    time("batch_matmul_slice 8x256x2048 (row-major)", 1000, || {
        batch_matmul_slice(&x8, 8, &w_out.data, 2048, &mut bout)
    });
    let pw_out = PackedMat::pack(&w_out);
    time("batch_matmul_packed 8x256x2048", 1000, || {
        batch_matmul_packed(&x8, 8, &pw_out, &mut bout)
    });
    // Int8 kernels against their f32 counterparts (the 4× weight-traffic
    // reduction behind the decode_quant bench group).
    let qm_out = QuantMat::quantize(&w_out);
    time("vecmat_q 256x2048 (int8)", 5000, || {
        vecmat_q(&v64, &qm_out, &mut out512)
    });
    time("vecmat 256x256", 20000, || vecmat(&v64, &w_sq, &mut out64));
    let pw_sq = PackedMat::pack(&w_sq);
    time("batch_matmul_packed 8x256x256", 4000, || {
        batch_matmul_packed(&x8, 8, &pw_sq, &mut bout64)
    });
    time("vecmat_bt q64 @ [48,64]", 20000, || {
        vecmat_bt(&q16, &kmat, &mut out128)
    });
    time("vecmat s48 @ [48,64] (ctx)", 20000, || {
        vecmat(&out128, &kmat, &mut out64[..64])
    });

    // Full steps: one lane in both precisions (the single-request path),
    // and eight f32 lanes.
    let mut logits = vec![0.0f32; 8 * cfg.vocab_size];
    for (precision, lanes) in [
        (Precision::F32, 1),
        (Precision::Int8, 1),
        (Precision::F32, 8),
    ] {
        let weights = DecoderWeights::for_precision(&store, &params, precision);
        let fresh = || -> Vec<DecoderCache> {
            (0..lanes)
                .map(|_| DecoderCache::new(&store, &params, &cfg, &enc))
                .collect()
        };
        let mut caches = fresh();
        let mut scratch = BatchScratch::new(&cfg, lanes);
        let tokens = vec![7; lanes];
        let label = format!("decode_step_batch ({lanes} lane, {precision:?})");
        time(&label, 2000, || {
            if caches[0].len() >= 70 {
                caches = fresh();
            }
            let mut refs: Vec<&mut DecoderCache> = caches.iter_mut().collect();
            decode_step_batch(
                &store,
                &params,
                &cfg,
                &weights,
                &mut refs,
                &tokens,
                &mut scratch,
                &mut logits[..lanes * cfg.vocab_size],
            );
        });
    }

    time("DecoderCache::new", 2000, || {
        std::hint::black_box(DecoderCache::new(&store, &params, &cfg, &enc));
    });

    // Paged memory and beam-fork cost at a 64-token output. Measured at the
    // assistant's serving window (`max_dec_len` 240, as in the decode
    // benches) against reserving that whole window per lane up front.
    let mut mcfg = cfg.clone();
    mcfg.max_dec_len = 240;
    let weights = DecoderWeights::for_precision(&store, &params, Precision::F32);
    let mut scratch = BatchScratch::new(&mcfg, 1);
    let mut paged = DecoderCache::new(&store, &params, &mcfg, &enc);
    for step in 0..64usize {
        decode_step_batch(
            &store,
            &params,
            &mcfg,
            &weights,
            &mut [&mut paged],
            &[6 + step % 200],
            &mut scratch,
            &mut logits[..mcfg.vocab_size],
        );
    }
    let stats = paged.pool().stats();
    let reserved_bytes = 2 // K and V
        * mcfg.n_dec_layers
        * mcfg.n_heads
        * mcfg.max_dec_len
        * mcfg.d_head()
        * std::mem::size_of::<f32>();
    println!(
        "peak cache bytes/lane @64tok          paged {:>8} vs max_dec_len reservation {:>8}  ({:.2}x lower)",
        stats.peak_bytes(),
        reserved_bytes,
        reserved_bytes as f64 / stats.peak_bytes() as f64,
    );
    time("fork (clone) paged @64tok", 20000, || {
        std::hint::black_box(paged.clone());
    });
}
