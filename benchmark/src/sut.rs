//! The system under test and the process-level meters around it.
//!
//! The artifact is a fixed-seed *untrained* model at the serving shape: decode
//! cost depends on the architecture, not on the weights, and an untrained
//! artifact needs no training run inside the benchmark's time cap. It is
//! served by the shipped daemon at `ServerConfig::default()` and driven only
//! through the shipped `Client`.

use mpirical::encode::record_tokens;
use mpirical::model::{DecodeOptions, ModelConfig, Precision, Seq2SeqModel, Vocab};
use mpirical::{InputFormat, MpiRical, PoolStats, SubmitOptions, SuggestPoll};
use mpirical_server::{Client, Server, ServerConfig, Submitted};
use std::io;
use std::sync::Arc;

/// Weight-initialisation seed of the artifact.
pub const MODEL_SEED: u64 = 0x5EED;
/// Vocabulary size including the six specials.
pub const VOCAB_SIZE: usize = 4096;
/// Untimed warm-up requests per set-up (fills the engine-model cache, the
/// packed weights and the page pool).
pub const WARMUP_REQUESTS: usize = 8;

/// The serving shape (ROADMAP: d=256, paper's 4×d feed-forward ratio).
pub fn model_config() -> ModelConfig {
    ModelConfig {
        vocab_size: 0,
        d_model: 256,
        n_heads: 4,
        d_ff: 1024,
        n_enc_layers: 2,
        n_dec_layers: 2,
        max_enc_len: 256,
        max_dec_len: 96,
        dropout: 0.0,
    }
}

/// Decode steps a request with the given cap runs: `min_len = max_dec_len`
/// suppresses `<eos>`, so length is decided by the cap alone (the `<sos>`
/// prompt takes one of the `max_dec_len` positions).
pub fn expected_steps(cap: Option<usize>) -> u64 {
    let full = model_config().max_dec_len - 1;
    cap.map_or(full, |c| c.min(full)) as u64
}

/// Build the artifact: corpus vocabulary padded with filler tokens to exactly
/// [`VOCAB_SIZE`], random weights from [`MODEL_SEED`], greedy f32 decoding.
pub fn build_assistant() -> MpiRical {
    let mut sequences: Vec<Vec<String>> = Vec::new();
    for record in &crate::gen::corpus().records {
        let tokens = record_tokens(record);
        sequences.extend([tokens.input_code, tokens.input_xsbt, tokens.label]);
    }
    sequences.push((0..VOCAB_SIZE).map(|i| format!("__pad{i:04}")).collect());
    let vocab = Vocab::build(sequences.iter(), 1, VOCAB_SIZE - 6);
    assert_eq!(
        vocab.len(),
        VOCAB_SIZE,
        "vocabulary pads to the serving size"
    );
    let cfg = model_config();
    let decode = DecodeOptions {
        beam: 1,
        min_len: cfg.max_dec_len,
        precision: Precision::F32,
    };
    let model = Seq2SeqModel::new(cfg, vocab, MODEL_SEED);
    MpiRical::from_parts(model, InputFormat::CodeXsbt, decode, None)
}

/// A running daemon plus the artifact it serves.
pub struct Daemon {
    pub assistant: Arc<MpiRical>,
    pub server: Server,
}

impl Daemon {
    /// Build the artifact, start the daemon at its default configuration and
    /// push `warmup` requests through one connection.
    pub fn set_up(warmup_sources: &[String], warmup: usize) -> io::Result<Daemon> {
        let assistant = Arc::new(build_assistant());
        let server = Server::start(Arc::clone(&assistant), ServerConfig::default())?;
        let mut client = Client::connect(server.addr())?;
        for source in warmup_sources.iter().cycle().take(warmup) {
            let options = SubmitOptions::interactive().with_max_new_tokens(8);
            let Submitted::Ticket(id) = client.submit_with(source, options)? else {
                return Err(io::Error::other("warm-up submission was not admitted"));
            };
            if !matches!(client.wait(id)?, SuggestPoll::Done { .. }) {
                return Err(io::Error::other("warm-up request did not finish"));
            }
        }
        Ok(Daemon { assistant, server })
    }

    pub fn connect(&self) -> io::Result<Client> {
        Client::connect(self.server.addr())
    }

    /// Graceful drain through `client`, then stop the daemon. Returns the
    /// final pool stats (`pages_live` must be 0). Every connection must be
    /// dropped by the caller first, or the service thread outlives this call.
    pub fn tear_down(self, mut client: Client) -> io::Result<PoolStats> {
        let pool = client.drain()?;
        drop(client);
        self.server.shutdown();
        Ok(pool)
    }
}

/// CPU time (user + system, all threads) this process has used, in ms.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. 11 and 12 after the ')'.
    let after = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
