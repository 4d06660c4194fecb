//! Dataset evaluation: run the assistant over records and compute every
//! Table II metric, plus the per-example artifacts the worked Figure-6
//! illustration uses.

use crate::assistant::MpiRical;
use crate::tokenize::{calls_from_ids, tokenize_code};
use mpirical_corpus::Dataset;
use mpirical_metrics::{align, table_two, Alignment, CallSite, EvalExample, TableTwo};
use serde::{Deserialize, Serialize};

pub use mpirical_corpus::MPI_COMMON_CORE;

/// One evaluated record: the prediction next to its ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Prediction {
    pub record_id: u64,
    pub schema: String,
    pub truth_calls: Vec<CallSite>,
    pub pred_calls: Vec<CallSite>,
    pub truth_tokens: Vec<String>,
    pub pred_tokens: Vec<String>,
}

impl Prediction {
    /// Paper-Figure-6 style alignment detail for this example.
    pub fn alignment(&self, tolerance: u32) -> Alignment {
        align(&self.truth_calls, &self.pred_calls, tolerance)
    }
}

/// Full evaluation result over a dataset split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalReport {
    pub table: TableTwo,
    pub evaluated: usize,
    pub skipped: usize,
    pub tolerance: u32,
}

/// Evaluate the assistant over a dataset with the paper's ±1-line tolerance.
pub fn evaluate_dataset(assistant: &MpiRical, dataset: &Dataset) -> (EvalReport, Vec<Prediction>) {
    evaluate_dataset_with_tolerance(assistant, dataset, 1)
}

/// Evaluate with an explicit tolerance (the tolerance-sweep ablation).
/// Every record decodes through one batched
/// [`predict_records_ids`](MpiRical::predict_records_ids) call.
pub fn evaluate_dataset_with_tolerance(
    assistant: &MpiRical,
    dataset: &Dataset,
    tolerance: u32,
) -> (EvalReport, Vec<Prediction>) {
    let pred_ids = assistant.predict_records_ids(&dataset.records);
    report_from_predictions(assistant, dataset, tolerance, pred_ids)
}

/// Score one prediction per record (`None`: the record was skipped).
fn report_from_predictions(
    assistant: &MpiRical,
    dataset: &Dataset,
    tolerance: u32,
    pred_ids: Vec<Option<Vec<usize>>>,
) -> (EvalReport, Vec<Prediction>) {
    let mut predictions = Vec::with_capacity(dataset.len());
    let mut skipped = 0usize;
    for (record, pred_ids) in dataset.records.iter().zip(pred_ids) {
        let Some(pred_ids) = pred_ids else {
            skipped += 1;
            continue;
        };
        let pred_calls = calls_from_ids(&pred_ids, &assistant.model.vocab);
        let pred_tokens = assistant.model.vocab.decode(&pred_ids);
        let truth_tokens = tokenize_code(&record.label_code);
        let truth_calls: Vec<CallSite> = record
            .mpi_calls
            .iter()
            .map(|c| CallSite::new(c.name.clone(), c.line))
            .collect();
        predictions.push(Prediction {
            record_id: record.id,
            schema: record.schema.clone(),
            truth_calls,
            pred_calls,
            truth_tokens,
            pred_tokens,
        });
    }
    let examples: Vec<EvalExample> = predictions
        .iter()
        .map(|p| EvalExample {
            truth_calls: p.truth_calls.clone(),
            pred_calls: p.pred_calls.clone(),
            truth_tokens: p.truth_tokens.clone(),
            pred_tokens: p.pred_tokens.clone(),
        })
        .collect();
    let table = table_two(&examples, tolerance, &MPI_COMMON_CORE);
    (
        EvalReport {
            table,
            evaluated: predictions.len(),
            skipped,
            tolerance,
        },
        predictions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assistant::MpiRicalConfig;
    use crate::encode::InputFormat;
    use mpirical_corpus::{generate_dataset, CorpusConfig};
    use mpirical_model::{ModelConfig, Precision};

    /// A tiny trained assistant plus the test split it is evaluated on,
    /// trained once for the whole module.
    fn trained() -> &'static (MpiRical, Dataset) {
        static SHARED: std::sync::OnceLock<(MpiRical, Dataset)> = std::sync::OnceLock::new();
        SHARED.get_or_init(|| {
            let ccfg = CorpusConfig {
                programs: 30,
                seed: 31,
                max_tokens: 320,
                threads: 1,
            };
            let (_, ds, _) = generate_dataset(&ccfg);
            let splits = ds.split(7);
            let mut cfg = MpiRicalConfig {
                model: ModelConfig::tiny(),
                vocab_min_freq: 1,
                input_format: InputFormat::CodeXsbt,
                ..Default::default()
            };
            cfg.model.max_enc_len = 256;
            cfg.model.max_dec_len = 230;
            cfg.train.epochs = 1;
            cfg.train.batch_size = 8;
            cfg.train.threads = 1;
            cfg.train.validate = false;
            let (assistant, _) = MpiRical::train(&splits.train, &splits.val, &cfg, |_| {});
            (assistant, splits.test)
        })
    }

    #[test]
    fn evaluation_pipeline_shapes() {
        let (assistant, test) = trained();
        let (report, preds) = evaluate_dataset(assistant, test);
        assert_eq!(report.tolerance, 1);
        assert_eq!(report.evaluated + report.skipped, test.len());
        assert_eq!(preds.len(), report.evaluated);
        // All metrics in range.
        let t = &report.table;
        for v in [
            t.m_f1,
            t.m_precision,
            t.m_recall,
            t.mcc_f1,
            t.mcc_precision,
            t.mcc_recall,
            t.bleu,
            t.meteor,
            t.rouge_l,
            t.acc,
        ] {
            assert!((0.0..=1.0).contains(&v), "metric {v}");
        }
        // Truth side is never empty (records always contain MPI calls).
        for p in &preds {
            assert!(!p.truth_calls.is_empty());
            assert!(!p.truth_tokens.is_empty());
        }
    }

    /// One batched decode over every record scores exactly like the
    /// one-engine-per-record loop it replaced: same `EvalReport`, same
    /// `Prediction` for every record, at f32 and int8.
    #[test]
    fn batched_evaluation_matches_the_per_record_loop() {
        let (assistant, _) = trained();
        let ccfg = CorpusConfig {
            programs: 40,
            seed: 43,
            max_tokens: 300,
            threads: 1,
        };
        let (_, corpus, _) = generate_dataset(&ccfg);
        let test = &corpus;
        for precision in [Precision::F32, Precision::Int8] {
            let mut assistant = assistant.clone();
            assistant.decode.precision = precision;
            let per_record = test
                .records
                .iter()
                .map(|r| assistant.predict_record_ids(r))
                .collect();
            let want = report_from_predictions(&assistant, test, 1, per_record);
            let got = evaluate_dataset(&assistant, test);
            let (report, _) = &got;
            assert!(
                report.evaluated > 4 && report.skipped > 0,
                "{precision:?}: the corpus exercises both paths: {report:?}"
            );
            assert_eq!(
                serde_json::to_string(&got).expect("serializes"),
                serde_json::to_string(&want).expect("serializes"),
                "{precision:?}: batched evaluation diverged from the per-record loop"
            );
        }
    }

    #[test]
    fn perfect_oracle_scores_one() {
        // Feed the ground truth back as the "prediction" to validate the
        // metric plumbing end-to-end.
        let ccfg = CorpusConfig {
            programs: 12,
            seed: 41,
            max_tokens: 200,
            threads: 1,
        };
        let (_, ds, _) = generate_dataset(&ccfg);
        let examples: Vec<mpirical_metrics::EvalExample> = ds
            .records
            .iter()
            .map(|r| {
                let toks = tokenize_code(&r.label_code);
                let calls: Vec<CallSite> = r
                    .mpi_calls
                    .iter()
                    .map(|c| CallSite::new(c.name.clone(), c.line))
                    .collect();
                mpirical_metrics::EvalExample {
                    truth_calls: calls.clone(),
                    pred_calls: calls,
                    truth_tokens: toks.clone(),
                    pred_tokens: toks,
                }
            })
            .collect();
        let t = mpirical_metrics::table_two(&examples, 1, &MPI_COMMON_CORE);
        assert_eq!(t.m_f1, 1.0);
        assert_eq!(t.mcc_f1, 1.0);
        assert!(t.bleu > 0.99);
        assert_eq!(t.acc, 1.0);
    }
}
