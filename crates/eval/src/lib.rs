//! Evaluation: the paper's candidate-set ranking protocol, HR@k / NDCG@k
//! metrics, paired significance tests, and table/JSON reporting.

#![warn(missing_docs)]

pub mod bootstrap;
pub mod json;
pub mod metrics;
pub mod report;
pub mod retrieval;
pub mod runner;
pub mod ttest;

pub use bootstrap::{bootstrap_ci, hr_ci, ndcg_ci, ConfidenceInterval};
pub use metrics::RankingReport;
pub use retrieval::{
    evaluate_retrieval, evaluate_top_k, RetrievalEvalConfig, RetrievalReport, TopKReport,
};
pub use runner::{
    evaluate, evaluate_examples, EvalConfig, FnRanker, Ranker, ScoreRequest, TopKQuery,
    TopKRecommender,
};
pub use ttest::{paired_t_test, TTestResult};
