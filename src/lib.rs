//! # DELRec — Distilling Sequential Pattern to Enhance LLMs-based Sequential Recommendation
//!
//! A from-scratch Rust reproduction of the ICDE 2025 paper *DELRec* (Zhang et
//! al.). This facade crate re-exports the full workspace so that examples,
//! integration tests, and downstream users can depend on a single crate.
//!
//! The workspace contains everything the paper's system needs, built from
//! scratch:
//!
//! * [`tensor`] — dense tensors, reverse-mode autograd, optimizers (Adam,
//!   Adagrad, Lion, SGD).
//! * [`data`] — sequential-recommendation datasets: chronological splits,
//!   candidate sampling, synthetic dataset profiles calibrated to the paper's
//!   benchmarks, and the world-knowledge corpus used to pretrain the language
//!   model substrate.
//! * [`seqrec`] — conventional sequential recommenders: GRU4Rec, Caser,
//!   SASRec, BERT4Rec, and a KDA-style Fourier temporal-relation model.
//! * [`lm`] — "MiniLM", a bidirectional masked-language-model transformer with
//!   soft-prompt splicing, a candidate verbalizer, and LoRA/AdaLoRA adapters.
//! * [`core`] — the DELRec framework itself: prompt construction, Stage 1
//!   pattern distillation (Temporal Analysis + Recommendation Pattern
//!   Simulating), Stage 2 PEFT fine-tuning, ablation variants, and the
//!   LLM-based baselines from the paper's Table II.
//! * [`eval`] — HR@k / NDCG@k metrics, the candidate-set evaluation protocol,
//!   and paired t-tests.
//! * [`obs`] — observability: a hierarchical span profiler (off by default)
//!   and the process-wide metrics registry the other layers report into.
//! * [`par`] — the shared scoped thread pool (sized by `DELREC_THREADS`)
//!   under GEMM, batch scoring, eval, and serving; parallel results are
//!   bitwise identical to serial at every thread count.
//! * [`retrieval`] — the full-catalog candidate generator: a packed-GEMM
//!   item-embedding index (f32 panels), a recency-weighted user
//!   encoder, and a deterministic top-k — the stage under
//!   `core::Recommender`'s `recommend(history) -> top-k` with no candidate
//!   list.
//!
//! ## Quickstart
//!
//! ```no_run
//! use delrec::core::{build_teacher, pretrained_lm, DelRec, DelRecConfig, LmPreset, Pipeline, TeacherKind};
//! use delrec::data::synthetic::{DatasetProfile, SyntheticConfig};
//! use delrec::data::Split;
//! use delrec::eval::{evaluate, EvalConfig};
//!
//! // Generate a small MovieLens-100K-like dataset.
//! let data = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
//!     .scaled(0.2)
//!     .generate(42);
//!
//! // Shared plumbing: vocabulary, item tokens, pretrained LM, teacher.
//! let pipeline = Pipeline::build(&data);
//! let lm = pretrained_lm(&data, &pipeline, LmPreset::Xl, &Default::default(), 42);
//! let teacher = build_teacher(&data, TeacherKind::SASRec, 3, None, 42);
//!
//! // Train DELRec: Stage 1 distillation + Stage 2 fine-tuning.
//! let cfg = DelRecConfig::small(TeacherKind::SASRec);
//! let model = DelRec::fit(&data, &pipeline, teacher.as_ref(), lm, &cfg);
//!
//! // Evaluate with the paper's 15-candidate protocol.
//! let report = evaluate(&model, &data, Split::Test, &EvalConfig::default());
//! println!("HR@1 = {:.4}", report.hr(1));
//! ```
#![warn(missing_docs)]

pub use delrec_core as core;
pub use delrec_data as data;
pub use delrec_eval as eval;
pub use delrec_lm as lm;
pub use delrec_obs as obs;
pub use delrec_par as par;
pub use delrec_retrieval as retrieval;
pub use delrec_seqrec as seqrec;
pub use delrec_serve as serve;
pub use delrec_tensor as tensor;
