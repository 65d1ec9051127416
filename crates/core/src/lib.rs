//! DELRec — the paper's primary contribution.
//!
//! *Distilling Sequential Pattern to Enhance LLMs-based Sequential
//! Recommendation* (Zhang et al., ICDE 2025) in two stages:
//!
//! * **Stage 1 — Distill Pattern from Conventional SR Models** ([`stage1`]):
//!   trainable soft prompts are optimized, with the LM frozen, on two
//!   simultaneous tasks — *Temporal Analysis* (predict the most recent item,
//!   with in-context examples) and *Recommendation Pattern Simulating*
//!   (predict the teacher model's top recommendation). Task weights follow a
//!   dynamic λ (Eq. 6).
//! * **Stage 2 — LLMs-based Sequential Recommendation** ([`stage2`]): the
//!   learned soft prompts are frozen and spliced into the recommendation
//!   prompt; the LM is fine-tuned with AdaLoRA + Lion on the ground truth.
//!
//! [`DelRec`] ties the stages together behind one `fit`/rank API. The
//! [`ablation`] module exposes every variant of Tables III and IV, and
//! [`baselines`] reimplements the paper's eleven LLM-based comparison
//! systems at paradigm fidelity.

#![warn(missing_docs)]

pub mod ablation;
pub mod baselines;
pub mod config;
pub mod delrec;
pub mod pipeline;
pub mod prompt;
pub mod recommend;
pub mod stage1;
pub mod stage2;

pub use ablation::Variant;
pub use config::{DelRecConfig, StageConfig, StageOptimizer, TeacherKind};
pub use delrec::{DelRec, ItemScoreRequest};
pub use pipeline::{build_teacher, pretrained_lm, LmPreset, Pipeline};
pub use prompt::{ItemTokens, Prompt, PromptBuilder, SoftMode};
pub use recommend::{RecommendConfig, Recommender};
