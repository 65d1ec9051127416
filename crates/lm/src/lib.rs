//! MiniLM — the language-model substrate standing in for Flan-T5.
//!
//! DELRec needs three things from its LLM backbone:
//!
//! 1. **mask filling over a token vocabulary** (the paper frames every task
//!    as masked-language modelling and picks Flan-T5 for exactly that);
//! 2. **prompts as embedding sequences**, so trainable *soft prompts* can be
//!    spliced between hard tokens (Eq. 1–2 of the paper);
//! 3. **pretrained semantic knowledge of item titles** — the "world
//!    knowledge" a real LLM brings.
//!
//! MiniLM provides all three from scratch: a bidirectional transformer
//! encoder with a tied-embedding MLM head ([`transformer`]), token streams
//! that mix vocabulary ids with soft-prompt slots ([`LmToken`]), MLM
//! pretraining over the synthetic world-knowledge corpus ([`pretrain`]), a
//! candidate [`verbalizer`] converting token scores into item ranking
//! scores, and [`adalora`] adapters for parameter-efficient fine-tuning.
//!
//! Two presets mirror the paper's backbones: [`MiniLmConfig::xl`]
//! (Flan-T5-XL stand-in) and [`MiniLmConfig::large`] (Flan-T5-Large
//! stand-in, used by the "w Flan-T5-Large" ablation).

#![warn(missing_docs)]

pub mod adalora;
pub mod config;
pub mod infer;
pub mod pca;
pub mod pretrain;
pub mod soft_prompt;
pub mod transformer;
pub mod verbalizer;

pub use adalora::{AdaLora, AdaLoraConfig};
pub use config::MiniLmConfig;
pub use infer::PrefixCache;
pub use pretrain::{pretrain_mlm, PretrainConfig};
pub use soft_prompt::SoftPrompt;
pub use transformer::{LmToken, MiniLm};
