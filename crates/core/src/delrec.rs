//! The end-to-end DELRec model: fit both stages, then rank candidates.

use crate::ablation::Variant;
use crate::config::DelRecConfig;
use crate::pipeline::Pipeline;
use crate::prompt::{ItemTokens, Prompt, PromptBuilder, SoftMode};
use crate::stage1::{build_rps_items, build_ta_items, distill, Stage1Options, Stage1Stats};
use crate::stage2::{build_lsr_items, finetune, Stage2Options};
use delrec_data::{Dataset, ItemId, Vocab};
use delrec_eval::Ranker;
use delrec_lm::{verbalizer, LmToken, MiniLm, PrefixCache, SoftPrompt};
use delrec_seqrec::SequentialRecommender;
use delrec_tensor::{Ctx, InferCtx, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One scoring request of [`DelRec::score_items_batch`]: `(history, shown,
/// scored)`. The Stage-2 prompt shows the `shown` items as its candidate
/// list; the verbalizer scores every `scored` item from that prompt's one
/// `[mask]` row.
pub type ItemScoreRequest<'a> = (&'a [ItemId], &'a [ItemId], &'a [ItemId]);

/// Lazily-maintained state of the grad-free scoring engine: the tape-free
/// forward context (a buffer pool) and the current prefix K/V cache, rebuilt
/// whenever the parameter-store version or prompt prefix changes.
#[derive(Default)]
struct EngineState {
    ctx: InferCtx,
    cache: Option<PrefixCache>,
}

/// Checkout pool of [`EngineState`]s.
///
/// Scoring checks one state out, runs the whole forward on it unlocked, and
/// returns it — so concurrent scorers (a server and direct callers sharing one
/// model) never contend beyond the pop/push, and each effectively owns its own
/// inference context and prefix cache, while a single-threaded caller reuses
/// one warm state forever. The pool is bounded by the number of concurrent
/// scorers.
#[derive(Default)]
struct EnginePool(Mutex<Vec<EngineState>>);

impl EnginePool {
    /// The pooled states, recovered if a holder panicked: each critical
    /// section is one push or one pop, so the vector is always valid — and a
    /// panic contained by the server must not fail every later request.
    fn states(&self) -> MutexGuard<'_, Vec<EngineState>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn checkout(&self) -> EngineState {
        self.states().pop().unwrap_or_default()
    }

    fn checkin(&self, state: EngineState) {
        self.states().push(state);
    }
}

/// A fitted DELRec recommender.
///
/// Holds the fine-tuned MiniLM and the distilled soft prompts. The teacher
/// model is *not* needed at inference: its pattern lives in the soft prompts
/// — exactly the paper's deployment story.
pub struct DelRec {
    lm: MiniLm,
    sp: Option<SoftPrompt>,
    vocab: Vocab,
    items: ItemTokens,
    cfg: DelRecConfig,
    /// Stage 1 training diagnostics (empty if distillation was skipped).
    pub stage1_stats: Stage1Stats,
    /// Stage 2 loss curve (empty if fine-tuning was skipped).
    pub stage2_losses: Vec<f32>,
    /// Whether scoring routes through the grad-free inference engine
    /// (default) or the reference autograd tape.
    infer_enabled: bool,
    engine: EnginePool,
}

/// Compile-time guarantee that a fitted model can be shared across serving
/// threads without `unsafe`: every interior-mutable piece on the scoring path
/// (engine pool, buffer pools inside [`InferCtx`]) synchronizes
/// properly. The autograd [`Tape`] is deliberately *not* `Sync` — scoring
/// builds it per call on the stack, so it never crosses threads.
#[allow(dead_code)]
fn _assert_delrec_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DelRec>();
    assert_send_sync::<MiniLm>();
    assert_send_sync::<PrefixCache>();
    assert_send_sync::<InferCtx>();
    assert_send_sync::<delrec_tensor::BufferPool>();
}

impl DelRec {
    /// Fit DELRec (or an ablation variant) given a dataset, a trained
    /// teacher, and a *pretrained* MiniLM backbone.
    pub fn fit(
        dataset: &Dataset,
        pipeline: &Pipeline,
        teacher: &dyn SequentialRecommender,
        mut lm: MiniLm,
        cfg: &DelRecConfig,
    ) -> DelRec {
        let variant = cfg.variant;
        let pb = PromptBuilder::new(&pipeline.vocab, &pipeline.items, teacher.name());

        // --- Soft prompts & Stage 1 ---
        let (sp, stage1_stats) = if variant.uses_soft_prompts() {
            let d_model = lm.cfg.d_model;
            let sp = SoftPrompt::init(
                lm.store_mut(),
                "delrec",
                cfg.k_soft,
                d_model,
                cfg.seed ^ 0x50F7,
            );
            let stats = if variant.runs_distillation() {
                let soft = SoftMode::Slots(cfg.k_soft);
                let cap = cfg.stage1.max_examples.unwrap_or(usize::MAX);
                let ta = build_ta_items(
                    dataset,
                    &pb,
                    &pipeline.items,
                    cfg.alpha_icl,
                    cfg.m_candidates,
                    soft,
                    cap,
                    cfg.seed ^ 0x7A,
                );
                let rps = build_rps_items(
                    dataset,
                    teacher,
                    &pb,
                    &pipeline.items,
                    cfg.h_top,
                    cfg.m_candidates,
                    soft,
                    cap,
                    cfg.seed ^ 0x395,
                );
                distill(
                    &mut lm,
                    &sp,
                    &ta,
                    &rps,
                    &cfg.stage1,
                    Stage1Options {
                        use_ta: variant.uses_ta(),
                        use_rps: variant.uses_rps(),
                        freeze_backbone: variant.freezes_backbone_in_stage1(),
                        fixed_lambda: cfg.fixed_lambda,
                    },
                    cfg.seed ^ 0x51,
                )
            } else {
                // `w USP`: keep the random initialization.
                Stage1Stats::default()
            };
            (Some(sp), stats)
        } else {
            (None, Stage1Stats::default())
        };

        // --- Stage 2 ---
        let stage2_losses = if variant.runs_finetuning() {
            lm.attach_adalora(cfg.adalora.clone(), cfg.seed ^ 0xADA);
            let soft = DelRec::soft_mode_static(&sp, variant, cfg);
            let items = build_lsr_items(
                dataset,
                &pb,
                &pipeline.items,
                cfg.m_candidates,
                soft,
                cfg.stage2.max_examples.unwrap_or(usize::MAX),
                cfg.seed ^ 0x152,
            );
            finetune(
                &mut lm,
                sp.as_ref(),
                &items,
                &cfg.stage2,
                cfg.adalora_prune_every,
                Stage2Options {
                    freeze_soft: variant.freezes_soft_in_stage2(),
                    ..Default::default()
                },
                cfg.seed ^ 0x52,
            )
        } else {
            Vec::new()
        };

        DelRec {
            lm,
            sp,
            vocab: pipeline.vocab.clone(),
            items: pipeline.items.clone(),
            cfg: cfg.clone(),
            stage1_stats,
            stage2_losses,
            infer_enabled: true,
            engine: EnginePool::default(),
        }
    }

    fn soft_mode_static(sp: &Option<SoftPrompt>, variant: Variant, cfg: &DelRecConfig) -> SoftMode {
        if variant == Variant::WithMCP {
            SoftMode::Manual
        } else if sp.is_some() {
            SoftMode::Slots(cfg.k_soft)
        } else {
            SoftMode::None
        }
    }

    fn soft_mode(&self) -> SoftMode {
        Self::soft_mode_static(&self.sp, self.cfg.variant, &self.cfg)
    }

    /// Serialize all fitted parameters (LM, soft prompts, adapters).
    pub fn save<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        delrec_tensor::serialize::save_params(self.lm.store(), w)
    }

    /// Restore a fitted model from [`DelRec::save`] output. `cfg` must match
    /// the configuration the model was fitted with (it determines the
    /// parameter layout: backbone size, soft-prompt count, adapters).
    pub fn load<R: std::io::Read>(
        pipeline: &Pipeline,
        cfg: &DelRecConfig,
        r: &mut R,
    ) -> std::io::Result<DelRec> {
        // Reconstruct the parameter layout in the same order as `fit`.
        let mut lm = MiniLm::new(cfg.lm.config(pipeline.vocab.len()), cfg.seed);
        let sp = if cfg.variant.uses_soft_prompts() {
            let d_model = lm.cfg.d_model;
            Some(SoftPrompt::init(
                lm.store_mut(),
                "delrec",
                cfg.k_soft,
                d_model,
                cfg.seed ^ 0x50F7,
            ))
        } else {
            None
        };
        if cfg.variant.runs_finetuning() {
            lm.attach_adalora(cfg.adalora.clone(), cfg.seed ^ 0xADA);
        }
        delrec_tensor::serialize::load_params(lm.store_mut(), r)?;
        Ok(DelRec {
            lm,
            sp,
            vocab: pipeline.vocab.clone(),
            items: pipeline.items.clone(),
            cfg: cfg.clone(),
            stage1_stats: Stage1Stats::default(),
            stage2_losses: Vec::new(),
            infer_enabled: true,
            engine: EnginePool::default(),
        })
    }

    /// Route candidate scoring through the grad-free inference engine
    /// (`true`, the default) or through the reference autograd-tape forward
    /// (`false`). The two produce bitwise-identical scores; the tape path
    /// remains as the always-correct oracle.
    pub fn set_inference_engine(&mut self, enabled: bool) {
        self.infer_enabled = enabled;
    }

    /// Whether scoring currently uses the inference engine.
    pub fn inference_engine_enabled(&self) -> bool {
        self.infer_enabled
    }

    /// The Stage-2 prompt of one request: the paper's `n − 1 = 9` most recent
    /// interactions, the candidate set, and this model's soft mode. Every
    /// scoring path builds its prompts here.
    fn stage2_prompt(
        &self,
        pb: &PromptBuilder<'_>,
        prefix: &[ItemId],
        candidates: &[ItemId],
    ) -> Prompt {
        let take = prefix.len().min(9);
        pb.recommendation(&prefix[prefix.len() - take..], candidates, self.soft_mode())
    }

    /// Mask logits `[B, vocab]` from the grad-free engine: refresh the
    /// shared-prefix K/V cache if stale, then one tape-free batched forward.
    fn logits_engine(
        &self,
        seqs: &[Vec<LmToken>],
        mask_pos: &[usize],
        prefix_len: usize,
    ) -> Tensor {
        let soft_values = self.sp.as_ref().map(|s| s.values(self.lm.store()));
        // Check an engine state out of the pool and run the whole forward on
        // it without holding any lock — concurrent scorers each get their own
        // context and prefix cache.
        let mut eng = self.engine.checkout();
        let shared_prefix = &seqs[0][..prefix_len];
        let version = self.lm.store().version();
        let fresh = eng
            .cache
            .as_ref()
            .is_some_and(|c| c.is_valid_for(version, shared_prefix));
        if !fresh {
            delrec_obs::counter!("core.prefix_cache.rebuild").incr();
            let _build = delrec_obs::span!("core.prefix_cache.build");
            // `None` here (unsupported config) simply disables prefix reuse;
            // the tape-free forward still runs.
            eng.cache = self
                .lm
                .build_prefix_cache(&eng.ctx, shared_prefix, soft_values);
        } else {
            delrec_obs::counter!("core.prefix_cache.hit").incr();
        }
        let logits = self.lm.mask_logits_infer_batch(
            &eng.ctx,
            seqs,
            soft_values,
            mask_pos,
            eng.cache.as_ref(),
        );
        self.engine.checkin(eng);
        logits
    }

    /// The same logits from one padded autograd-tape forward — the reference
    /// the engine is pinned to bitwise.
    fn logits_tape(&self, seqs: &[Vec<LmToken>], mask_pos: &[usize]) -> Tensor {
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, self.lm.store(), false);
        let soft_table = self.sp.as_ref().map(|s| s.var(&ctx));
        let mut rng = StdRng::seed_from_u64(0);
        let logits = self
            .lm
            .mask_logits_batch(&ctx, seqs, soft_table, mask_pos, &mut rng);
        tape.get(logits)
    }

    /// Score items against Stage-2 prompts: for each `(history, shown,
    /// scored)` request, build the prompt that shows `shown` as its
    /// candidates, run one batched forward over all prompts — the engine's,
    /// or the tape's with the engine off — and verbalize every `scored` title
    /// from the request's one `[mask]` row. Row `i` holds the scores of
    /// `requests[i].2` in order, and never depends on which other requests
    /// share the batch. [`Ranker::score_candidates_batch`] is the
    /// `shown == scored` case.
    pub fn score_items_batch(&self, requests: &[ItemScoreRequest<'_>]) -> Vec<Vec<f32>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let _span = delrec_obs::span!("core.score");
        let pb = PromptBuilder::new(&self.vocab, &self.items, self.cfg.teacher.name());
        let mut seqs = Vec::with_capacity(requests.len());
        let mut mask_pos = Vec::with_capacity(requests.len());
        let mut prefix_len = 0;
        let prompts_span = delrec_obs::span!("core.prompts");
        for &(prefix, shown, _) in requests {
            let prompt = self.stage2_prompt(&pb, prefix, shown);
            debug_assert!(seqs.is_empty() || prompt.prefix_len == prefix_len);
            prefix_len = prompt.prefix_len;
            seqs.push(prompt.tokens);
            mask_pos.push(prompt.mask_pos);
        }
        drop(prompts_span);
        let logits = if self.infer_enabled {
            self.logits_engine(&seqs, &mask_pos, prefix_len)
        } else {
            self.logits_tape(&seqs, &mask_pos)
        };
        let title_sets: Vec<Vec<&[u32]>> = requests
            .iter()
            .map(|&(_, _, scored)| scored.iter().map(|&id| self.items.title(id)).collect())
            .collect();
        let set_refs: Vec<&[&[u32]]> = title_sets.iter().map(Vec::as_slice).collect();
        verbalizer::rank_candidates_batch(&logits, &set_refs)
    }

    /// The configuration this model was fitted with.
    pub fn config(&self) -> &DelRecConfig {
        &self.cfg
    }

    /// The underlying language model (for diagnostics: parameter counts,
    /// adapter state).
    pub fn lm(&self) -> &MiniLm {
        &self.lm
    }

    /// The tokenized item catalog this model was fitted on — the
    /// [`Recommender`](crate::Recommender) exports its item embeddings from
    /// these titles.
    pub fn items(&self) -> &ItemTokens {
        &self.items
    }

    /// Mutable access to the underlying LM, for parameter surgery in tests
    /// and continued training. Any parameter write bumps the store version,
    /// which invalidates every version-keyed cache downstream: weight packs,
    /// prefix caches, and the retrieval item index.
    pub fn lm_mut(&mut self) -> &mut MiniLm {
        &mut self.lm
    }

    /// The distilled soft prompts, if this variant has them.
    pub fn soft_prompt(&self) -> Option<&SoftPrompt> {
        self.sp.as_ref()
    }

    /// Explain a candidate's score: `(title word, log-probability)` pairs
    /// whose mean is exactly the score [`Ranker::score_candidates`] assigns.
    /// Exposes which words of the candidate's title the model believed in,
    /// given this history — the interpretability advantage the paper claims
    /// for prompt-based recommendation.
    pub fn explain(
        &self,
        prefix: &[ItemId],
        candidates: &[ItemId],
        which: usize,
    ) -> Vec<(String, f32)> {
        assert!(which < candidates.len(), "candidate index out of range");
        let pb = PromptBuilder::new(&self.vocab, &self.items, self.cfg.teacher.name());
        let prompt = self.stage2_prompt(&pb, prefix, candidates);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, self.lm.store(), false);
        let soft_table = self.sp.as_ref().map(|s| s.var(&ctx));
        let mut rng = StdRng::seed_from_u64(0);
        let logits =
            self.lm
                .mask_logits(&ctx, &prompt.tokens, soft_table, prompt.mask_pos, &mut rng);
        let logits = tape.get(logits);
        verbalizer::explain_candidate(&logits, self.items.title(candidates[which]))
            .into_iter()
            .map(|(tok, s)| (self.vocab.word(tok).to_string(), s))
            .collect()
    }
}

impl Ranker for DelRec {
    fn name(&self) -> &str {
        "delrec"
    }

    /// The `ParamStore` version — bumped by any parameter write, and the
    /// exact key this model's weight packs, prefix caches, and retrieval
    /// index invalidate on. Two `DelRec`s carrying the same parameter bits
    /// may still differ here (e.g. a save→load round-trip replays the same
    /// writes, a refit makes more); equal versions on one store lineage mean
    /// bitwise-equal scores.
    fn model_version(&self) -> u64 {
        self.lm.store().version()
    }

    /// The catalog the title table was tokenized from.
    fn num_items(&self) -> Option<usize> {
        Some(self.items.len())
    }

    fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        self.score_candidates_batch(&[(prefix, candidates)])
            .pop()
            .expect("one score row per request")
    }

    /// [`DelRec::score_items_batch`] with every request scoring exactly the
    /// candidates its prompt shows.
    fn score_candidates_batch(&self, requests: &[delrec_eval::ScoreRequest<'_>]) -> Vec<Vec<f32>> {
        let items: Vec<ItemScoreRequest<'_>> = requests.iter().map(|&(h, c)| (h, c, c)).collect();
        self.score_items_batch(&items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TeacherKind;
    use crate::pipeline::{build_teacher, pretrained_lm, LmPreset};
    use delrec_data::synthetic::{DatasetProfile, SyntheticConfig};
    use delrec_data::Split;
    use delrec_eval::{evaluate, EvalConfig};

    #[test]
    fn end_to_end_smoke_fit_and_rank() {
        let ds = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
            .scaled(0.08)
            .generate(9);
        let pipeline = Pipeline::build(&ds);
        let lm = pretrained_lm(
            &ds,
            &pipeline,
            LmPreset::Large,
            &delrec_lm::PretrainConfig {
                epochs: 1,
                max_sentences: Some(120),
                ..Default::default()
            },
            2,
        );
        let teacher = build_teacher(&ds, TeacherKind::SASRec, 1, Some(60), 5);
        let mut cfg = DelRecConfig::smoke(TeacherKind::SASRec);
        cfg.lm = LmPreset::Large;
        let mut model = DelRec::fit(&ds, &pipeline, teacher.as_ref(), lm, &cfg);
        assert!(!model.stage1_stats.lambdas.is_empty());
        assert!(!model.stage2_losses.is_empty());

        let report = evaluate(
            &model,
            &ds,
            Split::Test,
            &EvalConfig {
                max_examples: Some(20),
                ..Default::default()
            },
        );
        assert_eq!(report.len(), 20);
        assert_eq!(report.hr(15), 1.0);

        // The chunked (batched-forward) eval path must reproduce the
        // per-example path's metrics exactly.
        let per_example = evaluate(
            &model,
            &ds,
            Split::Test,
            &EvalConfig {
                max_examples: Some(20),
                batch_size: 1,
                ..Default::default()
            },
        );
        for k in [1, 5, 10, 15] {
            assert_eq!(report.hr(k), per_example.hr(k), "HR@{k} differs");
            assert_eq!(report.ndcg(k), per_example.ndcg(k), "NDCG@{k} differs");
        }

        // And each batched row is exactly the one-row call, whichever forward
        // scores it: the engine, or the tape with the engine off.
        let cands: Vec<Vec<ItemId>> = ds
            .examples(Split::Test)
            .iter()
            .take(3)
            .map(|_ex| ds.catalog.ids().take(6).collect())
            .collect();
        let requests: Vec<delrec_eval::ScoreRequest<'_>> = ds
            .examples(Split::Test)
            .iter()
            .take(3)
            .zip(&cands)
            .map(|(ex, c)| (ex.prefix.as_slice(), c.as_slice()))
            .collect();
        for engine in [true, false] {
            model.set_inference_engine(engine);
            let batched = model.score_candidates_batch(&requests);
            for (&(prefix, c), row) in requests.iter().zip(&batched) {
                let single = model.score_candidates(prefix, c);
                assert_eq!(row, &single, "engine {engine}: batch row vs one-row call");
            }
        }
    }

    #[test]
    fn save_load_roundtrip_reproduces_predictions() {
        let ds = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
            .scaled(0.08)
            .generate(19);
        let pipeline = Pipeline::build(&ds);
        let lm = pretrained_lm(
            &ds,
            &pipeline,
            LmPreset::Large,
            &delrec_lm::PretrainConfig {
                epochs: 1,
                max_sentences: Some(20),
                ..Default::default()
            },
            2,
        );
        let teacher = build_teacher(&ds, TeacherKind::SASRec, 1, Some(30), 5);
        let mut cfg = DelRecConfig::smoke(TeacherKind::SASRec);
        cfg.lm = LmPreset::Large;
        let model = DelRec::fit(&ds, &pipeline, teacher.as_ref(), lm, &cfg);

        let mut blob = Vec::new();
        model.save(&mut blob).expect("serialize");
        let restored = DelRec::load(&pipeline, &cfg, &mut blob.as_slice()).expect("restore");

        let ex = &ds.examples(Split::Test)[0];
        let cands: Vec<_> = ds.catalog.ids().take(6).collect();
        assert_eq!(
            model.score_candidates(&ex.prefix, &cands),
            restored.score_candidates(&ex.prefix, &cands),
            "restored model must predict identically"
        );
    }
}
