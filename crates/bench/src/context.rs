//! Per-dataset experiment context with lazily-built shared artifacts.

use crate::scale::Scale;
use delrec_core::{build_teacher, pretrained_lm, DelRecConfig, LmPreset, Pipeline, TeacherKind};
use delrec_data::synthetic::{DatasetProfile, SyntheticConfig};
use delrec_data::Dataset;
use delrec_eval::EvalConfig;
use delrec_lm::MiniLm;
use delrec_seqrec::SequentialRecommender;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Everything one dataset's experiments share: the dataset itself, the
/// vocabulary/token pipeline, one pretrained LM per preset, and one trained
/// teacher per kind. LMs are *cloned* out so each method fine-tunes its own
/// copy of an identical backbone.
pub struct ExperimentContext {
    /// The (synthetic) dataset.
    pub dataset: Dataset,
    /// Vocabulary and tokenized titles.
    pub pipeline: Pipeline,
    /// Budget scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    lm_xl: OnceCell<MiniLm>,
    lm_large: OnceCell<MiniLm>,
    teachers: RefCell<HashMap<TeacherKind, Rc<dyn SequentialRecommender>>>,
}

impl ExperimentContext {
    /// Generate the dataset for a profile at this scale and prepare the
    /// pipeline.
    pub fn new(profile: DatasetProfile, scale: Scale, seed: u64) -> Self {
        Self::with_dataset_factor(profile, scale, seed, scale.dataset_factor())
    }

    /// [`new`](Self::new) with the profile's user/item counts scaled by
    /// `factor` instead of the scale's own dataset factor (training budgets
    /// still follow `scale`).
    pub fn with_dataset_factor(
        profile: DatasetProfile,
        scale: Scale,
        seed: u64,
        factor: f64,
    ) -> Self {
        let dataset = SyntheticConfig::profile(profile)
            .scaled(factor)
            .generate(seed);
        let pipeline = Pipeline::build(&dataset);
        ExperimentContext {
            dataset,
            pipeline,
            scale,
            seed,
            lm_xl: OnceCell::new(),
            lm_large: OnceCell::new(),
            teachers: RefCell::new(HashMap::new()),
        }
    }

    /// A clone of the pretrained LM for `preset` (pretraining happens once).
    pub fn lm(&self, preset: LmPreset) -> MiniLm {
        let cell = match preset {
            LmPreset::Xl => &self.lm_xl,
            LmPreset::Large => &self.lm_large,
        };
        cell.get_or_init(|| {
            eprintln!("[{}] pretraining MiniLM ({preset:?}) …", self.dataset.name);
            pretrained_lm(
                &self.dataset,
                &self.pipeline,
                preset,
                &self.scale.pretrain(),
                self.seed,
            )
        })
        .clone()
    }

    /// A *never pretrained* LM (the "Bert-Large" row).
    pub fn raw_lm(&self, preset: LmPreset) -> MiniLm {
        MiniLm::new(preset.config(self.pipeline.vocab.len()), self.seed)
    }

    /// The trained teacher of `kind` (trained once, shared read-only).
    pub fn teacher(&self, kind: TeacherKind) -> Rc<dyn SequentialRecommender> {
        if let Some(t) = self.teachers.borrow().get(&kind) {
            return t.clone();
        }
        eprintln!("[{}] training teacher {} …", self.dataset.name, kind.name());
        let (epochs, cap) = self.scale.teacher_budget();
        let teacher: Rc<dyn SequentialRecommender> =
            Rc::from(build_teacher(&self.dataset, kind, epochs, cap, self.seed));
        self.teachers.borrow_mut().insert(kind, teacher.clone());
        teacher
    }

    /// DELRec configuration for this dataset/scale (α per §V-A3).
    pub fn delrec_config(&self, teacher: TeacherKind) -> DelRecConfig {
        let mut cfg = self.scale.delrec_config(teacher);
        cfg.seed = self.seed;
        cfg.with_alpha_for(&self.dataset.name)
    }

    /// Evaluation protocol for this scale (candidate seed fixed so every
    /// method ranks identical candidate sets).
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            m: 15,
            candidate_seed: self.seed ^ 0xE7A1,
            max_examples: self.scale.eval_examples(),
            batch_size: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_and_caches() {
        let ctx = ExperimentContext::new(DatasetProfile::MovieLens100K, Scale::Smoke, 3);
        assert!(ctx.dataset.num_items() > 0);
        let t1 = ctx.teacher(TeacherKind::SASRec);
        let t2 = ctx.teacher(TeacherKind::SASRec);
        assert!(Rc::ptr_eq(&t1, &t2), "teachers are cached");
        let cfg = ctx.delrec_config(TeacherKind::SASRec);
        assert_eq!(cfg.alpha_icl, 4);
    }
}
