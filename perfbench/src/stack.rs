//! Set-up shared by the workloads: data → pipeline → pretrained LM →
//! teacher → fitted DELRec, each stage timed (and, in a traced run, wrapped
//! in a span) at the call into the layer that does it.
//!
//! Training data and served catalog are two things here. The model is
//! trained on the [`TRAIN_CATALOG`]-item catalog whose head carries all the
//! interactions; the catalog it *serves* can be far larger. `DelRec::fit`
//! takes the dataset and the token pipeline separately, so the pipeline is
//! built over the served catalog and the long tail costs set-up nothing but
//! tokenisation and the index build — which is what lets `topk_scan` put
//! 262 144 items behind a server in about a second.

use crate::datagen::{build_dataset, catalog_dataset, DataSpec};
use crate::report::Values;
use crate::trace::{SpanId, Tracer};
use delrec_core::{
    build_teacher, pretrained_lm, DelRec, DelRecConfig, LmPreset, Pipeline, TeacherKind,
};
use delrec_data::{Dataset, Split};
use delrec_lm::{MiniLm, PretrainConfig};
use delrec_seqrec::SequentialRecommender;

/// Catalog the model is trained on (and the whole catalog of every workload
/// but `topk_scan`).
pub const TRAIN_CATALOG: usize = 4096;
/// Items that appear in histories.
pub const HEAD: usize = 2048;

/// Times a full-scale run sets its stack up; `setup_s` (and the serving
/// workloads' `fit_s`) is the median. A quick run sets up once.
pub const SETUP_REPEATS: usize = 3;

/// How much work a run does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Tiny catalogs and budgets: exercises every code path in seconds. Its
    /// numbers mean nothing and are labelled so.
    Quick,
}

impl Scale {
    /// Times a run sets its stack up.
    pub fn setup_repeats(self) -> usize {
        match self {
            Scale::Full => SETUP_REPEATS,
            Scale::Quick => 1,
        }
    }

    /// Label printed with every result.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }
}

/// What one workload builds before it measures.
#[derive(Clone, Debug)]
pub struct StackSpec {
    /// LM backbone.
    pub preset: LmPreset,
    /// Served catalog size (`≥` the training catalog).
    pub n_items: usize,
    /// Training catalog size.
    pub train_items: usize,
    /// Simulated users in the training data.
    pub n_users: usize,
    /// MLM pretraining budget.
    pub pretrain: PretrainConfig,
    /// Teacher training examples (one epoch).
    pub teacher_examples: usize,
    /// DELRec configuration for the fit.
    pub fit: DelRecConfig,
}

impl StackSpec {
    /// The spec for a backbone and served catalog at `scale`, with the
    /// smallest fit that still runs both stages.
    pub fn new(preset: LmPreset, n_items: usize, scale: Scale) -> Self {
        let (train_items, n_users, n_items) = match scale {
            Scale::Full => (TRAIN_CATALOG, 1200, n_items),
            // A catalog above the training catalog stays above it, so the
            // long-tail path is still exercised.
            Scale::Quick => (512, 160, if n_items > TRAIN_CATALOG { 2048 } else { 512 }),
        };
        let mut fit = DelRecConfig::smoke(TeacherKind::SASRec);
        fit.lm = preset;
        // A few times the smoke budget, more on the cheaper backbone: long
        // enough (about half a second) that the set-up fit's time is not
        // dominated by timer and allocator noise.
        if scale == Scale::Full {
            let examples = match preset {
                LmPreset::Xl => 48,
                LmPreset::Large => 160,
            };
            fit.stage1.max_examples = Some(examples);
            fit.stage2.max_examples = Some(examples);
        }
        StackSpec {
            preset,
            n_items,
            train_items,
            n_users,
            pretrain: PretrainConfig {
                epochs: 3,
                lr: 5e-3,
                max_sentences: Some(if scale == Scale::Full { 80 } else { 16 }),
                ..Default::default()
            },
            teacher_examples: if scale == Scale::Full { 150 } else { 48 },
            fit,
        }
    }

    fn data_spec(&self) -> DataSpec {
        DataSpec {
            n_items: self.train_items,
            head: HEAD.min(self.train_items / 2),
            n_users: self.n_users,
            min_len: 10,
            max_len: 20,
        }
    }
}

/// Seconds each set-up stage took.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// `datagen::build_dataset` (+ the served catalog, when larger).
    pub dataset_s: f64,
    /// `Pipeline::build`: vocabulary and title tokenisation.
    pub pipeline_s: f64,
    /// `pretrained_lm`.
    pub pretrain_s: f64,
    /// `build_teacher`.
    pub teacher_s: f64,
    /// `DelRec::fit`.
    pub fit_s: f64,
}

impl StageTimes {
    /// Record the stages as per-layer metrics; `cfg` is the fit's
    /// configuration, for its throughput in example passes.
    pub fn record(&self, cfg: &DelRecConfig, backbone: &Backbone, values: &mut Values) {
        values.set("data.dataset_build_s", self.dataset_s);
        values.set("core.pipeline_build_s", self.pipeline_s);
        values.set("lm.pretrain_s", self.pretrain_s);
        values.set("seqrec.teacher_train_s", self.teacher_s);
        values.set("core.fit_s", self.fit_s);
        let passes = fit_example_passes(cfg, backbone.train.examples(Split::Train).len());
        values.set("core.fit_examples_per_s", passes / self.fit_s);
    }
}

/// Data, pipeline, pretrained LM and trained teacher: what a fit starts from.
pub struct Backbone {
    /// Training data (its test split also feeds the request streams).
    pub train: Dataset,
    /// Vocabulary and tokenised titles of the *served* catalog.
    pub pipeline: Pipeline,
    /// The pretrained, not yet fine-tuned LM.
    pub lm: MiniLm,
    /// The conventional model whose pattern is distilled.
    pub teacher: Box<dyn SequentialRecommender>,
    /// Served catalog size.
    pub n_items: usize,
}

/// Build the backbone for `spec` from `seed`, timing each stage.
pub fn build_backbone(
    spec: &StackSpec,
    seed: u64,
    tracer: &Tracer,
    parent: SpanId,
) -> (Backbone, StageTimes) {
    let mut times = StageTimes::default();
    let ((train, served), dataset_s) = tracer.time("data.dataset_build", parent, || {
        let train = build_dataset(&spec.data_spec(), seed);
        let served = (spec.n_items > spec.train_items).then(|| catalog_dataset(spec.n_items, seed));
        (train, served)
    });
    times.dataset_s = dataset_s;
    let (pipeline, pipeline_s) = tracer.time("core.pipeline_build", parent, || {
        Pipeline::build(served.as_ref().unwrap_or(&train))
    });
    times.pipeline_s = pipeline_s;
    let (lm, pretrain_s) = tracer.time("lm.pretrain", parent, || {
        pretrained_lm(&train, &pipeline, spec.preset, &spec.pretrain, seed)
    });
    times.pretrain_s = pretrain_s;
    let (teacher, teacher_s) = tracer.time("seqrec.teacher_train", parent, || {
        build_teacher(
            &train,
            TeacherKind::SASRec,
            1,
            Some(spec.teacher_examples),
            seed,
        )
    });
    times.teacher_s = teacher_s;
    let backbone = Backbone {
        train,
        pipeline,
        lm,
        teacher,
        n_items: spec.n_items,
    };
    (backbone, times)
}

/// Fit DELRec on a backbone with `cfg`, consuming a clone of its LM so the
/// backbone can be fitted again.
pub fn fit(
    backbone: &Backbone,
    cfg: &DelRecConfig,
    seed: u64,
    tracer: &Tracer,
    parent: SpanId,
) -> (DelRec, f64) {
    let mut cfg = cfg.clone();
    cfg.seed = seed;
    tracer.time("core.fit", parent, || {
        DelRec::fit(
            &backbone.train,
            &backbone.pipeline,
            backbone.teacher.as_ref(),
            backbone.lm.clone(),
            &cfg,
        )
    })
}

/// Example passes one fit makes: what `core.fit_examples_per_s` divides by
/// the fit time. Stage 1 runs two tasks over its examples.
fn fit_example_passes(cfg: &DelRecConfig, train_examples: usize) -> f64 {
    let cap = |m: Option<usize>| m.unwrap_or(train_examples).min(train_examples) as f64;
    2.0 * cfg.stage1.epochs as f64 * cap(cfg.stage1.max_examples)
        + cfg.stage2.epochs as f64 * cap(cfg.stage2.max_examples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_backbone_trains_on_the_head_and_serves_the_long_tail() {
        let spec = StackSpec::new(LmPreset::Large, 262_144, Scale::Quick);
        assert!(spec.n_items > spec.train_items);
        let tracer = Tracer::new(true);
        let (bb, times) = build_backbone(&spec, 5, &tracer, Tracer::ROOT);
        assert_eq!(bb.train.num_items(), spec.train_items);
        assert_eq!(bb.pipeline.items.len(), spec.n_items);
        assert!(times.pretrain_s > 0.0 && times.teacher_s > 0.0);
        let (model, fit_s) = fit(&bb, &spec.fit, 5, &tracer, Tracer::ROOT);
        assert!(fit_s > 0.0);
        assert_eq!(model.items().len(), spec.n_items);
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "data.dataset_build",
                "core.pipeline_build",
                "lm.pretrain",
                "seqrec.teacher_train",
                "core.fit"
            ]
        );
    }
}
