//! The tape's encoder computes only the rows a loss reads — its last block
//! runs Q, attention, the output projection, the FFN and the final layer norm
//! over the k-groups holding those rows — and that must change no bit.
//!
//! Each case runs one loss two ways on one tape each: through the product
//! path (`mask_logits_batch` / `mask_logits_multi`, pruned), and through the
//! full-row encoder (`encode_rows` over every row) with the loss rows gathered
//! afterwards, then the same MLM head. It compares the logits, the gradient
//! of every trainable parameter — backbone, soft-prompt table and AdaLoRA
//! factors — and the RNG's next draw, bit for bit, over ragged batches whose
//! mask positions sit at 0–3 and near `t_max`, several masks inside one
//! 4-row group (the pretraining case), dropout on and off, one and two
//! layers, a frozen backbone (Stage 1) and a trained one
//! (Stage 2), at pool lanes {1, 4}. `lm.encode_tape.last_block_rows` proves
//! the product path really pruned.

use delrec_lm::{AdaLoraConfig, LmToken, MiniLm, MiniLmConfig, SoftPrompt};
use delrec_par::{with_pool, ThreadPool};
use delrec_tensor::{k_group_rows, Ctx, ParamId, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::{Mutex, MutexGuard};

const VOCAB: usize = 40;
const K_SOFT: usize = 3;

/// `lm.encode_tape.last_block_rows` is process-wide: tests of this binary
/// take turns.
fn serialised() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn last_block_rows() -> u64 {
    delrec_obs::global()
        .counter("lm.encode_tape.last_block_rows")
        .get()
}

/// A model with a soft-prompt table and AdaLoRA adapters whose singular
/// values are off zero (so the deltas are live), backbone frozen or not.
fn model(mut cfg: MiniLmConfig, dropout: f32, frozen: bool) -> (MiniLm, SoftPrompt) {
    cfg.dropout = dropout;
    let mut lm = MiniLm::new(cfg, 5);
    let d = lm.cfg.d_model;
    let sp = SoftPrompt::init(lm.store_mut(), "s", K_SOFT, d, 6);
    lm.attach_adalora(AdaLoraConfig::default(), 7);
    let mut rng = StdRng::seed_from_u64(8);
    let singular: Vec<ParamId> = lm
        .store()
        .iter()
        .filter(|(_, name, _)| name.ends_with(".e"))
        .map(|(id, _, _)| id)
        .collect();
    for id in singular {
        for e in lm.store_mut().get_mut(id).data_mut() {
            *e = rng.random::<f32>() - 0.5;
        }
    }
    lm.set_backbone_trainable(!frozen);
    (lm, sp)
}

/// Ragged sequences of the given lengths, soft tokens at the front.
fn batch(lens: &[usize]) -> Vec<Vec<LmToken>> {
    lens.iter()
        .enumerate()
        .map(|(b, &len)| {
            (0..len)
                .map(|t| {
                    if t < K_SOFT.min(len - 1) {
                        LmToken::Soft(t)
                    } else {
                        LmToken::Vocab(((b * 7 + t * 3) % (VOCAB - 2) + 2) as u32)
                    }
                })
                .collect()
        })
        .collect()
}

/// What one case observes: logits bits, every trainable parameter's gradient
/// bits (by id), the RNG's next draw, the rows the last block computed.
type Observed = (Vec<u32>, Vec<(ParamId, Vec<u32>)>, u64, u64);

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// The loss both paths share: a fixed weighting of the logits, so every
/// logit gets its own upstream gradient.
fn observe(
    lm: &MiniLm,
    forward: impl FnOnce(&Ctx<'_>, Option<Var>, &mut StdRng) -> Var,
    sp: &SoftPrompt,
) -> Observed {
    let tape = Tape::new();
    let ctx = Ctx::new(&tape, lm.store(), true);
    let mut rng = StdRng::seed_from_u64(11);
    let before = last_block_rows();
    let logits = forward(&ctx, Some(sp.var(&ctx)), &mut rng);
    let computed = last_block_rows() - before;
    let n = tape.value(logits).numel();
    let w: Vec<f32> = (0..n).map(|i| ((i * 37) % 17) as f32 / 8.0 - 1.0).collect();
    let w = tape.constant(Tensor::new(tape.shape_of(logits), w));
    let loss = tape.sum_all(tape.mul(logits, w));
    let mut grads = tape.backward(loss);
    let grads = ctx
        .grads(&mut grads)
        .into_iter()
        .map(|(id, g)| (id, bits(&g)))
        .collect();
    (bits(&tape.get(logits)), grads, rng.next_u64(), computed)
}

/// The full-row reference: every row through every block, the loss rows
/// gathered after the final layer norm, then the tied MLM head.
fn full_rows<S: AsRef<[LmToken]>>(
    lm: &MiniLm,
    ctx: &Ctx<'_>,
    seqs: &[S],
    soft: Option<Var>,
    rows: &[(usize, usize)],
    rng: &mut StdRng,
) -> Var {
    let tape = ctx.tape;
    let t_max = seqs.iter().map(|s| s.as_ref().len()).max().unwrap();
    let all: Vec<(usize, usize)> = (0..seqs.len())
        .flat_map(|b| (0..t_max).map(move |t| (b, t)))
        .collect();
    let h = lm.encode_rows(ctx, seqs, soft, &all, rng);
    let flat: Vec<usize> = rows.iter().map(|&(b, t)| b * t_max + t).collect();
    let h = tape.gather_rows(h, &flat);
    let store = lm.store();
    let emb_t = tape.transpose(ctx.p(store.id_of("lm.tok_emb").unwrap()));
    let logits = tape.matmul(h, emb_t);
    tape.add(logits, ctx.p(store.id_of("lm.head_bias").unwrap()))
}

fn assert_same(want: &Observed, got: &Observed, case: &str) {
    assert_eq!(want.0, got.0, "logits, {case}");
    assert_eq!(want.1.len(), got.1.len(), "trained parameters, {case}");
    for ((id, w), (id2, g)) in want.1.iter().zip(&got.1) {
        assert_eq!(id, id2, "{case}");
        assert!(w == g, "gradient of parameter {id:?}, {case}");
    }
    assert_eq!(want.2, got.2, "RNG stream, {case}");
}

fn configs() -> Vec<(&'static str, MiniLmConfig)> {
    vec![
        ("large", MiniLmConfig::large(VOCAB)),
        ("xl", MiniLmConfig::xl(VOCAB)),
    ]
}

#[test]
fn mask_rows_give_the_full_row_bits() {
    let _turn = serialised();
    // Masks at positions 0–3 and at the end, nine of them (a dense layout of
    // eight or more rows would regroup the sums); t_max = 31 makes
    // B·t_max = 279, whose last 4-row group is the partial one the final
    // mask lies in.
    let lens = [31usize, 9, 17, 4, 12, 31, 20, 25, 31];
    let seqs = batch(&lens);
    let mask_pos = [30usize, 0, 1, 2, 3, 29, 10, 24, 30];
    let rows: Vec<(usize, usize)> = mask_pos.iter().copied().enumerate().collect();
    let t_max = 31;
    let kept = k_group_rows(rows.iter().map(|&(b, t)| b * t_max + t), lens.len() * t_max);
    let mut checked = 0;
    for (name, cfg) in configs() {
        for dropout in [0.0f32, 0.1] {
            for frozen in [false, true] {
                let (lm, sp) = model(cfg.clone(), dropout, frozen);
                for lanes in [1usize, 4] {
                    let case = format!("{name} p={dropout} frozen={frozen} lanes={lanes}");
                    let (want, got) = with_pool(&ThreadPool::new(lanes), || {
                        let want = observe(
                            &lm,
                            |ctx, soft, rng| full_rows(&lm, ctx, &seqs, soft, &rows, rng),
                            &sp,
                        );
                        let got = observe(
                            &lm,
                            |ctx, soft, rng| lm.mask_logits_batch(ctx, &seqs, soft, &mask_pos, rng),
                            &sp,
                        );
                        (want, got)
                    });
                    assert_same(&want, &got, &case);
                    assert_eq!(want.3, (lens.len() * t_max) as u64, "reference, {case}");
                    assert_eq!(got.3, kept.len() as u64, "pruned, {case}");
                    assert!(!got.1.is_empty(), "something trains, {case}");
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 2 * 2 * 2 * 2);
}

#[test]
fn several_masks_in_one_group_give_the_full_row_bits() {
    let _turn = serialised();
    // One packed document, as in MLM pretraining: masks unsorted, three of
    // them inside the 4-row group 4..8, one at 0 and one at the last row.
    let seq = batch(&[26]).remove(0);
    let positions = [5usize, 4, 25, 7, 0, 13];
    let rows: Vec<(usize, usize)> = positions.iter().map(|&p| (0, p)).collect();
    let kept = k_group_rows(positions.iter().copied(), seq.len());
    for (name, cfg) in configs() {
        for dropout in [0.0f32, 0.1] {
            let (lm, sp) = model(cfg.clone(), dropout, false);
            for lanes in [1usize, 4] {
                let case = format!("{name} p={dropout} lanes={lanes}");
                let (want, got) = with_pool(&ThreadPool::new(lanes), || {
                    let want = observe(
                        &lm,
                        |ctx, soft, rng| full_rows(&lm, ctx, &[&seq[..]], soft, &rows, rng),
                        &sp,
                    );
                    let got = observe(
                        &lm,
                        |ctx, soft, rng| lm.mask_logits_multi(ctx, &seq, soft, &positions, rng),
                        &sp,
                    );
                    (want, got)
                });
                assert_same(&want, &got, &case);
                assert_eq!(got.3, kept.len() as u64, "pruned, {case}");
                assert!(kept.len() < seq.len(), "a strict subset, {case}");
            }
        }
    }
}

#[test]
fn forward_batch_runs_every_row() {
    let _turn = serialised();
    let (lm, sp) = model(MiniLmConfig::xl(VOCAB), 0.1, false);
    let seqs = batch(&[5, 3]);
    let (.., computed) = observe(
        &lm,
        |ctx, soft, rng| {
            let logits = lm.forward_batch(ctx, &seqs, soft, rng);
            ctx.tape.reshape(logits, [2 * 5, VOCAB])
        },
        &sp,
    );
    assert_eq!(computed, 10, "the full-row reference prunes nothing");
}
