//! The verbalizer: converts LM-head token scores at the mask position into
//! ranking scores over candidate items (paper §IV-B: "a simple verbalizer to
//! effectively convert the output of the LLM head … into ranking scores for
//! all items").
//!
//! A candidate item's score is the mean log-probability its title tokens get
//! at the mask. This keeps multi-word titles comparable regardless of length.

use delrec_tensor::vmath::log_sum_exp;
use delrec_tensor::{Tape, Tensor, Var};

/// Differentiable candidate scores `[m]` from mask logits `[vocab]`.
///
/// Used in training: cross-entropy over these scores is the per-example loss
/// of every DELRec stage.
pub fn candidate_scores(tape: &Tape, logits: Var, candidates: &[Vec<u32>]) -> Var {
    assert!(!candidates.is_empty(), "no candidates");
    let v = tape.get(logits).numel();
    let col = tape.reshape(logits, [v, 1]);
    let log_probs = {
        // log-softmax over the vocabulary, shaped [v, 1] for row gathering.
        let row = tape.reshape(col, [1, v]);
        let ls = tape.log_softmax(row);
        tape.reshape(ls, [v, 1])
    };
    let mut scores = Vec::with_capacity(candidates.len());
    for cand in candidates {
        assert!(!cand.is_empty(), "candidate with empty title");
        let idx: Vec<usize> = cand.iter().map(|&t| t as usize).collect();
        let rows = tape.gather_rows(log_probs, &idx);
        let mean = tape.mean_rows(rows); // [1]
        scores.push(mean);
    }
    let stacked = tape.stack_rows(&scores); // [m, 1]
    tape.reshape(stacked, [candidates.len()])
}

/// Batched differentiable candidate scores: `[B, m]` from mask logits
/// `[B, vocab]`, one row of scores per example.
///
/// Every example must offer the same number of candidates `m` (DELRec's
/// training streams are built that way), so the result feeds a single
/// batched cross-entropy. The log-softmax runs once over all `B` rows, and
/// the per-candidate means collapse into one averaging matmul instead of
/// `B·m` gather/mean/stack nodes.
pub fn candidate_scores_batch(tape: &Tape, logits: Var, candidate_sets: &[&[Vec<u32>]]) -> Var {
    let bsz = candidate_sets.len();
    assert!(bsz > 0, "no examples");
    let m = candidate_sets[0].len();
    assert!(m > 0, "no candidates");
    let v = {
        let shape = tape.shape_of(logits);
        assert_eq!(shape.rank(), 2, "expected [B, vocab] logits");
        assert_eq!(shape.dim(0), bsz, "one candidate set per logits row");
        shape.dim(1)
    };
    let log_probs = tape.log_softmax(logits);
    let flat = tape.reshape(log_probs, [bsz * v, 1]);
    // One gather of every candidate token (offset into its example's row),
    // then a constant [B·m, total_tokens] averaging matrix whose row c holds
    // 1/|title_c| over c's token span.
    let mut idx = Vec::new();
    let mut spans = Vec::with_capacity(bsz * m);
    for (b, cands) in candidate_sets.iter().enumerate() {
        assert_eq!(cands.len(), m, "examples must share the candidate count");
        for cand in *cands {
            assert!(!cand.is_empty(), "candidate with empty title");
            let start = idx.len();
            idx.extend(cand.iter().map(|&t| b * v + t as usize));
            spans.push((start, cand.len()));
        }
    }
    let gathered = tape.gather_rows(flat, &idx);
    let total = idx.len();
    let mut avg = vec![0.0f32; spans.len() * total];
    for (c, &(start, len)) in spans.iter().enumerate() {
        let w = 1.0 / len as f32;
        for t in start..start + len {
            avg[c * total + t] = w;
        }
    }
    let avg = tape.constant(Tensor::new([spans.len(), total], avg));
    let scores = tape.matmul(avg, gathered);
    tape.reshape(scores, [bsz, m])
}

/// Non-autograd ranking: mean log-probability per candidate.
pub fn rank_candidates(logits: &Tensor, candidates: &[Vec<u32>]) -> Vec<f32> {
    rank_row(logits.data(), candidates)
}

/// Non-autograd ranking over a batch: `logits` is `[B, vocab]` (one row per
/// example, e.g. from a batched mask-logits pass) and `candidate_sets[b]`
/// holds example `b`'s candidate titles. Row `b` of the result is exactly
/// [`rank_candidates`] of row `b` — candidate sets may differ in size.
pub fn rank_candidates_batch<T: AsRef<[u32]>>(
    logits: &Tensor,
    candidate_sets: &[&[T]],
) -> Vec<Vec<f32>> {
    let _span = delrec_obs::span!("lm.verbalize");
    assert_eq!(logits.shape().rank(), 2, "expected [B, vocab] logits");
    assert_eq!(
        logits.shape().dim(0),
        candidate_sets.len(),
        "one candidate set per logits row"
    );
    candidate_sets
        .iter()
        .enumerate()
        .map(|(b, cands)| rank_row(logits.row(b), cands))
        .collect()
}

/// [`rank_candidates_batch`] under the signature the frozen `perfbench/`
/// package calls — its one caller. The mode argument is ignored; the shim
/// goes when that package stops calling it (ROADMAP item 1(d)).
pub fn rank_candidates_batch_mode(
    logits: &Tensor,
    candidate_sets: &[&[Vec<u32>]],
    _math: delrec_tensor::MathMode,
) -> Vec<Vec<f32>> {
    rank_candidates_batch(logits, candidate_sets)
}

/// Each title's mean token log-probability under one mask row's logits. A
/// title is read in place — a `&[u32]` slice of the tokenized catalog or an
/// owned `Vec<u32>` — and its score does not depend on which other titles
/// are scored alongside it.
fn rank_row<T: AsRef<[u32]>>(data: &[f32], titles: &[T]) -> Vec<f32> {
    let lse = log_sum_exp(data);
    titles
        .iter()
        .map(|title| {
            let title = title.as_ref();
            title.iter().map(|&t| data[t as usize] - lse).sum::<f32>() / title.len() as f32
        })
        .collect()
}

/// Per-token score breakdown for one candidate: `(token, log-probability)`
/// pairs whose mean is the candidate's ranking score. This is the
/// interpretability hook the paper's third-paradigm critique alludes to —
/// a DELRec recommendation decomposes into which title words the model
/// believed in.
pub fn explain_candidate(logits: &Tensor, title: &[u32]) -> Vec<(u32, f32)> {
    let data = logits.data();
    let lse = log_sum_exp(data);
    title.iter().map(|&t| (t, data[t as usize] - lse)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn favours_candidates_with_high_logit_tokens() {
        let mut logits = vec![0.0f32; 10];
        logits[3] = 5.0;
        logits[4] = 5.0;
        let logits = Tensor::from_vec(logits);
        let scores = rank_candidates(&logits, &[vec![3, 4], vec![7, 8]]);
        assert!(scores[0] > scores[1]);
    }

    #[test]
    fn length_normalization_keeps_titles_comparable() {
        // One strong token repeated vs. the same strong token once: equal
        // mean scores.
        let mut logits = vec![0.0f32; 10];
        logits[2] = 3.0;
        let logits = Tensor::from_vec(logits);
        let scores = rank_candidates(&logits, &[vec![2], vec![2, 2]]);
        assert!((scores[0] - scores[1]).abs() < 1e-6);
    }

    #[test]
    fn tape_scores_match_plain_scores() {
        let tape = Tape::new();
        let raw = vec![0.3, -1.0, 2.0, 0.7, -0.2];
        let logits = tape.leaf(Tensor::from_vec(raw.clone()));
        let cands = vec![vec![0u32, 2], vec![1], vec![3, 4]];
        let on_tape = tape.get(candidate_scores(&tape, logits, &cands));
        let plain = rank_candidates(&Tensor::from_vec(raw), &cands);
        for (a, b) in on_tape.data().iter().zip(&plain) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn batched_scores_match_per_example_scores() {
        let tape = Tape::new();
        let raw = vec![
            0.3, -1.0, 2.0, 0.7, -0.2, // example 0
            1.1, 0.4, -0.9, 0.0, 2.5, // example 1
        ];
        let logits = tape.leaf(Tensor::new([2, 5], raw.clone()));
        let sets: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![0, 2], vec![1], vec![3, 4]],
            vec![vec![4], vec![2, 3], vec![0, 1, 2]],
        ];
        let set_refs: Vec<&[Vec<u32>]> = sets.iter().map(|s| s.as_slice()).collect();
        let batched = tape.get(candidate_scores_batch(&tape, logits, &set_refs));
        assert_eq!(batched.shape().dim(0), 2);
        assert_eq!(batched.shape().dim(1), 3);
        for b in 0..2 {
            let row = Tensor::from_vec(raw[b * 5..(b + 1) * 5].to_vec());
            let single = rank_candidates(&row, &sets[b]);
            for (got, want) in batched.row(b).iter().zip(&single) {
                assert!((got - want).abs() < 1e-5, "b={b}: {got} vs {want}");
            }
        }
        // The non-autograd batch ranker agrees too.
        let plain = rank_candidates_batch(&Tensor::new([2, 5], raw), &set_refs);
        for (b, plain_row) in plain.iter().enumerate() {
            for (got, want) in plain_row.iter().zip(batched.row(b)) {
                assert!((got - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn batched_scores_backpropagate() {
        let tape = Tape::new();
        let logits = tape.leaf(Tensor::new(
            [2, 4],
            vec![0.1, 0.2, 0.3, 0.4, -0.5, 0.0, 0.5, 1.0],
        ));
        let sets: Vec<Vec<Vec<u32>>> = vec![vec![vec![0], vec![2, 3]], vec![vec![1, 2], vec![3]]];
        let set_refs: Vec<&[Vec<u32>]> = sets.iter().map(|s| s.as_slice()).collect();
        let scores = candidate_scores_batch(&tape, logits, &set_refs);
        let loss = tape.cross_entropy(scores, &[0, 1]);
        let grads = tape.backward(loss);
        let g = grads.get(logits).expect("logits must receive gradient");
        assert!(g.l2_norm() > 0.0);
    }

    #[test]
    fn explanation_mean_equals_candidate_score() {
        let logits = Tensor::from_vec(vec![0.3, -1.0, 2.0, 0.7, -0.2]);
        let title = vec![0u32, 2, 4];
        let parts = explain_candidate(&logits, &title);
        assert_eq!(parts.len(), 3);
        let mean: f32 = parts.iter().map(|(_, s)| s).sum::<f32>() / 3.0;
        let score = rank_candidates(&logits, &[title])[0];
        assert!((mean - score).abs() < 1e-6);
        // Scores are log-probabilities: all negative for a multi-token vocab.
        assert!(parts.iter().all(|&(_, s)| s < 0.0));
    }

    #[test]
    fn gradient_reaches_the_logits() {
        let tape = Tape::new();
        let logits = tape.leaf(Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4]));
        let cands = vec![vec![0u32], vec![2u32, 3]];
        let scores = candidate_scores(&tape, logits, &cands);
        let row = tape.reshape(scores, [1, 2]);
        let loss = tape.cross_entropy(row, &[0]);
        let grads = tape.backward(loss);
        let g = grads.get(logits).expect("logits must receive gradient");
        assert!(g.l2_norm() > 0.0);
    }
}
