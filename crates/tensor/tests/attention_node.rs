//! `Tape::attention` + `Tape::concat_cols` against the generic-op chain they
//! replaced in the three attention models, bit for bit: output, `dq`, `dk`,
//! `dv` and the RNG's next draw. The chain lives on here as the oracle. And
//! the node over a subset of its query rows against the node over all of
//! them, gathered.

use delrec_tensor::grad_check::check_grad;
use delrec_tensor::{Rows, Shape, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// What `MiniLm::encode_rows`, `SasRec` and `Bert4Rec` used to build per
/// head, op by op.
#[allow(clippy::too_many_arguments)]
fn chain_head(
    tape: &Tape,
    (q, k, v): (Var, Var, Var),
    (bsz, t, dh): (usize, usize, usize),
    valid: &[usize],
    scale: f32,
    dropout: f32,
    train: bool,
    rng: &mut StdRng,
) -> Var {
    let q3 = tape.reshape(q, [bsz, t, dh]);
    let k3 = tape.reshape(k, [bsz, t, dh]);
    let v3 = tape.reshape(v, [bsz, t, dh]);
    let kt = tape.transpose(k3);
    let scores = tape.matmul(q3, kt);
    let scores = tape.scale(scores, scale);
    let attn = tape.softmax_masked(scores, valid);
    let attn = tape.dropout(attn, Rows::All, dropout, train, rng);
    let out = tape.matmul(attn, v3);
    tape.reshape(out, [bsz * t, dh])
}

/// Heads → `[dh, rows]` slices stacked into `[d, rows]`, then transposed back.
fn chain_concat(tape: &Tape, heads: &[Var]) -> Var {
    let heads_t: Vec<Var> = heads.iter().map(|&h| tape.transpose(h)).collect();
    tape.transpose(tape.concat_rows(&heads_t))
}

fn fill(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Ragged lengths (full, about half, one) cycled over the batch; padded rows
/// of q/k/v carry garbage like everything else.
fn valid_counts(bsz: usize, t: usize, causal: bool) -> Vec<usize> {
    let lens = [t, t.div_ceil(2), 1];
    (0..bsz)
        .flat_map(|b| {
            let len = lens[b % 3];
            (0..t).map(move |i| if causal { (i + 1).min(len) } else { len })
        })
        .collect()
}

/// Two heads sharing one RNG, concatenated, through a weighted sum so every
/// output element gets its own upstream gradient. Returns the output bits,
/// the six input gradients' bits and the RNG's next draw.
#[allow(clippy::type_complexity)]
fn run(
    node: bool,
    (bsz, t, dh): (usize, usize, usize),
    causal: bool,
    dropout: f32,
    train: bool,
) -> (Vec<u32>, Vec<Vec<u32>>, u64) {
    let mut data = StdRng::seed_from_u64((bsz * 1000 + t * 10 + dh) as u64);
    let rows = bsz * t;
    let tape = Tape::new();
    let inputs: Vec<Var> = (0..6)
        .map(|_| tape.leaf(Tensor::new([rows, dh], fill(&mut data, rows * dh))))
        .collect();
    let weight = tape.constant(Tensor::new([rows, 2 * dh], fill(&mut data, rows * 2 * dh)));
    let valid = valid_counts(bsz, t, causal);
    let scale = 1.0 / (dh as f32).sqrt();
    let mut rng = StdRng::seed_from_u64(99);
    let heads: Vec<Var> = inputs
        .chunks(3)
        .map(|h| {
            let (q, k, v) = (h[0], h[1], h[2]);
            if node {
                tape.attention(
                    q,
                    k,
                    v,
                    bsz,
                    t,
                    Rows::All,
                    &valid,
                    scale,
                    dropout,
                    train,
                    &mut rng,
                )
            } else {
                let dims = (bsz, t, dh);
                chain_head(
                    &tape,
                    (q, k, v),
                    dims,
                    &valid,
                    scale,
                    dropout,
                    train,
                    &mut rng,
                )
            }
        })
        .collect();
    let out = if node {
        tape.concat_cols(&heads)
    } else {
        chain_concat(&tape, &heads)
    };
    let loss = tape.sum_all(tape.mul(out, weight));
    let grads = tape.backward(loss);
    let grad_bits = inputs
        .iter()
        .map(|&x| bits(grads.get(x).expect("every input reaches the loss")))
        .collect();
    (bits(&tape.get(out)), grad_bits, rng.next_u64())
}

#[test]
fn node_is_bitwise_the_chain() {
    let mut masks_drawn = 0;
    for t in [1usize, 3, 4, 5, 17, 99] {
        for dh in [8usize, 16] {
            for bsz in [1usize, 3] {
                for causal in [false, true] {
                    for (dropout, train) in [(0.0, true), (0.1, true), (0.1, false)] {
                        let dims = (bsz, t, dh);
                        let want = run(false, dims, causal, dropout, train);
                        let got = run(true, dims, causal, dropout, train);
                        let case = format!(
                            "t={t} dh={dh} B={bsz} causal={causal} p={dropout} train={train}"
                        );
                        assert_eq!(want.0, got.0, "output, {case}");
                        for (i, name) in ["dq", "dk", "dv"].iter().cycle().take(6).enumerate() {
                            assert_eq!(want.1[i], got.1[i], "{name} of head {}, {case}", i / 3);
                        }
                        assert_eq!(want.2, got.2, "RNG stream, {case}");
                        // Not vacuous: dropout really consumed the stream.
                        let untouched = StdRng::seed_from_u64(99).next_u64();
                        assert_eq!(got.2 != untouched, train && dropout > 0.0, "{case}");
                        masks_drawn += usize::from(got.2 != untouched);
                    }
                }
            }
        }
    }
    assert_eq!(masks_drawn, 6 * 2 * 2 * 2);
}

/// Two heads over the query rows `kept` (all rows when `None`) with the
/// loss reading only those rows: the full node's output gathered after it,
/// the subset node's as produced. Returns the kept rows' output bits, the
/// six input gradients' bits and the RNG's next draw.
#[allow(clippy::type_complexity)]
fn run_rows(
    kept: &[usize],
    subset: bool,
    (bsz, t, dh): (usize, usize, usize),
    causal: bool,
    dropout: f32,
) -> (Vec<u32>, Vec<Vec<u32>>, u64) {
    let mut data = StdRng::seed_from_u64((bsz * 1000 + t * 10 + dh) as u64);
    let rows = bsz * t;
    let tape = Tape::new();
    let inputs: Vec<Var> = (0..6)
        .map(|_| tape.leaf(Tensor::new([rows, dh], fill(&mut data, rows * dh))))
        .collect();
    let weight = Tensor::new([kept.len(), 2 * dh], fill(&mut data, kept.len() * 2 * dh));
    let valid = valid_counts(bsz, t, causal);
    let kept_valid: Vec<usize> = kept.iter().map(|&r| valid[r]).collect();
    let scale = 1.0 / (dh as f32).sqrt();
    let mut rng = StdRng::seed_from_u64(99);
    let heads: Vec<Var> = inputs
        .chunks(3)
        .map(|h| {
            let (q, k, v) = (h[0], h[1], h[2]);
            if subset {
                let q = tape.gather_rows(q, kept);
                let queries = Rows::Of {
                    n: rows,
                    rows: kept,
                };
                tape.attention(
                    q,
                    k,
                    v,
                    bsz,
                    t,
                    queries,
                    &kept_valid,
                    scale,
                    dropout,
                    true,
                    &mut rng,
                )
            } else {
                let all = tape.attention(
                    q,
                    k,
                    v,
                    bsz,
                    t,
                    Rows::All,
                    &valid,
                    scale,
                    dropout,
                    true,
                    &mut rng,
                );
                tape.gather_rows(all, kept)
            }
        })
        .collect();
    let out = tape.concat_cols(&heads);
    let loss = tape.sum_all(tape.mul(out, tape.constant(weight)));
    let grads = tape.backward(loss);
    let grad_bits = inputs
        .iter()
        .map(|&x| bits(grads.get(x).expect("every input reaches the loss")))
        .collect();
    (bits(&tape.get(out)), grad_bits, rng.next_u64())
}

/// Query rows a loss might read: positions 0–3 and near the end, several
/// inside one k-group — after a full one, so a dense layout would regroup
/// them — an example with none, an example with all.
fn loss_rows(bsz: usize, t: usize, pick: usize) -> Vec<usize> {
    let per_example = |b: usize| -> Vec<usize> {
        match (pick + b) % 6 {
            0 => vec![pick % 4],
            1 => vec![t - 1],
            2 => vec![0, 1, 3, t / 2, t.saturating_sub(2), t - 1],
            3 => Vec::new(),
            4 => vec![0, 1, 2, 3, 5, 6, 9, 10, 11, 13],
            _ => (0..t).collect(),
        }
    };
    let mut rows: Vec<usize> = (0..bsz)
        .flat_map(|b| {
            per_example(b)
                .into_iter()
                .filter(|&i| i < t)
                .map(move |i| b * t + i)
        })
        .collect();
    rows.sort_unstable();
    rows.dedup();
    if rows.is_empty() {
        rows.push(t - 1);
    }
    rows
}

#[test]
fn query_subset_is_bitwise_the_full_node_gathered() {
    let mut cases = 0;
    for t in [1usize, 3, 4, 5, 17, 99] {
        for bsz in [1usize, 3] {
            for pick in 0..6 {
                let kept = loss_rows(bsz, t, pick);
                for causal in [false, true] {
                    for dropout in [0.0f32, 0.1] {
                        let dims = (bsz, t, 8);
                        let want = run_rows(&kept, false, dims, causal, dropout);
                        let got = run_rows(&kept, true, dims, causal, dropout);
                        let case =
                            format!("t={t} B={bsz} rows={kept:?} causal={causal} p={dropout}");
                        assert_eq!(want.0, got.0, "output, {case}");
                        for (i, name) in ["dq", "dk", "dv"].iter().cycle().take(6).enumerate() {
                            assert_eq!(want.1[i], got.1[i], "{name} of head {}, {case}", i / 3);
                        }
                        assert_eq!(want.2, got.2, "RNG stream, {case}");
                        cases += usize::from(kept.len() < bsz * t);
                    }
                }
            }
        }
    }
    assert!(cases > 80, "most cases keep a strict subset ({cases})");
}

#[test]
fn grad_check_attention_and_concat_cols() {
    let (bsz, t, dh) = (2usize, 3usize, 2usize);
    let rows = bsz * t;
    let mut data = StdRng::seed_from_u64(4);
    let inputs: Vec<Vec<f32>> = (0..6).map(|_| fill(&mut data, rows * dh)).collect();
    let shapes = vec![Shape::from([rows, dh]); 6];
    for causal in [false, true] {
        for dropout in [0.0f32, 0.3] {
            let valid = valid_counts(bsz, t, causal);
            check_grad(&inputs, &shapes, |tape, vars| {
                // A fresh, identically-seeded RNG per evaluation: the same
                // mask on both sides of every finite difference.
                let mut rng = StdRng::seed_from_u64(8);
                let heads: Vec<Var> = vars
                    .chunks(3)
                    .map(|h| {
                        let (q, k, v) = (h[0], h[1], h[2]);
                        tape.attention(
                            q,
                            k,
                            v,
                            bsz,
                            t,
                            Rows::All,
                            &valid,
                            0.7,
                            dropout,
                            true,
                            &mut rng,
                        )
                    })
                    .collect();
                let out = tape.concat_cols(&heads);
                tape.sum_all(tape.sqr(out))
            });
        }
    }
}

#[test]
#[should_panic(expected = "valid count 4 out of 1..=3")]
fn valid_count_beyond_the_row_panics() {
    let tape = Tape::new();
    let x = tape.leaf(Tensor::new([3, 2], vec![0.5; 6]));
    let mut rng = StdRng::seed_from_u64(0);
    tape.attention(
        x,
        x,
        x,
        1,
        3,
        Rows::All,
        &[1, 2, 4],
        1.0,
        0.0,
        false,
        &mut rng,
    );
}
