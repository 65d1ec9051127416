//! The benchmark's own seed-driven dataset generator.
//!
//! `SyntheticConfig::generate` scores every catalog item for every simulated
//! interaction (O(users · length · items)), and on a long-tail catalog its
//! draws spread so thin that `Dataset::build`'s min-5-interaction filter
//! leaves no training example. The workloads here need catalogs of up to
//! 262 144 items whose *traffic* still concentrates on a small head, so this
//! module builds the catalog and the histories directly: every item gets a
//! unique title from the movie domain's words (the vocabulary stays at about
//! 185 words however large the catalog), and histories walk a genre-level
//! Markov chain over the first `head` items only.

use delrec_data::synthetic::Domain;
use delrec_data::{Dataset, Item, ItemCatalog, ItemId, UserSequence};

/// Title suffixes. The product's own suffix list is private to
/// `delrec-data`; these play the same role (no genre signal, only identity).
const SUFFIXES: [&str; 24] = [
    "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten", "plus", "prime",
    "max", "mini", "ultra", "classic", "deluxe", "select", "original", "special", "reborn",
    "returns", "forever", "legacy",
];

/// SplitMix64: the benchmark's only source of randomness, so that one seed
/// fixes every input without depending on the vendored `rand` stand-in.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// A permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Size of one generated dataset.
#[derive(Clone, Copy, Debug)]
pub struct DataSpec {
    /// Catalog size.
    pub n_items: usize,
    /// Items that ever appear in a history (ids `0..head`).
    pub head: usize,
    /// Simulated users.
    pub n_users: usize,
    /// Interactions per user: uniform in `min_len..=max_len`.
    pub min_len: usize,
    /// See `min_len`.
    pub max_len: usize,
}

/// The suffix words of the `r`-th title within one (adjective, noun) cell:
/// bijective base-24 numeration, so `r` ↦ word sequence is injective and the
/// head of the catalog gets the shortest titles.
fn suffix_words(mut r: usize, perm: &[usize]) -> Vec<&'static str> {
    let base = SUFFIXES.len();
    let mut len = 1;
    let mut span = base;
    while r >= span {
        r -= span;
        span *= base;
        len += 1;
    }
    let mut words = vec![""; len];
    for w in words.iter_mut().rev() {
        *w = SUFFIXES[perm[r % base]];
        r /= base;
    }
    words
}

/// Build the catalog: item `i` belongs to genre `i % G`, and its title is
/// the `i / G`-th in that genre's enumeration adjective × noun × suffixes,
/// each word list permuted by the seed.
pub fn build_catalog(n_items: usize, rng: &mut Rng) -> ItemCatalog {
    let spec = Domain::Movies.spec();
    let g = spec.genres.len();
    let perms: Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> = spec
        .genres
        .iter()
        .map(|gs| {
            (
                rng.permutation(gs.adjectives.len()),
                rng.permutation(gs.nouns.len()),
                rng.permutation(SUFFIXES.len()),
            )
        })
        .collect();
    let items = (0..n_items)
        .map(|i| {
            let genre = i % g;
            let gs = &spec.genres[genre];
            let (pa, pn, ps) = &perms[genre];
            let j = i / g;
            let (na, nn) = (gs.adjectives.len(), gs.nouns.len());
            let mut title_words = vec![
                gs.adjectives[pa[j % na]].to_string(),
                gs.nouns[pn[(j / na) % nn]].to_string(),
            ];
            title_words.extend(
                suffix_words(j / (na * nn), ps)
                    .into_iter()
                    .map(str::to_string),
            );
            Item {
                id: ItemId(i as u32),
                title_words,
                genre,
                // Harmonic popularity over the head, a flat floor below it.
                popularity: 1.0 / (1.0 + (i / g) as f32),
            }
        })
        .collect();
    let genres = spec.genres.iter().map(|gs| gs.name.to_string()).collect();
    ItemCatalog::new(items, genres)
}

/// Generate the dataset for `spec` from `seed`.
pub fn build_dataset(spec: &DataSpec, seed: u64) -> Dataset {
    assert!(
        spec.head <= spec.n_items && spec.head >= 64,
        "head out of range"
    );
    let mut rng = Rng::new(seed);
    let catalog = build_catalog(spec.n_items, &mut rng);
    let g = catalog.genres().len();
    // Each genre leads to itself or to one successor genre most of the time:
    // the sequential signal a teacher can learn.
    let successor = rng.permutation(g);
    let per_genre = spec.head / g;
    let mut sequences = Vec::with_capacity(spec.n_users);
    for user in 0..spec.n_users {
        let len = spec.min_len + rng.below(spec.max_len - spec.min_len + 1);
        let favourite = rng.below(g);
        let mut genre = favourite;
        let mut events: Vec<(ItemId, u64)> = Vec::with_capacity(len);
        for t in 0..len {
            let u = rng.unit();
            genre = if t == 0 {
                favourite
            } else if u < 0.45 {
                successor[genre]
            } else if u < 0.75 {
                genre
            } else if u < 0.90 {
                favourite
            } else {
                rng.below(g)
            };
            // Skewed choice within the genre's share of the head; squaring a
            // uniform keeps every head item above the min-5 filter at the
            // sizes the workloads use.
            let item = loop {
                let v = rng.unit();
                let rank = ((v * v) * per_genre as f64) as usize;
                let id = ItemId((rank * g + genre) as u32);
                let recent = events.len().saturating_sub(3);
                if !events[recent..].iter().any(|&(e, _)| e == id) {
                    break id;
                }
            };
            // Round-robin timestamps interleave users, so the chronological
            // 8:1:1 split cuts across everyone.
            events.push((item, (t * spec.n_users + user) as u64));
        }
        sequences.push(UserSequence {
            user: user as u32,
            events,
        });
    }
    Dataset::build(
        format!("perfbench-movies-{}", spec.n_items),
        catalog,
        sequences,
        9,
    )
}

/// A dataset that is only a catalog: the served catalog of a workload whose
/// model was trained on a smaller one. Built from the same seed, its first
/// items are exactly the training catalog's (titles depend on the item index
/// and the seed's word permutations alone), so item ids mean the same thing
/// in both.
pub fn catalog_dataset(n_items: usize, seed: u64) -> Dataset {
    let catalog = build_catalog(n_items, &mut Rng::new(seed));
    Dataset::build(
        format!("perfbench-movies-{n_items}-catalog"),
        catalog,
        Vec::new(),
        9,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use delrec_data::Split;
    use std::collections::HashSet;

    fn spec(n_items: usize) -> DataSpec {
        DataSpec {
            n_items,
            head: 2048.min(n_items),
            n_users: 1200,
            min_len: 10,
            max_len: 20,
        }
    }

    #[test]
    fn same_seed_same_dataset_other_seed_other_dataset() {
        let a = build_dataset(&spec(4096), 7);
        let b = build_dataset(&spec(4096), 7);
        let c = build_dataset(&spec(4096), 8);
        assert_eq!(a.catalog.items(), b.catalog.items());
        assert_eq!(a.sequences, b.sequences);
        assert_eq!(a.examples(Split::Test), b.examples(Split::Test));
        assert_ne!(a.sequences, c.sequences);
    }

    #[test]
    fn titles_are_unique_and_the_vocabulary_stays_small() {
        let mut rng = Rng::new(3);
        let catalog = build_catalog(262_144, &mut rng);
        let mut seen = HashSet::new();
        let mut words = HashSet::new();
        for item in catalog.items() {
            assert!(seen.insert(item.title_words.clone()), "duplicate title");
            assert!(item.title_words.len() <= 5);
            words.extend(item.title_words.iter().cloned());
        }
        assert!(words.len() <= 8 * 10 + SUFFIXES.len());
    }

    #[test]
    fn histories_stay_in_the_head_and_splits_are_non_empty() {
        for n_items in [4096, 32_768, 262_144] {
            let ds = build_dataset(&spec(n_items), 11);
            assert_eq!(ds.num_items(), n_items);
            assert!(!ds.sequences.is_empty());
            for seq in &ds.sequences {
                for item in seq.items() {
                    assert!(item.index() < 2048, "history item outside the head");
                }
            }
            assert!(ds.examples(Split::Train).len() >= 1000);
            assert!(!ds.examples(Split::Val).is_empty());
            assert!(!ds.examples(Split::Test).is_empty());
        }
    }

    #[test]
    fn the_training_catalog_is_a_prefix_of_the_served_catalog() {
        let train = build_dataset(&spec(4096), 21);
        let served = catalog_dataset(32_768, 21);
        assert_eq!(served.num_items(), 32_768);
        assert_eq!(train.catalog.items(), &served.catalog.items()[..4096]);
        assert!(served.examples(Split::Train).is_empty());
    }

    #[test]
    fn suffix_numeration_is_injective() {
        let perm: Vec<usize> = (0..SUFFIXES.len()).collect();
        let mut seen = HashSet::new();
        for r in 0..(24 + 576 + 2000) {
            assert!(seen.insert(suffix_words(r, &perm)));
        }
        assert_eq!(suffix_words(0, &perm).len(), 1);
        assert_eq!(suffix_words(24, &perm).len(), 2);
        assert_eq!(suffix_words(24 + 576, &perm).len(), 3);
    }
}
