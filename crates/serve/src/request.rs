//! Request/response types and the serving error taxonomy.

use delrec_data::ItemId;
use std::time::{Duration, Instant};

/// One recommendation request as a client submits it.
///
/// `recent_items` is a *delta*: the interactions this client observed since
/// its last request. The server appends them to the user's stored session
/// history (creating the session on first sight) and scores against the full,
/// truncated history — so a thin client never has to resend its whole
/// history, and two devices sharing a user id converge on one session.
#[derive(Clone, Debug)]
pub struct RecRequest {
    /// Session key. Requests with the same id share one interaction history.
    pub user_id: u64,
    /// New interactions since the user's last request, oldest first. May be
    /// empty (re-rank against the stored history alone).
    pub recent_items: Vec<ItemId>,
    /// Candidate items to score. Must be non-empty.
    pub candidates: Vec<ItemId>,
    /// Drop-dead time: the client no longer wants an answer past this
    /// instant. `None` serves at any latency.
    pub deadline: Option<Instant>,
}

impl RecRequest {
    /// Convenience: a request with a deadline `budget` from now.
    pub fn with_budget(
        user_id: u64,
        recent_items: Vec<ItemId>,
        candidates: Vec<ItemId>,
        budget: Duration,
    ) -> Self {
        RecRequest {
            user_id,
            recent_items,
            candidates,
            deadline: Some(Instant::now() + budget),
        }
    }
}

/// A full-catalog top-k request: no candidate list — the server retrieves
/// candidates from the whole catalog and re-ranks them with the fitted model.
///
/// Session semantics are identical to [`RecRequest`]: `recent_items` is a
/// delta appended to the stored per-user history.
#[derive(Clone, Debug)]
pub struct TopKRequest {
    /// Session key. Shares histories with [`RecRequest`]s of the same id.
    pub user_id: u64,
    /// New interactions since the user's last request, oldest first.
    pub recent_items: Vec<ItemId>,
    /// How many recommendations to return. Must be positive.
    pub k: usize,
    /// Drop-dead time covering the whole retrieve + re-rank pipeline.
    pub deadline: Option<Instant>,
}

impl TopKRequest {
    /// Convenience: a request with a deadline `budget` from now.
    pub fn with_budget(
        user_id: u64,
        recent_items: Vec<ItemId>,
        k: usize,
        budget: Duration,
    ) -> Self {
        TopKRequest {
            user_id,
            recent_items,
            k,
            deadline: Some(Instant::now() + budget),
        }
    }
}

/// A served full-catalog recommendation.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKResponse {
    /// The `k` best items, best first (score descending, ties toward the
    /// smaller [`ItemId`]) — bitwise identical to calling the recommender's
    /// `recommend_top_k` directly on the session history.
    pub items: Vec<(ItemId, f32)>,
    /// How many top-k requests shared this response's handler call — one
    /// catalog scan and one re-rank batch (diagnostics: a slow answer with
    /// `batch_size == 1` rode alone).
    pub batch_size: usize,
    /// Publish sequence of the model generation that answered (0 = the model
    /// the server started with). The server *acknowledges* the version here;
    /// hot-swap tests verify the items against exactly this generation.
    pub model_seq: u64,
    /// Time spent queued before the request's batch flushed.
    pub queue_wait: Duration,
    /// Total submit-to-response latency as the server measured it.
    pub latency: Duration,
}

/// A served recommendation: per-candidate scores plus the derived ranking.
#[derive(Clone, Debug, PartialEq)]
pub struct RecResponse {
    /// One score per candidate, in the request's candidate order — bitwise
    /// identical to calling the model's `score_candidates` directly on the
    /// session history, no matter how the scheduler coalesced the batch.
    pub scores: Vec<f32>,
    /// Candidate indices sorted best-first. Ties break toward the earlier
    /// candidate, matching the evaluation protocol's rank rule.
    pub ranking: Vec<usize>,
    /// How many requests shared this response's forward pass (diagnostics).
    pub batch_size: usize,
    /// Publish sequence of the model generation that scored this batch (0 =
    /// the model the server started with; each [`Server::publish`] adds one).
    /// Every response from one batch carries the same value — a hot swap
    /// never splits a batch across generations.
    ///
    /// [`Server::publish`]: crate::Server::publish
    pub model_seq: u64,
    /// Time spent queued before the batch flushed.
    pub queue_wait: Duration,
    /// Total submit-to-response latency as the server measured it.
    pub latency: Duration,
}

/// Why a request was not served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Backpressure: the queue was at its configured depth bound.
    QueueFull {
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// Admission control: the deadline would expire before the batch the
    /// request would join could possibly flush. Under the default zero
    /// batch window that means only a deadline already past.
    DeadlineUnmeetable,
    /// The deadline passed while the request was queued or being scored; the
    /// request was shed rather than silently answered late.
    DeadlineExpired,
    /// The request had no candidates to score (or asked for zero items).
    EmptyCandidates,
    /// Admission validation: the request names an item outside the serving
    /// model's catalog — an id in `recent_items` or `candidates` at or past
    /// `n_items`, or a top-k `k` above it. Refused at submit, before the
    /// session append, so the bad id reaches neither a session, its WAL,
    /// nor a batch.
    OutOfCatalog {
        /// The offending id's index, or the requested `k`.
        value: usize,
        /// Items in the serving model's catalog.
        n_items: usize,
    },
    /// A [`TopKRequest`](crate::TopKRequest) reached a server whose model has
    /// no full-catalog recommendation path (started with [`Server::start`]
    /// rather than `start_recommender`).
    ///
    /// [`Server::start`]: crate::Server::start
    TopKUnsupported,
    /// The model call scoring this request's batch panicked. Every member of
    /// that batch gets this answer; the server keeps serving the rest.
    Internal,
    /// The server is shutting down (or has shut down).
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { depth } => write!(f, "queue full at depth {depth}"),
            ServeError::DeadlineUnmeetable => {
                write!(f, "deadline would expire before the batch could flush")
            }
            ServeError::DeadlineExpired => write!(f, "deadline expired before a result was ready"),
            ServeError::EmptyCandidates => write!(f, "request has no candidates"),
            ServeError::OutOfCatalog { value, n_items } => {
                write!(f, "{value} is outside the {n_items}-item catalog")
            }
            ServeError::TopKUnsupported => {
                write!(f, "server has no full-catalog top-k path")
            }
            ServeError::Internal => write!(f, "the model call for this batch panicked"),
            ServeError::Shutdown => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Rank candidate indices best-first from scores, ties toward the earlier
/// index — the exact tie rule `delrec-eval`'s rank computation uses.
pub fn ranking_of(scores: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_sorts_descending_with_stable_ties() {
        assert_eq!(ranking_of(&[0.1, 0.9, 0.5]), vec![1, 2, 0]);
        assert_eq!(ranking_of(&[0.5, 0.5, 0.9]), vec![2, 0, 1]);
        assert_eq!(ranking_of(&[]), Vec::<usize>::new());
    }

    #[test]
    fn with_budget_sets_a_future_deadline() {
        let r = RecRequest::with_budget(7, vec![], vec![ItemId(1)], Duration::from_secs(5));
        assert!(r.deadline.unwrap() > Instant::now());
    }
}
