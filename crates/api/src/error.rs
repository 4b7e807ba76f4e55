//! Typed failures for the non-panicking queue APIs.
//!
//! The paper's pseudocode assumes an infallible device: locks are always
//! granted, node slots never run out, and no thread dies mid-operation.
//! A production queue gets none of those guarantees, so the hardened
//! `try_*` entry points surface each failure as a [`QueueError`] instead
//! of panicking or silently dropping keys (see DESIGN.md "Failure
//! model").

/// Why a `try_insert` / `try_delete_min` refused or abandoned an
/// operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueError {
    /// The heap body has no free node slot for the batch this insert
    /// would have to heapify. Raised *before* any state is mutated, so
    /// no key is ever silently lost — the caller still owns the batch
    /// and can apply backpressure or route elsewhere.
    Full {
        /// The configured node-slot limit that was hit.
        max_nodes: usize,
    },
    /// A worker crashed (panicked, or timed out mid-traversal) while
    /// restructuring the heap; the queue refuses all further operations
    /// because its internal invariants may no longer hold. Keys already
    /// returned remain valid; keys still inside are unreachable.
    Poisoned,
    /// A lock acquisition exceeded the platform's watchdog bound. The
    /// holder is likely wedged or dead; `detail` carries the platform's
    /// holder/state diagnostic dump.
    LockTimeout {
        /// Index of the lock (= heap node) that could not be acquired.
        lock: usize,
        /// Human-readable diagnostic from the platform watchdog.
        detail: String,
    },
    /// The front serving this call has already observed its backend
    /// fail and is fast-failing new traffic instead of letting every
    /// submitter rediscover the crash. Unlike [`QueueError::Poisoned`]
    /// this is a *front* state, not a structural verdict: the backend
    /// may be salvaged and the front may return to service, so callers
    /// with slack should treat it as retryable-after-backoff.
    Unavailable,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::Full { max_nodes } => {
                write!(f, "out of node slots (max_nodes = {max_nodes})")
            }
            QueueError::Poisoned => write!(f, "queue poisoned by a crashed worker"),
            QueueError::LockTimeout { lock, detail } => {
                write!(f, "watchdog timeout acquiring lock {lock}: {detail}")
            }
            QueueError::Unavailable => {
                write!(f, "front unavailable: backend down, fast-failing until re-admission")
            }
        }
    }
}

impl std::error::Error for QueueError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_specifics() {
        let full = QueueError::Full { max_nodes: 64 };
        assert!(full.to_string().contains("out of node slots"));
        assert!(full.to_string().contains("64"));
        let t = QueueError::LockTimeout { lock: 7, detail: "holder: worker 3".into() };
        assert!(t.to_string().contains("lock 7"));
        assert!(t.to_string().contains("worker 3"));
        assert!(QueueError::Poisoned.to_string().contains("poisoned"));
        assert!(QueueError::Unavailable.to_string().contains("unavailable"));
    }

    #[test]
    fn errors_compare_by_value() {
        assert_eq!(QueueError::Full { max_nodes: 8 }, QueueError::Full { max_nodes: 8 });
        assert_ne!(QueueError::Full { max_nodes: 8 }, QueueError::Poisoned);
        assert_ne!(QueueError::Unavailable, QueueError::Poisoned);
    }
}
