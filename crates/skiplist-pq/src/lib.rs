//! # skiplist-pq — skiplist-based priority-queue baselines
//!
//! The paper compares BGPQ against two skiplist designs:
//!
//! * **LJSL** — Lindén & Jonsson's priority queue: delete-min marks the
//!   head-most live node with a *logical delete* flag and defers the
//!   physical unlinking, batching many unlinks into one restructuring
//!   pass to cut memory contention at the head. Implemented by
//!   [`LindenJonssonPq`] on the shared [`list::SkipList`] substrate.
//! * **SprayList** — Alistarh et al.'s relaxed queue: delete-min takes a
//!   random "spray" walk from the head and claims a node among the
//!   first `O(p·log³p)` keys, trading strict min-ordering for head
//!   contention relief. Implemented by [`SprayListPq`].
//!
//! Substitutions versus the originals (see DESIGN.md §2): the published
//! implementations are lock-free with epoch reclamation; here inserts
//! use CAS linking, logical deletes are a single atomic flag (as in the
//! originals), and only the *physical unlinking* is serialized behind an
//! RwLock (writers) against inserts (readers). Unlinked nodes stay in an
//! arena until the queue drops, sidestepping reclamation. The measured
//! behaviours the paper relies on — head contention, batched unlink,
//! spray relaxation — are all present.

pub mod linden;
pub mod list;
pub mod spray;

pub use linden::LindenJonssonPq;
pub use spray::SprayListPq;
