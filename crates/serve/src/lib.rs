//! # li-serve — the sharded concurrent serving layer
//!
//! The paper frames learned indexes as read-heavy serving structures;
//! this crate is the workspace's answer to serving them at scale: one
//! shared sorted key array, range-partitioned into N zero-copy shards,
//! each served by its own index (in the store, always the ε-corridor
//! RMI), with concurrent batched reads and a snapshot-consistent write
//! path.
//!
//! * [`ShardedIndex`] — the read-only index: partitions one [`KeyStore`]
//!   into N `KeyStore::slice` views (no key copied), builds a pluggable
//!   [`ShardBuilder`] backend per shard ([`RmiShardBuilder`] builds the
//!   same ε-corridor a store shard's base is), and routes every lookup
//!   through the [`ShardRouter`]. It implements [`RangeIndex`] itself,
//!   so every existing harness and property suite works against it
//!   unchanged. It is built, never saved: the store's snapshot is the
//!   one file format.
//! * [`ShardRouter`] — one `partition_point` over the shard boundary
//!   keys (a learned line over them measured slower at every shard
//!   count the store reaches).
//! * [`ShardedIndex::lower_bound_batch_parallel`] — the concurrent read
//!   path: scoped threads fan contiguous sub-batches out, each running
//!   the per-shard bucketed batch plan.
//! * [`WritableShard`] — the single-shard write path: a `DeltaIndex`
//!   (Appendix D.1) behind an `RwLock`; full buffers seal into runs, and
//!   folds retrain and swap the whole base behind an `Arc`, so readers
//!   on a [`DeltaSnapshot`] are never torn across a retrain.
//! * [`ShardedWritable`] — the *sharded* write path: N
//!   [`WritableShard`]s behind an `Arc`-swapped topology (ownership
//!   bounds + router + shards published as one unit), with concurrent
//!   key-routed inserts (scalar and batched —
//!   [`ShardedWritable::insert_batch`] takes the topology lock once and
//!   hands each touched shard its whole bucket), gets that take no lock
//!   on their common path, consistent cross-shard snapshots
//!   ([`ShardedSnapshot`]), and one maintenance pass that
//!   folds or merges full run stacks, then runs the dynamic rebalancer
//!   ([`rebalance`]) that splits hot shards, merges cold neighbors,
//!   and retunes each rebuilt shard's model density to its keys. Every
//!   base is the ε-corridor of [`Backend::Rmi`]; no shard selects.
//! * [`persist`] — the persistence tier: save a [`ShardedWritable`] to
//!   one page-aligned snapshot file (coefficients + key payload + delta
//!   buffers and sealed runs, checksummed, published atomically) and load
//!   it back with the key array **mapped** and zero models retrained — a
//!   warm restart.
//! * [`RebalanceWorker`] — background maintenance: a dedicated thread
//!   that runs the maintenance pass while attached, so an insert that
//!   makes a pass due only signals it over a channel;
//!   rebuilds happen off the insert path and are published with an
//!   incremental straggler hand-off ([`rebalance_worker`]).
//! * [`obs`] — the observability surface: every structure owns a
//!   [`ServeMetrics`] bundle of `li-obs` striped counters, latency
//!   histograms and a structural-event trace ring;
//!   [`ShardedWritable::metrics`] reads it all back as one consistent
//!   [`MetricsSnapshot`] and `render_text` renders the Prometheus-style
//!   exposition.
//! * [`wal`] — the durability tier for *live* writes: a per-structure
//!   append-only write-ahead log (checksummed records, group-commit
//!   [`WalSyncPolicy`]) that acknowledged writes hit before the
//!   in-memory tiers, truncated at every snapshot publish.
//!   [`ShardedWritable::recover`] loads the snapshot (zero training),
//!   replays the WAL tail, and truncates torn records — no
//!   acknowledged-durable write is ever lost.
//!
//! The partition arithmetic (balanced offsets, boundary keys, the
//! duplicates-safe routing proof, ownership routing and split points)
//! lives in `li_index::partition`, so any future partitioned structure
//! shares the exact same semantics. The full read-path / write-path /
//! rebalance-lifecycle walkthrough lives in `ARCHITECTURE.md` at the
//! repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod obs;
pub mod persist;
pub mod rebalance;
pub mod rebalance_worker;
pub mod router;
pub mod sharded;
pub mod sharded_writable;
pub mod wal;
pub mod writable;

pub use builder::{
    BTreeShardBuilder, FastShardBuilder, InterpShardBuilder, RetunePolicy, RmiShardBuilder,
    ShardBuilder,
};
pub use li_core::delta::DeltaSnapshot;
pub use li_index::{KeyStore, MappedFile, Prediction, RangeIndex};
pub use li_obs::{MetricsRegistry, MetricsSnapshot};
pub use obs::ServeMetrics;
pub use persist::PersistError;
pub use rebalance::{RebalanceAction, RebalanceConfig};
pub use rebalance_worker::RebalanceWorker;
pub use router::ShardRouter;
pub use sharded::ShardedIndex;
pub use sharded_writable::{
    Backend, RecoveryReport, ShardedSnapshot, ShardedWritable, ShardedWritableConfig,
};
pub use wal::{Wal, WalError, WalSyncPolicy};
pub use writable::WritableShard;
