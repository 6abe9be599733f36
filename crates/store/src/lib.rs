//! # res-store — persistent cross-run solver-result store
//!
//! The paper's corpus use cases (§3.1 bug-report triaging, §3.2
//! hardware-error filtering) run RES over many coredumps of the *same*
//! program, where most solver work repeats between dumps. Within one
//! process that repetition is absorbed by
//! [`SolverSession`](mvm_symbolic::SolverSession)'s memo, which keys
//! exact constraint sequences and evaporates when the process exits.
//! This crate makes the α-canonical
//! [`PortableCache`](mvm_symbolic::PortableCache) export of that memo
//! durable: a crash-safe, append-only on-disk store of
//! renaming-equivariant solver results that any later run over the same
//! program can absorb before searching.
//!
//! ## Why absorbing a store cannot change results
//!
//! Only *renaming-equivariant* verdicts are ever exported (see
//! `mvm-symbolic::fingerprint`): replaying one through the rank maps
//! reproduces byte-for-byte what a fresh solve would have returned, and
//! the absorbing session charges the entry's original enumeration cost
//! to its accounting, so solver-budget cuts trigger at exactly the same
//! query. A warm run therefore synthesizes byte-identical suffixes to a
//! cold run; the store only changes where the solver time is spent.
//! `scripts/ci.sh` gates this cross-run determinism against the golden
//! suffix fixture.
//!
//! ## File format (version 2)
//!
//! A store is a UTF-8 text file of newline-terminated records:
//!
//! ```text
//! RES-STORE 2
//! H <len> <fnv64-hex> <header-json>
//! E <len> <fnv64-hex> <entry-json>
//! ...
//! S <len> <fnv64-hex> <stats-json>
//! ```
//!
//! * The magic line names the format and its version; any other first
//!   line refuses the whole file. Version 2 changed no record: it
//!   changed the key. Its [`CanonFp`](mvm_symbolic::CanonFp) is a
//!   word-at-a-time fold of the renamed constraint walk that a query's
//!   key continues from its parent's
//!   ([`canonical_key`](mvm_symbolic::canonical_key)); version 1 hashed
//!   the walk a byte at a time. A version-1 file would load entries that
//!   no query ever hits, so it opens as a version mismatch: a cold start,
//!   rewritten on the first commit.
//! * Every record is length-prefixed (`len` = payload bytes) and
//!   checksummed (FNV-1a 64 of the payload), so a torn or corrupted
//!   tail is detected and *skipped* — earlier records stay usable, and
//!   a reader never fails hard on a damaged store (it degrades toward a
//!   cold start).
//! * The `H` header carries the format version and the fingerprint of
//!   the program whose results the store holds; a reader refuses (cold
//!   start, file left untouched) when the fingerprint does not match
//!   its own program.
//! * `E` entries map an α-canonical constraint fingerprint
//!   ([`CanonFp`](mvm_symbolic::CanonFp)) to a
//!   [`PortableResult`](mvm_symbolic::PortableResult). Appends never
//!   rewrite old entries; a re-appended fingerprint *supersedes* the
//!   earlier record and [`SolverStore::compact`] drops the dead ones.
//! * `S` stats records are the observability block ([`StoreStats`]);
//!   append-only like everything else, last one wins. Only a commit
//!   that appends entries writes one: a commit with nothing new leaves
//!   the file untouched, so a warm run costs its read and nothing more.
//! * Records with an unknown tag but valid framing are skipped, so
//!   later format minor-extensions stay readable. Stores written by
//!   older builds may carry `V` records (subtree-verdict certificates,
//!   since removed); they load as unknown records and the next
//!   [`SolverStore::compact`] drops them.
//!
//! ## What an open costs
//!
//! [`SolverStore::open`] reads the file once, checks every record's
//! length and checksum, and decodes each payload straight into its
//! typed value (an entry in its writer's form by a direct scanner, any
//! other payload through `mvm-json`'s reader, so what loads is
//! unchanged) into one table, sized once from the file's length. The
//! read buffer, cut at the first torn or undecodable record, becomes
//! the prefix later commits append to. Absorbing the store into a
//! session that holds none of its entries hands that table over behind
//! an `Arc`
//! ([`SolverSession::absorb_shared`](mvm_symbolic::SolverSession::absorb_shared)):
//! no entry is copied. A session that already holds some copies only
//! the entries it lacks, so reopening a store for each call of one
//! engine keeps no second copy. Entries merged later go to a table of
//! their own, so a merge never copies the table a session holds. The
//! byte-serial FNV-1a checksum pass is left as it is.
//!
//! Commits are atomic: the new content is written to a sibling
//! temporary file, synced, and `rename`d over the store, and the parent
//! directory is synced on Unix ([`write_atomic`]), so a crash mid-commit
//! never corrupts previously-committed records. Compaction is explicit
//! ([`SolverStore::compact`], `store-inspect --compact`). This build
//! never writes a superseded entry (a merge skips fingerprints the
//! store holds), and only a commit that appends entries writes an `S`
//! record, so stale stats records never outnumber live entries.
//!
//! The record framing (`encode_record`/`decode_record`) is exported for
//! reuse: `res-serve` frames its wire requests/responses with the same
//! length-prefixed checksummed convention under reserved tags, so the
//! daemon's protocol inherits the store's torn/corrupt-detection for
//! free.

mod format;
mod store;

pub use format::{
    decode_record, encode_record, fnv64, parse_magic, Header, Tag, FORMAT_VERSION, MAGIC,
};
pub use store::{
    program_fingerprint, write_atomic, CommitReport, CompactReport, LoadOutcome, LoadReport,
    SolverStore, StoreStats,
};
