//! The store proper: open/validate, absorb, append, commit, compact.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mvm_isa::Program;
use mvm_json::{json_enum, json_struct};
use mvm_symbolic::{
    CanonFp, PortableCache, PortableResult, PortableTable, PortableVerdict, SolverSession,
    UnknownReason,
};
use res_obs::Recorder;

use crate::format::{
    decode_record, encode_record, fnv64, magic_line, parse_magic, Header, Tag, FORMAT_VERSION,
};

/// Fingerprint of a program for the store header: FNV-1a 64 over its
/// canonical (compact) JSON serialization, which `to_string` writes
/// without building a tree. Any change to the program — even a
/// constant — changes the fingerprint, so a store built against an
/// older build is refused rather than half-trusted. Not memoized:
/// `Program`'s fields are public, so a cached value could go stale.
pub fn program_fingerprint(program: &Program) -> u64 {
    fnv64(mvm_json::to_string(program).as_bytes())
}

/// What [`SolverStore::open`] found on disk. Every outcome other than
/// [`Loaded`](LoadOutcome::Loaded) is a *cold start*: the store opens
/// with zero entries and the engine searches exactly as it would with
/// no store at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// A valid store was read (possibly with a skipped torn tail).
    Loaded,
    /// No file at the path; one is created on the first commit.
    Missing,
    /// The file exists but is empty; rewritten on the first commit.
    Empty,
    /// The magic line names a format version this build does not
    /// speak; the file is rewritten fresh on the first commit.
    VersionMismatch,
    /// The magic line or header record is unreadable; rewritten fresh
    /// on the first commit.
    CorruptHeader,
    /// The header is valid but belongs to a *different program*. The
    /// store opens cold **and read-only**: commits are no-ops, so one
    /// program's corpus run can never clobber another program's cache.
    FingerprintMismatch,
}

json_enum!(LoadOutcome {
    Loaded,
    Missing,
    Empty,
    VersionMismatch,
    CorruptHeader,
    FingerprintMismatch
});

/// Everything the reader observed while opening a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// How the on-disk bytes were classified.
    pub outcome: LoadOutcome,
    /// Distinct entries loaded (after supersedure).
    pub entries_loaded: usize,
    /// On-disk entry records shadowed by a later record for the same
    /// fingerprint ([`SolverStore::compact`] reclaims them).
    pub superseded: usize,
    /// Trailing records dropped as torn or corrupted.
    pub records_skipped: usize,
    /// Bytes read from disk.
    pub bytes: u64,
}

impl LoadReport {
    fn cold(outcome: LoadOutcome, bytes: u64) -> Self {
        LoadReport {
            outcome,
            entries_loaded: 0,
            superseded: 0,
            records_skipped: 0,
            bytes,
        }
    }
}

/// The persisted observability block: one `S` record per commit that
/// writes, last one wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Distinct live entries at the last commit.
    pub entries: u64,
    /// File size in bytes at the last commit, excluding the trailing
    /// stats record itself.
    pub bytes: u64,
    /// Cumulative absorbed hits this store has served, reported via
    /// [`SolverStore::note_hits`]. Hits reach the file only with a
    /// commit that appends entries (or a [`SolverStore::compact`]): a
    /// run that learns nothing new leaves the file untouched, and its
    /// hits are not counted here.
    pub absorbed_hits: u64,
    /// Commits over the store's lifetime that wrote the file, i.e.
    /// that appended at least one entry.
    pub commits: u64,
    /// Compaction passes performed.
    pub compactions: u64,
}

json_struct!(StoreStats {
    entries,
    bytes,
    absorbed_hits,
    commits,
    compactions
});

/// What a [`SolverStore::commit`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitReport {
    /// Entry records appended by this commit.
    pub appended: usize,
    /// File size after the commit (excluding the stats record).
    pub bytes: u64,
    /// `true` when the store is read-only (fingerprint mismatch) and
    /// nothing was written.
    pub skipped_read_only: bool,
}

/// What a [`SolverStore::compact`] reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// Superseded entry records dropped.
    pub dropped: usize,
    /// File size before compaction.
    pub bytes_before: u64,
    /// File size after compaction (excluding the stats record).
    pub bytes_after: u64,
    /// `true` when the store is read-only and nothing was rewritten.
    pub skipped_read_only: bool,
}

#[derive(Debug, Clone, PartialEq)]
struct EntryRecord {
    fp: CanonFp,
    result: PortableResult,
}

json_struct!(EntryRecord { fp, result });

/// Decodes an `E` payload that is byte for byte in the form
/// [`EntryRecord`]'s writer produces, without the general JSON reader:
/// `{"fp":{"hi":H,"lo":L},"result":{"verdict":V,"assignments":A}}`,
/// with integers in shortest decimal and `V` one of `"Unsat"`,
/// `{"Sat":[[rank,value],...]}` or `{"Unknown":"<reason>"}`. Any other
/// text, including JSON that means the same record, returns `None`, and
/// the loader decodes it with `mvm_json::from_str` instead, so on what
/// it accepts the scanner only has to agree with that reader.
fn scan_entry(payload: &str) -> Option<EntryRecord> {
    let mut s = Scan(payload.as_bytes());
    s.lit("{\"fp\":{\"hi\":")?;
    let hi = s.u64()?;
    s.lit(",\"lo\":")?;
    let lo = s.u64()?;
    s.lit("},\"result\":{\"verdict\":")?;
    let verdict = if s.lit("\"Unsat\"").is_some() {
        PortableVerdict::Unsat
    } else if s.lit("{\"Unknown\":\"BudgetExhausted\"}").is_some() {
        PortableVerdict::Unknown(UnknownReason::BudgetExhausted)
    } else if s.lit("{\"Unknown\":\"Incomplete\"}").is_some() {
        PortableVerdict::Unknown(UnknownReason::Incomplete)
    } else {
        s.lit("{\"Sat\":[")?;
        // Every pair opens with the only `[` left in the payload.
        let mut pairs = Vec::with_capacity(s.0.iter().filter(|&&b| b == b'[').count());
        if s.lit("]").is_none() {
            loop {
                s.lit("[")?;
                let rank = u32::try_from(s.u64()?).ok()?;
                s.lit(",")?;
                pairs.push((rank, s.u64()?));
                s.lit("]")?;
                if s.lit(",").is_none() {
                    s.lit("]")?;
                    break;
                }
            }
        }
        s.lit("}")?;
        PortableVerdict::Sat(pairs)
    };
    s.lit(",\"assignments\":")?;
    let assignments = s.u64()?;
    s.lit("}}")?;
    s.0.is_empty().then_some(EntryRecord {
        fp: CanonFp(((hi as u128) << 64) | lo as u128),
        result: PortableResult {
            verdict,
            assignments,
        },
    })
}

/// The unread rest of a payload [`scan_entry`] reads.
struct Scan<'a>(&'a [u8]);

impl Scan<'_> {
    /// Consumes `text` if the rest starts with it.
    fn lit(&mut self, text: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(text.as_bytes())?;
        Some(())
    }

    /// Reads an integer written as the writer writes a `u64`: decimal
    /// digits with no leading zero, at most `u64::MAX`.
    fn u64(&mut self) -> Option<u64> {
        let len = self.0.iter().take_while(|b| b.is_ascii_digit()).count();
        let (digits, rest) = self.0.split_at(len);
        if len == 0 || (digits[0] == b'0' && len > 1) {
            return None;
        }
        let n = if len < 20 {
            // At most 19 digits: below 10¹⁹ < 2⁶⁴, so nothing overflows.
            digits
                .iter()
                .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'))
        } else {
            let mut n: u64 = 0;
            for &d in digits {
                n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            }
            n
        };
        self.0 = rest;
        Some(n)
    }
}

/// A persistent, append-only store of renaming-equivariant solver
/// results for one program. See the crate docs for the format and the
/// determinism argument.
///
/// Opening never fails: every problem with the on-disk bytes degrades
/// to a cold start recorded in the [`LoadReport`]. Writing is atomic
/// (tmp file + rename) and append-only; the single expected writer is
/// one engine process at a time, but concurrent *readers* always see
/// either the old or the new complete file.
#[derive(Debug)]
pub struct SolverStore {
    path: PathBuf,
    header: Header,
    /// The entries the file held at open, decoded once and shared with
    /// every session that absorbs the store. Never changed after open,
    /// so a merge copies no table a session holds.
    table: Arc<PortableTable>,
    /// Entries merged since open, none of them in `table`.
    merged: PortableTable,
    /// Entries merged since the last commit, in merge order.
    pending: Vec<(CanonFp, PortableResult)>,
    stats: StoreStats,
    report: LoadReport,
    /// The validated byte prefix of the on-disk file; commits append
    /// to it, dropping any torn tail.
    base: Vec<u8>,
    /// Entry records represented in `base` (for compaction accounting).
    base_entry_records: usize,
    read_only: bool,
    /// Passive observer: open/degraded/commit/compact marks. The caller
    /// hands in an already-scoped recorder (the engine uses
    /// `rec.scoped("store")`), so event names here stay bare. Never
    /// read back by the store.
    recorder: Recorder,
}

impl SolverStore {
    /// Opens (or plans to create) the store at `path` for the program
    /// with fingerprint `program_fp`.
    pub fn open(path: impl Into<PathBuf>, program_fp: u64) -> SolverStore {
        Self::open_with(path, program_fp, Recorder::disabled())
    }

    /// [`open`](Self::open) with a tracing recorder attached. Pass an
    /// already-scoped handle (e.g. `rec.scoped("store")`); the store
    /// emits bare mark names like `open`, `degraded`, `commit`, and
    /// `compact`.
    pub fn open_with(path: impl Into<PathBuf>, program_fp: u64, recorder: Recorder) -> SolverStore {
        let path = path.into();
        let mut store = SolverStore {
            path,
            header: Header::new(program_fp),
            table: Arc::default(),
            merged: PortableTable::default(),
            pending: Vec::new(),
            stats: StoreStats::default(),
            report: LoadReport::cold(LoadOutcome::Missing, 0),
            base: Vec::new(),
            base_entry_records: 0,
            read_only: false,
            recorder,
        };
        store.load(program_fp);
        let report = store.report;
        store.recorder.event_with("open", || {
            vec![
                ("outcome".into(), format!("{:?}", report.outcome)),
                ("entries".into(), report.entries_loaded.to_string()),
                ("superseded".into(), report.superseded.to_string()),
                ("skipped".into(), report.records_skipped.to_string()),
                ("bytes".into(), report.bytes.to_string()),
            ]
        });
        // A degradation is any defect that cost us warm-start entries:
        // every outcome other than a clean load or a simply-absent
        // file, plus any torn/corrupt tail records on an otherwise
        // valid store.
        let degraded = !matches!(report.outcome, LoadOutcome::Loaded | LoadOutcome::Missing)
            || report.records_skipped > 0;
        if degraded {
            store.recorder.event_with("degraded", || {
                vec![
                    ("outcome".into(), format!("{:?}", report.outcome)),
                    ("skipped".into(), report.records_skipped.to_string()),
                ]
            });
        }
        store
    }

    /// Opens a store for inspection without knowing its program: the
    /// header's own fingerprint is trusted, so a valid file always
    /// loads its entries (and never trips the fingerprint-mismatch
    /// guard). Used by the `store-inspect` CLI; engine code must use
    /// [`open`](Self::open) so stores stay bound to their program.
    pub fn open_for_inspection(path: impl Into<PathBuf>) -> SolverStore {
        let path = path.into();
        let fp = Self::peek_fingerprint(&path).unwrap_or(0);
        Self::open(path, fp)
    }

    /// Best-effort read of the program fingerprint in the header of the
    /// file at `path` (`None` when the file is missing, unreadable, or
    /// not a store).
    pub fn peek_fingerprint(path: &Path) -> Option<u64> {
        let raw = std::fs::read(path).ok()?;
        let text = std::str::from_utf8(&raw).ok()?;
        let magic_end = text.find('\n')?;
        parse_magic(&text[..magic_end])?;
        let (line, _) = Self::next_line(text, magic_end + 1)?;
        let (tag, payload) = decode_record(line)?;
        if tag != Tag::Header {
            return None;
        }
        let header: Header = mvm_json::from_str(payload).ok()?;
        Some(header.program_fp)
    }

    fn load(&mut self, program_fp: u64) {
        let mut raw = match std::fs::read(&self.path) {
            Ok(raw) => raw,
            Err(_) => return, // Missing: the default cold report stands.
        };
        let bytes = raw.len() as u64;
        if raw.is_empty() {
            self.report = LoadReport::cold(LoadOutcome::Empty, 0);
            return;
        }
        let Ok(text) = std::str::from_utf8(&raw) else {
            self.report = LoadReport::cold(LoadOutcome::CorruptHeader, bytes);
            return;
        };
        // Magic line.
        let Some(magic_end) = text.find('\n') else {
            self.report = LoadReport::cold(LoadOutcome::CorruptHeader, bytes);
            return;
        };
        match parse_magic(&text[..magic_end]) {
            Some(v) if v == FORMAT_VERSION => {}
            Some(_) => {
                self.report = LoadReport::cold(LoadOutcome::VersionMismatch, bytes);
                return;
            }
            None => {
                self.report = LoadReport::cold(LoadOutcome::CorruptHeader, bytes);
                return;
            }
        }
        // Header record.
        let mut off = magic_end + 1;
        let header: Header = match Self::next_line(text, off)
            .and_then(|(line, _)| decode_record(line))
            .filter(|(tag, _)| *tag == Tag::Header)
            .and_then(|(_, payload)| mvm_json::from_str(payload).ok())
        {
            Some(h) => h,
            None => {
                self.report = LoadReport::cold(LoadOutcome::CorruptHeader, bytes);
                return;
            }
        };
        off = Self::next_line(text, off).map(|(_, end)| end).unwrap();
        if header.format_version != FORMAT_VERSION {
            self.report = LoadReport::cold(LoadOutcome::VersionMismatch, bytes);
            return;
        }
        if header.program_fp != program_fp {
            // Another program's cache: refuse to read AND to write.
            self.report = LoadReport::cold(LoadOutcome::FingerprintMismatch, bytes);
            self.read_only = true;
            return;
        }
        self.header = header;
        // Body records, stopping at the first torn or undecodable one.
        // The writer writes no entry record shorter than 90 bytes (an
        // `Unsat` entry with zero fingerprint and cost), so the table
        // is sized once for the entries of any file it wrote.
        let mut table =
            PortableTable::with_capacity_and_hasher((text.len() - off) / 90, Default::default());
        let mut superseded = 0usize;
        while let Some((line, end)) = Self::next_line(text, off) {
            let parsed = decode_record(line).and_then(|(tag, payload)| match tag {
                Tag::Entry => {
                    let rec = scan_entry(payload).or_else(|| mvm_json::from_str(payload).ok())?;
                    Some(Some(rec))
                }
                Tag::Stats => {
                    self.stats = mvm_json::from_str(payload).ok()?;
                    Some(None)
                }
                // Stray headers and future record kinds are preserved
                // but carry no entries for this build.
                Tag::Header | Tag::Unknown(_) => Some(None),
            });
            match parsed {
                Some(Some(rec)) => {
                    // Append-only supersedure: the later record wins.
                    if table.insert(rec.fp, rec.result).is_some() {
                        superseded += 1;
                    }
                    self.base_entry_records += 1;
                }
                Some(None) => {}
                None => break,
            }
            off = end;
        }
        let records_skipped = text[off..].lines().count();
        // The validated prefix is the file's own buffer, cut short.
        raw.truncate(off);
        self.base = raw;
        self.report = LoadReport {
            outcome: LoadOutcome::Loaded,
            entries_loaded: table.len(),
            superseded,
            records_skipped,
            bytes,
        };
        self.table = Arc::new(table);
    }

    /// The next newline-*terminated* line starting at byte `off`:
    /// `(line without newline, offset past the newline)`. A trailing
    /// fragment with no newline is a torn record and is not returned.
    fn next_line(text: &str, off: usize) -> Option<(&str, usize)> {
        let rest = text.get(off..)?;
        let nl = rest.find('\n')?;
        Some((&rest[..nl], off + nl + 1))
    }

    /// The path the store reads and commits to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What the reader observed at open time.
    pub fn load_report(&self) -> &LoadReport {
        &self.report
    }

    /// The file bytes the next commit keeps and appends after: at open,
    /// every record up to the first torn or undecodable one.
    pub fn validated_prefix(&self) -> &[u8] {
        &self.base
    }

    /// The store header (as loaded, or as it will be written).
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The persisted observability counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Distinct live entries (loaded plus merged since open).
    pub fn len(&self) -> usize {
        self.table.len() + self.merged.len()
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the store refuses writes (fingerprint mismatch).
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// All live entries, in deterministic (fingerprint) order.
    fn sorted_entries(&self) -> Vec<(&CanonFp, &PortableResult)> {
        let mut entries: Vec<_> = self.table.iter().chain(self.merged.iter()).collect();
        entries.sort_unstable_by_key(|(fp, _)| **fp);
        entries
    }

    /// All live entries as a portable cache, in deterministic
    /// (fingerprint) order.
    pub fn to_portable(&self) -> PortableCache {
        PortableCache {
            entries: self
                .sorted_entries()
                .into_iter()
                .map(|(fp, r)| (*fp, r.clone()))
                .collect(),
        }
    }

    /// Absorbs every entry into `session`'s cross-session cache with
    /// store provenance, so the hits they serve are reported as
    /// cross-run ([`mvm_symbolic::SessionStats::store_hits`]), and
    /// returns how many the session did not hold yet. The entries read
    /// at open are shared, not copied, with a session that holds none
    /// of them ([`SolverSession::absorb_shared`]), so an absorb into a
    /// fresh session costs no copy of the file's entries and
    /// re-absorbing the same store between calls is cheap; otherwise
    /// the session clones only the entries it does not hold.
    pub fn absorb_into(&self, session: &SolverSession) -> usize {
        session.absorb_shared(&self.table) + session.absorb_from(self.merged.iter())
    }

    /// Merges a session's portable export, keeping only fingerprints
    /// the store does not already hold. Returns how many entries were
    /// new; they are appended on the next [`commit`](Self::commit).
    pub fn merge(&mut self, export: &PortableCache) -> usize {
        let mut added = 0;
        for (fp, p) in &export.entries {
            if self.table.contains_key(fp) || self.merged.contains_key(fp) {
                continue;
            }
            self.merged.insert(*fp, p.clone());
            self.pending.push((*fp, p.clone()));
            added += 1;
        }
        added
    }

    /// Records absorbed hits served from this store's entries. They are
    /// counted in memory at once and reach the file with the next
    /// commit that appends entries, or with [`compact`](Self::compact);
    /// hits alone never make a commit write.
    pub fn note_hits(&mut self, n: u64) {
        self.stats.absorbed_hits += n;
    }

    /// Persists pending entries (and updated stats) by appending to the
    /// validated prefix and atomically replacing the file. A no-op that
    /// leaves the file untouched when no entry is pending, and always a
    /// no-op on a read-only store.
    pub fn commit(&mut self) -> io::Result<CommitReport> {
        if self.read_only {
            return Ok(CommitReport {
                skipped_read_only: true,
                bytes: self.stats.bytes,
                ..CommitReport::default()
            });
        }
        if self.pending.is_empty() {
            return Ok(CommitReport {
                bytes: self.stats.bytes,
                ..CommitReport::default()
            });
        }
        let mut bytes = if self.base.is_empty() {
            self.fresh_prefix()
        } else {
            self.base.clone()
        };
        let appended = self.pending.len();
        for (fp, result) in &self.pending {
            let rec = EntryRecord {
                fp: *fp,
                result: result.clone(),
            };
            encode_record(Tag::Entry, &mvm_json::to_string(&rec), &mut bytes);
        }
        self.base_entry_records += appended;
        self.stats.entries = self.len() as u64;
        self.stats.bytes = bytes.len() as u64;
        self.stats.commits += 1;
        encode_record(Tag::Stats, &mvm_json::to_string(&self.stats), &mut bytes);
        self.write_atomic(&bytes)?;
        self.base = bytes;
        self.pending.clear();
        self.report.outcome = LoadOutcome::Loaded;
        let stats = self.stats;
        self.recorder.event_with("commit", || {
            vec![
                ("appended".into(), appended.to_string()),
                ("entries".into(), stats.entries.to_string()),
                ("bytes".into(), stats.bytes.to_string()),
            ]
        });
        Ok(CommitReport {
            appended,
            bytes: self.stats.bytes,
            skipped_read_only: false,
        })
    }

    /// Rewrites the store from scratch with one record per live
    /// fingerprint, dropping superseded entries and stale stats blocks.
    pub fn compact(&mut self) -> io::Result<CompactReport> {
        if self.read_only {
            return Ok(CompactReport {
                skipped_read_only: true,
                ..CompactReport::default()
            });
        }
        let bytes_before = self.base.len() as u64;
        let live = self.len();
        let dropped = (self.base_entry_records + self.pending.len()).saturating_sub(live);
        let mut bytes = self.fresh_prefix();
        for (fp, result) in self.sorted_entries() {
            let rec = EntryRecord {
                fp: *fp,
                result: result.clone(),
            };
            encode_record(Tag::Entry, &mvm_json::to_string(&rec), &mut bytes);
        }
        self.stats.entries = live as u64;
        self.stats.bytes = bytes.len() as u64;
        self.stats.compactions += 1;
        encode_record(Tag::Stats, &mvm_json::to_string(&self.stats), &mut bytes);
        self.write_atomic(&bytes)?;
        self.base = bytes;
        self.base_entry_records = live;
        self.pending.clear();
        self.report.outcome = LoadOutcome::Loaded;
        let bytes_after = self.stats.bytes;
        self.recorder.event_with("compact", || {
            vec![
                ("dropped".into(), dropped.to_string()),
                ("bytes_before".into(), bytes_before.to_string()),
                ("bytes_after".into(), bytes_after.to_string()),
            ]
        });
        Ok(CompactReport {
            dropped,
            bytes_before,
            bytes_after: self.stats.bytes,
            skipped_read_only: false,
        })
    }

    fn fresh_prefix(&self) -> Vec<u8> {
        let mut b = format!("{}\n", magic_line()).into_bytes();
        encode_record(Tag::Header, &mvm_json::to_string(&self.header), &mut b);
        b
    }

    fn write_atomic(&self, bytes: &[u8]) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        write_atomic(&self.path, bytes)
    }
}

/// Replaces the file at `path` with `bytes` atomically: the bytes go
/// to a sibling `<path>.tmp` and are synced to disk before the tmp file
/// is renamed over `path`, so a crash leaves either the old or the new
/// complete file, never a torn one. On Unix the parent directory is
/// synced after the rename too, so once this returns the new file
/// survives a crash. The parent directory must already exist.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_symbolic::{PortableVerdict, UnknownReason};

    fn entry(fp: u128, rank_val: u64) -> (CanonFp, PortableResult) {
        (
            CanonFp(fp),
            PortableResult {
                verdict: PortableVerdict::Sat(vec![(0, rank_val)]),
                assignments: rank_val,
            },
        )
    }

    fn cache(entries: Vec<(CanonFp, PortableResult)>) -> PortableCache {
        PortableCache { entries }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("res-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trips_entries_across_opens() {
        let path = tmp_path("roundtrip.resstore");
        let _ = std::fs::remove_file(&path);

        let mut s = SolverStore::open(&path, 7);
        assert_eq!(s.load_report().outcome, LoadOutcome::Missing);
        assert_eq!(s.merge(&cache(vec![entry(1, 10), entry(2, 20)])), 2);
        let report = s.commit().unwrap();
        assert_eq!(report.appended, 2);

        let s2 = SolverStore::open(&path, 7);
        assert_eq!(s2.load_report().outcome, LoadOutcome::Loaded);
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.to_portable().entries, s.to_portable().entries);
        assert_eq!(s2.stats().entries, 2);
        assert_eq!(s2.stats().commits, 1);
    }

    #[test]
    fn appends_accumulate_and_merge_dedups() {
        let path = tmp_path("append.resstore");
        let _ = std::fs::remove_file(&path);

        let mut s = SolverStore::open(&path, 7);
        s.merge(&cache(vec![entry(1, 10)]));
        s.commit().unwrap();

        let mut s2 = SolverStore::open(&path, 7);
        // Re-merging a known fingerprint appends nothing.
        assert_eq!(s2.merge(&cache(vec![entry(1, 10), entry(2, 20)])), 1);
        assert_eq!(s2.commit().unwrap().appended, 1);

        let s3 = SolverStore::open(&path, 7);
        assert_eq!(s3.len(), 2);
        assert_eq!(s3.stats().commits, 2);
    }

    #[test]
    fn superseded_entries_load_last_and_compact_away() {
        let path = tmp_path("compact.resstore");
        let _ = std::fs::remove_file(&path);

        let mut s = SolverStore::open(&path, 7);
        s.merge(&cache(vec![entry(1, 10), entry(2, 20)]));
        s.commit().unwrap();
        // Simulate an append-only supersedure (e.g. two processes
        // racing an append): a second record for fp 1.
        s.pending.push(entry(1, 99));
        s.commit().unwrap();

        let mut s2 = SolverStore::open(&path, 7);
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.load_report().superseded, 1);
        // The later record won.
        let p = s2.to_portable();
        let r1 = &p
            .entries
            .iter()
            .find(|(fp, _)| *fp == CanonFp(1))
            .unwrap()
            .1;
        assert_eq!(r1.assignments, 99);

        let before = std::fs::metadata(&path).unwrap().len();
        let report = s2.compact().unwrap();
        assert_eq!(report.dropped, 1);
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "compaction must shrink the file");

        let s3 = SolverStore::open(&path, 7);
        assert_eq!(s3.len(), 2);
        assert_eq!(s3.load_report().superseded, 0);
        assert_eq!(s3.stats().compactions, 1);
    }

    #[test]
    fn fingerprint_mismatch_is_cold_and_read_only() {
        let path = tmp_path("fpmismatch.resstore");
        let _ = std::fs::remove_file(&path);

        let mut theirs = SolverStore::open(&path, 1111);
        theirs.merge(&cache(vec![entry(1, 10)]));
        theirs.commit().unwrap();
        let original = std::fs::read(&path).unwrap();

        let mut ours = SolverStore::open(&path, 2222);
        assert_eq!(ours.load_report().outcome, LoadOutcome::FingerprintMismatch);
        assert!(ours.is_empty(), "no entries may leak across programs");
        assert!(ours.read_only());
        ours.merge(&cache(vec![entry(9, 90)]));
        ours.note_hits(3);
        assert!(ours.commit().unwrap().skipped_read_only);
        assert!(ours.compact().unwrap().skipped_read_only);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            original,
            "a mismatched store must never be clobbered"
        );
    }

    #[test]
    fn version_mismatch_is_cold_and_rewritten_on_commit() {
        let path = tmp_path("version.resstore");
        std::fs::write(&path, "RES-STORE 99\njunk that is not a record\n").unwrap();

        let mut s = SolverStore::open(&path, 7);
        assert_eq!(s.load_report().outcome, LoadOutcome::VersionMismatch);
        assert!(s.is_empty());
        s.merge(&cache(vec![entry(1, 10)]));
        s.commit().unwrap();

        let s2 = SolverStore::open(&path, 7);
        assert_eq!(s2.load_report().outcome, LoadOutcome::Loaded);
        assert_eq!(s2.len(), 1);
    }

    #[test]
    fn empty_and_garbage_files_are_cold() {
        let empty = tmp_path("empty.resstore");
        std::fs::write(&empty, "").unwrap();
        let s = SolverStore::open(&empty, 7);
        assert_eq!(s.load_report().outcome, LoadOutcome::Empty);

        let garbage = tmp_path("garbage.resstore");
        std::fs::write(&garbage, "not a store at all\nmore junk\n").unwrap();
        let s = SolverStore::open(&garbage, 7);
        assert_eq!(s.load_report().outcome, LoadOutcome::CorruptHeader);
        assert!(s.is_empty());

        let binary = tmp_path("binary.resstore");
        std::fs::write(&binary, [0xffu8, 0xfe, 0x00, 0x01]).unwrap();
        let s = SolverStore::open(&binary, 7);
        assert_eq!(s.load_report().outcome, LoadOutcome::CorruptHeader);
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let path = tmp_path("torn.resstore");
        let _ = std::fs::remove_file(&path);

        let mut s = SolverStore::open(&path, 7);
        s.merge(&cache(vec![entry(1, 10), entry(2, 20)]));
        s.commit().unwrap();

        // Tear the file mid-way through the last record.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 9]).unwrap();

        let s2 = SolverStore::open(&path, 7);
        assert_eq!(s2.load_report().outcome, LoadOutcome::Loaded);
        assert!(s2.len() >= 1, "records before the tear survive");
        assert!(s2.load_report().records_skipped >= 1);

        // A commit over the torn store drops the tail and re-validates.
        let mut s2 = s2;
        s2.merge(&cache(vec![entry(3, 30)]));
        s2.commit().unwrap();
        let s3 = SolverStore::open(&path, 7);
        assert_eq!(s3.load_report().records_skipped, 0);
        assert!(s3.len() >= 2);
    }

    #[test]
    fn corrupted_checksum_drops_the_tail() {
        let path = tmp_path("badcrc.resstore");
        let _ = std::fs::remove_file(&path);

        let mut s = SolverStore::open(&path, 7);
        s.merge(&cache(vec![entry(1, 10), entry(2, 20)]));
        s.commit().unwrap();

        // Flip a byte inside the *second* entry record's payload.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut tampered: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        let victim = 3; // magic, header, entry0, entry1, stats
        tampered[victim] = tampered[victim].replace("\"assignments\":20", "\"assignments\":21");
        std::fs::write(&path, tampered.join("\n") + "\n").unwrap();

        let s2 = SolverStore::open(&path, 7);
        assert_eq!(s2.load_report().outcome, LoadOutcome::Loaded);
        assert_eq!(s2.len(), 1, "only the record before the corruption");
        assert!(s2.load_report().records_skipped >= 1);
    }

    #[test]
    fn hit_only_commits_leave_the_file_untouched() {
        let path = tmp_path("hits.resstore");
        let _ = std::fs::remove_file(&path);

        let mut s = SolverStore::open(&path, 7);
        s.merge(&cache(vec![entry(1, 10)]));
        s.commit().unwrap();
        // Backdate the file so a rewrite would show in its mtime even
        // within the clock's granularity.
        let old = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(old)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();

        let mut s2 = SolverStore::open(&path, 7);
        s2.note_hits(5);
        assert_eq!(s2.merge(&cache(vec![entry(1, 10)])), 0, "nothing new");
        let report = s2.commit().unwrap();
        assert_eq!(report.appended, 0);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "bytes unchanged");
        assert_eq!(
            std::fs::metadata(&path).unwrap().modified().unwrap(),
            old,
            "a hit-only commit must not rewrite the file"
        );
        assert_eq!(s2.stats().absorbed_hits, 5, "hits still count in memory");
        assert_eq!(SolverStore::open(&path, 7).stats().absorbed_hits, 0);

        // The next commit that appends entries carries the hits along.
        s2.note_hits(2);
        s2.merge(&cache(vec![entry(2, 20)]));
        assert_eq!(s2.commit().unwrap().appended, 1);
        let s3 = SolverStore::open(&path, 7);
        assert_eq!(s3.stats().absorbed_hits, 7);
        assert_eq!(s3.stats().commits, 2, "only writing commits count");
    }

    #[test]
    fn the_scanner_reads_every_verdict_the_writer_writes() {
        let verdicts = [
            PortableVerdict::Sat(vec![(0, 0), (1, u64::MAX), (u32::MAX, 7)]),
            PortableVerdict::Sat(Vec::new()),
            PortableVerdict::Unsat,
            PortableVerdict::Unknown(UnknownReason::BudgetExhausted),
            PortableVerdict::Unknown(UnknownReason::Incomplete),
        ];
        for (i, verdict) in verdicts.into_iter().enumerate() {
            let rec = EntryRecord {
                fp: CanonFp(u128::MAX - i as u128),
                result: PortableResult {
                    verdict,
                    assignments: [0, 9, u64::MAX][i % 3],
                },
            };
            let text = mvm_json::to_string(&rec);
            assert_eq!(scan_entry(&text), Some(rec), "{text}");
            assert_eq!(scan_entry(&format!("{text} ")), None, "trailing text");
        }
    }

    #[test]
    fn unknown_verdicts_round_trip_too() {
        let path = tmp_path("unknown.resstore");
        let _ = std::fs::remove_file(&path);

        let mut s = SolverStore::open(&path, 7);
        s.merge(&cache(vec![(
            CanonFp(5),
            PortableResult {
                verdict: PortableVerdict::Unknown(UnknownReason::Incomplete),
                assignments: 0,
            },
        )]));
        s.commit().unwrap();
        let s2 = SolverStore::open(&path, 7);
        assert_eq!(s2.to_portable().entries, s.to_portable().entries);
    }
}
