//! The durability-protocol spec: **one** declarative rule table encoding
//! the commit protocols `docs/GUARANTEES.md` promises (manifest commit:
//! write tmp → fdatasync → rename → dir-fsync; commit-log append: frame
//! write → log fsync → ack; `CLEAN` unlink → dir-fsync; no block write
//! under a durable `CLEAN` marker), consumed by two cooperating
//! checkers:
//!
//! * the **static pass** `cargo run -p xtask -- lint-durability`, which
//!   classifies every I/O-effectful call site on the real persistence
//!   paths into [`EffectClass`]es and rejects orderings the table
//!   forbids (`xtask/src/lint_durability.rs`), and
//! * the **trace automaton** [`check_trace`], which validates the
//!   `SimDisk` [`IoEvent`] stream of every torture/service crash sweep
//!   against the same rules — conformance of the *observed* I/O, closing
//!   the gap between what the lint approves and what the code emits.
//!
//! Each rule says which layers can see it (`lint`/`trace`): ack cells
//! and directory fsyncs are source-level constructs invisible in the
//! simulator's event vocabulary (simulated metadata ops are atomic and
//! durable at their clock index), while the marker/write interleaving is
//! a runtime ordering no intraprocedural scan can prove. The coverage
//! matrix lives in `docs/DURABILITY.md`.

use std::collections::{HashMap, HashSet};

use dxh_extmem::IoEvent;

/// The ordered effect classes every I/O-effectful call site on a
/// persistence path falls into. The protocol rules ([`RULES`]) are
/// orderings over these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EffectClass {
    /// A buffered write toward durable media: `write_all`, `fs::write`,
    /// `set_len`, `File::create`, an `H0` flush. Cheap, reorderable,
    /// durable only after a later fsync-class effect.
    VolatileWrite,
    /// A file-content fsync: `sync_data` (or a disk `flush()` that
    /// issues one). Makes every prior [`EffectClass::VolatileWrite`] to
    /// that file durable.
    DataFsync,
    /// `fs::rename` — the atomic swap at the heart of the manifest
    /// commit.
    Rename,
    /// A directory fsync (`sync_dir`): makes a rename or unlink's
    /// directory entry itself durable.
    DirFsync,
    /// An unlink whose **loss would be misread at recovery** (the
    /// `CLEAN` marker; a discarded sealed log segment) — unlike the
    /// best-effort stray-file removals, it owes a following dir-fsync.
    MetaUnlink,
    /// An acknowledgement release: filling a parked writer's answer
    /// cell with `Ok` (`*cell = Some(Ok(..))`). The caller treats it as
    /// a durability promise, so it must follow the round's fsync.
    AckRelease,
    /// A manifest-delta append (`append_manifest_delta`): an
    /// *incremental* index commit point. Like a full manifest rename it
    /// makes index state durable and recovery-visible, so every data
    /// byte the delta's regions reference must be fdatasync'd first.
    DeltaAppend,
}

impl EffectClass {
    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            EffectClass::VolatileWrite => "VolatileWrite",
            EffectClass::DataFsync => "DataFsync",
            EffectClass::Rename => "Rename",
            EffectClass::DirFsync => "DirFsync",
            EffectClass::MetaUnlink => "MetaUnlink",
            EffectClass::AckRelease => "AckRelease",
            EffectClass::DeltaAppend => "DeltaAppend",
        }
    }
}

/// What a [`Rule`] demands around its anchor effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// The nearest *write-class* effect (volatile write or data fsync)
    /// before each anchor must be the given class — e.g. a `Rename`
    /// must not have a bare `VolatileWrite` as its closest predecessor.
    /// An anchor with no prior write-class effect in its path is
    /// vacuously ordered (nothing volatile can be swapped past it).
    Preceded(EffectClass),
    /// Every anchor must be followed by an effect of the given class
    /// before its function's effect sequence ends.
    Followed(EffectClass),
    /// Trace-only: no block write to a store's data file may happen
    /// while that store's `CLEAN` marker is durably present — the
    /// clean→dirty transition must unlink the marker first (G3).
    NoWriteUnderCleanMarker,
    /// Lint-only: the `Result` of an fsync/rename-class call must not
    /// be discarded with `let _ =` or `.ok()` — a swallowed sync error
    /// is an unkept durability promise. The single sanctioned sink is
    /// `dxh_core`'s `best_effort()` (documented per site).
    NoDiscardedSyncResult,
    /// Trace-only: at each manifest commit, the store's blob log must
    /// have no unsynced appends — the index words the manifest commits
    /// may reference blob offsets, so the payload bytes must be durable
    /// first (G8).
    BlobSyncedAtCommit,
}

/// One protocol rule: an anchor effect class, the ordering it demands,
/// and which checker layers can observe it.
#[derive(Debug)]
pub struct Rule {
    /// Stable rule id, quoted in every lint report and trace violation.
    pub name: &'static str,
    /// The effect class the rule anchors on.
    pub anchor: EffectClass,
    /// The ordering demanded around each anchor.
    pub check: Check,
    /// Enforced by the static source pass.
    pub lint: bool,
    /// Enforced by the runtime trace automaton.
    pub trace: bool,
    /// The documented guarantee the rule encodes.
    pub why: &'static str,
}

/// The durability-protocol rule table — the single spec both checker
/// layers compile. Every entry is proven fireable by a seeded mutant in
/// the test suites (`xtask` for the lint layer, this crate for the
/// trace layer).
pub const RULES: &[Rule] = &[
    Rule {
        name: "rename-after-data-fsync",
        anchor: EffectClass::Rename,
        check: Check::Preceded(EffectClass::DataFsync),
        lint: true,
        trace: true,
        why: "the manifest rename is the commit point; the data it references must be \
              fdatasync'd first or a durable manifest could name unwritten data (G1)",
    },
    Rule {
        name: "rename-then-dir-fsync",
        anchor: EffectClass::Rename,
        check: Check::Followed(EffectClass::DirFsync),
        lint: true,
        trace: false, // sim metadata ops are atomic-durable; no dirent event exists
        why: "rename(2) is durable only once the directory entry is; without the dir \
              fsync a power loss can resurrect the old manifest (G1)",
    },
    Rule {
        name: "ack-after-fsync",
        anchor: EffectClass::AckRelease,
        check: Check::Preceded(EffectClass::DataFsync),
        lint: true,
        trace: false, // ack-cell fills are not I/O events
        why: "an acknowledged write is durable (G5/G7): the answer cell may be filled \
              only after the round's log fsync or the shard's manifest commit",
    },
    Rule {
        name: "clean-unlink-then-dir-fsync",
        anchor: EffectClass::MetaUnlink,
        check: Check::Followed(EffectClass::DirFsync),
        lint: true,
        trace: false, // sim meta-remove is atomic-durable at its clock index
        why: "a resurrected CLEAN marker (or sealed log segment) would make recovery \
              trust state the crash diverged from (G3)",
    },
    Rule {
        name: "no-write-under-clean-marker",
        anchor: EffectClass::VolatileWrite,
        check: Check::NoWriteUnderCleanMarker,
        lint: false, // marker state is runtime state; no intraprocedural scan sees it
        trace: true,
        why: "the CLEAN unlink must be durable before the first post-sync block write, \
              or a crash masquerades as a clean shutdown (G3)",
    },
    Rule {
        name: "blob-sync-before-index-commit",
        anchor: EffectClass::Rename,
        check: Check::BlobSyncedAtCommit,
        lint: false, // cross-file ordering through runtime state; the lint
        // sees the choke points (`.blob_append(`/`.blob_sync(`) as
        // ordinary write/fsync sites instead
        trace: true,
        why: "the manifest commits index words that may point into the blob log; a \
              durable index referencing unsynced payload bytes would serve torn or \
              missing payloads after a crash (G8)",
    },
    Rule {
        name: "delta-append-after-data-fsync",
        anchor: EffectClass::DeltaAppend,
        check: Check::Preceded(EffectClass::DataFsync),
        lint: true,
        trace: true,
        why: "a manifest-delta append is an incremental commit point: the level regions \
              it records must be fdatasync'd first, or a durable delta could name \
              unwritten data — the delta twin of rename-after-data-fsync (G1)",
    },
    Rule {
        name: "no-discarded-sync-result",
        anchor: EffectClass::DataFsync,
        check: Check::NoDiscardedSyncResult,
        lint: true,
        trace: false,
        why: "a swallowed fsync/rename error is an unkept durability promise; route \
              deliberate best-effort syncs through the documented best_effort() sink",
    },
];

/// Looks a rule up by name (panics on a typo — the table is static).
pub fn rule(name: &str) -> &'static Rule {
    RULES.iter().find(|r| r.name == name).unwrap_or_else(|| panic!("unknown rule {name:?}"))
}

/// Source tokens the static pass classifies into effect classes, in
/// match-priority order (longest/most specific first). `.sync_all(` is
/// [`EffectClass::DataFsync`] by default and reclassified as
/// [`EffectClass::DirFsync`] inside the functions named by
/// [`DIR_FSYNC_FNS`] (fsyncing an opened *directory* handle).
pub const SINKS: &[(&str, EffectClass)] = &[
    (".write_all(", EffectClass::VolatileWrite),
    // Positioned writes (`FileExt::write_all_at`): the block backend's
    // and blob file's write path.
    (".write_all_at(", EffectClass::VolatileWrite),
    ("fs::write(", EffectClass::VolatileWrite),
    ("writeln!(", EffectClass::VolatileWrite),
    (".set_len(", EffectClass::VolatileWrite),
    ("File::create(", EffectClass::VolatileWrite),
    (".flush_memory(", EffectClass::VolatileWrite),
    // The store's blob choke points (dot-prefixed so the `fn
    // blob_append(` definition lines don't match): every payload byte
    // enters through the first and becomes durable through the second.
    (".blob_append(", EffectClass::VolatileWrite),
    (".blob_sync(", EffectClass::DataFsync),
    (".sync_data(", EffectClass::DataFsync),
    (".flush()", EffectClass::DataFsync),
    (".sync_all(", EffectClass::DataFsync),
    ("fs::rename(", EffectClass::Rename),
    // The incremental commit choke point (dot-prefixed so the `fn
    // append_manifest_delta(` definition lines don't match).
    (".append_manifest_delta(", EffectClass::DeltaAppend),
];

/// Functions whose `sync_all` targets an opened **directory** handle:
/// their fsync is a [`EffectClass::DirFsync`], not a data fsync.
pub const DIR_FSYNC_FNS: &[&str] = &["sync_dir"];

/// `remove_file` sites whose argument mentions one of these are
/// [`EffectClass::MetaUnlink`] (recovery-visible metadata); all other
/// unlinks are the documented best-effort stray cleanups (re-run by the
/// next recovery) and carry no ordering obligation.
pub const META_UNLINK_MARKERS: &[&str] = &["CLEAN", "COMMITLOG_OLD"];

/// The source pattern of an acknowledgement release (an answer-cell
/// fill with `Ok`); `Some(Err(..))` fills (wedging) are failures, not
/// acks, and carry no durability promise.
pub const ACK_FILL: &str = "= Some(Ok(";

/// Call tokens whose `Result` is sync-class for
/// `no-discarded-sync-result`: discarding one with `let _ =` / `.ok()`
/// silently drops a durability failure.
pub const SYNC_RESULT_TOKENS: &[&str] = &[
    ".sync()",
    ".sync_all(",
    ".sync_data(",
    ".harden",
    ".commit(",
    ".truncate()",
    ".seal()",
    ".discard_sealed()",
    "fs::rename(",
    "commit_file_atomic(",
    "sync_dir(",
    "clear_clean_marker(",
    ".blob_sync(",
    ".append_manifest_delta(",
];

/// One conformance violation found in an I/O trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceViolation {
    /// Index of the offending event in the checked trace.
    pub at: usize,
    /// Name of the violated [`Rule`].
    pub rule: &'static str,
    /// Human-readable description (file names, state).
    pub what: String,
}

impl std::fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {}: [{}] {}", self.at, self.rule, self.what)
    }
}

/// Whether `name` is a store data file (any generation) — mirrors the
/// store layer's naming scheme (`store.blk`, `store.N.blk`).
fn is_data_file(name: &str) -> bool {
    name.starts_with("store") && name.ends_with(".blk")
}

/// Whether `name` is a store blob log (any generation) — mirrors the
/// store layer's naming scheme (`store.blob`, `store.N.blob`).
fn is_blob_file(name: &str) -> bool {
    name.starts_with("store") && name.ends_with(".blob")
}

/// Splits a simulated file name into `(store prefix, local name)` at
/// the last `/` — `"shard-002/MANIFEST"` → `("shard-002/", "MANIFEST")`,
/// `"store.blk"` → `("", "store.blk")`.
fn split_name(name: &str) -> (&str, &str) {
    match name.rfind('/') {
        Some(i) => name.split_at(i + 1),
        None => ("", name),
    }
}

/// Splits a [`IoEvent::Meta`] label into `(op, name)` — e.g.
/// `"meta-write shard-000/MANIFEST"` → `("meta-write", "shard-000/MANIFEST")`.
fn split_label(label: &str) -> (&str, &str) {
    match label.split_once(' ') {
        Some((op, name)) => (op, name),
        None => (label, ""),
    }
}

/// The trace automaton: validates a `SimDisk` [`IoEvent`] stream
/// against every trace-enabled rule of [`RULES`]. Returns every
/// violation found (empty = conformant).
///
/// State tracked per store prefix (the simulated twin of a store
/// directory): the **current data file** (the last one created or
/// opened — an interrupted compaction's abandoned generation carries no
/// obligations once superseded), its unsynced-write count, and whether
/// the `CLEAN` marker is durably present. Every check fires *at its
/// anchor event*, never at end-of-trace, so a crash-truncated trace can
/// never false-positive — exactly the property the crash sweeps need.
pub fn check_trace(events: &[IoEvent]) -> Vec<TraceViolation> {
    let r1 = rule("rename-after-data-fsync").trace;
    let r5 = rule("no-write-under-clean-marker").trace;
    let r7 = rule("blob-sync-before-index-commit").trace;
    let r8 = rule("delta-append-after-data-fsync").trace;
    let mut out = Vec::new();
    // Unsynced write count per file (block writes and blob appends
    // alike — both land in the same `Write`/`Sync` event vocabulary).
    let mut unsynced: HashMap<&str, u64> = HashMap::new();
    // The current (latest created/opened) data file per store prefix.
    let mut current_data: HashMap<&str, &str> = HashMap::new();
    // The current blob log per store prefix (payload-mode stores only).
    let mut current_blob: HashMap<&str, &str> = HashMap::new();
    // Store prefixes whose CLEAN marker is durably present.
    let mut clean: HashSet<&str> = HashSet::new();

    for (at, ev) in events.iter().enumerate() {
        match ev {
            IoEvent::Write { file, .. } => {
                let (prefix, local) = split_name(file);
                if r5 && (is_data_file(local) || is_blob_file(local)) && clean.contains(prefix) {
                    out.push(TraceViolation {
                        at,
                        rule: "no-write-under-clean-marker",
                        what: format!(
                            "write to {file} while {prefix}CLEAN is durably present — \
                             the clean→dirty transition must unlink the marker first"
                        ),
                    });
                }
                *unsynced.entry(file).or_insert(0) += 1;
            }
            IoEvent::Sync { file, .. } => {
                unsynced.insert(file, 0);
            }
            IoEvent::Read { .. } | IoEvent::Alloc { .. } | IoEvent::Free { .. } => {}
            IoEvent::Meta { label, .. } => {
                let (op, name) = split_label(label);
                let (prefix, local) = split_name(name);
                match op {
                    "power-cycle" => {
                        // The write-back overlay is gone: whatever of it
                        // the crash lottery kept was recorded before the
                        // cycle; the reopening process starts clean.
                        unsynced.clear();
                    }
                    "meta-write" if local == "MANIFEST" => {
                        if r1 {
                            if let Some(&data) = current_data.get(prefix) {
                                let pending = unsynced.get(data).copied().unwrap_or(0);
                                if pending > 0 {
                                    out.push(TraceViolation {
                                        at,
                                        rule: "rename-after-data-fsync",
                                        what: format!(
                                            "manifest commit {name} while {data} has {pending} \
                                             unsynced block write(s) — the data fsync must \
                                             precede the commit point"
                                        ),
                                    });
                                }
                            }
                        }
                        if r7 {
                            if let Some(&blob) = current_blob.get(prefix) {
                                let pending = unsynced.get(blob).copied().unwrap_or(0);
                                if pending > 0 {
                                    out.push(TraceViolation {
                                        at,
                                        rule: "blob-sync-before-index-commit",
                                        what: format!(
                                            "manifest commit {name} while {blob} has {pending} \
                                             unsynced blob append(s) — the payload fdatasync \
                                             must precede the index commit point"
                                        ),
                                    });
                                }
                            }
                        }
                    }
                    "meta-write" if local == "MANIFEST.DELTA" => {
                        // A delta append is an incremental index commit:
                        // the same data- and blob-sync obligations gate
                        // it as gate the full manifest commit above.
                        if r8 {
                            if let Some(&data) = current_data.get(prefix) {
                                let pending = unsynced.get(data).copied().unwrap_or(0);
                                if pending > 0 {
                                    out.push(TraceViolation {
                                        at,
                                        rule: "delta-append-after-data-fsync",
                                        what: format!(
                                            "manifest-delta append {name} while {data} has \
                                             {pending} unsynced block write(s) — the data fsync \
                                             must precede the incremental commit point"
                                        ),
                                    });
                                }
                            }
                        }
                        if r7 {
                            if let Some(&blob) = current_blob.get(prefix) {
                                let pending = unsynced.get(blob).copied().unwrap_or(0);
                                if pending > 0 {
                                    out.push(TraceViolation {
                                        at,
                                        rule: "blob-sync-before-index-commit",
                                        what: format!(
                                            "manifest-delta append {name} while {blob} has \
                                             {pending} unsynced blob append(s) — the payload \
                                             fdatasync must precede the index commit point"
                                        ),
                                    });
                                }
                            }
                        }
                    }
                    "meta-write" if local == "CLEAN" => {
                        clean.insert(prefix);
                    }
                    "meta-remove" if local == "CLEAN" => {
                        clean.remove(prefix);
                    }
                    "file-create" => {
                        unsynced.insert(name, 0);
                        if is_data_file(local) {
                            current_data.insert(prefix, name);
                        }
                        if is_blob_file(local) {
                            current_blob.insert(prefix, name);
                        }
                    }
                    "file-open" if is_data_file(local) => {
                        current_data.insert(prefix, name);
                    }
                    "file-open" if is_blob_file(local) => {
                        current_blob.insert(prefix, name);
                    }
                    "file-remove" => {
                        unsynced.remove(name.trim());
                        if current_data.get(prefix) == Some(&name) {
                            current_data.remove(prefix);
                        }
                        if current_blob.get(prefix) == Some(&name) {
                            current_blob.remove(prefix);
                        }
                    }
                    "blob-truncate" => {
                        // Recovery (or open) discarded the unsynced
                        // tail: the appends it covered no longer exist,
                        // so they owe no sync before the next commit.
                        unsynced.insert(name, 0);
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxh_extmem::SimEnv;

    fn meta(label: &str) -> IoEvent {
        IoEvent::Meta { label: label.into(), fingerprint: 0 }
    }

    fn write(file: &str) -> IoEvent {
        IoEvent::Write { file: file.into(), id: 0, fingerprint: 0 }
    }

    fn sync(file: &str) -> IoEvent {
        IoEvent::Sync { file: file.into(), flushed: 1 }
    }

    #[test]
    fn every_trace_rule_is_implemented_by_the_automaton() {
        // The automaton hand-implements the trace layer; this pins the
        // table to it so a new trace-enabled rule cannot silently no-op.
        let implemented = [
            "rename-after-data-fsync",
            "no-write-under-clean-marker",
            "blob-sync-before-index-commit",
            "delta-append-after-data-fsync",
        ];
        for r in RULES.iter().filter(|r| r.trace) {
            assert!(implemented.contains(&r.name), "rule {} has no automaton arm", r.name);
        }
        // And the implemented rules really are trace-enabled.
        for name in implemented {
            assert!(rule(name).trace, "{name} lost its trace flag");
        }
    }

    /// Every write spelling the persistence code uses is a classified
    /// volatile-write sink, positioned writes included, and no token is
    /// listed twice.
    #[test]
    fn write_spellings_are_volatile_write_sinks() {
        let class_of = |tok: &str| SINKS.iter().find(|(t, _)| *t == tok).map(|&(_, c)| c);
        for tok in [".write_all(", ".write_all_at(", ".set_len(", ".blob_append("] {
            assert_eq!(class_of(tok), Some(EffectClass::VolatileWrite), "{tok}");
        }
        for (i, (a, _)) in SINKS.iter().enumerate() {
            assert!(SINKS[i + 1..].iter().all(|(b, _)| a != b), "duplicate sink {a}");
        }
    }

    #[test]
    fn every_rule_names_a_distinct_id_and_a_layer() {
        for (i, a) in RULES.iter().enumerate() {
            assert!(a.lint || a.trace, "rule {} is enforced by no layer", a.name);
            for b in &RULES[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate rule id");
            }
        }
    }

    #[test]
    fn conformant_commit_sequence_passes() {
        let events = vec![
            meta("file-create store.blk"),
            write("store.blk"),
            write("store.blk"),
            sync("store.blk"),
            meta("meta-write MANIFEST"),
            meta("meta-write CLEAN"),
        ];
        assert_eq!(check_trace(&events), vec![]);
    }

    /// Seeded mutant: manifest commit with the data fsync dropped.
    #[test]
    fn rename_before_fsync_mutant_is_caught() {
        let events =
            vec![meta("file-create store.blk"), write("store.blk"), meta("meta-write MANIFEST")];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "rename-after-data-fsync");
        assert_eq!(v[0].at, 2);
    }

    /// Seeded mutant: block write with the CLEAN unlink skipped.
    #[test]
    fn write_under_clean_marker_mutant_is_caught() {
        let events = vec![
            meta("file-create shard-000/store.blk"),
            sync("shard-000/store.blk"),
            meta("meta-write shard-000/MANIFEST"),
            meta("meta-write shard-000/CLEAN"),
            write("shard-000/store.blk"),
        ];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-write-under-clean-marker");
        assert_eq!(v[0].at, 4);
    }

    /// Seeded mutant: index commit with the blob fdatasync dropped. A
    /// manifest pointing at payload bytes still in the page cache would
    /// resurrect dangling index entries after a crash.
    #[test]
    fn index_commit_before_blob_sync_mutant_is_caught() {
        let events =
            vec![meta("file-create store.blob"), write("store.blob"), meta("meta-write MANIFEST")];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "blob-sync-before-index-commit");
        assert_eq!(v[0].at, 2);
        // With the sync in place the same sequence is conformant.
        let events = vec![
            meta("file-create store.blob"),
            write("store.blob"),
            sync("store.blob"),
            meta("meta-write MANIFEST"),
        ];
        assert_eq!(check_trace(&events), vec![]);
    }

    /// Seeded mutant: manifest-delta append with the data fsync
    /// dropped — the delta is an incremental commit point and owes the
    /// same preceding fsync as the full rename.
    #[test]
    fn delta_append_before_fsync_mutant_is_caught() {
        let events = vec![
            meta("file-create store.blk"),
            write("store.blk"),
            meta("meta-write MANIFEST.DELTA"),
        ];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "delta-append-after-data-fsync");
        assert_eq!(v[0].at, 2);
        // With the sync in place the same sequence is conformant.
        let events = vec![
            meta("file-create store.blk"),
            write("store.blk"),
            sync("store.blk"),
            meta("meta-write MANIFEST.DELTA"),
        ];
        assert_eq!(check_trace(&events), vec![]);
    }

    /// Seeded mutant: a delta append is an *index commit* — unsynced
    /// blob appends gate it exactly as they gate the full manifest.
    #[test]
    fn delta_append_before_blob_sync_mutant_is_caught() {
        let events = vec![
            meta("file-create store.blob"),
            write("store.blob"),
            meta("meta-write MANIFEST.DELTA"),
        ];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "blob-sync-before-index-commit");
        assert_eq!(v[0].at, 2);
    }

    /// The delta arm scopes per store prefix like every other rule: a
    /// sibling shard's unsynced writes do not indict this shard's delta.
    #[test]
    fn delta_append_scope_is_per_store_prefix() {
        let events = vec![
            meta("file-create shard-000/store.blk"),
            write("shard-000/store.blk"),
            meta("file-create shard-001/store.blk"),
            write("shard-001/store.blk"),
            sync("shard-001/store.blk"),
            meta("meta-write shard-001/MANIFEST.DELTA"),
        ];
        assert_eq!(check_trace(&events), vec![]);
    }

    /// Recovery's tail truncation discharges the sync obligation: the
    /// torn appends it drops no longer gate the next commit.
    #[test]
    fn blob_truncate_discharges_unsynced_appends() {
        let events = vec![
            meta("file-open store.blob"),
            write("store.blob"),
            meta("blob-truncate store.blob"),
            meta("meta-write MANIFEST"),
        ];
        assert_eq!(check_trace(&events), vec![]);
    }

    /// Seeded mutant: blob append with the CLEAN unlink skipped — the
    /// marker rule covers the payload log like any data file.
    #[test]
    fn blob_write_under_clean_marker_mutant_is_caught() {
        let events = vec![
            meta("file-create shard-000/store.blob"),
            sync("shard-000/store.blob"),
            meta("meta-write shard-000/CLEAN"),
            write("shard-000/store.blob"),
        ];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-write-under-clean-marker");
        assert_eq!(v[0].at, 3);
    }

    /// The marker-scoped rule is per store: a sibling shard's marker
    /// does not indict this shard's writes.
    #[test]
    fn clean_marker_scope_is_per_store_prefix() {
        let events = vec![
            meta("meta-write shard-000/CLEAN"),
            meta("file-create shard-001/store.blk"),
            write("shard-001/store.blk"),
        ];
        assert_eq!(check_trace(&events), vec![]);
        let events = vec![
            meta("meta-write shard-000/CLEAN"),
            meta("meta-remove shard-000/CLEAN"),
            meta("file-create shard-000/store.blk"),
            write("shard-000/store.blk"),
        ];
        assert_eq!(check_trace(&events), vec![]);
    }

    /// An interrupted compaction's superseded generation carries no
    /// obligation: only the *current* data file gates the manifest.
    #[test]
    fn superseded_generation_does_not_block_the_commit() {
        let events = vec![
            meta("file-create store.blk"),
            write("store.blk"), // old generation: unsynced in-place merge
            meta("file-create store.1.blk"),
            write("store.1.blk"),
            sync("store.1.blk"),
            meta("meta-write MANIFEST"), // references store.1.blk — fine
        ];
        assert_eq!(check_trace(&events), vec![]);
    }

    /// A power cycle drops the overlay: the next process's manifest
    /// commit is not indicted by pre-crash unsynced writes.
    #[test]
    fn power_cycle_resets_unsynced_state() {
        let events = vec![
            meta("file-create store.blk"),
            write("store.blk"),
            meta("power-cycle"),
            meta("file-open store.blk"),
            meta("meta-write MANIFEST"),
        ];
        assert_eq!(check_trace(&events), vec![]);
    }

    /// End-of-trace is never an anchor: a crash-truncated trace (writes
    /// in flight, no manifest yet) is conformant.
    #[test]
    fn truncated_trace_has_no_end_obligations() {
        let events = vec![meta("file-create store.blk"), write("store.blk"), write("store.blk")];
        assert_eq!(check_trace(&events), vec![]);
    }

    /// The automaton accepts a real store lifecycle end to end: create,
    /// write, sync, reopen — driven through an actual [`SimEnv`], not
    /// synthetic events.
    #[test]
    fn real_sim_disk_lifecycle_is_conformant() {
        let env = SimEnv::new();
        env.set_tracing(true);
        let mut disk = env.create_disk("store.blk", 4).unwrap();
        use dxh_extmem::{Block, StorageBackend};
        let id = disk.allocate().unwrap();
        let mut b = Block::new(4);
        b.push(dxh_extmem::Item { key: 1, value: 2 }).unwrap();
        disk.write(id, &b).unwrap();
        env.meta_write("MANIFEST", b"...").unwrap(); // BEFORE the sync: must fire
        disk.sync().unwrap();
        env.meta_write("MANIFEST", b"...").unwrap(); // after: conformant
        let trace = env.take_trace();
        let v = check_trace(&trace);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "rename-after-data-fsync");
    }
}
