//! The run journal: per-job checkpoint state for `repro --resume`, the
//! sweep runner and the `serve` daemon.
//!
//! `repro` records every artefact's lifecycle
//! (`pending → running → done | failed`) in a single JSON journal,
//! written atomically (temp file + rename) on every transition. A run
//! that is killed mid-flight — including `SIGKILL`, which allows no
//! cleanup — therefore leaves a journal in which completed artefacts
//! are `done` and interrupted ones are still `running`. `repro --resume` reloads it, skips the completed
//! artefacts (their JSON files are already on disk — they are written
//! *before* the `done` transition), and re-queues the rest.
//!
//! The journal embeds a fingerprint of the run configuration (fidelity,
//! artefact selection, injection). Resuming under a different
//! configuration would silently mix incompatible results, so a
//! mismatch is a usage error, not a warning.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use darksil_json::{Json, ToJson};
use darksil_robust::DarksilError;

/// Journal schema marker; bump when the layout changes.
pub const JOURNAL_SCHEMA: &str = "darksil-journal-v1";

/// Where `repro` keeps the journal by default.
pub const DEFAULT_JOURNAL_PATH: &str = "results/run_journal.json";

/// One artefact's position in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtefactState {
    /// Not yet started.
    Pending,
    /// Started but not finished — after a crash this means
    /// "interrupted, re-run me".
    Running,
    /// Finished successfully.
    Done,
    /// Exhausted its supervision policy without producing a result.
    Failed,
}

impl ArtefactState {
    /// Stable lowercase label used in the journal file.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Pending => "pending",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed => "failed",
        }
    }

    /// Parses a label back; `None` for unknown strings. Older journals
    /// may hold `"degraded"` (a retired reduced-accuracy outcome); it
    /// loads as `Running`, so a resume re-runs that entry in full.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "pending" => Some(Self::Pending),
            "running" | "degraded" => Some(Self::Running),
            "done" => Some(Self::Done),
            "failed" => Some(Self::Failed),
            _ => None,
        }
    }
}

/// One artefact's journal record.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Artefact name (`table1`, `fig5`, …).
    pub name: String,
    /// Current lifecycle state.
    pub state: ArtefactState,
    /// The final error, for `failed` artefacts.
    pub error: Option<String>,
    /// Supervision attempt timeline (one object per attempt, as
    /// produced by [`AttemptRecord`](crate::AttemptRecord)).
    pub attempts: Vec<Json>,
    /// Wall-clock seconds across all attempts (0 until finished).
    pub seconds: f64,
}

impl ToJson for JournalEntry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            (
                "state".to_string(),
                Json::Str(self.state.label().to_string()),
            ),
        ];
        if let Some(error) = &self.error {
            fields.push(("error".to_string(), Json::Str(error.clone())));
        }
        if !self.attempts.is_empty() {
            fields.push(("attempts".to_string(), Json::Arr(self.attempts.clone())));
        }
        fields.push(("seconds".to_string(), Json::Num(self.seconds)));
        Json::Obj(fields)
    }
}

/// Aggregate journal counters, for exit-code decisions and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalCounts {
    /// Artefacts finished successfully.
    pub done: usize,
    /// Artefacts that exhausted their policy.
    pub failed: usize,
    /// Artefacts still pending or interrupted mid-run.
    pub unfinished: usize,
}

/// The journal: shared across worker threads, persisted atomically on
/// every transition. All mutation happens under one internal lock, so
/// concurrent workers serialise their saves and the on-disk file is
/// always a complete, valid snapshot.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    config: Json,
    entries: Mutex<Vec<JournalEntry>>,
}

impl Journal {
    /// A fresh journal at `path` covering `names`, all `pending`, with
    /// the given run-configuration fingerprint. Nothing is written
    /// until [`save`](Self::save) or the first transition.
    #[must_use]
    pub fn create(path: impl Into<PathBuf>, config: Json, names: &[&str]) -> Self {
        let entries = names
            .iter()
            .map(|name| JournalEntry {
                name: (*name).to_string(),
                state: ArtefactState::Pending,
                error: None,
                attempts: Vec::new(),
                seconds: 0.0,
            })
            .collect();
        Self {
            path: path.into(),
            config,
            entries: Mutex::new(entries),
        }
    }

    /// Loads an existing journal for `--resume`.
    ///
    /// # Errors
    ///
    /// Returns a [`DarksilError`] of class `io` when the file is
    /// missing or unreadable, and of class `config` when it is not a
    /// valid journal (wrong schema, malformed entries).
    pub fn load(path: impl Into<PathBuf>) -> Result<Self, DarksilError> {
        let path = path.into();
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                return Err(DarksilError::io(format!(
                    "no journal at {} (nothing to resume — run without --resume first)",
                    path.display()
                )))
            }
            Err(e) => {
                return Err(DarksilError::io(format!(
                    "cannot read journal {}: {e}",
                    path.display()
                )))
            }
        };
        let doc = darksil_json::parse(&text).map_err(|e| {
            DarksilError::config(format!("journal {} is not valid JSON: {e}", path.display()))
        })?;
        let schema = doc.get("schema").and_then(Json::as_str);
        if schema != Some(JOURNAL_SCHEMA) {
            return Err(DarksilError::config(format!(
                "journal {} has schema {:?}, expected {JOURNAL_SCHEMA}",
                path.display(),
                schema.unwrap_or("<missing>")
            )));
        }
        let config = doc.get("config").cloned().unwrap_or(Json::Null);
        let Some(Json::Arr(raw_entries)) = doc.get("artefacts") else {
            return Err(DarksilError::config(format!(
                "journal {} has no artefacts array",
                path.display()
            )));
        };
        let mut entries = Vec::with_capacity(raw_entries.len());
        for raw in raw_entries {
            let name = raw.get("name").and_then(Json::as_str).ok_or_else(|| {
                DarksilError::config(format!(
                    "journal {} has an entry without a name",
                    path.display()
                ))
            })?;
            let state = raw
                .get("state")
                .and_then(Json::as_str)
                .and_then(ArtefactState::from_label)
                .ok_or_else(|| {
                    DarksilError::config(format!(
                        "journal {}: artefact {name} has an unknown state",
                        path.display()
                    ))
                })?;
            entries.push(JournalEntry {
                name: name.to_string(),
                state,
                error: raw
                    .get("error")
                    .and_then(Json::as_str)
                    .map(ToString::to_string),
                attempts: match raw.get("attempts") {
                    Some(Json::Arr(items)) => items.clone(),
                    _ => Vec::new(),
                },
                seconds: raw.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
            });
        }
        Ok(Self {
            path,
            config,
            entries: Mutex::new(entries),
        })
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The run-configuration fingerprint this journal was created with.
    #[must_use]
    pub fn config(&self) -> &Json {
        &self.config
    }

    /// The recorded state of one artefact.
    #[must_use]
    pub fn state_of(&self, name: &str) -> Option<ArtefactState> {
        self.entries
            .lock()
            .ok()
            .and_then(|entries| entries.iter().find(|e| e.name == name).map(|e| e.state))
    }

    /// Names whose state is `done` — the set a resume skips.
    #[must_use]
    pub fn completed_names(&self) -> Vec<String> {
        self.entries.lock().map_or_else(
            |_| Vec::new(),
            |entries| {
                entries
                    .iter()
                    .filter(|e| e.state == ArtefactState::Done)
                    .map(|e| e.name.clone())
                    .collect()
            },
        )
    }

    /// A snapshot of every entry, in journal order.
    #[must_use]
    pub fn entries(&self) -> Vec<JournalEntry> {
        self.entries
            .lock()
            .map_or_else(|_| Vec::new(), |entries| entries.clone())
    }

    /// Aggregate counters over the current states.
    #[must_use]
    pub fn counts(&self) -> JournalCounts {
        let mut counts = JournalCounts::default();
        if let Ok(entries) = self.entries.lock() {
            for entry in entries.iter() {
                match entry.state {
                    ArtefactState::Done => counts.done += 1,
                    ArtefactState::Failed => counts.failed += 1,
                    ArtefactState::Pending | ArtefactState::Running => counts.unfinished += 1,
                }
            }
        }
        counts
    }

    /// Resets interrupted (`running`) and `failed` entries to `pending`
    /// so a resume re-queues them, and returns how many were reset.
    /// Completed entries are untouched.
    pub fn requeue_unfinished(&self) -> usize {
        let mut reset = 0;
        if let Ok(mut entries) = self.entries.lock() {
            for entry in entries.iter_mut() {
                if matches!(entry.state, ArtefactState::Running | ArtefactState::Failed) {
                    entry.state = ArtefactState::Pending;
                    entry.error = None;
                    entry.attempts.clear();
                    entry.seconds = 0.0;
                    reset += 1;
                }
            }
        }
        reset
    }

    /// Adds a `pending` entry for `name` if the journal does not
    /// already track it, persisting the snapshot. Returns whether a
    /// new entry was added. Long-running services admit work after the
    /// journal is created, so unlike [`create`](Self::create) the
    /// artefact list here grows dynamically.
    ///
    /// # Errors
    ///
    /// Returns a [`DarksilError`] of class `io` when the journal cannot
    /// be written.
    pub fn ensure(&self, name: &str) -> Result<bool, DarksilError> {
        let mut entries = self
            .entries
            .lock()
            .map_err(|_| DarksilError::internal("journal lock poisoned"))?;
        if entries.iter().any(|e| e.name == name) {
            return Ok(false);
        }
        entries.push(JournalEntry {
            name: name.to_string(),
            state: ArtefactState::Pending,
            error: None,
            attempts: Vec::new(),
            seconds: 0.0,
        });
        self.write_snapshot(&entries)?;
        Ok(true)
    }

    /// Transitions `name` to `state` and persists the journal. Unknown
    /// names are ignored (the journal is authoritative for its own
    /// artefact list).
    ///
    /// # Errors
    ///
    /// Returns a [`DarksilError`] of class `io` when the journal cannot
    /// be written.
    pub fn transition(&self, name: &str, state: ArtefactState) -> Result<(), DarksilError> {
        self.update(name, |entry| entry.state = state)
    }

    /// Records a finished artefact: final state, error (for failures),
    /// attempt timeline, and wall-clock — then persists.
    ///
    /// # Errors
    ///
    /// Returns a [`DarksilError`] of class `io` when the journal cannot
    /// be written.
    pub fn record_finished(
        &self,
        name: &str,
        state: ArtefactState,
        error: Option<String>,
        attempts: Vec<Json>,
        seconds: f64,
    ) -> Result<(), DarksilError> {
        self.update(name, |entry| {
            entry.state = state;
            entry.error = error;
            entry.attempts = attempts;
            entry.seconds = seconds;
        })
    }

    /// Applies `mutate` to the named entry and saves atomically, all
    /// under the one lock so concurrent workers serialise.
    fn update(
        &self,
        name: &str,
        mutate: impl FnOnce(&mut JournalEntry),
    ) -> Result<(), DarksilError> {
        let mut entries = self
            .entries
            .lock()
            .map_err(|_| DarksilError::internal("journal lock poisoned"))?;
        if let Some(entry) = entries.iter_mut().find(|e| e.name == name) {
            mutate(entry);
        }
        self.write_snapshot(&entries)
    }

    /// Persists the current journal state.
    ///
    /// # Errors
    ///
    /// Returns a [`DarksilError`] of class `io` when the journal cannot
    /// be written.
    pub fn save(&self) -> Result<(), DarksilError> {
        let entries = self
            .entries
            .lock()
            .map_err(|_| DarksilError::internal("journal lock poisoned"))?;
        self.write_snapshot(&entries)
    }

    /// Atomic write: temp file in the same directory, then rename.
    fn write_snapshot(&self, entries: &[JournalEntry]) -> Result<(), DarksilError> {
        let doc = Json::Obj(vec![
            ("schema".to_string(), Json::Str(JOURNAL_SCHEMA.to_string())),
            ("config".to_string(), self.config.clone()),
            (
                "artefacts".to_string(),
                Json::Arr(entries.iter().map(ToJson::to_json).collect()),
            ),
        ]);
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).map_err(|e| {
                    DarksilError::io(format!("cannot create {}: {e}", parent.display()))
                })?;
            }
        }
        let tmp = self.path.with_extension("json.tmp");
        fs::write(&tmp, doc.pretty())
            .map_err(|e| DarksilError::io(format!("cannot write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, &self.path)
            .map_err(|e| DarksilError::io(format!("cannot commit {}: {e}", self.path.display())))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(test: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("darksil-journal-{test}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            Self(dir)
        }
        fn journal_path(&self) -> PathBuf {
            self.0.join("run_journal.json")
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn config_fingerprint() -> Json {
        Json::Obj(vec![(
            "fidelity".to_string(),
            Json::Str("quick".to_string()),
        )])
    }

    #[test]
    fn states_round_trip_through_labels() {
        for state in [
            ArtefactState::Pending,
            ArtefactState::Running,
            ArtefactState::Done,
            ArtefactState::Failed,
        ] {
            assert_eq!(ArtefactState::from_label(state.label()), Some(state));
        }
        assert_eq!(ArtefactState::from_label("exploded"), None);
    }

    #[test]
    fn legacy_degraded_entries_load_as_interrupted_and_requeue() {
        let scratch = Scratch::new("legacy");
        fs::create_dir_all(&scratch.0).expect("mkdir");
        fs::write(
            scratch.journal_path(),
            r#"{"schema": "darksil-journal-v1", "config": null, "artefacts": [
                {"name": "table1", "state": "done", "seconds": 0.5},
                {"name": "fig5", "state": "degraded", "attempts": [
                    {"attempt": 0, "degraded": false, "outcome": "deadline", "backoff_ms": 60, "seconds": 30},
                    {"attempt": 1, "degraded": true, "outcome": "ok", "backoff_ms": 0, "seconds": 0.1}
                ], "seconds": 30.1}
            ]}"#,
        )
        .expect("write v1 journal");
        let journal = Journal::load(scratch.journal_path()).expect("v1 journal still loads");
        assert_eq!(journal.state_of("fig5"), Some(ArtefactState::Running));
        assert_eq!(journal.completed_names(), vec!["table1".to_string()]);
        assert_eq!(
            journal.requeue_unfinished(),
            1,
            "the degraded entry re-runs"
        );
        assert_eq!(journal.state_of("fig5"), Some(ArtefactState::Pending));
        assert!(journal.entries()[1].attempts.is_empty());
        // Saving never writes the retired label back.
        journal.save().expect("save");
        let text = fs::read_to_string(scratch.journal_path()).expect("read back");
        assert!(text.contains(JOURNAL_SCHEMA));
        assert!(!text.contains("\"degraded\""), "{text}");
    }

    #[test]
    fn transitions_persist_and_reload() {
        let scratch = Scratch::new("roundtrip");
        let journal = Journal::create(
            scratch.journal_path(),
            config_fingerprint(),
            &["table1", "fig5", "fig11"],
        );
        journal.save().expect("initial save");
        journal
            .transition("table1", ArtefactState::Running)
            .expect("running");
        journal
            .record_finished("table1", ArtefactState::Done, None, Vec::new(), 1.5)
            .expect("done");
        journal
            .transition("fig5", ArtefactState::Running)
            .expect("running");
        // fig5 is left mid-flight, as a killed run would leave it.

        let reloaded = Journal::load(scratch.journal_path()).expect("reload");
        assert_eq!(reloaded.state_of("table1"), Some(ArtefactState::Done));
        assert_eq!(reloaded.state_of("fig5"), Some(ArtefactState::Running));
        assert_eq!(reloaded.state_of("fig11"), Some(ArtefactState::Pending));
        assert_eq!(reloaded.config(), &config_fingerprint());
        assert_eq!(reloaded.completed_names(), vec!["table1".to_string()]);

        let requeued = reloaded.requeue_unfinished();
        assert_eq!(requeued, 1, "only the interrupted fig5 resets");
        assert_eq!(reloaded.state_of("fig5"), Some(ArtefactState::Pending));
        let counts = reloaded.counts();
        assert_eq!((counts.done, counts.unfinished), (1, 2));
    }

    #[test]
    fn failed_entries_keep_their_error_and_attempts() {
        let scratch = Scratch::new("failure");
        let journal = Journal::create(scratch.journal_path(), Json::Null, &["fig9"]);
        let attempts = vec![Json::Obj(vec![(
            "outcome".to_string(),
            Json::Str("deadline".to_string()),
        )])];
        journal
            .record_finished(
                "fig9",
                ArtefactState::Failed,
                Some("[deadline] solve too slow".to_string()),
                attempts,
                3.0,
            )
            .expect("record");
        let reloaded = Journal::load(scratch.journal_path()).expect("reload");
        let entries = reloaded.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].error.as_deref(),
            Some("[deadline] solve too slow")
        );
        assert_eq!(entries[0].attempts.len(), 1);
        assert!((entries[0].seconds - 3.0).abs() < 1e-12);
        assert_eq!(reloaded.counts().failed, 1);
        // Failed entries are re-queued on resume too.
        assert_eq!(reloaded.requeue_unfinished(), 1);
    }

    #[test]
    fn loading_rejects_missing_and_malformed_journals() {
        let scratch = Scratch::new("reject");
        let err = Journal::load(scratch.journal_path()).expect_err("missing file");
        assert_eq!(err.class(), darksil_robust::ErrorClass::Io);

        fs::create_dir_all(&scratch.0).expect("mkdir");
        fs::write(scratch.journal_path(), "{ not json").expect("write");
        let err = Journal::load(scratch.journal_path()).expect_err("bad json");
        assert_eq!(err.class(), darksil_robust::ErrorClass::Config);

        fs::write(
            scratch.journal_path(),
            r#"{"schema": "darksil-journal-v0", "artefacts": []}"#,
        )
        .expect("write");
        let err = Journal::load(scratch.journal_path()).expect_err("wrong schema");
        assert!(err.to_string().contains("darksil-journal-v0"), "{err}");
    }

    #[test]
    fn ensure_grows_the_artefact_list_dynamically() {
        let scratch = Scratch::new("ensure");
        let journal = Journal::create(scratch.journal_path(), Json::Null, &[]);
        assert!(journal.ensure("job-a").expect("first add"));
        assert!(!journal.ensure("job-a").expect("idempotent"));
        assert!(journal.ensure("job-b").expect("second add"));
        journal
            .transition("job-a", ArtefactState::Done)
            .expect("transition applies to ensured entries");

        let reloaded = Journal::load(scratch.journal_path()).expect("reload");
        assert_eq!(reloaded.state_of("job-a"), Some(ArtefactState::Done));
        assert_eq!(reloaded.state_of("job-b"), Some(ArtefactState::Pending));
    }

    #[test]
    fn snapshots_never_leave_temp_files_behind() {
        let scratch = Scratch::new("atomic");
        let journal = Journal::create(scratch.journal_path(), Json::Null, &["fig2"]);
        journal.save().expect("save");
        journal
            .transition("fig2", ArtefactState::Done)
            .expect("transition");
        let listing: Vec<_> = fs::read_dir(&scratch.0)
            .expect("listing")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(listing, vec!["run_journal.json".to_string()]);
    }
}
