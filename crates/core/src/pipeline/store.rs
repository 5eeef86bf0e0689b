//! In-memory, JSON-exportable checkpoint storage.
//!
//! Each completed phase saves its artifact here under the phase name.
//! The whole store exports to a single JSON document (schema tag
//! `greenps-checkpoint/2`) and imports back losslessly, so an
//! interrupted run can be resumed from disk in another process.

use super::artifact::{Artifact, ArtifactError};
use super::PhaseKind;
use greenps_telemetry::json::{self, JsonValue};
use std::collections::BTreeMap;

/// Version tag written into every exported checkpoint document.
pub const CHECKPOINT_SCHEMA: &str = "greenps-checkpoint/2";

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    kind: String,
    value: JsonValue,
}

/// Phase-name → artifact storage for one pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointStore {
    entries: BTreeMap<String, Entry>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of checkpointed phases.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no phase has checkpointed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `phase` has a checkpoint.
    pub fn contains(&self, phase: PhaseKind) -> bool {
        self.entries.contains_key(phase.name())
    }

    /// The checkpointed phases in pipeline order.
    pub fn completed(&self) -> Vec<PhaseKind> {
        PhaseKind::ALL
            .iter()
            .copied()
            .filter(|p| self.contains(*p))
            .collect()
    }

    /// The latest checkpointed phase in pipeline order, if any.
    pub fn latest(&self) -> Option<PhaseKind> {
        PhaseKind::ALL
            .iter()
            .copied()
            .rev()
            .find(|p| self.contains(*p))
    }

    /// Saves (or replaces) the artifact for `phase`.
    pub fn save<A: Artifact>(&mut self, phase: PhaseKind, artifact: &A) {
        self.entries.insert(
            phase.name().to_string(),
            Entry {
                kind: A::KIND.to_string(),
                value: artifact.to_json(),
            },
        );
    }

    /// Loads the artifact for `phase`, if checkpointed.
    ///
    /// # Errors
    /// Fails when the stored artifact kind does not match `A` or the
    /// payload does not decode.
    pub fn load<A: Artifact>(&self, phase: PhaseKind) -> Result<Option<A>, ArtifactError> {
        let Some(entry) = self.entries.get(phase.name()) else {
            return Ok(None);
        };
        if entry.kind != A::KIND {
            return Err(ArtifactError::new(format!(
                "phase `{}` holds a `{}` artifact, expected `{}`",
                phase.name(),
                entry.kind,
                A::KIND
            )));
        }
        A::from_json(&entry.value).map(Some)
    }

    /// Drops the checkpoint for `phase` (and returns whether one
    /// existed).
    pub fn remove(&mut self, phase: PhaseKind) -> bool {
        self.entries.remove(phase.name()).is_some()
    }

    /// Exports the store as one deterministic JSON document.
    pub fn to_json(&self) -> String {
        let phases = self
            .entries
            .iter()
            .fold(JsonValue::obj(), |obj, (name, e)| {
                obj.field(
                    name,
                    JsonValue::obj()
                        .field("kind", JsonValue::string(&e.kind))
                        .field("artifact", e.value.clone()),
                )
            });
        JsonValue::obj()
            .field("schema", JsonValue::string(CHECKPOINT_SCHEMA))
            .field("phases", phases)
            .to_string()
    }

    /// Imports a document produced by [`CheckpointStore::to_json`].
    ///
    /// # Errors
    /// Fails on malformed JSON, a wrong schema tag, or an unknown phase
    /// name.
    pub fn from_json(src: &str) -> Result<Self, ArtifactError> {
        let doc = json::parse(src)?;
        let schema = super::artifact::str_field(&doc, "schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(ArtifactError::new(format!(
                "unsupported checkpoint schema `{schema}` (expected `{CHECKPOINT_SCHEMA}`)"
            )));
        }
        let JsonValue::Obj(pairs) = super::artifact::field(&doc, "phases")? else {
            return Err(ArtifactError::new("`phases` is not an object"));
        };
        let mut store = CheckpointStore::new();
        for (name, entry) in pairs {
            if !PhaseKind::ALL.iter().any(|p| p.name() == name) {
                return Err(ArtifactError::new(format!("unknown phase `{name}`")));
            }
            store.entries.insert(
                name.clone(),
                Entry {
                    kind: super::artifact::str_field(entry, "kind")?.to_string(),
                    value: super::artifact::field(entry, "artifact")?.clone(),
                },
            );
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AllocationInput;
    use greenps_profile::PublisherTable;

    fn tiny_input() -> AllocationInput {
        AllocationInput {
            brokers: Vec::new(),
            subscriptions: Vec::new(),
            publishers: PublisherTable::new(),
        }
    }

    #[test]
    fn save_load_contains() {
        let mut store = CheckpointStore::new();
        assert!(store.is_empty());
        assert!(store
            .load::<AllocationInput>(PhaseKind::Gather)
            .unwrap()
            .is_none());
        store.save(PhaseKind::Gather, &tiny_input());
        assert!(store.contains(PhaseKind::Gather));
        assert_eq!(store.len(), 1);
        assert_eq!(store.completed(), vec![PhaseKind::Gather]);
        assert_eq!(store.latest(), Some(PhaseKind::Gather));
        let back = store
            .load::<AllocationInput>(PhaseKind::Gather)
            .unwrap()
            .unwrap();
        assert!(back.brokers.is_empty());
        assert!(store.remove(PhaseKind::Gather));
        assert!(store.is_empty());
    }

    #[test]
    fn json_export_round_trips() {
        let mut store = CheckpointStore::new();
        store.save(PhaseKind::Gather, &tiny_input());
        let text = store.to_json();
        assert!(text.contains(CHECKPOINT_SCHEMA));
        assert!(text.contains("\"gather\""));
        let back = CheckpointStore::from_json(&text).unwrap();
        assert_eq!(back, store);
        assert_eq!(back.to_json(), text, "export is byte-stable");
    }

    #[test]
    fn wrong_schema_and_unknown_phase_fail() {
        assert!(CheckpointStore::from_json("{}").is_err());
        assert!(CheckpointStore::from_json(r#"{"schema":"other/9","phases":{}}"#).is_err());
        assert!(CheckpointStore::from_json(
            r#"{"schema":"greenps-checkpoint/2","phases":{"warp":{"kind":"x","artifact":{}}}}"#
        )
        .is_err());
        // `/1` carried floats as strings; it is refused, not migrated.
        let err = CheckpointStore::from_json(r#"{"schema":"greenps-checkpoint/1","phases":{}}"#)
            .unwrap_err();
        assert!(
            err.to_string().contains("unsupported checkpoint schema"),
            "{err}"
        );
    }

    #[test]
    fn kind_mismatch_fails_loudly() {
        let mut store = CheckpointStore::new();
        store.save(PhaseKind::Gather, &tiny_input());
        // Loading the same phase as a different artifact type must fail.
        #[derive(Debug)]
        struct Fake;
        impl Artifact for Fake {
            const KIND: &'static str = "fake";
            fn to_json(&self) -> JsonValue {
                JsonValue::obj()
            }
            fn from_json(_: &JsonValue) -> Result<Self, ArtifactError> {
                Ok(Fake)
            }
        }
        let err = store.load::<Fake>(PhaseKind::Gather).unwrap_err();
        assert!(err.to_string().contains("allocation-input"));
    }
}
