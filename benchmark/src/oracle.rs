//! What the store must answer, kept apart from the store.

use crate::gen::{GenRow, Table, Values};
use crate::layers::Answers;
use std::collections::HashMap;

#[derive(Debug, Clone, Default)]
pub struct Oracle {
    rows: HashMap<u64, Values>,
}

impl Oracle {
    pub fn new(table: &Table) -> Self {
        Oracle {
            rows: table.rows.iter().map(|row| (row.key, row.values)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert and update alike: the key now maps to these values.
    pub fn put(&mut self, rows: &[GenRow]) {
        self.rows
            .extend(rows.iter().map(|row| (row.key, row.values)));
    }

    pub fn delete(&mut self, keys: &[u64]) {
        for key in keys {
            self.rows.remove(key);
        }
    }

    /// Every live key, ascending.
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.rows.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Makes one entry wrong, so that a test can see the check catch it.
    pub fn corrupt(&mut self, key: u64) {
        if let Some(values) = self.rows.get_mut(&key) {
            values[0] ^= 1;
        }
    }

    /// Compares one call's answers with the oracle: present keys must carry
    /// exactly their values, absent and deleted keys must miss.
    pub fn check(&self, keys: &[u64], answers: &Answers, tally: &mut Tally) {
        tally.attempted += keys.len() as u64;
        if answers.len() != keys.len() {
            let detail = format!("{} answers for {} keys", answers.len(), keys.len());
            tally.fail(keys.len() as u64, keys[0], detail);
            return;
        }
        for (index, &key) in keys.iter().enumerate() {
            let expected = self.rows.get(&key);
            if answers.is_failed(index) {
                tally.fail(1, key, "the store marked the key failed".into());
            } else if answers.get(index) != expected.map(|values| values.as_slice()) {
                let detail = format!("expected {expected:?}, got {:?}", answers.get(index));
                tally.fail(1, key, detail);
            }
        }
    }
}

/// Keys attempted and keys wrong, failed, refused or timed out.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn fail(&mut self, keys: u64, first_key: u64, detail: String) {
        self.failed += keys;
        self.first_failure
            .get_or_insert_with(|| format!("key {first_key}: {detail}"));
    }

    /// A whole call that returned an error: every key of it counts as failed.
    pub fn fail_call(&mut self, keys: &[u64], error: &dyn std::fmt::Display) {
        self.attempted += keys.len() as u64;
        self.fail(keys.len() as u64, keys[0], error.to_string());
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}
