//! Versioned keyed state for streaming aggregations.
//!
//! Streaming Bronze→Silver keeps per-(window, key) accumulators between
//! micro-batches; the state store snapshots to bytes so checkpoints can
//! persist it and recovery can restore it bit-for-bit.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

/// Accumulator for one (window, key) cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellState {
    /// Sum of non-NaN values.
    pub sum: f64,
    /// Count of non-NaN values.
    pub count: u64,
    /// Minimum non-NaN value (infinity when empty).
    pub min: f64,
    /// Maximum non-NaN value (-infinity when empty).
    pub max: f64,
}

impl Default for CellState {
    /// Empty accumulator (min/max at the identity sentinels).
    fn default() -> CellState {
        CellState {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl CellState {
    /// Fresh accumulator.
    pub fn new() -> CellState {
        CellState::default()
    }

    /// Fold one value (NaN ignored).
    pub fn push(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of folded values (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merge another accumulator in.
    pub fn merge(&mut self, other: &CellState) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Dense id of an interned state key (assigned in first-seen order).
pub type KeyId = u32;

/// Dense id of an interned sensor name.
pub type SensorId = u32;

/// Keyed state: `(window_start, key) -> CellState` plus arbitrary
/// counters.
///
/// Stored densely: a key table interns each key to a [`KeyId`] once,
/// each open window holds one cell slot per id, and a permutation of
/// the ids in key-string order gives drains and snapshots the same
/// `(window, key)` order a string-keyed ordered map would. Keys of the
/// form `"{node}\u{1f}{sensor}"` can be reached by `(node, sensor id)`
/// without building the string, which is how the streaming Silver
/// fold touches one cell per row without allocating.
#[derive(Debug, Clone, Default)]
pub struct StateStore {
    keys: KeyTable,
    /// Open windows: window start -> cell slot per key id.
    windows: BTreeMap<i64, Vec<Option<CellState>>>,
    /// Free-form named counters (rows seen, windows emitted, ...).
    counters: BTreeMap<String, u64>,
}

/// Interned keys and sensor names.
#[derive(Debug, Clone, Default)]
struct KeyTable {
    /// Key string per id.
    text: Vec<String>,
    /// `(node, sensor)` per id, when the key parses as one.
    parts: Vec<Option<(i64, SensorId)>>,
    by_text: HashMap<String, KeyId>,
    /// Canonical `"{node}\u{1f}{sensor}"` keys: node -> row of
    /// `node_keys`, which holds the key id per sensor id (or `NO_KEY`).
    by_node: HashMap<i64, usize>,
    node_keys: Vec<Vec<KeyId>>,
    /// Last node looked up and its row: Bronze rows come in runs of one
    /// node, so most lookups skip the hash.
    last_node: Option<(i64, usize)>,
    sensors: Vec<String>,
    by_sensor: HashMap<String, SensorId>,
    /// Ids in key-string order once `sorted` (new ids are appended;
    /// the next drain sorts).
    order: Vec<KeyId>,
    sorted: bool,
}

/// Empty entry of a `node_keys` row.
const NO_KEY: KeyId = KeyId::MAX;

impl KeyTable {
    fn sensor(&mut self, name: &str) -> SensorId {
        if let Some(&sid) = self.by_sensor.get(name) {
            return sid;
        }
        let sid = self.sensors.len() as SensorId;
        self.sensors.push(name.to_string());
        self.by_sensor.insert(name.to_string(), sid);
        sid
    }

    fn push(&mut self, text: String, parts: Option<(i64, SensorId)>) -> KeyId {
        let id = self.text.len() as KeyId;
        self.order.push(id);
        self.sorted = false;
        self.by_text.insert(text.clone(), id);
        self.text.push(text);
        self.parts.push(parts);
        id
    }

    fn intern(&mut self, key: &str) -> KeyId {
        if let Some(&id) = self.by_text.get(key) {
            return id;
        }
        let parsed = key
            .split_once('\u{1f}')
            .and_then(|(n, s)| Some((n, n.parse::<i64>().ok()?, s)));
        let parts = parsed.map(|(_, node, s)| (node, self.sensor(s)));
        let id = self.push(key.to_string(), parts);
        // "07\u{1f}x" and "7\u{1f}x" are distinct keys with the same
        // parts; only the rendering `node_key` would build is indexed.
        if let (Some((n, node, _)), Some((_, sensor))) = (parsed, parts) {
            if n == node.to_string() {
                let row = self.node_row(node);
                self.index(row, sensor, id);
            }
        }
        id
    }

    fn node_row(&mut self, node: i64) -> usize {
        if let Some((last, row)) = self.last_node {
            if last == node {
                return row;
            }
        }
        let next = self.node_keys.len();
        let row = *self.by_node.entry(node).or_insert(next);
        if row == next {
            self.node_keys.push(Vec::new());
        }
        self.last_node = Some((node, row));
        row
    }

    fn index(&mut self, row: usize, sensor: SensorId, id: KeyId) {
        let keys = &mut self.node_keys[row];
        if keys.len() <= sensor as usize {
            keys.resize(sensor as usize + 1, NO_KEY);
        }
        keys[sensor as usize] = id;
    }

    fn node_key(&mut self, node: i64, sensor: SensorId) -> KeyId {
        let row = self.node_row(node);
        match self.node_keys[row].get(sensor as usize) {
            Some(&id) if id != NO_KEY => id,
            _ => {
                let text = format!("{node}\u{1f}{}", self.sensors[sensor as usize]);
                let id = self.push(text, Some((node, sensor)));
                self.index(row, sensor, id);
                id
            }
        }
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.order = self.sorted_order().into_owned();
            self.sorted = true;
        }
    }

    /// Ids in key-string order, without mutating.
    fn sorted_order(&self) -> Cow<'_, [KeyId]> {
        if self.sorted {
            Cow::Borrowed(&self.order)
        } else {
            let mut order = self.order.clone();
            order.sort_by(|&a, &b| self.text[a as usize].cmp(&self.text[b as usize]));
            Cow::Owned(order)
        }
    }
}

impl StateStore {
    /// Empty store.
    pub fn new() -> StateStore {
        StateStore::default()
    }

    /// Intern `key`, returning its id.
    pub fn key_id(&mut self, key: &str) -> KeyId {
        self.keys.intern(key)
    }

    /// Intern a sensor name, returning its id (for [`Self::node_key`]).
    pub fn sensor_id(&mut self, name: &str) -> SensorId {
        self.keys.sensor(name)
    }

    /// Id of the key `"{node}\u{1f}{sensor}"`, interning it on first
    /// use. A hit builds and hashes no string: it indexes the node's row
    /// by sensor id (hashing the node only when it differs from the
    /// previous call's).
    pub fn node_key(&mut self, node: i64, sensor: SensorId) -> KeyId {
        self.keys.node_key(node, sensor)
    }

    /// Key string of `id`.
    pub fn key(&self, id: KeyId) -> &str {
        &self.keys.text[id as usize]
    }

    /// `(node, sensor id)` of a `"{node}\u{1f}{sensor}"` key; `None`
    /// for keys of any other shape.
    pub fn key_parts(&self, id: KeyId) -> Option<(i64, SensorId)> {
        self.keys.parts[id as usize]
    }

    /// Name of an interned sensor.
    pub fn sensor_name(&self, sensor: SensorId) -> &str {
        &self.keys.sensors[sensor as usize]
    }

    /// Number of interned sensor names.
    pub fn sensor_count(&self) -> usize {
        self.keys.sensors.len()
    }

    /// Number of interned keys (ids are `0..key_count()`).
    pub fn key_count(&self) -> usize {
        self.keys.text.len()
    }

    /// Mutable accumulator for a (window, key) cell.
    pub fn cell(&mut self, window: i64, key: &str) -> &mut CellState {
        let id = self.keys.intern(key);
        self.cell_at(window, id)
    }

    /// Mutable accumulator for a (window, key id) cell.
    pub fn cell_at(&mut self, window: i64, id: KeyId) -> &mut CellState {
        let i = id as usize;
        debug_assert!(i < self.key_count(), "key id {id} not interned");
        let slots = self.windows.entry(window).or_default();
        if i >= slots.len() {
            slots.resize(self.keys.text.len(), None);
        }
        slots[i].get_or_insert_with(CellState::new)
    }

    /// Read-only view of a cell.
    pub fn get_cell(&self, window: i64, key: &str) -> Option<&CellState> {
        let id = *self.keys.by_text.get(key)?;
        self.windows.get(&window)?.get(id as usize)?.as_ref()
    }

    /// Remove and return every cell with `window < horizon` (windows the
    /// watermark has closed), in (window, key string) order.
    pub fn drain_closed(&mut self, horizon: i64) -> Vec<(i64, KeyId, CellState)> {
        let open = self.windows.split_off(&horizon);
        let closed = std::mem::replace(&mut self.windows, open);
        self.keys.sort();
        let mut out = Vec::new();
        for (window, slots) in closed {
            out.extend(
                self.keys
                    .order
                    .iter()
                    .filter_map(|&id| Some((window, id, slots.get(id as usize).copied()??))),
            );
        }
        out
    }

    /// Increment a named counter.
    pub fn bump(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Read a named counter.
    pub fn counter(&self, name: &str) -> u64 {
        *self.counters.get(name).unwrap_or(&0)
    }

    /// Counters whose name starts with `prefix`, in name order (used by
    /// gap-aware Silver to keep a roster of seen sensor keys).
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Number of live cells.
    pub fn len(&self) -> usize {
        self.windows
            .values()
            .map(|slots| slots.iter().filter(|c| c.is_some()).count())
            .sum()
    }

    /// True when no cells are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize to bytes for checkpointing: cells in (window, key
    /// string) order, then the counters.
    pub fn snapshot(&self) -> Vec<u8> {
        let order = self.keys.sorted_order();
        let mut cells = Vec::new();
        for (&w, slots) in &self.windows {
            for &id in order.iter() {
                if let Some(Some(c)) = slots.get(id as usize) {
                    cells.push((
                        w,
                        self.keys.text[id as usize].clone(),
                        c.sum.to_bits(),
                        c.count,
                        c.min.to_bits(),
                        c.max.to_bits(),
                    ));
                }
            }
        }
        let wire = WireState {
            cells,
            counters: self.counters.clone(),
        };
        serde_json::to_vec(&wire).expect("state serializes")
    }

    /// Restore from a snapshot.
    pub fn restore(bytes: &[u8]) -> Option<StateStore> {
        let wire: WireState = serde_json::from_slice(bytes).ok()?;
        let mut state = StateStore {
            counters: wire.counters,
            ..StateStore::default()
        };
        for (w, key, sum, count, min, max) in wire.cells {
            *state.cell(w, &key) = CellState {
                sum: f64::from_bits(sum),
                count,
                min: f64::from_bits(min),
                max: f64::from_bits(max),
            };
        }
        Some(state)
    }
}

/// Two stores are equal when they hold the same cells and counters
/// (key ids are an internal detail and may differ).
impl PartialEq for StateStore {
    fn eq(&self, other: &StateStore) -> bool {
        self.snapshot() == other.snapshot()
    }
}

/// JSON-friendly snapshot layout: tuple map keys are not valid JSON,
/// and non-finite floats (the empty-cell ±infinity sentinels) are
/// stored as bit patterns.
#[derive(Serialize, Deserialize)]
struct WireState {
    cells: Vec<(i64, String, u64, u64, u64, u64)>,
    counters: BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_accumulates_and_ignores_nan() {
        let mut c = CellState::new();
        c.push(1.0);
        c.push(f64::NAN);
        c.push(3.0);
        assert_eq!(c.count, 2);
        assert_eq!(c.mean(), 2.0);
        assert_eq!(c.min, 1.0);
        assert_eq!(c.max, 3.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = CellState::new();
        a.push(1.0);
        let mut b = CellState::new();
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.sum, 6.0);
        assert_eq!(a.max, 5.0);
    }

    #[test]
    fn drain_closed_removes_only_old_windows() {
        let mut s = StateStore::new();
        s.cell(0, "a").push(1.0);
        s.cell(0, "b").push(2.0);
        s.cell(15_000, "a").push(3.0);
        let closed = s.drain_closed(15_000);
        assert_eq!(closed.len(), 2);
        assert!(closed.iter().all(|(w, _, _)| *w == 0));
        assert_eq!(s.len(), 1);
        assert!(s.get_cell(15_000, "a").is_some());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = StateStore::new();
        s.cell(0, "x").push(42.0);
        s.bump("rows", 7);
        let snap = s.snapshot();
        let r = StateStore::restore(&snap).unwrap();
        assert_eq!(r, s);
        assert_eq!(r.counter("rows"), 7);
        assert!(StateStore::restore(b"garbage").is_none());
    }

    /// Snapshots written by the string-keyed store this dense layout
    /// replaced (gap-marked Silver state of `silver_state_epoch*`, see
    /// `medallion::tests::pinned_state_resumes_like_the_string_keyed_store`).
    /// Keys include `"10\u{1f}…"`, `"100\u{1f}…"` and `"9\u{1f}…"`.
    const PINNED: [&[u8]; 2] = [
        include_bytes!("testdata/silver_state_epoch0.json"),
        include_bytes!("testdata/silver_state_epoch1.json"),
    ];

    #[test]
    fn pinned_snapshots_restore_byte_identically() {
        for bytes in PINNED {
            let s = StateStore::restore(bytes).expect("pinned snapshot restores");
            assert!(!s.is_empty());
            assert_eq!(s.snapshot(), bytes);
        }
    }

    #[test]
    fn text_and_node_keys_share_ids() {
        let mut s = StateStore::new();
        let text = s.key_id("10\u{1f}power");
        let power = s.sensor_id("power");
        assert_eq!(s.node_key(10, power), text);
        assert_eq!(s.key_parts(text), Some((10, power)));
        // A non-canonical rendering is its own key, reachable by text only.
        let padded = s.key_id("010\u{1f}power");
        assert_ne!(padded, text);
        assert_eq!(s.node_key(10, power), text);
        let sum = s.key_id("sum");
        assert_eq!(s.key_parts(sum), None);
    }

    mod dense_matches_string_keyed_model {
        use super::*;
        use proptest::prelude::*;

        const NODES: [i64; 7] = [0, 1, 9, 10, 100, 11, -3];
        const SENSORS: [&str; 3] = ["power", "a", "temp_c"];

        #[derive(Debug, Clone)]
        enum Op {
            Push {
                window: i64,
                node: usize,
                sensor: usize,
                value: f64,
                by_text: bool,
            },
            Drain(i64),
            Restore,
        }

        /// 80% pushes (10% of them NaN), 10% drains, 10% restores.
        fn op() -> impl Strategy<Value = Op> {
            (
                0u8..10,
                0i64..6,
                0..NODES.len(),
                0..SENSORS.len(),
                -1e3..1e3f64,
                0u8..20,
            )
                .prop_map(|(kind, w, node, sensor, value, roll)| match kind {
                    0..=7 => Op::Push {
                        window: w.min(4) * 15_000,
                        node,
                        sensor,
                        value: if roll < 2 { f64::NAN } else { value },
                        by_text: roll % 2 == 1,
                    },
                    8 => Op::Drain(w * 15_000 - 7),
                    _ => Op::Restore,
                })
        }

        type Model = BTreeMap<(i64, String), CellState>;

        fn model_snapshot(model: &Model, counters: &BTreeMap<String, u64>) -> Vec<u8> {
            let wire = WireState {
                cells: model
                    .iter()
                    .map(|((w, k), c)| {
                        (
                            *w,
                            k.clone(),
                            c.sum.to_bits(),
                            c.count,
                            c.min.to_bits(),
                            c.max.to_bits(),
                        )
                    })
                    .collect(),
                counters: counters.clone(),
            };
            serde_json::to_vec(&wire).unwrap()
        }

        fn bits(c: &CellState) -> (u64, u64, u64, u64) {
            (c.sum.to_bits(), c.count, c.min.to_bits(), c.max.to_bits())
        }

        proptest! {
            #[test]
            fn snapshot_and_drain_order_match(ops in proptest::collection::vec(op(), 1..200)) {
                let mut s = StateStore::new();
                let mut model = Model::new();
                let mut counters = BTreeMap::new();
                for op in ops {
                    match op {
                        Op::Push { window, node, sensor, value, by_text } => {
                            let key = format!("{}\u{1f}{}", NODES[node], SENSORS[sensor]);
                            if by_text {
                                s.cell(window, &key).push(value);
                            } else {
                                let sid = s.sensor_id(SENSORS[sensor]);
                                let id = s.node_key(NODES[node], sid);
                                prop_assert_eq!(s.key(id), key.as_str());
                                s.cell_at(window, id).push(value);
                            }
                            model.entry((window, key)).or_default().push(value);
                            s.bump("rows", 1);
                            *counters.entry("rows".to_string()).or_insert(0) += 1;
                        }
                        Op::Drain(horizon) => {
                            let got: Vec<_> = s
                                .drain_closed(horizon)
                                .iter()
                                .map(|(w, id, c)| (*w, s.key(*id).to_string(), bits(c)))
                                .collect();
                            let open = model.split_off(&(horizon, String::new()));
                            let want: Vec<_> = std::mem::replace(&mut model, open)
                                .iter()
                                .map(|((w, k), c)| (*w, k.clone(), bits(c)))
                                .collect();
                            prop_assert_eq!(got, want);
                        }
                        Op::Restore => {
                            s = StateStore::restore(&s.snapshot()).unwrap();
                        }
                    }
                    prop_assert_eq!(s.len(), model.len());
                }
                prop_assert_eq!(s.snapshot(), model_snapshot(&model, &counters));
            }
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut s = StateStore::new();
        s.bump("n", 1);
        s.bump("n", 2);
        assert_eq!(s.counter("n"), 3);
        assert_eq!(s.counter("missing"), 0);
    }
}
