//! The three vocabularies exposed to application developers (§4.4):
//! `CxtVocabulary` (context and metadata types), `QueryVocabulary`
//! (query clause keywords) and `CxtRulesVocabulary` (control-policy
//! operators and actions) — plus the [`Interner`] that maps vocabulary
//! strings to dense [`Sym`] ids for hot-path matching (brokerd's
//! subscription table is one map keyed by these ids).

use std::collections::BTreeMap;
use std::fmt;

/// A dense interned symbol for a context type or source name.
///
/// Comparing two `Sym`s is a single `u16` compare — the broker hot path
/// uses this instead of string equality, and the subscription table is
/// keyed by the id.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u16);

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym{}", self.0)
    }
}

/// A small symbol table interning vocabulary strings as [`Sym`] ids.
///
/// Interning is `O(log n)` (a `BTreeMap` probe, done once per distinct
/// string at admission time); every later lookup, comparison and table
/// index on the hot path is `O(1)` on the dense id. Iteration and id
/// assignment are insertion-ordered and therefore deterministic for a
/// deterministic input sequence.
///
/// ```
/// use contory::vocab::Interner;
///
/// let mut tab = Interner::new();
/// let wind = tab.intern("wind");
/// assert_eq!(tab.intern("wind"), wind);        // stable
/// assert_eq!(tab.resolve(wind), Some("wind")); // reversible
/// ```
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: Vec<String>,
    ids: BTreeMap<String, Sym>,
}

impl Interner {
    /// An empty table.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `name`, returning its stable id. Ids are assigned densely
    /// in first-seen order.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` distinct names are interned — the
    /// context-type and source vocabularies are small by design (§4.4),
    /// so overflow indicates a caller interning unbounded data.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&sym) = self.ids.get(name) {
            return sym;
        }
        let id = self.names.len();
        assert!(id <= usize::from(u16::MAX), "interner overflow (>65536 symbols)");
        let sym = Sym(id as u16);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), sym);
        sym
    }

    /// The id of an already-interned name, if any (no insertion).
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.ids.get(name).copied()
    }

    /// The name behind an id.
    pub fn resolve(&self, sym: Sym) -> Option<&str> {
        self.names.get(usize::from(sym.0)).map(String::as_str)
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Context type names (`CxtVocabulary`). Spatial, temporal, user-status,
/// environmental and resource categories per §4.1.
pub mod cxt_types {
    /// Geographic position.
    pub const LOCATION: &str = "location";
    /// Movement speed.
    pub const SPEED: &str = "speed";
    /// User activity (walking, sailing…).
    pub const ACTIVITY: &str = "activity";
    /// Air temperature.
    pub const TEMPERATURE: &str = "temperature";
    /// Ambient light.
    pub const LIGHT: &str = "light";
    /// Ambient noise.
    pub const NOISE: &str = "noise";
    /// Wind speed.
    pub const WIND: &str = "wind";
    /// Relative humidity.
    pub const HUMIDITY: &str = "humidity";
    /// Atmospheric pressure.
    pub const PRESSURE: &str = "pressure";
    /// Nearby devices count.
    pub const NEARBY_DEVICES: &str = "nearbyDevices";
    /// Remaining battery of the device.
    pub const DEVICE_POWER: &str = "devicePower";
}

/// Metadata keys usable in WHERE clauses (`CxtVocabulary`).
pub mod metadata_keys {
    /// Closeness to the true state.
    pub const CORRECTNESS: &str = "correctness";
    /// Measurement precision.
    pub const PRECISION: &str = "precision";
    /// Measurement accuracy.
    pub const ACCURACY: &str = "accuracy";
    /// Fraction of information known.
    pub const COMPLETENESS: &str = "completeness";
    /// Privacy label.
    pub const PRIVACY: &str = "privacy";
    /// Source trust level.
    pub const TRUST: &str = "trust";
}

/// Condition operators of the `CxtRulesVocabulary` (§4.3: "the operators
/// currently supported are equal, notEqual, moreThan, and lessThan").
pub mod operators {
    /// Equality.
    pub const EQUAL: &str = "equal";
    /// Inequality.
    pub const NOT_EQUAL: &str = "notEqual";
    /// Strictly greater.
    pub const MORE_THAN: &str = "moreThan";
    /// Strictly smaller.
    pub const LESS_THAN: &str = "lessThan";
}

/// Control-policy actions of the `CxtRulesVocabulary` (§4.3: "Actions
/// currently supported are reducePower, reduceMemory, and reduceLoad").
pub mod rule_actions {
    /// Suspend or downgrade energy-hungry provisioning.
    pub const REDUCE_POWER: &str = "reducePower";
    /// Trim local context storage.
    pub const REDUCE_MEMORY: &str = "reduceMemory";
    /// Lower provisioning rates.
    pub const REDUCE_LOAD: &str = "reduceLoad";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_values_are_paper_spelling() {
        assert_eq!(cxt_types::NEARBY_DEVICES, "nearbyDevices");
        assert_eq!(operators::NOT_EQUAL, "notEqual");
        assert_eq!(rule_actions::REDUCE_POWER, "reducePower");
        assert_eq!(metadata_keys::ACCURACY, "accuracy");
    }

    #[test]
    fn interner_ids_are_dense_stable_and_reversible() {
        let mut tab = Interner::new();
        assert!(tab.is_empty());
        let a = tab.intern("wind");
        let b = tab.intern("location");
        assert_eq!(a, Sym(0));
        assert_eq!(b, Sym(1));
        assert_eq!(tab.intern("wind"), a);
        assert_eq!(tab.len(), 2);
        assert_eq!(tab.resolve(a), Some("wind"));
        assert_eq!(tab.resolve(Sym(9)), None);
        assert_eq!(tab.get("location"), Some(b));
        assert_eq!(tab.get("nope"), None);
        // Qualified names that share a long prefix stay distinct.
        let c0 = tab.intern("org.contory.vocab.context.ctx00");
        let c1 = tab.intern("org.contory.vocab.context.ctx01");
        assert_ne!(c0, c1);
        assert_eq!(tab.intern("org.contory.vocab.context.ctx00"), c0);
        assert_eq!(tab.intern("org.contory.vocab.context.ctx01"), c1);
    }
}
