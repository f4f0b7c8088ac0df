//! Probe labels: a record names its label by a 4-byte id into one
//! process-wide, append-only table of texts.
//!
//! A label is interned once, where a program is built or a trace is
//! decoded, so emitting a probe neither locks nor allocates and a
//! [`TraceRecord`](crate::TraceRecord) stays `Copy`. An id means nothing
//! outside the process that made it: every encoder, the digest, `Display`
//! and serde resolve it to its text, and `Label` has no order. Texts live
//! as long as the process; there is one per distinct label it has seen.

use crate::intern::Interner;
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;
use std::num::NonZeroU32;
use std::sync::OnceLock;

/// An interned probe label. Equal ids are equal texts.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(NonZeroU32);

fn interner() -> &'static Interner<&'static str> {
    static INTERNER: OnceLock<Interner<&'static str>> = OnceLock::new();
    INTERNER.get_or_init(Interner::new)
}

impl Label {
    /// The label with this text, interning it on first use.
    pub fn new(text: &str) -> Label {
        Label(interner().id(text, |text| Box::leak(text.into())))
    }

    /// The label's text.
    pub fn as_str(self) -> &'static str {
        interner().get(self.0)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Label {
    fn to_value(&self) -> Value {
        self.as_str().to_value()
    }
}

impl Deserialize for Label {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(Label::new)
            .ok_or_else(|| Error::msg(format!("expected string, got {}", v.kind())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_texts_are_equal_ids_and_resolve_back() {
        let a = Label::new("label unit a");
        let b = Label::new("label unit b");
        assert_ne!(a, b);
        assert_eq!(Label::new(&String::from("label unit a")), a);
        assert_eq!(a.as_str(), "label unit a");
        assert_eq!(format!("{b} {b:?}"), "label unit b \"label unit b\"");
    }

    #[test]
    fn ids_past_the_first_blocks_resolve() {
        let labels: Vec<(String, Label)> = (0..300)
            .map(|i| {
                let text = format!("label unit {i}");
                let label = Label::new(&text);
                (text, label)
            })
            .collect();
        for (text, label) in &labels {
            assert_eq!(label.as_str(), text);
        }
    }

    #[test]
    fn serde_carries_the_text() {
        let l = Label::new("label unit serde");
        assert_eq!(l.to_value(), Value::Str("label unit serde".into()));
        assert_eq!(Label::from_value(&l.to_value()).unwrap(), l);
        assert!(Label::from_value(&Value::Int(3)).is_err());
    }
}
