//! Offline stand-in for `serde` (see `shims/README.md`).
//!
//! Upstream serde abstracts over data formats with visitor-based serializer
//! and deserializer traits. This workspace only ever writes JSON, so the shim
//! collapses the model to a concrete tree: [`Serialize`] renders a value into
//! a [`Value`], and the `serde_json` shim prints it. Nothing reads JSON back
//! into a typed value: the workspace parses JSON only into a [`Value`]
//! (`serde_json::from_str`) and picks fields out of it by name. The derive
//! macro (`#[derive(Serialize)]`, from the `serde_derive` shim) targets this
//! simplified trait, so downstream code is source-compatible for the subset
//! this repository uses.

mod impls;
pub mod value;

pub use value::{Map, Number, Value};

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

/// A value renderable into a [`Value`] tree.
pub trait Serialize {
    /// Renders `self` as a tree.
    fn to_value(&self) -> Value;
}
