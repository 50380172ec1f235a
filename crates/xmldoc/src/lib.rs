//! Minimal XML document model with canonicalisation and XMLdsig-style
//! enveloped signatures.
//!
//! JXTA represents every piece of shared metadata — peer advertisements,
//! pipe advertisements, presence notifications, file indexes — as an XML
//! *advertisement*.  The paper secures those advertisements with the
//! XMLdsig-based approach of Arnedo-Moreno & Herrera-Joancomartí (reference
//! \[15\]/\[16\]): an enveloped `<Signature>` element is added to the
//! advertisement so that, unlike JXTA's built-in "signed advertisements"
//! (which wrap the whole document in Base64), **the advertisement keeps its
//! original element type** and remains usable by unmodified code.
//!
//! This crate provides the substrate for that:
//!
//! * [`Element`]/[`Node`] — a small, allocation-friendly XML tree model.
//! * [`parse`] — a namespace-agnostic XML parser sufficient
//!   for JXTA-style documents (elements, attributes, text, CDATA, comments).
//! * [`Element::to_xml`] / [`Element::to_canonical_xml`] — serialisation and
//!   a deterministic canonical form (sorted attributes, no insignificant
//!   whitespace) used as the signing input.
//! * [`dsig`] — enveloped signature creation and verification carrying an
//!   arbitrary `KeyInfo` payload (the peer credential, in the paper's use).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dsig;
mod element;
pub mod parser;

pub use dsig::{sign_element, verify_element, DsigError, SIGNATURE_ELEMENT};
pub use element::{Element, Node};
pub use parser::{parse, ParseError};

#[cfg(test)]
mod proptests;
