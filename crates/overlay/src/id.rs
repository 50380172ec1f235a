//! Peer and pipe identifiers.

use jxta_crypto::cbid::Cbid;
use jxta_crypto::sha2::hex_encode;
use rand::RngCore;
use std::fmt;

/// Length of a peer identifier in bytes.
pub const PEER_ID_LEN: usize = 16;

/// A peer identifier.
///
/// Plain JXTA-Overlay peers use random identifiers; peers running the secure
/// extension derive theirs from the CBID of their public key
/// ([`PeerId::from_cbid`]), which is what lets any peer check that a public
/// key found in an advertisement really belongs to the identifier claiming
/// it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId([u8; PEER_ID_LEN]);

impl PeerId {
    /// Generates a fresh random identifier.
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; PEER_ID_LEN];
        rng.fill_bytes(&mut bytes);
        PeerId(bytes)
    }

    /// Derives an identifier from a crypto-based identifier (the leading 16
    /// bytes of the CBID digest).
    pub fn from_cbid(cbid: &Cbid) -> Self {
        let mut bytes = [0u8; PEER_ID_LEN];
        bytes.copy_from_slice(&cbid.as_bytes()[..PEER_ID_LEN]);
        PeerId(bytes)
    }

    /// Builds an identifier from raw bytes.
    pub const fn from_bytes(bytes: [u8; PEER_ID_LEN]) -> Self {
        PeerId(bytes)
    }

    /// Parses an identifier from the URN form produced by [`PeerId::to_urn`].
    pub fn from_urn(urn: &str) -> Option<Self> {
        let hex = urn.strip_prefix("urn:jxta:peer:")?;
        if hex.len() != PEER_ID_LEN * 2 {
            return None;
        }
        let mut bytes = [0u8; PEER_ID_LEN];
        for (i, chunk) in hex.as_bytes().chunks_exact(2).enumerate() {
            let s = std::str::from_utf8(chunk).ok()?;
            bytes[i] = u8::from_str_radix(s, 16).ok()?;
        }
        Some(PeerId(bytes))
    }

    /// The raw identifier bytes.
    pub fn as_bytes(&self) -> &[u8; PEER_ID_LEN] {
        &self.0
    }

    /// JXTA-style URN representation.
    pub fn to_urn(&self) -> String {
        format!("urn:jxta:peer:{}", hex_encode(&self.0))
    }

    /// Returns `true` if this identifier is consistent with `cbid` (i.e. it
    /// equals the identifier derived from that CBID).
    pub fn matches_cbid(&self, cbid: &Cbid) -> bool {
        PeerId::from_cbid(cbid) == *self
    }

    /// Short prefix for logs.
    pub fn short(&self) -> String {
        hex_encode(&self.0[..4])
    }
}

impl fmt::Debug for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PeerId({}…)", self.short())
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_urn())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxta_crypto::drbg::HmacDrbg;
    use jxta_crypto::rsa::RsaKeyPair;

    #[test]
    fn random_ids_differ() {
        let mut rng = HmacDrbg::from_seed_u64(1);
        let a = PeerId::random(&mut rng);
        let b = PeerId::random(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn urn_roundtrip() {
        let mut rng = HmacDrbg::from_seed_u64(2);
        let id = PeerId::random(&mut rng);
        assert_eq!(PeerId::from_urn(&id.to_urn()), Some(id));
        assert!(id.to_urn().starts_with("urn:jxta:peer:"));
    }

    #[test]
    fn urn_rejects_malformed() {
        assert_eq!(PeerId::from_urn("urn:jxta:peer:xy"), None);
        assert_eq!(PeerId::from_urn("urn:other:peer:00"), None);
        assert_eq!(PeerId::from_urn(""), None);
        let bad = format!("urn:jxta:peer:{}", "zz".repeat(PEER_ID_LEN));
        assert_eq!(PeerId::from_urn(&bad), None);
    }

    #[test]
    fn cbid_binding() {
        let mut rng = HmacDrbg::from_seed_u64(3);
        let kp = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let cbid = Cbid::from_public_key(&kp.public);
        let id = PeerId::from_cbid(&cbid);
        assert!(id.matches_cbid(&cbid));

        let other = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let other_cbid = Cbid::from_public_key(&other.public);
        assert!(!id.matches_cbid(&other_cbid));
    }

    #[test]
    fn debug_and_display_forms() {
        let id = PeerId::from_bytes([0xaa; PEER_ID_LEN]);
        assert!(format!("{id:?}").starts_with("PeerId("));
        assert!(format!("{id}").contains("aaaa"));
        assert_eq!(id.short().len(), 8);
        assert_eq!(id.as_bytes(), &[0xaa; PEER_ID_LEN]);
    }
}
