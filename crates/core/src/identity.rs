//! Peer cryptographic identities.
//!
//! At boot time every entity taking part in the secure extension generates an
//! RSA key pair (paper §4.1).  A [`PeerIdentity`] bundles the key pair with
//! the identifiers derived from it: the CBID (hash of the public key) and the
//! CBID-derived [`PeerId`] used on the overlay.  Deriving the peer identifier
//! from the key is what makes the key/identifier binding checkable by anyone
//! (`secureLogin` step 7, signed-advertisement validation).

use jxta_crypto::cbid::Cbid;
use jxta_crypto::rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
use jxta_crypto::CryptoError;
use jxta_overlay::PeerId;
use rand::RngCore;

/// Default RSA modulus size used by identities in examples and benchmarks.
/// The paper's JXTA deployment used 1024-bit keys (the JXTA PSE default of
/// its era).
pub const DEFAULT_KEY_BITS: usize = 1024;

/// A peer's cryptographic identity: key pair, CBID and peer identifier.
#[derive(Debug, Clone)]
pub struct PeerIdentity {
    keypair: RsaKeyPair,
    cbid: Cbid,
    peer_id: PeerId,
}

impl PeerIdentity {
    /// Generates a fresh identity with a modulus of `bits` bits.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R, bits: usize) -> Result<Self, CryptoError> {
        let keypair = RsaKeyPair::generate(rng, bits)?;
        Ok(Self::from_keypair(keypair))
    }

    /// Builds an identity from an existing key pair.
    pub fn from_keypair(keypair: RsaKeyPair) -> Self {
        let cbid = Cbid::from_public_key(&keypair.public);
        let peer_id = PeerId::from_cbid(&cbid);
        PeerIdentity {
            keypair,
            cbid,
            peer_id,
        }
    }

    /// The public half of the key pair.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.keypair.public
    }

    /// The private half of the key pair (never leaves the peer).
    pub fn private_key(&self) -> &RsaPrivateKey {
        &self.keypair.private
    }

    /// The crypto-based identifier of the public key.
    pub fn cbid(&self) -> &Cbid {
        &self.cbid
    }

    /// The CBID-derived overlay peer identifier.
    pub fn peer_id(&self) -> PeerId {
        self.peer_id
    }

    /// Signs `message` with this identity's private key (`S_SK(x)`).
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.keypair.private.sign(message)
    }

    /// Verifies a signature made by this identity.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        self.keypair.public.verify(message, signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxta_crypto::drbg::HmacDrbg;

    #[test]
    fn identity_derivation_is_consistent() {
        let mut rng = HmacDrbg::from_seed_u64(0x1D);
        let identity = PeerIdentity::generate(&mut rng, 512).unwrap();
        assert_eq!(identity.cbid(), &Cbid::from_public_key(identity.public_key()));
        assert_eq!(identity.peer_id(), PeerId::from_cbid(identity.cbid()));
        assert!(identity.peer_id().matches_cbid(identity.cbid()));
    }

    #[test]
    fn different_identities_have_different_ids() {
        let mut rng = HmacDrbg::from_seed_u64(0x1E);
        let a = PeerIdentity::generate(&mut rng, 512).unwrap();
        let b = PeerIdentity::generate(&mut rng, 512).unwrap();
        assert_ne!(a.peer_id(), b.peer_id());
        assert_ne!(a.cbid(), b.cbid());
    }

    #[test]
    fn sign_and_verify() {
        let mut rng = HmacDrbg::from_seed_u64(0x1F);
        let identity = PeerIdentity::generate(&mut rng, 512).unwrap();
        let sig = identity.sign(b"boot-time message").unwrap();
        identity.verify(b"boot-time message", &sig).unwrap();
        assert!(identity.verify(b"different message", &sig).is_err());
    }

    #[test]
    fn from_keypair_matches_generate() {
        let mut rng = HmacDrbg::from_seed_u64(0x20);
        let keypair = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let identity = PeerIdentity::from_keypair(keypair.clone());
        assert_eq!(identity.public_key(), &keypair.public);
        assert_eq!(
            identity.peer_id(),
            PeerId::from_cbid(&Cbid::from_public_key(&keypair.public))
        );
    }

    #[test]
    fn generate_rejects_tiny_keys() {
        let mut rng = HmacDrbg::from_seed_u64(0x21);
        assert!(PeerIdentity::generate(&mut rng, 64).is_err());
    }
}
