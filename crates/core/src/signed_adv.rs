//! Signed advertisements and the trust anchors used to validate them.
//!
//! The secure extension distributes credentials (and hence authentic public
//! keys) by embedding them into the XMLdsig-style signature of the
//! advertisements peers already publish: "once each client peer or a broker
//! has established its credential, it is distributed to other group members
//! using the approach in \[16\].  This grants an authentic credential
//! distribution mechanism based on Crypto Based IDentifiers, which is
//! invisible to both JXTA-Overlay and JXTA" (paper §4.1).
//!
//! Validation of a signed advertisement checks four things:
//!
//! 1. The embedded credential verifies against a trusted issuer (the
//!    administrator or a broker whose own credential chains to the
//!    administrator).
//! 2. The credential's public key matches its subject's CBID-derived peer
//!    identifier (key authenticity).
//! 3. The XMLdsig signature over the advertisement body verifies with that
//!    public key (integrity + source authenticity).
//! 4. The advertisement's owner is the credential subject (no grafting a
//!    valid credential onto someone else's advertisement).

use crate::credential::{Credential, CredentialRole};
use crate::identity::PeerIdentity;
use jxta_crypto::rsa::RsaPublicKey;
use jxta_crypto::CryptoError;
use jxta_overlay::advertisement::{Advertisement, PipeAdvertisement};
use jxta_overlay::{OverlayError, PeerId};
use jxta_xmldoc::{dsig, Element};

/// The trust anchors a peer uses to validate credentials: clients, and
/// brokers checking the credentials embedded in signed publishes.
#[derive(Debug, Clone)]
pub struct TrustAnchors {
    /// The administrator's self-signed credential (`Cred^Adm_Adm`), copied to
    /// every peer at deployment time.
    admin: Credential,
    /// Broker credentials this peer has verified, in the order it learned
    /// them (a client during `secureConnection`; a broker its own first,
    /// then each admitted peer's).  Never shrinks.
    brokers: Vec<Credential>,
}

impl TrustAnchors {
    /// Creates trust anchors from the administrator credential.
    ///
    /// Fails if the administrator credential is not a valid self-signed
    /// administrator credential.
    pub fn new(admin: Credential) -> Result<Self, OverlayError> {
        if admin.role != CredentialRole::Administrator {
            return Err(OverlayError::SecurityViolation(
                "trust anchor is not an administrator credential".into(),
            ));
        }
        admin
            .verify_self_signed()
            .map_err(|_| OverlayError::SecurityViolation("administrator credential does not verify".into()))?;
        Ok(TrustAnchors {
            admin,
            brokers: Vec::new(),
        })
    }

    /// The administrator credential.
    pub fn admin(&self) -> &Credential {
        &self.admin
    }

    /// Verifies a broker credential against the administrator key and, on
    /// success, remembers it as trusted.
    pub fn add_broker(&mut self, broker: Credential) -> Result<(), OverlayError> {
        if broker.role != CredentialRole::Broker {
            return Err(OverlayError::SecurityViolation(
                "credential does not assert the Broker role".into(),
            ));
        }
        broker.verify(&self.admin.public_key).map_err(|_| {
            OverlayError::SecurityViolation("broker credential not issued by the administrator".into())
        })?;
        if !broker.binds_key_to_subject() {
            return Err(OverlayError::SecurityViolation(
                "broker credential key does not match its CBID".into(),
            ));
        }
        if !self.brokers.iter().any(|b| b == &broker) {
            self.brokers.push(broker);
        }
        Ok(())
    }

    /// The trusted broker credentials learned so far.
    pub fn brokers(&self) -> &[Credential] {
        &self.brokers
    }

    /// Verifies an arbitrary credential against the trust anchors: any
    /// trusted broker key or the administrator key.
    pub fn verify_credential(&self, credential: &Credential) -> Result<(), OverlayError> {
        self.verify_credential_with(credential, |key, message, signature| {
            key.verify(message, signature)
        })
    }

    /// Like [`TrustAnchors::verify_credential`], but delegating every RSA
    /// operation to `verify` — so callers can route the chain walk through a
    /// [`jxta_crypto::sigcache::VerifiedSigCache`] and pay for each
    /// (key, bytes, signature) triple only once.
    ///
    /// Broker keys are tried before the administrator key: brokers issue
    /// the client credentials checked most often, and a cache keeps only
    /// successes, so trying the administrator first would repeat one failed
    /// RSA verification on every check of a broker-issued credential.
    pub fn verify_credential_with<V>(
        &self,
        credential: &Credential,
        verify: V,
    ) -> Result<(), OverlayError>
    where
        V: Fn(&RsaPublicKey, &[u8], &[u8]) -> Result<(), CryptoError>,
    {
        let mut issuers = self.brokers.iter().chain(std::iter::once(&self.admin));
        if issuers.any(|issuer| credential.verify_with(&issuer.public_key, &verify).is_ok()) {
            return Ok(());
        }
        Err(OverlayError::SecurityViolation(
            "credential does not chain to any trust anchor".into(),
        ))
    }
}

/// Signs an advertisement element in place, embedding `credential` (the
/// signer's own credential) as the `KeyInfo` payload.
pub fn sign_advertisement(
    element: &mut Element,
    signer: &PeerIdentity,
    credential: &Credential,
) -> Result<(), OverlayError> {
    dsig::sign_element(element, signer.private_key(), &credential.to_bytes())?;
    Ok(())
}

/// Builds and signs a pipe advertisement for `owner`.
pub fn signed_pipe_advertisement(
    advertisement: &PipeAdvertisement,
    signer: &PeerIdentity,
    credential: &Credential,
) -> Result<String, OverlayError> {
    let mut element = advertisement.to_element();
    sign_advertisement(&mut element, signer, credential)?;
    Ok(element.to_xml())
}

/// Outcome of validating a signed advertisement: the parsed advertisement and
/// the authenticated credential of its owner.
#[derive(Debug, Clone)]
pub struct ValidatedAdvertisement<A> {
    /// The advertisement content.
    pub advertisement: A,
    /// The owner's credential, verified against the trust anchors.
    pub credential: Credential,
}

/// Validates a signed advertisement document of type `A`.
///
/// `expected_owner` is the peer the caller believes published the
/// advertisement (e.g. the destination of a `secureMsgPeer`); the check that
/// credential subject, advertisement owner and CBID-derived identifier all
/// agree is what defeats advertisement forgery by otherwise legitimate peers.
pub fn validate_signed_advertisement<A, F>(
    xml: &str,
    expected_owner: PeerId,
    trust: &TrustAnchors,
    owner_of: F,
) -> Result<ValidatedAdvertisement<A>, OverlayError>
where
    A: Advertisement,
    F: Fn(&A) -> PeerId,
{
    validate_signed_advertisement_with(xml, expected_owner, trust, owner_of, |key, message, signature| {
        key.verify(message, signature)
    })
}

/// Like [`validate_signed_advertisement`], but delegating every RSA
/// verification — the credential chain walk *and* the XMLdsig check — to
/// `verify`.  Clients route this through their
/// [`jxta_crypto::sigcache::VerifiedSigCache`] so re-validating an
/// advertisement (or another advertisement embedding the same credential)
/// skips the RSA entirely.
pub fn validate_signed_advertisement_with<A, F, V>(
    xml: &str,
    expected_owner: PeerId,
    trust: &TrustAnchors,
    owner_of: F,
    verify: V,
) -> Result<ValidatedAdvertisement<A>, OverlayError>
where
    A: Advertisement,
    F: Fn(&A) -> PeerId,
    V: Fn(&RsaPublicKey, &[u8], &[u8]) -> Result<(), CryptoError>,
{
    let element = jxta_xmldoc::parse(xml)?;

    // 1. Extract and authenticate the embedded credential.
    let credential_bytes = dsig::key_info(&element)?;
    let credential = Credential::from_bytes(&credential_bytes)
        .map_err(|e| OverlayError::SecurityViolation(format!("embedded credential: {e}")))?;
    trust.verify_credential_with(&credential, &verify)?;

    // 2. Key authenticity: the credential's key must hash to its subject id.
    if !credential.binds_key_to_subject() {
        return Err(OverlayError::SecurityViolation(
            "credential public key does not match the subject identifier".into(),
        ));
    }

    // 3. Advertisement integrity and source authenticity.
    dsig::verify_element_with(&element, &credential.public_key, &verify)?;

    // 4. The advertisement must belong to the credential subject and to the
    //    peer the caller expected.
    let advertisement = A::from_element(&element)?;
    let owner = owner_of(&advertisement);
    if owner != credential.subject_id {
        return Err(OverlayError::SecurityViolation(
            "advertisement owner differs from the credential subject".into(),
        ));
    }
    if owner != expected_owner {
        return Err(OverlayError::SecurityViolation(format!(
            "advertisement owner {owner} is not the expected peer {expected_owner}"
        )));
    }

    Ok(ValidatedAdvertisement {
        advertisement,
        credential,
    })
}

/// Convenience wrapper for the common case: a signed pipe advertisement.
pub fn validate_signed_pipe_advertisement(
    xml: &str,
    expected_owner: PeerId,
    trust: &TrustAnchors,
) -> Result<ValidatedAdvertisement<PipeAdvertisement>, OverlayError> {
    validate_signed_advertisement(xml, expected_owner, trust, |adv: &PipeAdvertisement| adv.owner)
}

/// [`validate_signed_pipe_advertisement`] with the RSA verification
/// delegated to `verify` (see [`validate_signed_advertisement_with`]).
pub fn validate_signed_pipe_advertisement_with<V>(
    xml: &str,
    expected_owner: PeerId,
    trust: &TrustAnchors,
    verify: V,
) -> Result<ValidatedAdvertisement<PipeAdvertisement>, OverlayError>
where
    V: Fn(&RsaPublicKey, &[u8], &[u8]) -> Result<(), CryptoError>,
{
    validate_signed_advertisement_with(
        xml,
        expected_owner,
        trust,
        |adv: &PipeAdvertisement| adv.owner,
        verify,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::Administrator;
    use jxta_crypto::drbg::HmacDrbg;
    use jxta_overlay::GroupId;
    use std::sync::OnceLock;

    struct World {
        admin: Administrator,
        broker_identity: PeerIdentity,
        broker_credential: Credential,
        alice: PeerIdentity,
        alice_credential: Credential,
        mallory: PeerIdentity,
        mallory_credential: Credential,
    }

    fn world() -> &'static World {
        static W: OnceLock<World> = OnceLock::new();
        W.get_or_init(|| {
            let mut rng = HmacDrbg::from_seed_u64(0x5AD7);
            let admin = Administrator::new(&mut rng, "admin", 512).unwrap();
            let broker_identity = PeerIdentity::generate(&mut rng, 512).unwrap();
            let broker_credential = admin
                .issue_broker_credential(
                    "broker-1",
                    broker_identity.peer_id(),
                    broker_identity.public_key(),
                    u64::MAX,
                )
                .unwrap();
            let alice = PeerIdentity::generate(&mut rng, 512).unwrap();
            let alice_credential = Credential::issue(
                CredentialRole::Client,
                "alice",
                alice.peer_id(),
                alice.public_key().clone(),
                "broker-1",
                u64::MAX,
                broker_identity.private_key(),
            )
            .unwrap();
            let mallory = PeerIdentity::generate(&mut rng, 512).unwrap();
            let mallory_credential = Credential::issue(
                CredentialRole::Client,
                "mallory",
                mallory.peer_id(),
                mallory.public_key().clone(),
                "broker-1",
                u64::MAX,
                broker_identity.private_key(),
            )
            .unwrap();
            World {
                admin,
                broker_identity,
                broker_credential,
                alice,
                alice_credential,
                mallory,
                mallory_credential,
            }
        })
    }

    fn trust() -> TrustAnchors {
        let w = world();
        let mut trust = TrustAnchors::new(w.admin.credential().clone()).unwrap();
        trust.add_broker(w.broker_credential.clone()).unwrap();
        trust
    }

    fn alice_pipe() -> PipeAdvertisement {
        PipeAdvertisement {
            owner: world().alice.peer_id(),
            group: GroupId::new("math"),
            name: "alice-inbox".into(),
        }
    }

    #[test]
    fn trust_anchor_construction_checks_admin_credential() {
        let w = world();
        assert!(TrustAnchors::new(w.admin.credential().clone()).is_ok());
        // A broker credential is not an acceptable anchor.
        assert!(TrustAnchors::new(w.broker_credential.clone()).is_err());
        // A forged "self-signed" admin credential signed by someone else fails.
        let forged = Credential::issue(
            CredentialRole::Administrator,
            "fake-admin",
            w.mallory.peer_id(),
            w.mallory.public_key().clone(),
            "fake-admin",
            u64::MAX,
            w.broker_identity.private_key(),
        )
        .unwrap();
        assert!(TrustAnchors::new(forged).is_err());
    }

    #[test]
    fn add_broker_validates_the_chain() {
        let w = world();
        let mut trust = TrustAnchors::new(w.admin.credential().clone()).unwrap();
        trust.add_broker(w.broker_credential.clone()).unwrap();
        assert_eq!(trust.brokers().len(), 1);
        // Adding the same broker twice does not duplicate it.
        trust.add_broker(w.broker_credential.clone()).unwrap();
        assert_eq!(trust.brokers().len(), 1);
        // A client credential cannot be added as a broker anchor.
        assert!(trust.add_broker(w.alice_credential.clone()).is_err());
        // A broker credential not issued by the admin is rejected.
        let rogue = Credential::issue(
            CredentialRole::Broker,
            "rogue",
            w.mallory.peer_id(),
            w.mallory.public_key().clone(),
            "rogue",
            u64::MAX,
            w.mallory.private_key(),
        )
        .unwrap();
        assert!(trust.add_broker(rogue).is_err());
    }

    #[test]
    fn verify_credential_accepts_admin_and_broker_issued() {
        let w = world();
        let trust = trust();
        trust.verify_credential(&w.broker_credential).unwrap();
        trust.verify_credential(&w.alice_credential).unwrap();
        // Self-issued credential chains to nothing.
        let rogue = Credential::issue(
            CredentialRole::Client,
            "rogue",
            w.mallory.peer_id(),
            w.mallory.public_key().clone(),
            "rogue",
            u64::MAX,
            w.mallory.private_key(),
        )
        .unwrap();
        assert!(trust.verify_credential(&rogue).is_err());
    }

    #[test]
    fn signed_pipe_advertisement_validates() {
        let w = world();
        let xml = signed_pipe_advertisement(&alice_pipe(), &w.alice, &w.alice_credential).unwrap();
        let validated =
            validate_signed_pipe_advertisement(&xml, w.alice.peer_id(), &trust()).unwrap();
        assert_eq!(validated.advertisement, alice_pipe());
        assert_eq!(validated.credential.subject_name, "alice");
        // The advertisement keeps its original document type.
        assert!(xml.starts_with("<jxta:PipeAdvertisement"));
    }

    #[test]
    fn unsigned_advertisement_is_rejected() {
        let w = world();
        let xml = alice_pipe().to_xml();
        assert!(matches!(
            validate_signed_pipe_advertisement(&xml, w.alice.peer_id(), &trust()),
            Err(OverlayError::Signature(_))
        ));
    }

    #[test]
    fn tampered_advertisement_is_rejected() {
        let w = world();
        let xml = signed_pipe_advertisement(&alice_pipe(), &w.alice, &w.alice_credential).unwrap();
        let tampered = xml.replace("alice-inbox", "mallory-inbox");
        assert!(validate_signed_pipe_advertisement(&tampered, w.alice.peer_id(), &trust()).is_err());
    }

    #[test]
    fn forged_owner_is_rejected() {
        // Mallory (a legitimate, credentialed peer) publishes an advertisement
        // claiming to be Alice's pipe.  The plain overlay would happily accept
        // it; the secure validation refuses because the advertisement owner
        // does not match Mallory's credential subject.
        let w = world();
        let forged = PipeAdvertisement {
            owner: w.alice.peer_id(),
            group: GroupId::new("math"),
            name: "fake-alice-inbox".into(),
        };
        let xml = signed_pipe_advertisement(&forged, &w.mallory, &w.mallory_credential).unwrap();
        let err = validate_signed_pipe_advertisement(&xml, w.alice.peer_id(), &trust()).unwrap_err();
        assert!(matches!(err, OverlayError::SecurityViolation(_)));
    }

    #[test]
    fn self_issued_credential_in_advertisement_is_rejected() {
        // Mallory signs with a credential she issued to herself for Alice's
        // identity; the chain check fails.
        let w = world();
        let fake_credential = Credential::issue(
            CredentialRole::Client,
            "alice",
            w.alice.peer_id(),
            w.mallory.public_key().clone(),
            "mallory-ca",
            u64::MAX,
            w.mallory.private_key(),
        )
        .unwrap();
        let mut element = alice_pipe().to_element();
        dsig::sign_element(&mut element, w.mallory.private_key(), &fake_credential.to_bytes()).unwrap();
        let err = validate_signed_pipe_advertisement(&element.to_xml(), w.alice.peer_id(), &trust())
            .unwrap_err();
        assert!(matches!(err, OverlayError::SecurityViolation(_)));
    }

    #[test]
    fn credential_key_mismatch_is_rejected() {
        // A broker-issued credential whose subject id is Alice but whose key
        // is Mallory's: the CBID binding check fails even though the chain
        // verifies.
        let w = world();
        let bad_binding = Credential::issue(
            CredentialRole::Client,
            "alice",
            w.alice.peer_id(),
            w.mallory.public_key().clone(),
            "broker-1",
            u64::MAX,
            w.broker_identity.private_key(),
        )
        .unwrap();
        let mut element = alice_pipe().to_element();
        dsig::sign_element(&mut element, w.mallory.private_key(), &bad_binding.to_bytes()).unwrap();
        let err = validate_signed_pipe_advertisement(&element.to_xml(), w.alice.peer_id(), &trust())
            .unwrap_err();
        assert!(err.to_string().contains("subject identifier"));
    }

    #[test]
    fn wrong_expected_owner_is_rejected() {
        let w = world();
        let xml = signed_pipe_advertisement(&alice_pipe(), &w.alice, &w.alice_credential).unwrap();
        assert!(validate_signed_pipe_advertisement(&xml, w.mallory.peer_id(), &trust()).is_err());
    }

    #[test]
    fn garbage_key_info_is_rejected() {
        let w = world();
        let mut element = alice_pipe().to_element();
        dsig::sign_element(&mut element, w.alice.private_key(), b"not a credential").unwrap();
        let err = validate_signed_pipe_advertisement(&element.to_xml(), w.alice.peer_id(), &trust())
            .unwrap_err();
        assert!(matches!(err, OverlayError::SecurityViolation(_)));
    }
}
