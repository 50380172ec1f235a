//! The broker-side half of the secure primitives.
//!
//! [`SecureBrokerExtension`] plugs into a plain [`jxta_overlay::Broker`]
//! through the [`BrokerExtension`] hook and implements the broker's part of
//! the `secureConnection` (paper §4.2.1) and `secureLogin` (§4.2.2)
//! protocols:
//!
//! * **secureConnection** — on receiving a client challenge the broker
//!   generates a sufficiently long random session identifier `sid`, stores
//!   it, and answers with `sid`, the challenge signed with `SK_Br` and its
//!   admin-issued credential `Cred^Adm_Br`.  In a broker federation the
//!   response additionally carries the admin-issued credentials of the
//!   *peer brokers*, so a client joined at broker A can later validate
//!   signed advertisements whose credentials were issued by broker B — the
//!   client still verifies every one of them against the administrator
//!   trust anchor before accepting it.
//! * **secureLogin** — the broker decrypts the wrapped login request with its
//!   private key, consumes the `sid` (each identifier is single-use, which is
//!   what defeats replayed login attempts), checks the username/password
//!   against the central database, checks that the enclosed public key really
//!   belongs to the claiming peer (CBID binding), and finally issues the
//!   client credential `Cred^Br_Cl`.

use crate::credential::{Credential, CredentialRole, RevocationList};
use crate::identity::PeerIdentity;
use jxta_crypto::cbid::Cbid;
use jxta_crypto::envelope::{open_envelope, Envelope};
use jxta_crypto::drbg::HmacDrbg;
use jxta_crypto::error::CryptoError;
use jxta_crypto::rsa::RsaPublicKey;
use jxta_crypto::sigcache::{DigestCache, SigCacheStats, VerifiedSigCache};
use crate::signed_adv::TrustAnchors;
use jxta_overlay::broker::{carried_advertisements, Broker, BrokerExtension};
use jxta_overlay::{GroupId, Message, MessageKind, OverlayError, PeerId};
use parking_lot::{Mutex, RwLock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Length of the random session identifier in bytes ("sufficiently long", per
/// the paper; 32 bytes makes guessing or collision attacks irrelevant).
pub const SESSION_ID_LEN: usize = 32;

/// Computes the byte string signed by the client inside a secure login
/// request: `S_SKCl(username, password, PK_Cl)`.
pub fn login_signed_content(username: &str, password: &str, public_key: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + username.len() + password.len() + public_key.len());
    out.extend_from_slice(b"JXTA-OVERLAY-SECURE-LOGIN-V1");
    out.extend_from_slice(&(username.len() as u32).to_be_bytes());
    out.extend_from_slice(username.as_bytes());
    out.extend_from_slice(&(password.len() as u32).to_be_bytes());
    out.extend_from_slice(password.as_bytes());
    out.extend_from_slice(&(public_key.len() as u32).to_be_bytes());
    out.extend_from_slice(public_key);
    out
}

/// Serialises a list of credentials into one message element (2-byte count,
/// then per credential a 4-byte length and its bytes, big-endian).
pub fn encode_credential_list(credentials: &[Credential]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(credentials.len() as u16).to_be_bytes());
    for credential in credentials {
        let bytes = credential.to_bytes();
        out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Parses a credential list encoded by [`encode_credential_list`].
pub fn decode_credential_list(
    bytes: &[u8],
) -> Result<Vec<Credential>, jxta_overlay::OverlayError> {
    let err = |what: &str| jxta_overlay::OverlayError::MalformedMessage(what.to_string());
    if bytes.len() < 2 {
        return Err(err("truncated credential list"));
    }
    let count = u16::from_be_bytes(bytes[..2].try_into().unwrap()) as usize;
    let mut offset = 2usize;
    // A forged count must not reserve memory the blob cannot back (each
    // credential costs at least a 4-byte length prefix).
    let mut credentials = Vec::with_capacity(count.min(bytes.len() / 4 + 1));
    for _ in 0..count {
        if bytes.len() < offset + 4 {
            return Err(err("truncated credential length"));
        }
        let len = u32::from_be_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 4;
        if bytes.len() < offset + len {
            return Err(err("truncated credential"));
        }
        let credential = Credential::from_bytes(&bytes[offset..offset + len])
            .map_err(|e| err(&format!("malformed credential: {e}")))?;
        credentials.push(credential);
        offset += len;
    }
    if offset != bytes.len() {
        return Err(err("trailing bytes after credential list"));
    }
    Ok(credentials)
}

/// Computes the byte string a broker signs over a pushed federation
/// credential-set update (`blob` is the [`encode_credential_list`] payload).
/// The outer signature authenticates the *push* to the client — each listed
/// credential is additionally verified by the client against the
/// administrator trust anchor before it is accepted.
pub fn credential_update_signed_content(blob: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + blob.len());
    out.extend_from_slice(b"JXTA-OVERLAY-CREDENTIAL-UPDATE-V1");
    out.extend_from_slice(&(blob.len() as u32).to_be_bytes());
    out.extend_from_slice(blob);
    out
}

/// Computes the byte string signed by the sender of a `secureMsgPeer`
/// message: `S_SKCl1(m)` with the group identifier bound in.
pub fn message_signed_content(group: &str, text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + group.len() + text.len());
    out.extend_from_slice(b"JXTA-OVERLAY-SECURE-MSG-V1");
    out.extend_from_slice(&(group.len() as u32).to_be_bytes());
    out.extend_from_slice(group.as_bytes());
    out.extend_from_slice(&(text.len() as u32).to_be_bytes());
    out.extend_from_slice(text.as_bytes());
    out
}

/// Counters describing the secure broker's activity (used by tests and the
/// experiment harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecureBrokerStats {
    /// Challenges answered (secureConnection attempts served).
    pub challenges_answered: u64,
    /// Credentials issued after successful secure logins.
    pub credentials_issued: u64,
    /// Login attempts rejected because of a missing or reused session id
    /// (replay attempts).
    pub replays_rejected: u64,
    /// Login attempts rejected for bad credentials or key binding.
    pub logins_rejected: u64,
    /// Requests refused because a credential involved was expired at the
    /// broker's deployment clock.
    pub expired_rejected: u64,
    /// Requests refused because the subject appears on an installed
    /// revocation list.
    pub revoked_rejected: u64,
    /// Publishes refused because the signed advertisement's signature did
    /// not verify or its credential chains to no known issuer.
    pub forged_rejected: u64,
    /// Signed advertisements whose signatures were pre-verified at ingress
    /// (on a verify worker when the broker is pipelined).
    pub ingress_preverified: u64,
    /// Ingress signatures that failed pre-verification (forged or corrupted
    /// bytes observed in publishes, gossip or anti-entropy snapshots).
    pub ingress_sig_failures: u64,
}

/// Stateless verdict over one advertisement XML document: everything about
/// it that is a **pure function of the bytes** — parseability, whether it is
/// signed, the embedded credential, and whether the XMLdsig signature
/// verifies under that credential's key.  Pure means cacheable by digest;
/// the checks that depend on mutable broker state (expiry clock, revocation
/// lists, the set of known issuers) are deliberately *not* part of the
/// verdict and re-run on every use.
#[derive(Debug, Clone)]
enum VetVerdict {
    /// Unparseable or unsigned content — not policy material.
    Unsigned,
    /// Signed, but the embedded credential does not decode.
    MalformedCredential,
    /// Signed, but the signature does not verify under the embedded
    /// credential's key (or the signature structure is malformed).
    SignatureInvalid,
    /// Signed and the signature verifies under this credential.
    Verified(Box<Credential>),
}

impl VetVerdict {
    /// Parses `xml`, extracts the embedded credential and checks the
    /// XMLdsig signature, every RSA operation going through `verify`.
    fn compute<V>(xml: &str, verify: V) -> VetVerdict
    where
        V: Fn(&RsaPublicKey, &[u8], &[u8]) -> Result<(), CryptoError>,
    {
        let Ok(element) = jxta_xmldoc::parse(xml) else {
            return VetVerdict::Unsigned;
        };
        if !jxta_xmldoc::dsig::is_signed(&element) {
            return VetVerdict::Unsigned;
        }
        let Ok(credential_bytes) = jxta_xmldoc::dsig::key_info(&element) else {
            return VetVerdict::SignatureInvalid;
        };
        let Ok(credential) = Credential::from_bytes(&credential_bytes) else {
            return VetVerdict::MalformedCredential;
        };
        if jxta_xmldoc::dsig::verify_element_with(&element, &credential.public_key, verify).is_err() {
            return VetVerdict::SignatureInvalid;
        }
        VetVerdict::Verified(Box::new(credential))
    }
}

/// What this broker trusts: the administrator anchor and the broker
/// credentials admitted under it, plus the administrator-signed revocation
/// lists it has verified and the subjects they revoke.  Its methods keep
/// the invariants: a broker credential or revocation list enters only once
/// it verifies under the administrator key, the revoked sets are the union
/// of the stored lists, and nothing leaves.
struct Trust {
    /// The administrator, this broker's own credential, then every
    /// admitted peer broker's in admission order.
    anchors: TrustAnchors,
    /// The verified revocation lists, kept so they can be re-gossiped over
    /// the backbone and carried in anti-entropy snapshots — each list is
    /// admin-signed, so transit needs no extra trust and a late-joining
    /// broker can verify them from scratch.
    lists: Vec<RevocationList>,
    /// Peer identifiers revoked by `lists`.
    revoked_peers: HashSet<PeerId>,
    /// Usernames revoked by `lists`.
    revoked_users: HashSet<String>,
}

impl Trust {
    /// The issuer-set epoch: the number of broker anchors.  The anchor set
    /// only grows, so a credential that failed to chain at one epoch may
    /// chain at a later one, and one that chained keeps chaining.
    fn epoch(&self) -> u64 {
        self.anchors.brokers().len() as u64
    }

    /// The peer broker credentials: every broker anchor but this broker's
    /// own, which entered first.
    fn peer_brokers(&self) -> &[Credential] {
        &self.anchors.brokers()[1..]
    }

    fn is_revoked(&self, id: &PeerId, name: Option<&str>) -> bool {
        self.revoked_peers.contains(id) || name.is_some_and(|n| self.revoked_users.contains(n))
    }

    /// Verifies `list` against the administrator key (through `verify`)
    /// and merges it.  Returns the number of subjects it newly revoked.
    fn install<V>(&mut self, list: &RevocationList, verify: V) -> Result<u64, OverlayError>
    where
        V: Fn(&RsaPublicKey, &[u8], &[u8]) -> Result<(), CryptoError>,
    {
        list.verify_with(&self.anchors.admin().public_key, verify).map_err(|_| {
            OverlayError::SecurityViolation("revocation list not signed by the administrator".into())
        })?;
        let mut added = 0u64;
        for id in &list.revoked_ids {
            added += u64::from(self.revoked_peers.insert(*id));
        }
        for name in &list.revoked_names {
            added += u64::from(self.revoked_users.insert(name.clone()));
        }
        if !self.lists.contains(list) {
            self.lists.push(list.clone());
        }
        Ok(added)
    }

    /// Canonical summary of the revoked sets: the sorted identifiers, then
    /// the sorted length-prefixed usernames.
    fn digest(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut ids: Vec<&PeerId> = self.revoked_peers.iter().collect();
        ids.sort();
        for id in ids {
            out.extend_from_slice(id.as_bytes());
        }
        let mut names: Vec<&String> = self.revoked_users.iter().collect();
        names.sort();
        for name in names {
            out.extend_from_slice(&(name.len() as u32).to_be_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        out
    }
}

/// The verification memo: successful RSA verifications, plus digest-level
/// memos of stateless advertisement verdicts and of credential-chain
/// verdicts.  Advertisement signatures, credential chains and revocation
/// lists verified once (typically on an ingress verify worker) are
/// recognised by digest everywhere else — re-publishes, gossip and
/// anti-entropy snapshots skip RSA entirely.
struct Memo {
    signatures: VerifiedSigCache,
    verdicts: Mutex<Verdicts>,
    /// Signature checks the verdict memos answered.
    hits: AtomicU64,
    /// Signature checks the verdict memos had to compute.
    misses: AtomicU64,
}

/// The two digest-keyed verdict memos, behind one lock.
struct Verdicts {
    /// Stateless verdicts by the SHA-256 of the advertisement XML: a
    /// re-published or re-gossiped advertisement skips the parse and the
    /// RSA, leaving only the stateful expiry / revocation / issuer checks.
    adverts: DigestCache<VetVerdict>,
    /// Chain verdicts by the SHA-256 of the credential's encoding, each
    /// stamped with the [`Trust::epoch`] it was computed at.  A positive
    /// verdict holds at any epoch; a negative one only at its own, so the
    /// every-issuer-fails case (a flood of foreign credentials) is cached
    /// between admissions without ever outliving one.
    chains: DigestCache<(u64, bool)>,
}

impl Memo {
    fn new(capacity: usize) -> Self {
        Memo {
            signatures: VerifiedSigCache::new(capacity),
            verdicts: Mutex::with_class(
                "secure.memo",
                Verdicts {
                    adverts: DigestCache::new(capacity),
                    chains: DigestCache::new(capacity),
                },
            ),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The verdict over `xml`, from the memo or else from `compute`.
    /// Unsigned content is memoised but is no signature check, so it counts
    /// neither as a hit nor as a miss.
    fn advert(&self, xml: &str, compute: impl FnOnce() -> VetVerdict) -> VetVerdict {
        let digest = jxta_crypto::sha2::sha256(xml.as_bytes());
        let cached = self.verdicts.lock().adverts.get(&digest);
        let hit = cached.is_some();
        let verdict = cached.unwrap_or_else(compute);
        if !matches!(verdict, VetVerdict::Unsigned) {
            self.count(hit);
        }
        if !hit {
            self.verdicts.lock().adverts.insert(digest, verdict.clone());
        }
        verdict
    }

    /// Whether `credential` chains at `epoch`, from the memo or else from
    /// `compute`.
    fn chain(&self, credential: &Credential, epoch: u64, compute: impl FnOnce() -> bool) -> bool {
        let digest = jxta_crypto::sha2::sha256(&credential.to_bytes());
        let cached = self.verdicts.lock().chains.get(&digest);
        if let Some((stamped, chains)) = cached {
            if chains || stamped == epoch {
                self.count(true);
                return chains;
            }
        }
        let chains = compute();
        self.count(false);
        self.verdicts.lock().chains.insert(digest, (epoch, chains));
        chains
    }
}

/// The outstanding `secureConnection` session identifiers and the DRBG
/// that mints them.
struct Sessions {
    outstanding: HashSet<Vec<u8>>,
    drbg: HmacDrbg,
}

impl Sessions {
    /// Mints a fresh identifier and records it as outstanding.
    fn mint(&mut self) -> Vec<u8> {
        let sid = self.drbg.generate_vec(SESSION_ID_LEN);
        self.outstanding.insert(sid.clone());
        sid
    }

    /// Consumes an outstanding identifier; `false` if it was never issued
    /// or is already used.
    fn consume(&mut self, sid: &[u8]) -> bool {
        self.outstanding.remove(sid)
    }
}

/// The broker-side secure extension.  Its mutable state has four owners:
/// the trust anchors and revocations (behind one `RwLock`), the
/// verification memo (fixed at construction, absent when caching is off),
/// the login sessions and the stats.  Lock order: `secure.trust` before `secure.memo` and
/// `sigcache.verified` (a chain check runs under the trust read lock); the
/// memo and session locks are never held across another lock, and no
/// secure lock is held across a call into the broker.
pub struct SecureBrokerExtension {
    identity: PeerIdentity,
    credential: Credential,
    credential_lifetime: u64,
    /// The broker's deployment clock: seconds since the deployment epoch
    /// (virtual — the simulation has no wall clock), used to evaluate
    /// credential expiry.
    now: AtomicU64,
    trust: RwLock<Trust>,
    memo: Option<Memo>,
    sessions: Mutex<Sessions>,
    stats: Mutex<SecureBrokerStats>,
}

/// Serialises a set of revocation lists into one opaque blob (2-byte count,
/// then per list a 4-byte length and its [`RevocationList::to_bytes`]
/// encoding) — the extension-state payload brokers exchange.
pub fn encode_revocation_lists(lists: &[RevocationList]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(lists.len() as u16).to_be_bytes());
    for list in lists {
        let bytes = list.to_bytes();
        out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Parses a blob produced by [`encode_revocation_lists`].
pub fn decode_revocation_lists(bytes: &[u8]) -> Result<Vec<RevocationList>, OverlayError> {
    let err = |what: &str| OverlayError::MalformedMessage(what.to_string());
    if bytes.len() < 2 {
        return Err(err("truncated revocation-list blob"));
    }
    let count = u16::from_be_bytes(bytes[..2].try_into().unwrap()) as usize;
    let mut offset = 2usize;
    // Same guard as decode_credential_list: never trust a wire count to
    // size an allocation past what the payload can hold.
    let mut lists = Vec::with_capacity(count.min(bytes.len() / 4 + 1));
    for _ in 0..count {
        if bytes.len() < offset + 4 {
            return Err(err("truncated revocation-list length"));
        }
        let len = u32::from_be_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 4;
        if bytes.len() < offset + len {
            return Err(err("truncated revocation list"));
        }
        let list = RevocationList::from_bytes(&bytes[offset..offset + len])
            .map_err(|e| err(&format!("malformed revocation list: {e}")))?;
        lists.push(list);
        offset += len;
    }
    if offset != bytes.len() {
        return Err(err("trailing bytes after revocation lists"));
    }
    Ok(lists)
}

impl SecureBrokerExtension {
    /// Creates the extension from the broker's identity, its admin-issued
    /// credential and the administrator's self-signed credential, the trust
    /// anchor every check ends at.
    ///
    /// `credential_lifetime` is the expiry offset of issued client
    /// credentials, in seconds since the deployment epoch; `rng_seed` seeds
    /// the DRBG that mints session identifiers; `cache_capacity` sizes the
    /// verification memo, and `0` disables it (every verification runs RSA
    /// — the baseline of the `ingest_throughput` ablation).
    ///
    /// Fails unless `admin` is a valid administrator credential and
    /// `credential` a broker credential it issued over `identity`'s key.
    pub fn new(
        identity: PeerIdentity,
        credential: Credential,
        admin: Credential,
        credential_lifetime: u64,
        rng_seed: u64,
        cache_capacity: usize,
    ) -> Result<Self, OverlayError> {
        if credential.public_key != *identity.public_key() {
            return Err(OverlayError::SecurityViolation(
                "broker credential does not certify the broker's own key".into(),
            ));
        }
        let mut anchors = TrustAnchors::new(admin)?;
        anchors.add_broker(credential.clone())?;
        Ok(SecureBrokerExtension {
            identity,
            credential,
            credential_lifetime,
            now: AtomicU64::new(0),
            trust: RwLock::with_class(
                "secure.trust",
                Trust {
                    anchors,
                    lists: Vec::new(),
                    revoked_peers: HashSet::new(),
                    revoked_users: HashSet::new(),
                },
            ),
            memo: (cache_capacity > 0).then(|| Memo::new(cache_capacity)),
            sessions: Mutex::with_class(
                "secure.sessions",
                Sessions {
                    outstanding: HashSet::new(),
                    drbg: HmacDrbg::from_seed_u64(rng_seed),
                },
            ),
            stats: Mutex::with_class("secure.stats", SecureBrokerStats::default()),
        })
    }

    // ------------------------------------------------------------------
    // Verification
    // ------------------------------------------------------------------

    /// Hit/miss counters of the verification-caching layers combined: the
    /// digest-level memo tables (advertisement verdicts, credential chains)
    /// plus the RSA-level [`VerifiedSigCache`].  A *hit* is a signature
    /// check answered without recomputation; zeros when caching is
    /// disabled.
    pub fn verify_cache_stats(&self) -> SigCacheStats {
        let Some(memo) = &self.memo else {
            return SigCacheStats::default();
        };
        let rsa = memo.signatures.stats();
        SigCacheStats {
            hits: rsa.hits + memo.hits.load(Ordering::Relaxed),
            misses: rsa.misses + memo.misses.load(Ordering::Relaxed),
            entries: rsa.entries,
        }
    }

    /// Verifies through the signature cache when there is one, directly
    /// otherwise.
    fn verify(&self, key: &RsaPublicKey, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        match &self.memo {
            Some(memo) => memo.signatures.verify(key, message, signature),
            None => key.verify(message, signature),
        }
    }

    /// Whether `credential` chains to the anchors of `trust` (see
    /// [`TrustAnchors::verify_credential_with`]), memoised by credential
    /// digest and stamped with the trust epoch.  Without the positive memo,
    /// a credential issued by a *peer* broker would pay a failing RSA
    /// verification against this broker's own key on every gossip message
    /// it rides in.
    fn credential_chains(&self, trust: &Trust, credential: &Credential) -> bool {
        let chains = || {
            trust
                .anchors
                .verify_credential_with(credential, |k, m, s| self.verify(k, m, s))
                .is_ok()
        };
        match &self.memo {
            Some(memo) => memo.chain(credential, trust.epoch(), chains),
            None => chains(),
        }
    }

    /// Current issuer-set epoch: the number of broker credentials this
    /// broker trusts, its own included.  It only grows.
    pub fn issuer_epoch(&self) -> u64 {
        self.trust.read().epoch()
    }

    /// The stateless verdict over `xml` (see [`VetVerdict`]), memoised by
    /// the XML's SHA-256 digest so repeated sightings of the same bytes —
    /// re-publishes, gossip replicas, anti-entropy snapshots — skip both the
    /// parse and the RSA.
    fn vet_verdict_for(&self, xml: &str) -> VetVerdict {
        let compute = || VetVerdict::compute(xml, |k, m, s| self.verify(k, m, s));
        match &self.memo {
            Some(memo) => memo.advert(xml, compute),
            None => compute(),
        }
    }

    // ------------------------------------------------------------------
    // Deployment clock, expiry and revocation
    // ------------------------------------------------------------------

    /// The broker's current deployment time (seconds since the epoch the
    /// credential lifetimes are expressed in).
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    /// Sets the deployment clock (monotone by convention; the simulation
    /// advances it explicitly instead of reading a wall clock).
    pub fn set_now(&self, now: u64) {
        self.now.store(now, Ordering::Relaxed);
    }

    /// Installs a revocation list pushed by the administrator.  The list's
    /// signature must verify against the administrator key; verified
    /// entries are merged into the broker's revocation state (revocation is
    /// monotone — there is no un-revoke short of a new credential for a new
    /// identity).  Routed through the signature cache: the same list
    /// travels in every extension-state gossip and anti-entropy snapshot,
    /// so only its first sighting pays for RSA.
    pub fn install_revocation_list(&self, list: &RevocationList) -> Result<(), OverlayError> {
        self.trust
            .write()
            .install(list, |k, m, s| self.verify(k, m, s))
            .map(|_| ())
    }

    /// The verified revocation lists installed on this broker.
    pub fn revocation_lists(&self) -> Vec<RevocationList> {
        self.trust.read().lists.clone()
    }

    /// Returns `true` if the peer identifier or username is revoked.
    pub fn is_revoked(&self, id: &PeerId, name: Option<&str>) -> bool {
        self.trust.read().is_revoked(id, name)
    }

    /// Admits the admin-issued credential of a peer broker: this broker
    /// then accepts credentials it issued and beacons it to connecting
    /// clients.  Refused unless it is a broker credential the administrator
    /// signed over a key that hashes to its subject; admitting a known one
    /// again changes nothing.
    pub fn add_peer_broker_credential(&self, credential: Credential) -> Result<(), OverlayError> {
        self.trust.write().anchors.add_broker(credential)
    }

    /// The peer broker credentials this broker beacons.
    pub fn peer_broker_credentials(&self) -> Vec<Credential> {
        self.trust.read().peer_brokers().to_vec()
    }

    /// Pushes a signed update of the federation's current credential set
    /// (this broker's plus every beaconed peer's) to every client currently
    /// connected to `broker`.
    ///
    /// This is the re-beaconing half of broker admission: a client that ran
    /// `secureConnection` *before* a broker joined only knows the
    /// credentials beaconed at that time, so it could never validate
    /// advertisements signed under the newcomer's credentials.  Clients
    /// verify the push's outer signature against their authenticated home
    /// broker's key and every contained credential against the
    /// administrator anchor, so a forged push teaches them nothing.
    /// Returns the number of clients the update was delivered to.
    pub fn push_credential_update(&self, broker: &Broker) -> usize {
        let blob = encode_credential_list(self.trust.read().anchors.brokers());
        let Ok(signature) = self.identity.sign(&credential_update_signed_content(&blob)) else {
            return 0;
        };
        let push = Message::new(MessageKind::CredentialUpdate, broker.id(), 0)
            .with_element("credentials", blob)
            .with_element("signature", signature);
        broker.send_to_clients(&broker.client_peers(), &push)
    }

    /// The broker's admin-issued credential (`Cred^Adm_Br`).
    pub fn credential(&self) -> &Credential {
        &self.credential
    }

    /// The broker's identity.
    pub fn identity(&self) -> &PeerIdentity {
        &self.identity
    }

    /// Number of session identifiers currently outstanding (issued but not
    /// yet consumed by a login).
    pub fn outstanding_sessions(&self) -> usize {
        self.sessions.lock().outstanding.len()
    }

    /// Activity counters.
    pub fn stats(&self) -> SecureBrokerStats {
        *self.stats.lock()
    }

    fn error_response(&self, broker: &Broker, message: &Message, kind: MessageKind, reason: &str) -> Message {
        Message::new(kind, broker.id(), message.request_id)
            .with_str("status", "error")
            .with_str("reason", reason)
    }

    /// secureConnection, broker side (paper §4.2.1 steps 4-5).
    fn handle_secure_connect(&self, broker: &Broker, message: &Message) -> Message {
        // A broker whose own admin-issued credential lapsed can no longer
        // prove its legitimacy; serving secure connections with it would
        // teach clients to accept expired credentials.
        if self.credential.is_expired(self.now()) {
            self.stats.lock().expired_rejected += 1;
            return self.error_response(
                broker,
                message,
                MessageKind::SecureConnectResponse,
                "broker credential expired",
            );
        }
        if self.is_revoked(&message.sender, None) {
            self.stats.lock().revoked_rejected += 1;
            return self.error_response(
                broker,
                message,
                MessageKind::SecureConnectResponse,
                "peer credential revoked",
            );
        }
        let Ok(challenge) = message.require("challenge") else {
            return self.error_response(broker, message, MessageKind::SecureConnectResponse, "missing challenge");
        };
        // Generate and remember a fresh session identifier.
        let sid = self.sessions.lock().mint();

        let Ok(signature) = self.identity.sign(challenge) else {
            return self.error_response(broker, message, MessageKind::SecureConnectResponse, "signing failure");
        };
        broker.mark_connected(message.sender);
        self.stats.lock().challenges_answered += 1;

        let mut response =
            Message::new(MessageKind::SecureConnectResponse, broker.id(), message.request_id)
                .with_str("status", "ok")
                .with_element("sid", sid)
                .with_element("challenge-signature", signature)
                .with_element("broker-credential", self.credential.to_bytes());
        // Beacon the rest of the federation; absent for a single broker, so
        // the single-broker wire format stays unchanged.
        let trust = self.trust.read();
        if !trust.peer_brokers().is_empty() {
            response.push_element("federation-credentials", encode_credential_list(trust.peer_brokers()));
        }
        drop(trust);
        response
    }

    /// secureLogin, broker side (paper §4.2.2 steps 4-9).
    fn handle_secure_login(&self, broker: &Broker, message: &Message) -> Message {
        let reply_err = |reason: &str| {
            self.error_response(broker, message, MessageKind::SecureLoginResponse, reason)
        };

        // Step 4: decrypt the wrapped request with SK_Br.
        let Ok(envelope_bytes) = message.require("envelope") else {
            return reply_err("missing envelope");
        };
        let Ok(envelope) = Envelope::from_bytes(envelope_bytes) else {
            return reply_err("malformed envelope");
        };
        let Ok(plaintext) = open_envelope(self.identity.private_key(), &envelope) else {
            return reply_err("envelope does not decrypt");
        };
        let Ok(inner) = Message::from_bytes(&plaintext) else {
            return reply_err("malformed login request");
        };
        let (Some(username), Some(password), Some(public_key_bytes), Some(signature), Some(sid)) = (
            inner.element_str("username"),
            inner.element_str("password"),
            inner.element("public-key"),
            inner.element("signature"),
            inner.element("sid"),
        ) else {
            return reply_err("incomplete login request");
        };

        // Step 5: the session identifier must be outstanding; consume it so a
        // replayed request can never succeed.
        if !self.sessions.lock().consume(sid) {
            self.stats.lock().replays_rejected += 1;
            return reply_err("unknown or already-used session identifier");
        }

        // The request must be signed by the enclosed key.
        let Ok(public_key) = RsaPublicKey::from_bytes(public_key_bytes) else {
            self.stats.lock().logins_rejected += 1;
            return reply_err("malformed public key");
        };
        let signed = login_signed_content(&username, &password, public_key_bytes);
        if public_key.verify(&signed, signature).is_err() {
            self.stats.lock().logins_rejected += 1;
            return reply_err("login request signature does not verify");
        }

        // Step 6: username/password against the central database.
        if !broker.database().verify(&username, &password) {
            self.stats.lock().logins_rejected += 1;
            return reply_err("authentication failed");
        }

        // Step 7: key authenticity against the claimed client peer identifier
        // (CBID binding).  Both the transport-level sender and the inner
        // request must match the key.
        let expected_id = PeerId::from_cbid(&Cbid::from_public_key(&public_key));
        if message.sender != expected_id || inner.sender != expected_id {
            self.stats.lock().logins_rejected += 1;
            return reply_err("public key does not belong to the claimed peer identifier");
        }

        // Revocation: a revoked identity or username is refused a (new)
        // credential even with valid database credentials.
        if self.is_revoked(&expected_id, Some(&username)) {
            self.stats.lock().revoked_rejected += 1;
            return reply_err("credential revoked by the administrator");
        }

        // Step 8: issue Cred^Br_Cl, expiring `credential_lifetime` seconds
        // from *now* on the deployment clock.
        let credential = match Credential::issue(
            CredentialRole::Client,
            &username,
            message.sender,
            public_key,
            &self.credential.subject_name,
            self.now().saturating_add(self.credential_lifetime),
            self.identity.private_key(),
        ) {
            Ok(c) => c,
            Err(_) => return reply_err("credential issuance failed"),
        };

        // Book-keeping shared with the plain broker: session + groups.
        let session = broker.establish_session(message.sender, &username);
        let groups = session
            .groups
            .iter()
            .map(|g| g.as_str().to_string())
            .collect::<Vec<_>>()
            .join(",");

        self.stats.lock().credentials_issued += 1;
        Message::new(MessageKind::SecureLoginResponse, broker.id(), message.request_id)
            .with_str("status", "ok")
            .with_element("credential", credential.to_bytes())
            .with_str("groups", &groups)
    }
}

impl BrokerExtension for SecureBrokerExtension {
    fn handle(&self, broker: &Broker, message: &Message) -> Option<Message> {
        match message.kind {
            MessageKind::SecureConnectChallenge => Some(self.handle_secure_connect(broker, message)),
            MessageKind::SecureLoginRequest => Some(self.handle_secure_login(broker, message)),
            _ => None,
        }
    }

    /// Stateless ingress pre-verification: the expensive RSA checks of the
    /// message kinds that carry signatures run here — on a verify-pool
    /// worker when the broker is pipelined — and record their verdicts in
    /// the verified-signature cache, so the serialized apply stage
    /// ([`SecureBrokerExtension::vet_publish`], revocation-list merges)
    /// finds them already paid for.  Client publishes, gossip digests and
    /// anti-entropy snapshots are walked for embedded signed advertisements;
    /// nothing here mutates broker state.
    fn preverify(&self, _broker: &Broker, message: &Message) {
        if self.memo.is_none() {
            // Without a cache to warm, pre-verification would only duplicate
            // the apply-stage checks — skip it (the ablation baseline).
            return;
        }
        for xml in carried_advertisements(message) {
            match self.vet_verdict_for(&xml) {
                VetVerdict::Verified(credential) => {
                    // Warm the credential-chain verdict too, so the
                    // apply-stage policy check is pure cache lookups.
                    let _ = self.credential_chains(&self.trust.read(), &credential);
                    self.stats.lock().ingress_preverified += 1;
                }
                VetVerdict::SignatureInvalid | VetVerdict::MalformedCredential => {
                    self.stats.lock().ingress_sig_failures += 1;
                }
                VetVerdict::Unsigned => {}
            }
        }
    }

    /// Publish policy: a *signed* advertisement is refused at the broker
    /// when its embedded credential is expired or revoked, when its XMLdsig
    /// signature does not verify under that credential's key, or when the
    /// credential chains to no issuer this federation knows — forged content
    /// must not enter (or be gossiped out of) the index.  The RSA work is
    /// served by the verified-signature cache, which the ingress
    /// [`SecureBrokerExtension::preverify`] stage has normally already
    /// warmed, so this apply-thread check is digest lookups, not modular
    /// exponentiation.  The *owner binding* (advertisement owner ==
    /// credential subject) deliberately stays client-side: clients hold the
    /// trust anchors and re-check on every use, and the attack suite pins
    /// that division of labour.  Unsigned advertisements (the plain
    /// overlay's publishes) pass through untouched.
    fn vet_publish(
        &self,
        _broker: &Broker,
        from: PeerId,
        _group: &GroupId,
        _doc_type: &str,
        xml: &str,
    ) -> Result<(), String> {
        // Stateless part (parse + signature), memoised by content digest —
        // normally a cache hit because the ingress stage pre-verified it.
        let credential = match self.vet_verdict_for(xml) {
            VetVerdict::Unsigned => return Ok(()), // no credential to vet
            VetVerdict::MalformedCredential => {
                return Err("malformed credential embedded in signed advertisement".to_string());
            }
            VetVerdict::SignatureInvalid => {
                self.stats.lock().forged_rejected += 1;
                return Err("advertisement signature does not verify".to_string());
            }
            VetVerdict::Verified(credential) => credential,
        };
        // Stateful part, re-evaluated on every publish: the deployment
        // clock, the revocation lists and the known-issuer set all move.
        if credential.is_expired(self.now()) {
            self.stats.lock().expired_rejected += 1;
            return Err("credential expired".to_string());
        }
        let trust = self.trust.read();
        if trust.is_revoked(&credential.subject_id, Some(&credential.subject_name))
            || trust.is_revoked(&from, None)
        {
            drop(trust);
            self.stats.lock().revoked_rejected += 1;
            return Err("credential revoked".to_string());
        }
        if !self.credential_chains(&trust, &credential) {
            drop(trust);
            self.stats.lock().forged_rejected += 1;
            return Err("credential does not chain to a known issuer".to_string());
        }
        Ok(())
    }

    /// Canonical summary of the merged revocation state: the sorted revoked
    /// identifiers and usernames.  Two brokers with the same *effective*
    /// revocations hash equal even if they received them via different
    /// lists, so healthy backbones exchange nothing.
    fn repair_digest(&self) -> Option<Vec<u8>> {
        Some(self.trust.read().digest())
    }

    /// The installed admin-signed lists, encoded for transit.  Signed
    /// content needs no transport trust — a receiving broker re-verifies
    /// every list against its own administrator key.
    fn repair_snapshot(&self) -> Option<Vec<u8>> {
        Some(encode_revocation_lists(&self.trust.read().lists))
    }

    /// Verifies and merges a peer broker's revocation lists.  Unverifiable
    /// lists (wrong signature, garbage bytes) are dropped without touching
    /// local state; the return value counts newly revoked subjects.
    fn apply_repair_snapshot(&self, _broker: &Broker, blob: &[u8]) -> u64 {
        let Ok(lists) = decode_revocation_lists(blob) else {
            return 0;
        };
        let mut trust = self.trust.write();
        lists
            .iter()
            .filter_map(|list| trust.install(list, |k, m, s| self.verify(k, m, s)).ok())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::Administrator;
    use jxta_crypto::envelope::seal_envelope;
    use jxta_overlay::broker::BrokerConfig;
    use jxta_overlay::net::{LinkModel, NetMessage};
    use jxta_overlay::record::{self, GossipBody, GossipEvent};
    use jxta_overlay::{GroupId, SimNetwork, UserDatabase};
    use std::sync::Arc;

    struct World {
        broker: Arc<Broker>,
        extension: Arc<SecureBrokerExtension>,
        admin: Administrator,
        rng: HmacDrbg,
    }

    fn world() -> World {
        let mut rng = HmacDrbg::from_seed_u64(0xB0EE);
        let admin = Administrator::new(&mut rng, "admin", 512).unwrap();
        let database = Arc::new(UserDatabase::new());
        database.register_user(&mut rng, "alice", "pw-a", &[GroupId::new("math")]);
        let broker_identity = PeerIdentity::generate(&mut rng, 1024).unwrap();
        let broker_credential = admin
            .issue_broker_credential(
                "broker-1",
                broker_identity.peer_id(),
                broker_identity.public_key(),
                u64::MAX,
            )
            .unwrap();
        let network = SimNetwork::new(LinkModel::ideal());
        let broker = Broker::new(
            broker_identity.peer_id(),
            BrokerConfig::named("broker-1"),
            network,
            database,
        );
        let extension = Arc::new(
            SecureBrokerExtension::new(
                broker_identity,
                broker_credential,
                admin.credential().clone(),
                3600,
                0x5EED,
                jxta_crypto::sigcache::DEFAULT_SIG_CACHE_CAPACITY,
            )
            .unwrap(),
        );
        broker.set_extension(extension.clone() as Arc<dyn BrokerExtension>);
        World {
            broker,
            extension,
            admin,
            rng,
        }
    }

    fn client_identity(rng: &mut HmacDrbg) -> PeerIdentity {
        PeerIdentity::generate(rng, 1024).unwrap()
    }

    fn do_secure_connect(w: &World, client: &PeerIdentity, challenge: &[u8]) -> Message {
        let msg = Message::new(MessageKind::SecureConnectChallenge, client.peer_id(), 1)
            .with_element("challenge", challenge.to_vec());
        w.broker.handle_message(&msg).unwrap()
    }

    fn build_login_request(
        w: &mut World,
        client: &PeerIdentity,
        username: &str,
        password: &str,
        sid: &[u8],
    ) -> Message {
        let pk_bytes = client.public_key().to_bytes();
        let signature = client
            .sign(&login_signed_content(username, password, &pk_bytes))
            .unwrap();
        let inner = Message::new(MessageKind::SecureLoginRequest, client.peer_id(), 0)
            .with_str("username", username)
            .with_str("password", password)
            .with_element("public-key", pk_bytes)
            .with_element("signature", signature)
            .with_element("sid", sid.to_vec());
        let envelope = seal_envelope(
            &mut w.rng,
            w.extension.identity().public_key(),
            &inner.to_bytes(),
        )
        .unwrap();
        Message::new(MessageKind::SecureLoginRequest, client.peer_id(), 2)
            .with_element("envelope", envelope.to_bytes())
    }

    #[test]
    fn secure_connect_issues_sid_and_signs_challenge() {
        let mut w = world();
        let client = client_identity(&mut w.rng);
        let challenge = w.rng.generate_vec(32);
        let resp = do_secure_connect(&w, &client, &challenge);
        assert_eq!(resp.element_str("status").unwrap(), "ok");
        assert_eq!(resp.element("sid").unwrap().len(), SESSION_ID_LEN);
        assert_eq!(w.extension.outstanding_sessions(), 1);

        // The credential chains to the admin and the signature covers our
        // challenge — exactly the client-side checks of §4.2.1 steps 6-7.
        let credential = Credential::from_bytes(resp.element("broker-credential").unwrap()).unwrap();
        credential.verify(w.admin.public_key()).unwrap();
        credential
            .public_key
            .verify(&challenge, resp.element("challenge-signature").unwrap())
            .unwrap();
        assert!(w.broker.is_connected(&client.peer_id()));
        assert_eq!(w.extension.stats().challenges_answered, 1);
    }

    #[test]
    fn credential_list_roundtrip_and_rejection_of_garbage() {
        let mut w = world();
        let other_broker = PeerIdentity::generate(&mut w.rng, 512).unwrap();
        let other_credential = w
            .admin
            .issue_broker_credential(
                "broker-2",
                other_broker.peer_id(),
                other_broker.public_key(),
                u64::MAX,
            )
            .unwrap();
        let list = vec![w.extension.credential().clone(), other_credential];
        let bytes = encode_credential_list(&list);
        assert_eq!(decode_credential_list(&bytes).unwrap(), list);
        assert_eq!(decode_credential_list(&encode_credential_list(&[])).unwrap(), vec![]);

        assert!(decode_credential_list(b"").is_err());
        assert!(decode_credential_list(&[0, 3]).is_err());
        let mut truncated = bytes.clone();
        truncated.truncate(truncated.len() - 1);
        assert!(decode_credential_list(&truncated).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_credential_list(&trailing).is_err());
    }

    #[test]
    fn secure_connect_beacons_federation_credentials() {
        let mut w = world();
        let client = client_identity(&mut w.rng);
        // Without peers, the response omits the federation element.
        let challenge = w.rng.generate_vec(32);
        let resp = do_secure_connect(&w, &client, &challenge);
        assert!(resp.element("federation-credentials").is_none());

        let other_broker = PeerIdentity::generate(&mut w.rng, 512).unwrap();
        let other_credential = w
            .admin
            .issue_broker_credential(
                "broker-2",
                other_broker.peer_id(),
                other_broker.public_key(),
                u64::MAX,
            )
            .unwrap();
        w.extension.add_peer_broker_credential(other_credential.clone()).unwrap();
        w.extension.add_peer_broker_credential(other_credential.clone()).unwrap();
        assert_eq!(w.extension.peer_broker_credentials().len(), 1, "no duplicates");

        let challenge = w.rng.generate_vec(32);
        let resp = do_secure_connect(&w, &client, &challenge);
        let beaconed =
            decode_credential_list(resp.element("federation-credentials").unwrap()).unwrap();
        assert_eq!(beaconed, vec![other_credential]);
    }

    #[test]
    fn secure_connect_without_challenge_fails() {
        let mut w = world();
        let client = client_identity(&mut w.rng);
        let msg = Message::new(MessageKind::SecureConnectChallenge, client.peer_id(), 1);
        let resp = w.broker.handle_message(&msg).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
    }

    #[test]
    fn secure_login_happy_path_issues_credential() {
        let mut w = world();
        let client = client_identity(&mut w.rng);
        let challenge = w.rng.generate_vec(32);
        let connect_resp = do_secure_connect(&w, &client, &challenge);
        let sid = connect_resp.element("sid").unwrap().to_vec();

        let login = build_login_request(&mut w, &client, "alice", "pw-a", &sid);
        let resp = w.broker.handle_message(&login).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "ok", "{:?}", resp.element_str("reason"));

        let credential = Credential::from_bytes(resp.element("credential").unwrap()).unwrap();
        credential.verify(w.extension.identity().public_key()).unwrap();
        assert_eq!(credential.subject_name, "alice");
        assert_eq!(credential.subject_id, client.peer_id());
        assert!(credential.binds_key_to_subject());
        assert!(resp.element_str("groups").unwrap().contains("math"));
        assert_eq!(w.broker.session_count(), 1);
        assert_eq!(w.extension.outstanding_sessions(), 0, "sid consumed");
        assert_eq!(w.extension.stats().credentials_issued, 1);
    }

    #[test]
    fn secure_login_rejects_replayed_request() {
        let mut w = world();
        let client = client_identity(&mut w.rng);
        let challenge = w.rng.generate_vec(32);
        let sid = do_secure_connect(&w, &client, &challenge)
            .element("sid")
            .unwrap()
            .to_vec();
        let login = build_login_request(&mut w, &client, "alice", "pw-a", &sid);
        // First attempt succeeds.
        assert_eq!(
            w.broker.handle_message(&login).unwrap().element_str("status").unwrap(),
            "ok"
        );
        // Replaying the exact same captured request fails: the sid was
        // consumed.
        let resp = w.broker.handle_message(&login).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert!(resp.element_str("reason").unwrap().contains("session identifier"));
        assert_eq!(w.extension.stats().replays_rejected, 1);
    }

    #[test]
    fn secure_login_rejects_unknown_sid() {
        let mut w = world();
        let client = client_identity(&mut w.rng);
        let login = build_login_request(&mut w, &client, "alice", "pw-a", &[9u8; SESSION_ID_LEN]);
        let resp = w.broker.handle_message(&login).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert_eq!(w.extension.stats().replays_rejected, 1);
    }

    #[test]
    fn secure_login_rejects_wrong_password() {
        let mut w = world();
        let client = client_identity(&mut w.rng);
        let challenge = w.rng.generate_vec(32);
        let sid = do_secure_connect(&w, &client, &challenge).element("sid").unwrap().to_vec();
        let login = build_login_request(&mut w, &client, "alice", "wrong", &sid);
        let resp = w.broker.handle_message(&login).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert!(resp.element_str("reason").unwrap().contains("authentication"));
        assert_eq!(w.extension.stats().logins_rejected, 1);
        assert_eq!(w.broker.session_count(), 0);
    }

    #[test]
    fn secure_login_rejects_stolen_key_identity() {
        // An attacker sends a login request from their own peer id but with
        // the victim's username/password guess and their own key — if the
        // sender id does not match the key's CBID the broker refuses.
        let mut w = world();
        let client = client_identity(&mut w.rng);
        let attacker_transport_id = PeerId::random(&mut w.rng);
        let challenge = w.rng.generate_vec(32);
        let sid = do_secure_connect(&w, &client, &challenge).element("sid").unwrap().to_vec();

        let mut login = build_login_request(&mut w, &client, "alice", "pw-a", &sid);
        login.sender = attacker_transport_id; // transport-level mismatch
        let resp = w.broker.handle_message(&login).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert!(resp.element_str("reason").unwrap().contains("claimed peer identifier"));
    }

    #[test]
    fn secure_login_rejects_tampered_signature() {
        let mut w = world();
        let client = client_identity(&mut w.rng);
        let challenge = w.rng.generate_vec(32);
        let sid = do_secure_connect(&w, &client, &challenge).element("sid").unwrap().to_vec();

        // Build a request where the signature covers a different password.
        let pk_bytes = client.public_key().to_bytes();
        let signature = client
            .sign(&login_signed_content("alice", "other-password", &pk_bytes))
            .unwrap();
        let inner = Message::new(MessageKind::SecureLoginRequest, client.peer_id(), 0)
            .with_str("username", "alice")
            .with_str("password", "pw-a")
            .with_element("public-key", pk_bytes)
            .with_element("signature", signature)
            .with_element("sid", sid);
        let envelope = seal_envelope(
            &mut w.rng,
            w.extension.identity().public_key(),
            &inner.to_bytes(),
        )
        .unwrap();
        let login = Message::new(MessageKind::SecureLoginRequest, client.peer_id(), 2)
            .with_element("envelope", envelope.to_bytes());
        let resp = w.broker.handle_message(&login).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert!(resp.element_str("reason").unwrap().contains("signature"));
    }

    #[test]
    fn secure_login_rejects_garbage_envelope() {
        let mut w = world();
        let client = client_identity(&mut w.rng);
        let login = Message::new(MessageKind::SecureLoginRequest, client.peer_id(), 2)
            .with_element("envelope", b"not an envelope".to_vec());
        let resp = w.broker.handle_message(&login).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
        // Missing the element entirely is also handled.
        let login = Message::new(MessageKind::SecureLoginRequest, client.peer_id(), 2);
        let resp = w.broker.handle_message(&login).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
    }

    #[test]
    fn expired_broker_credential_refuses_secure_connect() {
        let mut w = world();
        // The broker credential in `world()` never expires; build one that
        // lapsed at t=100 and advance the clock past it.
        let identity = PeerIdentity::generate(&mut w.rng, 512).unwrap();
        let credential = w
            .admin
            .issue_broker_credential("short-lived", identity.peer_id(), identity.public_key(), 100)
            .unwrap();
        let extension = Arc::new(
            SecureBrokerExtension::new(
                identity,
                credential,
                w.admin.credential().clone(),
                3600,
                1,
                jxta_crypto::sigcache::DEFAULT_SIG_CACHE_CAPACITY,
            )
            .unwrap(),
        );
        w.broker.set_extension(extension.clone() as Arc<dyn BrokerExtension>);

        extension.set_now(99);
        let client = client_identity(&mut w.rng);
        let challenge = w.rng.generate_vec(32);
        let resp = do_secure_connect(&w, &client, &challenge);
        assert_eq!(resp.element_str("status").unwrap(), "ok", "still valid at t=99");

        extension.set_now(101);
        let resp = do_secure_connect(&w, &client, &challenge);
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert!(resp.element_str("reason").unwrap().contains("expired"));
        assert_eq!(extension.stats().expired_rejected, 1);
    }

    #[test]
    fn issued_credentials_expire_relative_to_the_deployment_clock() {
        let mut w = world();
        w.extension.set_now(500);
        let client = client_identity(&mut w.rng);
        let challenge = w.rng.generate_vec(32);
        let sid = do_secure_connect(&w, &client, &challenge).element("sid").unwrap().to_vec();
        let login = build_login_request(&mut w, &client, "alice", "pw-a", &sid);
        let resp = w.broker.handle_message(&login).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "ok");
        let credential = Credential::from_bytes(resp.element("credential").unwrap()).unwrap();
        assert_eq!(credential.expires_at, 500 + 3600, "now + lifetime");
        assert!(!credential.is_expired(500 + 3600));
        assert!(credential.is_expired(500 + 3601));
    }

    #[test]
    fn revocation_list_requires_admin_signature_and_key() {
        let mut w = world();
        let victim = client_identity(&mut w.rng);
        let list = w
            .admin
            .issue_revocation_list(&[victim.peer_id()], &["alice"], 7)
            .unwrap();

        // A list signed by someone other than the admin is rejected.
        let impostor = crate::admin::Administrator::new(&mut w.rng, "impostor", 512).unwrap();
        let forged = impostor
            .issue_revocation_list(&[victim.peer_id()], &[], 7)
            .unwrap();
        assert!(w.extension.install_revocation_list(&forged).is_err());
        assert!(!w.extension.is_revoked(&victim.peer_id(), Some("alice")));

        // The genuine list installs and revokes both the id and the name.
        w.extension.install_revocation_list(&list).unwrap();
        assert!(w.extension.is_revoked(&victim.peer_id(), None));
        assert!(w.extension.is_revoked(&PeerId::random(&mut w.rng), Some("alice")));
        assert!(!w.extension.is_revoked(&PeerId::random(&mut w.rng), Some("bob")));
    }

    #[test]
    fn revoked_peer_is_refused_login_and_connect() {
        let mut w = world();
        let client = client_identity(&mut w.rng);

        // Revoked by username: the login (with a fresh sid and valid
        // password) is refused.
        let list = w.admin.issue_revocation_list(&[], &["alice"], 0).unwrap();
        w.extension.install_revocation_list(&list).unwrap();
        let challenge = w.rng.generate_vec(32);
        let sid = do_secure_connect(&w, &client, &challenge).element("sid").unwrap().to_vec();
        let login = build_login_request(&mut w, &client, "alice", "pw-a", &sid);
        let resp = w.broker.handle_message(&login).unwrap();
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert!(resp.element_str("reason").unwrap().contains("revoked"));
        assert_eq!(w.extension.stats().revoked_rejected, 1);
        assert_eq!(w.broker.session_count(), 0);

        // Revoked by peer identifier: even the secureConnection is refused.
        let list = w
            .admin
            .issue_revocation_list(&[client.peer_id()], &[], 0)
            .unwrap();
        w.extension.install_revocation_list(&list).unwrap();
        let challenge = w.rng.generate_vec(32);
        let resp = do_secure_connect(&w, &client, &challenge);
        assert_eq!(resp.element_str("status").unwrap(), "error");
        assert!(resp.element_str("reason").unwrap().contains("revoked"));
    }

    #[test]
    fn vet_publish_rejects_expired_and_revoked_credentials_only() {
        use crate::signed_adv::signed_pipe_advertisement;
        use jxta_overlay::advertisement::PipeAdvertisement;
        let mut w = world();
        let client = client_identity(&mut w.rng);
        let group = jxta_overlay::GroupId::new("math");
        let credential = Credential::issue(
            CredentialRole::Client,
            "alice",
            client.peer_id(),
            client.public_key().clone(),
            "broker-1",
            1_000,
            w.extension.identity().private_key(),
        )
        .unwrap();
        let advertisement = PipeAdvertisement {
            owner: client.peer_id(),
            group: group.clone(),
            name: "alice-inbox".into(),
        };
        let xml = signed_pipe_advertisement(&advertisement, &client, &credential).unwrap();

        // Fresh credential: accepted.
        assert!(w
            .extension
            .vet_publish(&w.broker, client.peer_id(), &group, "jxta:PipeAdvertisement", &xml)
            .is_ok());
        // Unsigned advertisements are never vetted.
        assert!(w
            .extension
            .vet_publish(
                &w.broker,
                client.peer_id(),
                &group,
                "jxta:PipeAdvertisement",
                "<jxta:PipeAdvertisement/>"
            )
            .is_ok());

        // Expired credential: refused.
        w.extension.set_now(1_001);
        let err = w
            .extension
            .vet_publish(&w.broker, client.peer_id(), &group, "jxta:PipeAdvertisement", &xml)
            .unwrap_err();
        assert!(err.contains("expired"));
        assert_eq!(w.extension.stats().expired_rejected, 1);

        // Revoked credential: refused even while unexpired.
        w.extension.set_now(0);
        let list = w
            .admin
            .issue_revocation_list(&[client.peer_id()], &[], 0)
            .unwrap();
        w.extension.install_revocation_list(&list).unwrap();
        let err = w
            .extension
            .vet_publish(&w.broker, client.peer_id(), &group, "jxta:PipeAdvertisement", &xml)
            .unwrap_err();
        assert!(err.contains("revoked"));
        assert_eq!(w.extension.stats().revoked_rejected, 1);
    }

    #[test]
    fn extension_ignores_unrelated_kinds() {
        let mut w = world();
        let client = client_identity(&mut w.rng);
        let msg = Message::new(MessageKind::PeerText, client.peer_id(), 1);
        assert!(w.extension.handle(&w.broker, &msg).is_none());
    }

    #[test]
    fn negative_chain_verdicts_cache_within_an_issuer_epoch() {
        let w = world();
        // A credential issued by a *foreign* federation: chains to nobody
        // this broker knows.
        let mut rng = HmacDrbg::from_seed_u64(0xF0E1);
        let foreign_admin = Administrator::new(&mut rng, "foreign-admin", 512).unwrap();
        let foreign_identity = PeerIdentity::generate(&mut rng, 1024).unwrap();
        let foreign = foreign_admin
            .issue_broker_credential(
                "foreign",
                foreign_identity.peer_id(),
                foreign_identity.public_key(),
                u64::MAX,
            )
            .unwrap();

        let memo = w.extension.memo.as_ref().unwrap();
        let chains = |credential: &Credential| {
            w.extension.credential_chains(&w.extension.trust.read(), credential)
        };
        let epoch0 = w.extension.issuer_epoch();
        let hits0 = memo.hits.load(Ordering::Relaxed);
        let misses0 = memo.misses.load(Ordering::Relaxed);

        // First sighting computes the failing chain walk and memoises the
        // negative verdict; the second is answered from the memo.
        assert!(!chains(&foreign));
        assert!(!chains(&foreign));
        assert_eq!(memo.misses.load(Ordering::Relaxed), misses0 + 1);
        assert_eq!(memo.hits.load(Ordering::Relaxed), hits0 + 1);

        // Admission of a broker whose credential binds the foreign admin's
        // key grows the issuer set: the epoch bumps, the stale negative
        // verdict is recomputed — and now chains.  (The bridge's subject is
        // the identifier that key hashes to, or admission refuses it.)
        let bridge = w
            .admin
            .issue_broker_credential(
                "bridge",
                foreign_admin.identity().peer_id(),
                foreign_admin.public_key(),
                u64::MAX,
            )
            .unwrap();
        w.extension.add_peer_broker_credential(bridge.clone()).unwrap();
        assert_eq!(w.extension.issuer_epoch(), epoch0 + 1);
        assert!(
            chains(&foreign),
            "the epoch bump must invalidate the cached negative verdict"
        );
        assert_eq!(memo.misses.load(Ordering::Relaxed), misses0 + 2);

        // The now-positive verdict is epoch-independent, and re-adding a
        // known credential does not bump the epoch.
        w.extension.add_peer_broker_credential(bridge).unwrap();
        assert_eq!(w.extension.issuer_epoch(), epoch0 + 1);
        assert!(chains(&foreign));
        assert_eq!(memo.hits.load(Ordering::Relaxed), hits0 + 2);
    }

    /// A signed pipe advertisement of `client` under `credential`, and the
    /// `PublishAdvertisement` carrying it into group `math`.
    fn signed_publish(client: &PeerIdentity, credential: &Credential) -> (String, Message) {
        use crate::signed_adv::signed_pipe_advertisement;
        use jxta_overlay::advertisement::PipeAdvertisement;
        let advertisement = PipeAdvertisement {
            owner: client.peer_id(),
            group: GroupId::new("math"),
            name: "inbox".into(),
        };
        let xml = signed_pipe_advertisement(&advertisement, client, credential).unwrap();
        let publish = Message::new(MessageKind::PublishAdvertisement, client.peer_id(), 3)
            .with_str("group", "math")
            .with_str("doc-type", "jxta:PipeAdvertisement")
            .with_str("xml", &xml);
        (xml, publish)
    }

    /// A broker credential the administrator did not sign never becomes an
    /// issuer: admission refuses it, and a client credential issued under
    /// its key is refused at publish as chaining to no known issuer.
    #[test]
    fn trust_model_refuses_a_peer_broker_the_administrator_did_not_sign() {
        let mut w = world();
        let rogue_admin = Administrator::new(&mut w.rng, "rogue-admin", 512).unwrap();
        let rogue = PeerIdentity::generate(&mut w.rng, 512).unwrap();
        let rogue_credential = rogue_admin
            .issue_broker_credential("rogue", rogue.peer_id(), rogue.public_key(), u64::MAX)
            .unwrap();
        assert!(w.extension.add_peer_broker_credential(rogue_credential).is_err());
        assert!(w.extension.peer_broker_credentials().is_empty());

        let client = client_identity(&mut w.rng);
        let credential = Credential::issue(
            CredentialRole::Client,
            "alice",
            client.peer_id(),
            client.public_key().clone(),
            "rogue",
            u64::MAX,
            rogue.private_key(),
        )
        .unwrap();
        let (xml, _) = signed_publish(&client, &credential);
        let err = w
            .extension
            .vet_publish(&w.broker, client.peer_id(), &GroupId::new("math"), "jxta:PipeAdvertisement", &xml)
            .unwrap_err();
        assert!(err.contains("does not chain"), "{err}");
        assert_eq!(w.extension.stats().forged_rejected, 1);
    }

    /// The secure owners' locks under the lock-order detector in panic
    /// mode: a secure join, a signed publish through `preverify` and
    /// `vet_publish`, a revocation install and a peer-broker admission.  A
    /// chain check holds the trust lock while it takes the memo and the
    /// signature cache; nothing takes them the other way round.
    #[test]
    fn lock_order_detector_observes_secure_classes() {
        use parking_lot::lock_order::{self, CycleMode};
        let mut w = world();
        lock_order::with_thread_mode(CycleMode::Panic, || {
            let client = client_identity(&mut w.rng);
            let sid = do_secure_connect(&w, &client, b"challenge").element("sid").unwrap().to_vec();
            let login = build_login_request(&mut w, &client, "alice", "pw-a", &sid);
            let response = w.broker.handle_message(&login).unwrap();
            assert_eq!(response.element_str("status").unwrap(), "ok");
            let credential = Credential::from_bytes(response.element("credential").unwrap()).unwrap();

            let (xml, publish) = signed_publish(&client, &credential);
            w.broker.process_net(NetMessage {
                from: client.peer_id(),
                to: w.broker.id(),
                payload: publish.to_bytes(),
                wire_time: std::time::Duration::ZERO,
            });
            assert_eq!(w.extension.stats().ingress_preverified, 1);
            assert_eq!(
                w.broker.lookup(&GroupId::new("math"), "jxta:PipeAdvertisement", Some(client.peer_id())),
                vec![xml],
                "the publish passed vet_publish"
            );

            let list = w.admin.issue_revocation_list(&[], &["mallory"], 0).unwrap();
            w.extension.install_revocation_list(&list).unwrap();
            let other = PeerIdentity::generate(&mut w.rng, 512).unwrap();
            let other_credential = w
                .admin
                .issue_broker_credential("broker-2", other.peer_id(), other.public_key(), u64::MAX)
                .unwrap();
            w.extension.add_peer_broker_credential(other_credential).unwrap();
        });

        let edges = lock_order::graph_edges();
        for edge in [("secure.trust", "secure.memo"), ("secure.trust", "sigcache.verified")] {
            assert!(edges.contains(&edge), "{edge:?} not observed: {edges:?}");
        }
        let secure = |class: &str| class.starts_with("secure.") || class.starts_with("sigcache.");
        assert!(
            lock_order::violations().iter().all(|v| !secure(v.held) && !secure(v.acquired)),
            "secure workload produced lock-order violations"
        );
    }

    /// A forged record length cannot stall pre-verification: a one-event
    /// digest whose XML claims `u32::MAX` bytes, from a peer outside the
    /// federation, is walked only as far as its element holds, then
    /// rejected at admission.
    #[test]
    fn forged_sync_count_from_an_unadmitted_peer_is_rejected() {
        let mut w = world();
        let rogue = PeerId::random(&mut w.rng);
        let (doc_type, xml) = ("jxta:PipeAdvertisement".to_string(), "<adv/>".to_string());
        let publish = GossipBody::Publish(GroupId::new("math"), rogue, doc_type, xml);
        let event = GossipEvent { seq: 1, origin: rogue, broadcast: false, repair: false, body: publish };
        let mut forged = record::sync_message(rogue, &[event]).with_str("seq", "1");
        // The event ends with the XML's 4-byte length and its 6 bytes.
        let events = &mut forged.elements[0].content;
        let at = events.len() - 10;
        events[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        w.broker.process_net(NetMessage {
            from: rogue,
            to: w.broker.id(),
            payload: forged.to_bytes(),
            wire_time: std::time::Duration::ZERO,
        });
        assert_eq!(w.broker.federation_stats().rejected_unknown_origin, 1);
        assert_eq!(w.broker.processed_count(), 1);
        assert_eq!(w.extension.stats().ingress_preverified, 0);
    }

    /// Ingress pre-verification reads the signed advertisements backbone
    /// traffic carries: the one in a peer broker's publish gossip and the
    /// one in its anti-entropy snapshot are each verified before the
    /// sender is admitted (here it never is).
    #[test]
    fn preverify_counts_signed_advertisements_in_gossip_and_pages() {
        let mut w = world();
        let client = client_identity(&mut w.rng);
        let sid = do_secure_connect(&w, &client, b"challenge").element("sid").unwrap().to_vec();
        let login = build_login_request(&mut w, &client, "alice", "pw-a", &sid);
        let response = w.broker.handle_message(&login).unwrap();
        let credential = Credential::from_bytes(response.element("credential").unwrap()).unwrap();
        let (xml, _) = signed_publish(&client, &credential);

        // A plain peer broker on a network of its own, repairing flat, so a
        // digest that disagrees draws one snapshot of every section.
        let network = SimNetwork::new(LinkModel::ideal());
        let config = BrokerConfig::named("peer").with_flat_repair();
        let peer = Broker::new(PeerId::random(&mut w.rng), config, Arc::clone(&network), Arc::new(UserDatabase::new()));
        peer.add_peer_broker(w.broker.id());
        let inbox = network.register(w.broker.id());
        peer.index_and_distribute(client.peer_id(), &GroupId::new("math"), "jxta:PipeAdvertisement", &xml);
        let sync = inbox.try_recv().unwrap();
        let digest = Message::new(MessageKind::AntiEntropyDigest, w.broker.id(), 0)
            .with_element("digests", vec![0xA5; 32])
            .with_str("seq", "1");
        peer.process_net(NetMessage {
            from: w.broker.id(),
            to: peer.id(),
            payload: digest.to_bytes(),
            wire_time: std::time::Duration::ZERO,
        });
        let snapshot = inbox.try_recv().unwrap();
        for (carried, delivery) in [sync, snapshot].into_iter().enumerate() {
            let kind = Message::from_bytes(&delivery.payload).unwrap().kind;
            w.broker.process_net(delivery);
            assert_eq!(w.extension.stats().ingress_preverified, carried as u64 + 1, "{kind:?}");
        }
        assert_eq!(w.broker.federation_stats().rejected_unknown_origin, 2);
    }

    #[test]
    fn signed_content_helpers_are_injective_enough() {
        // Field boundaries are length-prefixed, so shifting bytes between
        // fields changes the encoding.
        assert_ne!(
            login_signed_content("ab", "c", b"k"),
            login_signed_content("a", "bc", b"k")
        );
        assert_ne!(
            message_signed_content("g1", "hello"),
            message_signed_content("g", "1hello")
        );
        assert_eq!(
            message_signed_content("g", "t"),
            message_signed_content("g", "t")
        );
    }
}
