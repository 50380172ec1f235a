//! System setup helpers.
//!
//! Assembling a secured JXTA-Overlay deployment involves several steps that
//! the paper's §4.1 describes: the administrator generates its key pair and
//! self-signed credential, each broker generates a key pair and receives an
//! admin-issued credential, end users are registered in the central database,
//! and every client peer is provisioned with a copy of the administrator
//! credential.  [`SecureNetworkBuilder`] performs all of that and hands out
//! ready-to-use [`SecureClient`]s and plain [`ClientPeer`]s, which is what
//! the examples, integration tests and the benchmark harness build on.
//!
//! A deployment may span a whole **broker federation**
//! ([`SecureNetworkBuilder::with_broker_count`]): every broker gets its own
//! identity and admin-issued credential, so a secure client can run
//! `secureConnection`/`secureLogin` against whichever broker it lands on and
//! verify that broker's credential against the same administrator trust
//! anchor.

use crate::admin::{Administrator, DEFAULT_CREDENTIAL_LIFETIME};
use crate::broker_ext::SecureBrokerExtension;
use crate::identity::PeerIdentity;
use crate::secure_client::SecureClient;
use jxta_crypto::drbg::HmacDrbg;
use jxta_crypto::sigcache::DEFAULT_SIG_CACHE_CAPACITY;
use jxta_overlay::broker::{Broker, BrokerConfig};
use jxta_overlay::client::{ClientConfig, ClientPeer};
use jxta_overlay::federation::BrokerNetwork;
use jxta_overlay::net::LinkModel;
use jxta_overlay::{GroupId, PeerId, SimNetwork, UserDatabase};
use rand::RngCore;
use std::sync::Arc;
use std::time::Duration;

/// Builder for a complete secured JXTA-Overlay deployment.
pub struct SecureNetworkBuilder {
    seed: u64,
    key_bits: usize,
    link: LinkModel,
    users: Vec<(String, String, Vec<GroupId>)>,
    broker_names: Vec<String>,
    replication_factor: Option<usize>,
    repair_interval: Option<Duration>,
    verify_workers: usize,
    inbox_capacity: Option<usize>,
    apply_lanes: Option<usize>,
    verify_cache_capacity: Option<usize>,
}

impl SecureNetworkBuilder {
    /// Starts a builder.  `seed` makes the whole deployment (keys, session
    /// identifiers, peer identifiers) deterministic.
    pub fn new(seed: u64) -> Self {
        SecureNetworkBuilder {
            seed,
            key_bits: crate::identity::DEFAULT_KEY_BITS,
            link: LinkModel::ideal(),
            users: Vec::new(),
            broker_names: vec!["broker-1".to_string()],
            replication_factor: None,
            repair_interval: None,
            verify_workers: 0,
            inbox_capacity: None,
            apply_lanes: None,
            verify_cache_capacity: None,
        }
    }

    /// Runs every broker's ingress as a staged pipeline with `workers`
    /// parallel verify workers (default 0: the classic single event-loop
    /// thread).  See [`jxta_overlay::broker::BrokerConfig::verify_workers`].
    pub fn with_verify_workers(mut self, workers: usize) -> Self {
        self.verify_workers = workers;
        self
    }

    /// Bounds every broker's network inbox at `capacity` queued messages
    /// (default: unbounded), turning overload into explicit sender
    /// backpressure instead of unbounded queue growth.
    pub fn with_inbox_capacity(mut self, capacity: usize) -> Self {
        self.inbox_capacity = Some(capacity);
        self
    }

    /// Pins the number of partitioned apply lanes each pipelined broker
    /// runs (default: one lane per verify worker).  See
    /// [`jxta_overlay::broker::BrokerConfig::apply_lanes`].
    pub fn with_apply_lanes(mut self, lanes: usize) -> Self {
        self.apply_lanes = Some(lanes);
        self
    }

    /// Sets the capacity of each broker's verified-signature cache; `0`
    /// disables caching (every signature verification runs RSA — the
    /// ablation baseline).  Default: the cache is enabled at
    /// [`jxta_crypto::sigcache::DEFAULT_SIG_CACHE_CAPACITY`].
    pub fn with_verify_cache_capacity(mut self, capacity: usize) -> Self {
        self.verify_cache_capacity = Some(capacity);
        self
    }

    /// Runs an anti-entropy repair round on every broker each `interval`:
    /// replica divergence caused by lost backbone gossip (an adversarial
    /// drop) then heals within a bounded number of intervals instead of
    /// persisting forever.  Off by default — tests that assert on
    /// *detection* of divergence rely on the state staying divergent.
    pub fn with_repair_interval(mut self, interval: Duration) -> Self {
        self.repair_interval = Some(interval);
        self
    }

    /// Shards the federation's advertisement index and group membership
    /// across the consistent-hash ring with `k` replicas per entry, instead
    /// of fully replicating them to every broker (the default).  The
    /// peer→home routing table stays fully replicated either way.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero — an entry needs at least one replica.
    pub fn with_replication_factor(mut self, k: usize) -> Self {
        assert!(k > 0, "an entry needs at least one replica");
        self.replication_factor = Some(k);
        self
    }

    /// Sets the RSA modulus size used by every identity (default 1024 bits).
    pub fn with_key_bits(mut self, bits: usize) -> Self {
        self.key_bits = bits;
        self
    }

    /// Sets the link model of the simulated network (default: ideal link).
    pub fn with_link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Registers an end user with the given group memberships.
    pub fn with_user(mut self, username: &str, password: &str, groups: &[&str]) -> Self {
        self.users.push((
            username.to_string(),
            password.to_string(),
            groups.iter().map(|g| GroupId::new(*g)).collect(),
        ));
        self
    }

    /// Sets the first broker's well-known name.
    pub fn with_broker_name(mut self, name: &str) -> Self {
        self.broker_names[0] = name.to_string();
        self
    }

    /// Deploys a federation of `count` brokers, interconnected into a
    /// full-mesh backbone (default: 1).  Names already set (e.g. via
    /// [`SecureNetworkBuilder::with_broker_name`], in either call order) are
    /// preserved; additional brokers get default `broker-N` names.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn with_broker_count(mut self, count: usize) -> Self {
        assert!(count > 0, "a deployment needs at least one broker");
        self.broker_names.truncate(count);
        for i in self.broker_names.len()..count {
            self.broker_names.push(format!("broker-{}", i + 1));
        }
        self
    }

    /// Deploys one broker per name, interconnected into a full-mesh
    /// backbone.
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty.
    pub fn with_brokers(mut self, names: &[&str]) -> Self {
        assert!(!names.is_empty(), "a deployment needs at least one broker");
        self.broker_names = names.iter().map(|n| n.to_string()).collect();
        self
    }

    /// Performs the system setup and spawns the broker.
    pub fn build(self) -> SecureNetwork {
        let mut rng = HmacDrbg::from_seed_u64(self.seed);
        let database = Arc::new(UserDatabase::new());

        // Administrator: key pair + self-signed credential + user registry.
        let admin = Administrator::new(&mut rng, "jxta-overlay-admin", self.key_bits)
            .expect("administrator key generation");
        for (username, password, groups) in &self.users {
            admin.register_user(&mut rng, &database, username, password, groups);
        }
        let mut deployment = Deployment {
            network: SimNetwork::new(self.link),
            database,
            admin,
            rng,
            key_bits: self.key_bits,
            verify_cache_capacity: self.verify_cache_capacity.unwrap_or(DEFAULT_SIG_CACHE_CAPACITY),
            extensions: Vec::with_capacity(self.broker_names.len()),
        };

        // Brokers; the federation module interconnects them into a full mesh.
        let brokers = self
            .broker_names
            .iter()
            .map(|name| {
                deployment.provision_broker(BrokerConfig {
                    name: name.clone(),
                    replication_factor: self.replication_factor,
                    verify_workers: self.verify_workers,
                    inbox_capacity: self.inbox_capacity,
                    apply_lanes: self.apply_lanes,
                    ..BrokerConfig::default()
                })
            })
            .collect();
        let federation = BrokerNetwork::spawn_with_repair(brokers, self.repair_interval);
        SecureNetwork {
            deployment,
            federation,
        }
    }
}

/// What provisioning a broker draws on, shared by
/// [`SecureNetworkBuilder::build`] and [`SecureNetwork::add_broker`]: the
/// network, the user database, the administrator, the seeded DRBG and the
/// secure extensions of the brokers provisioned so far.
struct Deployment {
    network: Arc<SimNetwork>,
    database: Arc<UserDatabase>,
    admin: Administrator,
    rng: HmacDrbg,
    key_bits: usize,
    verify_cache_capacity: usize,
    extensions: Vec<Arc<SecureBrokerExtension>>,
}

impl Deployment {
    /// Provisions one broker: a key pair, its admin-issued credential and a
    /// secure extension on the deployment clock.  The newcomer and every
    /// broker provisioned before it admit each other's credentials, so each
    /// accepts credentials the other issues and beacons it to its clients.
    fn provision_broker(&mut self, config: BrokerConfig) -> Arc<Broker> {
        let identity = PeerIdentity::generate(&mut self.rng, self.key_bits)
            .expect("broker key generation");
        let credential = self
            .admin
            .issue_broker_credential(
                &config.name,
                identity.peer_id(),
                identity.public_key(),
                DEFAULT_CREDENTIAL_LIFETIME,
            )
            .expect("broker credential issuance");
        let broker = Broker::new(
            identity.peer_id(),
            config,
            Arc::clone(&self.network),
            Arc::clone(&self.database),
        );
        let extension = Arc::new(
            SecureBrokerExtension::new(
                identity,
                credential,
                self.admin.credential().clone(),
                DEFAULT_CREDENTIAL_LIFETIME,
                self.rng.next_u64(),
                self.verify_cache_capacity,
            )
            .expect("admin-issued broker credential"),
        );
        if let Some(first) = self.extensions.first() {
            extension.set_now(first.now());
        }
        for existing in &self.extensions {
            let admitted = existing
                .add_peer_broker_credential(extension.credential().clone())
                .and_then(|()| extension.add_peer_broker_credential(existing.credential().clone()));
            admitted.expect("admin-issued broker credentials");
        }
        broker.set_extension(extension.clone());
        self.extensions.push(extension);
        broker
    }
}

/// A running secured deployment: network, central database, administrator and
/// a federation of one or more brokers with the secure extension installed.
pub struct SecureNetwork {
    deployment: Deployment,
    federation: BrokerNetwork,
}

impl SecureNetwork {
    /// The simulated network.
    pub fn network(&self) -> &Arc<SimNetwork> {
        &self.deployment.network
    }

    /// The central user database.
    pub fn database(&self) -> &Arc<UserDatabase> {
        &self.deployment.database
    }

    /// The administrator (trust anchor).
    pub fn admin(&self) -> &Administrator {
        &self.deployment.admin
    }

    /// The first broker's peer identifier (its well-known address).
    pub fn broker_id(&self) -> PeerId {
        self.federation.id(0)
    }

    /// The first running broker.
    pub fn broker(&self) -> &Arc<Broker> {
        self.federation.broker(0)
    }

    /// The first broker's secure extension (exposes its statistics).
    pub fn broker_extension(&self) -> &Arc<SecureBrokerExtension> {
        &self.deployment.extensions[0]
    }

    /// Number of brokers in the deployment's federation.
    pub fn broker_count(&self) -> usize {
        self.federation.len()
    }

    /// The `index`-th broker's peer identifier.
    pub fn broker_id_at(&self, index: usize) -> PeerId {
        self.federation.id(index)
    }

    /// The `index`-th running broker.
    pub fn broker_at(&self, index: usize) -> &Arc<Broker> {
        self.federation.broker(index)
    }

    /// The `index`-th broker's secure extension.
    pub fn broker_extension_at(&self, index: usize) -> &Arc<SecureBrokerExtension> {
        &self.deployment.extensions[index]
    }

    /// The broker federation backbone.
    pub fn federation(&self) -> &BrokerNetwork {
        &self.federation
    }

    /// The RSA key size used by this deployment's identities.
    pub fn key_bits(&self) -> usize {
        self.deployment.key_bits
    }

    /// Creates a plain (insecure) client peer — the baseline of every
    /// experiment.
    pub fn plain_client(&mut self, nickname: &str) -> ClientPeer {
        ClientPeer::with_random_id(
            Arc::clone(&self.deployment.network),
            ClientConfig::named(nickname),
            &mut self.deployment.rng,
        )
    }

    /// Creates a secure client peer: generates its boot-time key pair and
    /// provisions it with the administrator credential.
    pub fn secure_client(&mut self, nickname: &str) -> SecureClient {
        let identity = PeerIdentity::generate(&mut self.deployment.rng, self.deployment.key_bits)
            .expect("client key generation");
        self.secure_client_with_identity(nickname, identity)
    }

    /// Creates a secure client from an existing identity (used when the same
    /// key material must be reused across runs).
    pub fn secure_client_with_identity(
        &mut self,
        nickname: &str,
        identity: PeerIdentity,
    ) -> SecureClient {
        SecureClient::new(
            Arc::clone(&self.deployment.network),
            ClientConfig::named(nickname),
            identity,
            self.deployment.admin.credential().clone(),
            self.deployment.rng.next_u64(),
        )
        .expect("secure client construction")
    }

    /// Sets the deployment clock on every broker (seconds since the epoch
    /// credential lifetimes are expressed in).  The simulation advances time
    /// explicitly; brokers evaluate credential expiry against this clock.
    pub fn set_time(&self, now: u64) {
        for extension in &self.deployment.extensions {
            extension.set_now(now);
        }
    }

    /// Revokes credentials: the administrator issues a signed revocation
    /// list over the given peer identifiers and usernames, installs it on
    /// every *current* broker (in-process — an active network adversary
    /// cannot drop a revocation) and additionally gossips it over the
    /// backbone.  The list is admin-signed, so gossip transit needs no extra
    /// trust, and brokers that join *later* catch up through the
    /// anti-entropy extension section instead of depending on a push made
    /// before they existed.
    pub fn revoke(&self, revoked_ids: &[PeerId], revoked_names: &[&str]) {
        let extensions = &self.deployment.extensions;
        let issued_at = extensions.first().map(|e| e.now()).unwrap_or_default();
        let list = self
            .deployment
            .admin
            .issue_revocation_list(revoked_ids, revoked_names, issued_at)
            .expect("revocation list issuance");
        for extension in extensions {
            extension
                .install_revocation_list(&list)
                .expect("revocation list installation");
        }
        self.federation.broker(0).gossip_extension_state();
    }

    /// Admits a new broker into the running deployment: provisions it like
    /// the brokers [`SecureNetworkBuilder::build`] deploys (identity, admin
    /// credential, secure extension on the deployment clock, credentials
    /// admitted both ways), spawns it into the federation full mesh and
    /// migrates its shard onto it.  Prior revocations reach it via the
    /// backbone (anti-entropy, or the next gossiped list) rather than any
    /// in-process push.
    ///
    /// Every pre-existing broker then pushes a signed credential-set update
    /// to its *live* clients: peers that ran `secureConnection` before this
    /// admission would otherwise never learn the newcomer's credential and
    /// could not validate advertisements signed under credentials it issues
    /// (clients joining later get the current beacon list anyway).  Returns
    /// the new broker's index.
    pub fn add_broker(&mut self, name: &str) -> usize {
        // The newcomer inherits the deployment's broker configuration
        // (sharding mode, ingress pipeline, inbox bound) with its own name.
        let config = BrokerConfig {
            name: name.to_string(),
            ..self.federation.broker(0).config().clone()
        };
        let broker = self.deployment.provision_broker(config);
        self.federation.add_broker(broker);
        // Re-beacon the grown credential set to every already-connected
        // client, from its own (authenticated) home broker; the newcomer
        // has no clients yet.
        let existing = &self.deployment.extensions[..self.federation.len() - 1];
        for (index, extension) in existing.iter().enumerate() {
            extension.push_credential_update(self.federation.broker(index));
        }
        self.federation.len() - 1
    }

    /// Removes the `index`-th broker from the running deployment (see
    /// [`BrokerNetwork::remove_broker`]); its extension is dropped with it.
    pub fn remove_broker(&mut self, index: usize) -> Arc<Broker> {
        self.deployment.extensions.remove(index);
        self.federation.remove_broker(index)
    }

    /// Registers an additional end user after construction.
    pub fn register_user(&mut self, username: &str, password: &str, groups: &[&str]) -> bool {
        let groups: Vec<GroupId> = groups.iter().map(|g| GroupId::new(*g)).collect();
        let deployment = &mut self.deployment;
        deployment
            .admin
            .register_user(&mut deployment.rng, &deployment.database, username, password, &groups)
    }

    /// Shuts every broker down (otherwise done on drop).
    pub fn shutdown(self) {
        self.federation.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_a_working_deployment() {
        let mut setup = SecureNetworkBuilder::new(1)
            .with_key_bits(512)
            .with_user("alice", "pw", &["g1", "g2"])
            .with_broker_name("fit-broker")
            .build();
        assert_eq!(setup.key_bits(), 512);
        assert!(setup.database().verify("alice", "pw"));
        assert!(setup.network().is_registered(&setup.broker_id()));
        assert_eq!(setup.broker().config().name, "fit-broker");

        // The broker credential chains to the admin.
        setup
            .broker_extension()
            .credential()
            .verify(setup.admin().public_key())
            .unwrap();

        // Secure and plain clients can be created and used.
        let mut secure = setup.secure_client("laptop");
        secure.secure_join(setup.broker_id(), "alice", "pw").unwrap();
        let mut plain = setup.plain_client("old-laptop");
        plain.connect(setup.broker_id()).unwrap();
        plain.login("alice", "pw").unwrap();
        setup.shutdown();
    }

    #[test]
    fn register_user_after_build() {
        let mut setup = SecureNetworkBuilder::new(2).with_key_bits(512).build();
        assert!(setup.register_user("late", "pw", &["g"]));
        assert!(!setup.register_user("late", "pw", &["g"]));
        let mut client = setup.secure_client("late-laptop");
        client.secure_join(setup.broker_id(), "late", "pw").unwrap();
        assert_eq!(client.inner().groups(), vec![GroupId::new("g")]);
    }

    #[test]
    fn deployments_with_same_seed_have_same_broker_identity() {
        let a = SecureNetworkBuilder::new(42).with_key_bits(512).build();
        let b = SecureNetworkBuilder::new(42).with_key_bits(512).build();
        assert_eq!(a.broker_id(), b.broker_id());
        let c = SecureNetworkBuilder::new(43).with_key_bits(512).build();
        assert_ne!(a.broker_id(), c.broker_id());
    }

    #[test]
    fn multi_broker_deployment_federates_and_authenticates_everywhere() {
        let mut setup = SecureNetworkBuilder::new(7)
            .with_key_bits(512)
            .with_broker_count(3)
            .with_user("alice", "pw", &["g"])
            .build();
        assert_eq!(setup.broker_count(), 3);
        let ids: Vec<PeerId> = (0..3).map(|i| setup.broker_id_at(i)).collect();
        assert_eq!(setup.broker_id(), ids[0]);
        assert!(ids.windows(2).all(|w| w[0] != w[1]), "distinct identities");
        for i in 0..3 {
            assert_eq!(setup.broker_at(i).config().name, format!("broker-{}", i + 1));
            assert_eq!(setup.broker_at(i).peer_brokers().len(), 2, "full mesh");
            // Every broker's credential chains to the same administrator.
            setup
                .broker_extension_at(i)
                .credential()
                .verify(setup.admin().public_key())
                .unwrap();
        }

        // A secure client can join at any broker of the federation.
        let broker_b = setup.broker_id_at(1);
        let mut client = setup.secure_client("roaming");
        client.secure_join(broker_b, "alice", "pw").unwrap();
        assert_eq!(client.credential().unwrap().issuer_name, "broker-2");
        assert_eq!(setup.broker_at(1).session_count(), 1);
        assert_eq!(setup.broker_at(0).session_count(), 0);
        setup.shutdown();
    }

    #[test]
    fn named_brokers_are_deployed_in_order() {
        let setup = SecureNetworkBuilder::new(8)
            .with_key_bits(512)
            .with_brokers(&["tokyo", "osaka"])
            .build();
        assert_eq!(setup.broker_count(), 2);
        assert_eq!(setup.broker_at(0).config().name, "tokyo");
        assert_eq!(setup.broker_at(1).config().name, "osaka");
        assert_eq!(setup.federation().ids().len(), 2);
    }

    #[test]
    fn broker_name_and_count_compose_in_either_order() {
        let named_first = SecureNetworkBuilder::new(9)
            .with_key_bits(512)
            .with_broker_name("tokyo")
            .with_broker_count(2)
            .build();
        assert_eq!(named_first.broker_at(0).config().name, "tokyo");
        assert_eq!(named_first.broker_at(1).config().name, "broker-2");

        let count_first = SecureNetworkBuilder::new(9)
            .with_key_bits(512)
            .with_broker_count(2)
            .with_broker_name("tokyo")
            .build();
        assert_eq!(count_first.broker_at(0).config().name, "tokyo");
        assert_eq!(count_first.broker_at(1).config().name, "broker-2");
    }

    #[test]
    fn link_model_is_applied() {
        let setup = SecureNetworkBuilder::new(3)
            .with_key_bits(512)
            .with_link(LinkModel::lan())
            .build();
        assert_eq!(setup.network().link(), LinkModel::lan());
    }
}
