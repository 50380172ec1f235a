//! RSA public-key cryptography: key generation, PKCS#1 v1.5 signatures and
//! both PKCS#1 v1.5 and OAEP encryption.
//!
//! The paper's notation maps onto this module as follows:
//!
//! * `SK_i` / `PK_i` — [`RsaPrivateKey`] / [`RsaPublicKey`] of peer *i*.
//! * `S_SK_i(x)` — [`RsaPrivateKey::sign`] (RSASSA-PKCS1-v1_5 over SHA-256).
//! * `E_PK_i(x)` — the wrapped-key scheme in [`crate::envelope`], whose key
//!   wrapping uses [`RsaPublicKey::encrypt_oaep`] ("such as the one defined
//!   in PKCS#1", reference \[19\] of the paper).
//!
//! Private-key operations use the Chinese Remainder Theorem for a ~4×
//! speed-up, which matters because broker login handling and secure message
//! decryption are the hot paths of the reproduced experiments.

use crate::error::CryptoError;
use crate::sha2::{sha256, SHA256_OUTPUT_LEN};
use jxta_bigint::modular::{mod_inverse, mod_pow};
use jxta_bigint::{prime, BigUint};
use rand::RngCore;

/// The conventional RSA public exponent (F4 = 65537).
pub const PUBLIC_EXPONENT: u64 = 65_537;

/// Minimum modulus size accepted by key generation.  512-bit keys are far
/// too small for real deployments but keep the unit-test suite fast; the
/// benchmarks use 1024 and 2048 bits as the paper's JXTA implementation did.
pub const MIN_KEY_BITS: usize = 512;

/// DER prefix of the `DigestInfo` structure for SHA-256
/// (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01,
    0x05, 0x00, 0x04, 0x20,
];

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA private key with CRT acceleration parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

/// A matched RSA key pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaKeyPair {
    /// The public half (distributed inside credentials and advertisements).
    pub public: RsaPublicKey,
    /// The private half (never leaves the owning peer).
    pub private: RsaPrivateKey,
}

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of exactly `bits` bits.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyTooSmall`] if `bits < MIN_KEY_BITS`.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R, bits: usize) -> Result<Self, CryptoError> {
        if bits < MIN_KEY_BITS {
            return Err(CryptoError::KeyTooSmall {
                bits,
                required_bits: MIN_KEY_BITS,
            });
        }
        let e = BigUint::from(PUBLIC_EXPONENT);
        loop {
            let p = prime::generate_safe_prime_candidate(rng, bits / 2, &e);
            let q = loop {
                let q = prime::generate_safe_prime_candidate(rng, bits - bits / 2, &e);
                if q != p {
                    break q;
                }
            };
            let n = &p * &q;
            if n.bits() != bits {
                continue;
            }
            let p_minus_1 = &p - BigUint::one();
            let q_minus_1 = &q - BigUint::one();
            let phi = &p_minus_1 * &q_minus_1;
            let d = match mod_inverse(&e, &phi) {
                Some(d) => d,
                None => continue,
            };
            let dp = &d % &p_minus_1;
            let dq = &d % &q_minus_1;
            let qinv = match mod_inverse(&q, &p) {
                Some(qinv) => qinv,
                None => continue,
            };
            let public = RsaPublicKey { n, e: e.clone() };
            let private = RsaPrivateKey {
                public: public.clone(),
                d,
                p,
                q,
                dp,
                dq,
                qinv,
            };
            return Ok(RsaKeyPair { public, private });
        }
    }
}

impl RsaPublicKey {
    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus size in whole bytes (`k` in PKCS#1 terms).
    pub fn modulus_len(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// Modulus size in bits.
    pub fn bits(&self) -> usize {
        self.n.bits()
    }

    /// Serialises the key as a tagged, length-prefixed byte string.
    ///
    /// Layout: `"JXPK"` magic, 4-byte big-endian length of `n`, `n`,
    /// 4-byte big-endian length of `e`, `e`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + 8 + n.len() + e.len());
        out.extend_from_slice(b"JXPK");
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses a key serialised with [`RsaPublicKey::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let err = |what: &str| CryptoError::Malformed(format!("public key: {what}"));
        if bytes.len() < 8 || &bytes[..4] != b"JXPK" {
            return Err(err("missing JXPK header"));
        }
        let mut offset = 4usize;
        let read_chunk = |offset: &mut usize| -> Result<Vec<u8>, CryptoError> {
            if bytes.len() < *offset + 4 {
                return Err(err("truncated length field"));
            }
            let len = u32::from_be_bytes(bytes[*offset..*offset + 4].try_into().unwrap()) as usize;
            *offset += 4;
            if bytes.len() < *offset + len {
                return Err(err("truncated value"));
            }
            let chunk = bytes[*offset..*offset + len].to_vec();
            *offset += len;
            Ok(chunk)
        };
        let n = read_chunk(&mut offset)?;
        let e = read_chunk(&mut offset)?;
        if offset != bytes.len() {
            return Err(err("trailing bytes"));
        }
        Ok(RsaPublicKey {
            n: BigUint::from_bytes_be(&n),
            e: BigUint::from_bytes_be(&e),
        })
    }

    /// Raw RSA public operation `m^e mod n`.
    fn raw_encrypt(&self, m: &BigUint) -> BigUint {
        mod_pow(m, &self.e, &self.n)
    }

    /// Verifies an RSASSA-PKCS1-v1_5 SHA-256 signature over `message`.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(CryptoError::InvalidCiphertextLength {
                found: signature.len(),
                expected: k,
            });
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return Err(CryptoError::SignatureMismatch);
        }
        let em = self.raw_encrypt(&s).to_bytes_be_padded(k);
        let expected = emsa_pkcs1_v15_encode(message, k)?;
        if crate::hmac::constant_time_eq(&em, &expected) {
            Ok(())
        } else {
            Err(CryptoError::SignatureMismatch)
        }
    }

    /// Encrypts `message` with RSAES-PKCS1-v1_5.
    pub fn encrypt_pkcs1_v15<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        message: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        if message.len() + 11 > k {
            return Err(CryptoError::MessageTooLong {
                message_len: message.len(),
                max_len: k - 11,
            });
        }
        // EM = 0x00 || 0x02 || PS || 0x00 || M, PS non-zero random bytes.
        // PS comes from one draw; only its zero bytes (1 in 256) are redrawn.
        let mut em = vec![0u8; k];
        em[1] = 0x02;
        let ps_end = k - message.len() - 1;
        rng.fill_bytes(&mut em[2..ps_end]);
        for b in &mut em[2..ps_end] {
            while *b == 0 {
                let mut redraw = [0u8; 1];
                rng.fill_bytes(&mut redraw);
                *b = redraw[0];
            }
        }
        em[ps_end + 1..].copy_from_slice(message);
        let m = BigUint::from_bytes_be(&em);
        Ok(self.raw_encrypt(&m).to_bytes_be_padded(k))
    }

    /// Encrypts `message` with RSAES-OAEP (SHA-256, MGF1-SHA-256, empty label).
    pub fn encrypt_oaep<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        message: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        let h_len = SHA256_OUTPUT_LEN;
        if k < 2 * h_len + 2 {
            return Err(CryptoError::KeyTooSmall {
                bits: self.bits(),
                required_bits: (2 * h_len + 2) * 8,
            });
        }
        let max_len = k - 2 * h_len - 2;
        if message.len() > max_len {
            return Err(CryptoError::MessageTooLong {
                message_len: message.len(),
                max_len,
            });
        }
        // DB = lHash || PS || 0x01 || M
        let l_hash = sha256(b"");
        let mut db = Vec::with_capacity(k - h_len - 1);
        db.extend_from_slice(&l_hash);
        db.extend(std::iter::repeat_n(0u8, k - message.len() - 2 * h_len - 2));
        db.push(0x01);
        db.extend_from_slice(message);

        let mut seed = vec![0u8; h_len];
        rng.fill_bytes(&mut seed);

        let db_mask = mgf1(&seed, db.len());
        for (b, m) in db.iter_mut().zip(db_mask.iter()) {
            *b ^= m;
        }
        let seed_mask = mgf1(&db, h_len);
        for (s, m) in seed.iter_mut().zip(seed_mask.iter()) {
            *s ^= m;
        }

        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.extend_from_slice(&seed);
        em.extend_from_slice(&db);
        let m = BigUint::from_bytes_be(&em);
        Ok(self.raw_encrypt(&m).to_bytes_be_padded(k))
    }
}

impl RsaPrivateKey {
    /// The matching public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Raw RSA private operation `c^d mod n`, accelerated with the CRT.
    fn raw_decrypt(&self, c: &BigUint) -> BigUint {
        // m1 = c^dp mod p, m2 = c^dq mod q
        let m1 = mod_pow(&(c % &self.p), &self.dp, &self.p);
        let m2 = mod_pow(&(c % &self.q), &self.dq, &self.q);
        // h = qinv * (m1 - m2) mod p
        let diff = if m1 >= m2 {
            &m1 - &m2
        } else {
            &self.p - ((&m2 - &m1) % &self.p)
        };
        let h = (&self.qinv * diff) % &self.p;
        // m = m2 + h * q
        &m2 + &h * &self.q
    }

    /// Signs `message` with RSASSA-PKCS1-v1_5 over SHA-256.
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1_v15_encode(message, k)?;
        let m = BigUint::from_bytes_be(&em);
        Ok(self.raw_decrypt(&m).to_bytes_be_padded(k))
    }

    /// Decrypts an RSAES-PKCS1-v1_5 ciphertext.
    pub fn decrypt_pkcs1_v15(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        if ciphertext.len() != k {
            return Err(CryptoError::InvalidCiphertextLength {
                found: ciphertext.len(),
                expected: k,
            });
        }
        let c = BigUint::from_bytes_be(ciphertext);
        let em = self.raw_decrypt(&c).to_bytes_be_padded(k);
        // EM = 0x00 || 0x02 || PS || 0x00 || M with |PS| >= 8.
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::InvalidPadding);
        }
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::InvalidPadding)?;
        if sep < 8 {
            return Err(CryptoError::InvalidPadding);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }

    /// Decrypts an RSAES-OAEP ciphertext (SHA-256, MGF1-SHA-256, empty label).
    pub fn decrypt_oaep(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let h_len = SHA256_OUTPUT_LEN;
        if ciphertext.len() != k {
            return Err(CryptoError::InvalidCiphertextLength {
                found: ciphertext.len(),
                expected: k,
            });
        }
        if k < 2 * h_len + 2 {
            return Err(CryptoError::InvalidPadding);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        let em = self.raw_decrypt(&c).to_bytes_be_padded(k);

        let y = em[0];
        let mut seed = em[1..1 + h_len].to_vec();
        let mut db = em[1 + h_len..].to_vec();

        let seed_mask = mgf1(&db, h_len);
        for (s, m) in seed.iter_mut().zip(seed_mask.iter()) {
            *s ^= m;
        }
        let db_mask = mgf1(&seed, db.len());
        for (b, m) in db.iter_mut().zip(db_mask.iter()) {
            *b ^= m;
        }

        let l_hash = sha256(b"");
        let l_hash_ok = crate::hmac::constant_time_eq(&db[..h_len], &l_hash);
        // Find the 0x01 separator after the padding string.
        let mut sep_index = None;
        for (i, &b) in db.iter().enumerate().skip(h_len) {
            if b == 0x01 {
                sep_index = Some(i);
                break;
            }
            if b != 0x00 {
                break;
            }
        }
        match (y, l_hash_ok, sep_index) {
            (0, true, Some(i)) => Ok(db[i + 1..].to_vec()),
            _ => Err(CryptoError::InvalidPadding),
        }
    }
}

/// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest into `k` bytes.
fn emsa_pkcs1_v15_encode(message: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let digest = sha256(message);
    let t_len = SHA256_DIGEST_INFO_PREFIX.len() + digest.len();
    if k < t_len + 11 {
        return Err(CryptoError::KeyTooSmall {
            bits: k * 8,
            required_bits: (t_len + 11) * 8,
        });
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.extend(std::iter::repeat_n(0xffu8, k - t_len - 3));
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO_PREFIX);
    em.extend_from_slice(&digest);
    Ok(em)
}

/// MGF1 mask generation function over SHA-256 (RFC 8017 §B.2.1).
fn mgf1(seed: &[u8], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut counter: u32 = 0;
    while out.len() < len {
        let mut h = crate::sha2::Sha256::new();
        h.update(seed);
        h.update(&counter.to_be_bytes());
        out.extend_from_slice(&h.finalize());
        counter += 1;
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use jxta_bigint::rng as big_rng;

    /// A 512-bit key keeps the test suite fast; generated once per test run.
    fn test_keypair() -> RsaKeyPair {
        let mut rng = HmacDrbg::from_seed_u64(0xA11CE);
        RsaKeyPair::generate(&mut rng, 512).unwrap()
    }

    #[test]
    fn keygen_produces_requested_modulus_size() {
        let kp = test_keypair();
        assert_eq!(kp.public.bits(), 512);
        assert_eq!(kp.public.modulus_len(), 64);
        assert_eq!(kp.public.exponent(), &BigUint::from(PUBLIC_EXPONENT));
    }

    #[test]
    fn keygen_rejects_tiny_keys() {
        let mut rng = HmacDrbg::from_seed_u64(1);
        assert!(matches!(
            RsaKeyPair::generate(&mut rng, 128),
            Err(CryptoError::KeyTooSmall { .. })
        ));
    }

    #[test]
    fn keygen_private_exponent_consistency() {
        // d * e ≡ 1 (mod lcm(p-1, q-1)) implies raw ops invert each other.
        let kp = test_keypair();
        let m = BigUint::from(0x1234_5678_9abc_def0u64);
        let c = kp.public.raw_encrypt(&m);
        assert_eq!(kp.private.raw_decrypt(&c), m);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = test_keypair();
        let message = b"JXTA-Overlay secure primitive payload";
        let sig = kp.private.sign(message).unwrap();
        assert_eq!(sig.len(), kp.public.modulus_len());
        kp.public.verify(message, &sig).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = test_keypair();
        let sig = kp.private.sign(b"original message").unwrap();
        assert_eq!(
            kp.public.verify(b"tampered message", &sig),
            Err(CryptoError::SignatureMismatch)
        );
    }

    #[test]
    fn verify_rejects_corrupted_signature() {
        let kp = test_keypair();
        let mut sig = kp.private.sign(b"message").unwrap();
        sig[10] ^= 0x01;
        assert!(kp.public.verify(b"message", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = test_keypair();
        let mut rng = HmacDrbg::from_seed_u64(0xB0B);
        let kp2 = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let sig = kp1.private.sign(b"message").unwrap();
        assert!(kp2.public.verify(b"message", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_length_signature() {
        let kp = test_keypair();
        assert!(matches!(
            kp.public.verify(b"m", &[0u8; 10]),
            Err(CryptoError::InvalidCiphertextLength { .. })
        ));
    }

    #[test]
    fn pkcs1_v15_encrypt_decrypt_roundtrip() {
        let kp = test_keypair();
        let mut rng = HmacDrbg::from_seed_u64(99);
        for len in [0usize, 1, 16, 32, 53] {
            let msg: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = kp.public.encrypt_pkcs1_v15(&mut rng, &msg).unwrap();
            assert_eq!(ct.len(), kp.public.modulus_len());
            assert_eq!(kp.private.decrypt_pkcs1_v15(&ct).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn pkcs1_v15_rejects_oversized_message() {
        let kp = test_keypair();
        let mut rng = HmacDrbg::from_seed_u64(99);
        let msg = vec![0u8; kp.public.modulus_len() - 10];
        assert!(matches!(
            kp.public.encrypt_pkcs1_v15(&mut rng, &msg),
            Err(CryptoError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn pkcs1_v15_decrypt_with_wrong_key_fails() {
        let kp1 = test_keypair();
        let mut rng = HmacDrbg::from_seed_u64(0xB0B);
        let kp2 = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let ct = kp1.public.encrypt_pkcs1_v15(&mut rng, b"secret").unwrap();
        match kp2.private.decrypt_pkcs1_v15(&ct) {
            Ok(pt) => assert_ne!(pt, b"secret"),
            Err(e) => assert!(matches!(
                e,
                CryptoError::InvalidPadding | CryptoError::InvalidCiphertextLength { .. }
            )),
        }
    }

    #[test]
    fn oaep_encrypt_decrypt_roundtrip() {
        let kp = test_keypair();
        let mut rng = HmacDrbg::from_seed_u64(7);
        // 512-bit key => max message = 64 - 64 - 2 = wait, 64 - 2*32 - 2 = -2,
        // so OAEP needs a bigger key; use a 1024-bit key here.
        let mut rng2 = HmacDrbg::from_seed_u64(0xCAFE);
        let kp1024 = RsaKeyPair::generate(&mut rng2, 1024).unwrap();
        for len in [0usize, 1, 32, 62] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
            let ct = kp1024.public.encrypt_oaep(&mut rng, &msg).unwrap();
            assert_eq!(ct.len(), kp1024.public.modulus_len());
            assert_eq!(kp1024.private.decrypt_oaep(&ct).unwrap(), msg, "len {len}");
        }
        // And the 512-bit key is correctly rejected for OAEP.
        assert!(matches!(
            kp.public.encrypt_oaep(&mut rng, b"x"),
            Err(CryptoError::KeyTooSmall { .. })
        ));
    }

    #[test]
    fn oaep_detects_tampering() {
        let mut rng = HmacDrbg::from_seed_u64(0xCAFE);
        let kp = RsaKeyPair::generate(&mut rng, 1024).unwrap();
        let mut ct = kp.public.encrypt_oaep(&mut rng, b"attack at dawn").unwrap();
        ct[20] ^= 0xff;
        assert!(kp.private.decrypt_oaep(&ct).is_err());
    }

    #[test]
    fn oaep_ciphertexts_are_randomised() {
        let mut rng = HmacDrbg::from_seed_u64(0xCAFE);
        let kp = RsaKeyPair::generate(&mut rng, 1024).unwrap();
        let c1 = kp.public.encrypt_oaep(&mut rng, b"same message").unwrap();
        let c2 = kp.public.encrypt_oaep(&mut rng, b"same message").unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn public_key_serialisation_roundtrip() {
        let kp = test_keypair();
        let bytes = kp.public.to_bytes();
        let parsed = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, kp.public);
    }

    #[test]
    fn public_key_parse_rejects_garbage() {
        assert!(RsaPublicKey::from_bytes(b"").is_err());
        assert!(RsaPublicKey::from_bytes(b"JXPK").is_err());
        assert!(RsaPublicKey::from_bytes(b"NOPE\x00\x00\x00\x01\x05\x00\x00\x00\x01\x03").is_err());
        // Trailing junk after a valid key.
        let kp = test_keypair();
        let mut bytes = kp.public.to_bytes();
        bytes.push(0xaa);
        assert!(RsaPublicKey::from_bytes(&bytes).is_err());
    }

    #[test]
    fn mgf1_known_properties() {
        // Deterministic, length-exact, and prefix-consistent.
        let a = mgf1(b"seed", 40);
        let b = mgf1(b"seed", 40);
        let c = mgf1(b"seed", 20);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        assert_eq!(&a[..20], &c[..]);
        assert_ne!(mgf1(b"seed", 32), mgf1(b"seeds", 32));
    }

    #[test]
    fn emsa_encoding_structure() {
        let em = emsa_pkcs1_v15_encode(b"hello", 64).unwrap();
        assert_eq!(em.len(), 64);
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        assert!(em[2..].contains(&0x00));
        // Too-small target length is rejected.
        assert!(emsa_pkcs1_v15_encode(b"hello", 32).is_err());
    }

    #[test]
    fn sign_is_deterministic() {
        let kp = test_keypair();
        assert_eq!(kp.private.sign(b"m").unwrap(), kp.private.sign(b"m").unwrap());
    }

    /// Seed of the known-answer key.  The pinned signature and ciphertexts
    /// came from the division-based `mod_pow` and byte-at-a-time padding, an
    /// implementation independent of the Montgomery path.
    const KAT_KEY_SEED: u64 = 0x4B41_5431;
    const KAT_MODULUS: &str = "b4eefb363c3da8606fa2e1a0b97aa6202a1acc731d749389ecc9c1a535470284\
         b2365fd77dd1dfdf9a3f2701a11494caab2ae652a717bb610e7e871e22b86e3f\
         178ab233f64d5c5beb92f3884133389427855bd2c54db5a8600198081070322a\
         e8c52e7112152d89a3ae4c23eb760d7bd647ee298dd70f31c276a6d914079b0b";
    const KAT_SIGNATURE: &str = "a2784f5dd7d65dbae095f2ee8f40fbcb7f93721d926e4eee4b5cfccc7eb31648\
         71aa65ab8df0457955818f761fbd83a1631dbca53bddb44f39eddcdea115dc1a\
         b301a2f4ed370f45d3e8b8c282aef3a051c0149a0b2aef5231ae17e0fbd519ff\
         a64db6ef13f56a5edd7191207d26c5bf740e07d969d5ea14d211f91bd5cf13c7";
    const KAT_PKCS1_V15_CIPHERTEXT: &str = "a945ff2bd8a0463d444f8c287d4a412dcef59f69300d9a815dbf5962f81f3ea9\
         1bcb310cd5be4b99fef5ac7a9e1a6aaa2bc905cb805f1fe0fbe05f7a17c33044\
         ba51cb55b5f5818cf52ed6ca793c79f55078f20a1ad510edf5e33261bb148748\
         8cb0d8724e46637685822045d6d33b1a89172b35dadc8da4a75bd8c56dba9b34";
    const KAT_OAEP_CIPHERTEXT: &str = "284e1a0dc728656053a80803df535301b260f19192c27e1e9769799a1f4a14f7\
         c37bbb40f8ea6339b6769388510d7d61dd7feec82667e1040c1d547d9d994c4b\
         aca99439a85befc894be469a3bbcb6091208bba9c7d1a229bb257a393d4b408b\
         225f2428cd413f5213914f1ac2e454085d867a6054ea4954c077cd3e26d6beb9";

    fn kat_keypair() -> &'static RsaKeyPair {
        static KEY: std::sync::OnceLock<RsaKeyPair> = std::sync::OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = HmacDrbg::from_seed_u64(KAT_KEY_SEED);
            RsaKeyPair::generate(&mut rng, 1024).unwrap()
        })
    }

    /// `hex` as big-endian bytes, one per two digits.
    fn unhex(hex: &str) -> Vec<u8> {
        BigUint::from_hex(hex).unwrap().to_bytes_be_padded(hex.len() / 2)
    }

    #[test]
    fn known_answer_key_generation_and_signature() {
        let kp = kat_keypair();
        assert_eq!(kp.public.modulus().to_hex(), KAT_MODULUS);
        let sig = kp.private.sign(b"JXTA-Overlay known-answer message").unwrap();
        assert_eq!(sig, unhex(KAT_SIGNATURE));
        kp.public
            .verify(b"JXTA-Overlay known-answer message", &sig)
            .unwrap();
    }

    #[test]
    fn known_answer_pkcs1_v15_decryption() {
        let pt = kat_keypair()
            .private
            .decrypt_pkcs1_v15(&unhex(KAT_PKCS1_V15_CIPHERTEXT))
            .unwrap();
        assert_eq!(pt, b"pkcs1 v1.5 known-answer plaintext");
    }

    #[test]
    fn known_answer_oaep_decryption() {
        let pt = kat_keypair()
            .private
            .decrypt_oaep(&unhex(KAT_OAEP_CIPHERTEXT))
            .unwrap();
        assert_eq!(pt, b"oaep known-answer plaintext");
    }

    /// An `RngCore` stub whose output is mostly zero bytes: runs of `run`
    /// zeros, each followed by one non-zero byte.
    struct ZeroRuns {
        run: usize,
        emitted: usize,
        calls: usize,
    }

    impl RngCore for ZeroRuns {
        fn next_u32(&mut self) -> u32 {
            let mut buf = [0u8; 4];
            self.fill_bytes(&mut buf);
            u32::from_be_bytes(buf)
        }

        fn next_u64(&mut self) -> u64 {
            let mut buf = [0u8; 8];
            self.fill_bytes(&mut buf);
            u64::from_be_bytes(buf)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.calls += 1;
            for b in dest {
                self.emitted += 1;
                *b = if self.emitted.is_multiple_of(self.run + 1) {
                    (self.emitted / (self.run + 1) % 255 + 1) as u8
                } else {
                    0
                };
            }
        }
    }

    #[test]
    fn pkcs1_v15_padding_redraws_zero_bytes() {
        let kp = kat_keypair();
        let k = kp.public.modulus_len();
        let message = b"redraw";
        let mut rng = ZeroRuns {
            run: 40,
            emitted: 0,
            calls: 0,
        };
        let ct = kp.public.encrypt_pkcs1_v15(&mut rng, message).unwrap();
        assert!(rng.calls > 1, "the redraw path ran");

        let em = kp.private.raw_decrypt(&BigUint::from_bytes_be(&ct)).to_bytes_be_padded(k);
        let ps_len = k - message.len() - 3;
        assert_eq!(&em[..2], &[0x00, 0x02]);
        let ps = &em[2..2 + ps_len];
        assert!(ps.len() >= 8);
        assert!(!ps.contains(&0), "padding string has a zero byte");
        assert_eq!(em[2 + ps_len], 0x00);
        assert_eq!(&em[3 + ps_len..], message);
        assert_eq!(kp.private.decrypt_pkcs1_v15(&ct).unwrap(), message);
    }

    #[test]
    fn rng_helper_integration() {
        // random_below used by blinding-style operations stays below modulus.
        let kp = test_keypair();
        let mut rng = HmacDrbg::from_seed_u64(5);
        for _ in 0..10 {
            let r = big_rng::random_below(&mut rng, kp.public.modulus());
            assert!(&r < kp.public.modulus());
        }
    }
}
