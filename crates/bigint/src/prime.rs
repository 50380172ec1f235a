//! Probabilistic primality testing and random prime generation.
//!
//! RSA key generation (in `jxta-crypto`) needs large random primes.  This
//! module provides:
//!
//! * [`is_probable_prime`] — Miller–Rabin with a configurable number of
//!   rounds, preceded by trial division against a table of small primes.
//! * [`generate_prime`] — rejection sampling of random odd candidates of a
//!   given bit length until one passes the primality test.
//! * [`generate_safe_prime_candidate`] — a prime `p` with `gcd(p-1, e)` = 1
//!   for a given public exponent, the form RSA key generation needs.

use crate::modular::Montgomery;
use crate::rng;
use crate::BigUint;
use rand::RngCore;

/// Small primes used for fast trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
    97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Default number of Miller–Rabin rounds.  40 rounds gives an error
/// probability below 2^-80, which is the conventional choice for RSA key
/// generation.
pub const DEFAULT_MILLER_RABIN_ROUNDS: usize = 40;

/// Returns `true` if `candidate` is probably prime.
///
/// Runs trial division against the 54 primes below 256 followed by
/// `rounds` rounds of Miller–Rabin with random bases drawn from `rng`.
pub fn is_probable_prime<R: RngCore + ?Sized>(
    candidate: &BigUint,
    rounds: usize,
    rng: &mut R,
) -> bool {
    if candidate.is_zero() || candidate.is_one() {
        return false;
    }
    // Handle the small primes (and their multiples) outright.
    for &p in &SMALL_PRIMES {
        let p_big = BigUint::from(p);
        if candidate == &p_big {
            return true;
        }
        if candidate.rem_ref(&p_big).is_zero() {
            return false;
        }
    }

    // Write candidate - 1 = d * 2^s with d odd.
    let n_minus_1 = candidate - BigUint::one();
    let s = n_minus_1.trailing_zeros().expect("candidate > 1 is odd here");
    let d = &n_minus_1 >> s;

    let two = BigUint::from(2u64);
    let upper = candidate - &two; // bases in [2, candidate - 2]

    // Trial division leaves only odd candidates above 251 here.  The witness
    // loop stays in Montgomery form, where comparing forms compares values.
    let mut field = Montgomery::new(candidate);
    let minus_one = field.form_of(&n_minus_1);
    'witness: for _ in 0..rounds {
        let a = rng::random_range(rng, &two, &upper);
        let a = field.form_of(&a);
        let mut x = field.pow(&a, &d);
        if x == field.one() || x == minus_one {
            continue;
        }
        for _ in 0..s.saturating_sub(1) {
            field.square_assign(&mut x);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Deterministic convenience check for small values (used in tests and for
/// validating public exponents); equivalent to [`is_probable_prime`] with a
/// fixed internal RNG.
pub fn is_probable_prime_default(candidate: &BigUint) -> bool {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0x9e3779b97f4a7c15);
    is_probable_prime(candidate, DEFAULT_MILLER_RABIN_ROUNDS, &mut rng)
}

/// Generates a random probable prime with exactly `bits` significant bits.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn generate_prime<R: RngCore + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 2, "a prime needs at least 2 bits");
    loop {
        let mut candidate = rng::random_bits(rng, bits);
        // Force odd (except for the trivial 2-bit case where 2 is fine too,
        // but odd candidates keep the loop simple).
        candidate.set_bit(0, true);
        if is_probable_prime(&candidate, DEFAULT_MILLER_RABIN_ROUNDS, rng) {
            return candidate;
        }
    }
}

/// Generates a probable prime `p` with exactly `bits` bits such that
/// `gcd(p - 1, e) == 1`, the property RSA key generation requires so that the
/// public exponent `e` is invertible modulo `phi(n)`.
pub fn generate_safe_prime_candidate<R: RngCore + ?Sized>(
    rng: &mut R,
    bits: usize,
    e: &BigUint,
) -> BigUint {
    loop {
        let p = generate_prime(rng, bits);
        let p_minus_1 = &p - BigUint::one();
        if p_minus_1.gcd(e).is_one() {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xfeed_beef)
    }

    #[test]
    fn zero_and_one_are_not_prime() {
        assert!(!is_probable_prime_default(&BigUint::zero()));
        assert!(!is_probable_prime_default(&BigUint::one()));
    }

    #[test]
    fn small_primes_detected() {
        for p in [2u64, 3, 5, 7, 11, 13, 97, 101, 251] {
            assert!(is_probable_prime_default(&BigUint::from(p)), "{p} is prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        for c in [4u64, 6, 9, 15, 21, 25, 100, 255, 1001] {
            assert!(!is_probable_prime_default(&BigUint::from(c)), "{c} is composite");
        }
    }

    #[test]
    fn medium_primes_detected() {
        // Primes just above the small-prime table.
        for p in [257u64, 263, 65_537, 1_000_000_007, 2_147_483_647] {
            assert!(is_probable_prime_default(&BigUint::from(p)), "{p} is prime");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat tests but not Miller–Rabin.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745] {
            assert!(!is_probable_prime_default(&BigUint::from(c)), "{c} is a Carmichael number");
        }
    }

    #[test]
    fn known_large_primes() {
        // Mersenne primes 2^89 - 1 and 2^127 - 1.
        let m89 = (BigUint::one() << 89) - BigUint::one();
        let m127 = (BigUint::one() << 127) - BigUint::one();
        assert!(is_probable_prime_default(&m89));
        assert!(is_probable_prime_default(&m127));
        // 2^128 - 1 is composite.
        let c = (BigUint::one() << 128) - BigUint::one();
        assert!(!is_probable_prime_default(&c));
    }

    #[test]
    fn generated_primes_have_requested_bits() {
        let mut r = rng();
        for bits in [16usize, 32, 64, 128] {
            let p = generate_prime(&mut r, bits);
            assert_eq!(p.bits(), bits);
            assert!(is_probable_prime_default(&p));
            assert!(p.is_odd());
        }
    }

    #[test]
    fn generated_prime_256_bits() {
        let mut r = rng();
        let p = generate_prime(&mut r, 256);
        assert_eq!(p.bits(), 256);
        assert!(is_probable_prime_default(&p));
    }

    #[test]
    fn safe_prime_candidate_coprime_to_exponent() {
        let mut r = rng();
        let e = BigUint::from(65_537u64);
        let p = generate_safe_prime_candidate(&mut r, 64, &e);
        assert!((&p - BigUint::one()).gcd(&e).is_one());
        assert!(is_probable_prime_default(&p));
    }

    #[test]
    #[should_panic(expected = "at least 2 bits")]
    fn generate_prime_too_small_panics() {
        let mut r = rng();
        let _ = generate_prime(&mut r, 1);
    }
}
