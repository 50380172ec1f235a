//! Arbitrary-precision unsigned integer arithmetic.
//!
//! This crate is the lowest-level substrate of the JXTA-Overlay security
//! stack.  The paper's security extension relies on RSA key pairs (broker and
//! client credentials, wrapped-key encryption per PKCS#1) which in turn need
//! multi-precision modular arithmetic.  Since no external crypto or bignum
//! crates are used, everything is implemented here from scratch:
//!
//! * [`BigUint`] — an unsigned big integer stored as little-endian `u64`
//!   limbs, with the full set of arithmetic, bit and comparison operations.
//! * [`modular`] — modular exponentiation (Montgomery multiplication with a
//!   fixed window sized to the exponent for odd moduli, square-and-multiply
//!   with division for even ones), modular inverse via the extended
//!   Euclidean algorithm and related helpers.
//! * [`prime`] — Miller–Rabin probabilistic primality testing and random
//!   prime generation used by RSA key generation.
//! * [`rng`] — helpers for sampling uniformly distributed big integers from
//!   any [`rand::RngCore`] source.
//!
//! The implementation favours clarity and predictable performance over
//! assembly-level tricks.  All arithmetic works on `u64` limbs with `u128`
//! intermediates.  The general operators allocate their result, and
//! division allocates its normalised operands.  The RSA hot path,
//! [`modular::mod_pow`] with an odd modulus, allocates its limb buffers
//! once per call and none inside its multiply loop.  Unit tests, property
//! tests (including Montgomery against the division-based reference) and
//! the crypto-primitive benchmarks in `jxta-bench` exercise all of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod biguint;
pub mod modular;
pub mod prime;
pub mod rng;

pub use biguint::{BigUint, ParseBigUintError};

#[cfg(test)]
mod proptests;
