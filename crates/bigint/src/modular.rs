//! Modular arithmetic on [`BigUint`] values.
//!
//! Provides the operations RSA needs: modular addition/subtraction/
//! multiplication, modular exponentiation and modular inverse via the
//! extended Euclidean algorithm.
//!
//! [`mod_pow`] with an odd modulus (every RSA modulus, CRT prime and
//! Miller–Rabin candidate) runs in Montgomery form.  Each call allocates its
//! fixed-width limb buffers once, multiplies with the CIOS (coarsely
//! integrated operand scanning) method, and makes the final conditional
//! subtraction of every product by mask rather than by branch.  The
//! exponent is scanned in fixed windows whose width grows with its length:
//! 1 bit for the public exponent 65537, 5 bits for the 512-bit CRT
//! exponents of a 1024-bit key.  An even modulus falls back to
//! square-and-multiply with a division after every product, which the tests
//! also use as the reference.

use crate::BigUint;

/// `(a + b) mod m`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_add(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "modulus must be non-zero");
    (a + b) % m
}

/// `(a - b) mod m`, wrapping around the modulus when `b > a`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_sub(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "modulus must be non-zero");
    let a = a % m;
    let b = &(b % m);
    if &a >= b {
        a - b
    } else {
        a + m - b
    }
}

/// `(a * b) mod m`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_mul(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "modulus must be non-zero");
    (a * b) % m
}

/// `base^exponent mod modulus`.
///
/// An odd modulus takes the Montgomery path described in the module docs;
/// an even one takes square-and-multiply with a division per product.  The
/// window digits and the skipped multiply on a zero digit depend on the
/// exponent's bits, so this is not hardened against timing side channels;
/// only the reduction inside each product is branch-free.
///
/// # Panics
///
/// Panics if `modulus` is zero.
pub fn mod_pow(base: &BigUint, exponent: &BigUint, modulus: &BigUint) -> BigUint {
    assert!(!modulus.is_zero(), "modulus must be non-zero");
    if modulus.is_one() {
        return BigUint::zero();
    }
    if modulus.is_even() {
        return mod_pow_by_division(base, exponent, modulus);
    }
    let mut field = Montgomery::new(modulus);
    let base = field.form_of(base);
    let power = field.pow(&base, exponent);
    field.value_of(&power)
}

/// `base^exponent mod modulus` by left-to-right square-and-multiply with a
/// Knuth division after every product: [`mod_pow`]'s path for even moduli
/// and the tests' reference for the Montgomery path.
pub(crate) fn mod_pow_by_division(
    base: &BigUint,
    exponent: &BigUint,
    modulus: &BigUint,
) -> BigUint {
    let base = base % modulus;
    let mut result = BigUint::one() % modulus;
    for i in (0..exponent.bits()).rev() {
        result = mod_mul(&result, &result, modulus);
        if exponent.bit(i) {
            result = mod_mul(&result, &base, modulus);
        }
    }
    result
}

/// Window width for an exponent of `bits` bits.  A `w`-bit window costs
/// `2^w - 2` multiplies to build its table and saves multiplies on every
/// window it covers; these are the break-even lengths OpenSSL uses.
fn window_bits(bits: usize) -> usize {
    match bits {
        0..=23 => 1,
        24..=79 => 3,
        80..=239 => 4,
        240..=671 => 5,
        _ => 6,
    }
}

/// Montgomery arithmetic modulo a fixed odd modulus `N > 1` of `len` limbs,
/// with `R = 2^(64 * len)`.
///
/// A value `x` is held in Montgomery form `x * R mod N` as exactly `len`
/// little-endian limbs.  Every product is fully reduced, so two forms are
/// equal exactly when the values they stand for are.
pub(crate) struct Montgomery {
    modulus: BigUint,
    /// `-N^-1 mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod N`: a product with it converts into Montgomery form.
    r_squared: Vec<u64>,
    /// `R mod N`: the Montgomery form of one.
    one: Vec<u64>,
    /// The CIOS accumulator, `len + 2` limbs, reused by every product.
    scratch: Vec<u64>,
}

impl Montgomery {
    /// Prepares arithmetic modulo `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even or one.
    pub(crate) fn new(modulus: &BigUint) -> Self {
        assert!(
            modulus.is_odd() && !modulus.is_one(),
            "Montgomery form needs an odd modulus above one"
        );
        let len = modulus.limbs().len();
        // Newton's iteration doubles the correct low bits of N^-1 mod 2^64
        // per step; 1 is the inverse of any odd number mod 2.
        let n0 = modulus.limbs()[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let r_squared = (BigUint::one() << (2 * 64 * len)) % modulus;
        let mut field = Montgomery {
            modulus: modulus.clone(),
            n0_inv: inv.wrapping_neg(),
            r_squared: padded(&r_squared, len),
            one: Vec::new(),
            scratch: vec![0; len + 2],
        };
        field.one = field.form_of(&BigUint::one());
        field
    }

    /// The Montgomery form of one.
    pub(crate) fn one(&self) -> &[u64] {
        &self.one
    }

    /// Converts `x` (any size) into Montgomery form.
    pub(crate) fn form_of(&mut self, x: &BigUint) -> Vec<u64> {
        let reduced;
        let x = if x < &self.modulus {
            x
        } else {
            reduced = x % &self.modulus;
            &reduced
        };
        let mut form = padded(x, self.modulus.limbs().len());
        let modulus = self.modulus.limbs();
        cios_product(&mut self.scratch, &form, &self.r_squared, modulus, self.n0_inv);
        reduce(&self.scratch, modulus, &mut form);
        form
    }

    /// Converts a Montgomery form back to the value it stands for.
    pub(crate) fn value_of(&mut self, form: &[u64]) -> BigUint {
        let mut unit = padded(&BigUint::one(), form.len());
        let modulus = self.modulus.limbs();
        cios_product(&mut self.scratch, form, &unit, modulus, self.n0_inv);
        reduce(&self.scratch, modulus, &mut unit);
        BigUint::from_limbs(unit)
    }

    /// `acc = acc * b` in Montgomery form.
    fn mul_assign(&mut self, acc: &mut [u64], b: &[u64]) {
        let modulus = self.modulus.limbs();
        cios_product(&mut self.scratch, acc, b, modulus, self.n0_inv);
        reduce(&self.scratch, modulus, acc);
    }

    /// `acc = acc^2` in Montgomery form.
    pub(crate) fn square_assign(&mut self, acc: &mut [u64]) {
        let modulus = self.modulus.limbs();
        cios_product(&mut self.scratch, acc, acc, modulus, self.n0_inv);
        reduce(&self.scratch, modulus, acc);
    }

    /// `base^exponent` with `base` and the result in Montgomery form, by
    /// fixed windows of [`window_bits`] bits, most significant first.
    pub(crate) fn pow(&mut self, base: &[u64], exponent: &BigUint) -> Vec<u64> {
        let bits = exponent.bits();
        if bits == 0 {
            return self.one.clone();
        }
        let len = self.one.len();
        let width = window_bits(bits);
        // table[d] = base^d for every digit d < 2^width, one flat buffer.
        let mut table = vec![0u64; len << width];
        table[..len].copy_from_slice(&self.one);
        table[len..2 * len].copy_from_slice(base);
        for d in 2..1usize << width {
            let (built, rest) = table.split_at_mut(d * len);
            let modulus = self.modulus.limbs();
            cios_product(
                &mut self.scratch,
                &built[(d - 1) * len..],
                &built[len..2 * len],
                modulus,
                self.n0_inv,
            );
            reduce(&self.scratch, modulus, &mut rest[..len]);
        }
        let digit = |w: usize| {
            (0..width)
                .rev()
                .fold(0usize, |acc, b| acc << 1 | usize::from(exponent.bit(w * width + b)))
        };
        let windows = bits.div_ceil(width);
        // The top window holds the exponent's leading one bit, so it is
        // never zero and seeds the accumulator without any squaring.
        let top = digit(windows - 1);
        let mut acc = table[top * len..(top + 1) * len].to_vec();
        for w in (0..windows - 1).rev() {
            for _ in 0..width {
                self.square_assign(&mut acc);
            }
            let d = digit(w);
            if d != 0 {
                self.mul_assign(&mut acc, &table[d * len..(d + 1) * len]);
            }
        }
        acc
    }
}

/// `x` as exactly `len` little-endian limbs.
fn padded(x: &BigUint, len: usize) -> Vec<u64> {
    let mut limbs = vec![0u64; len];
    limbs[..x.limbs().len()].copy_from_slice(x.limbs());
    limbs
}

/// One CIOS Montgomery product: leaves `a * b * R^-1 mod N`, possibly plus
/// one extra `N`, in `t[..=len]`.  `a` and `b` are below `N` in `len` limbs;
/// `t` has `len + 2` limbs.
fn cios_product(t: &mut [u64], a: &[u64], b: &[u64], modulus: &[u64], n0_inv: u64) {
    let len = modulus.len();
    let (t, a, b) = (&mut t[..len + 2], &a[..len], &b[..len]);
    t.fill(0);
    for &b_i in b {
        // t += a * b_i
        let mut carry = 0u64;
        for (t_j, &a_j) in t[..len].iter_mut().zip(a) {
            let sum = u128::from(*t_j) + u128::from(a_j) * u128::from(b_i) + u128::from(carry);
            *t_j = sum as u64;
            carry = (sum >> 64) as u64;
        }
        let sum = u128::from(t[len]) + u128::from(carry);
        t[len] = sum as u64;
        t[len + 1] = (sum >> 64) as u64;
        // t = (t + m * N) / 2^64, with m chosen so the low limb cancels.
        let m = t[0].wrapping_mul(n0_inv);
        let mut carry = ((u128::from(t[0]) + u128::from(m) * u128::from(modulus[0])) >> 64) as u64;
        for j in 1..len {
            let sum = u128::from(t[j]) + u128::from(m) * u128::from(modulus[j]) + u128::from(carry);
            t[j - 1] = sum as u64;
            carry = (sum >> 64) as u64;
        }
        let sum = u128::from(t[len]) + u128::from(carry);
        t[len - 1] = sum as u64;
        t[len] = t[len + 1] + (sum >> 64) as u64;
    }
}

/// `out = t mod N` for `t < 2N` held in `len + 1` limbs: `t - N` is
/// computed unconditionally and the choice between it and `t` is a mask, so
/// no branch depends on the value.
fn reduce(t: &[u64], modulus: &[u64], out: &mut [u64]) {
    let len = modulus.len();
    let (t, out) = (&t[..=len], &mut out[..len]);
    let mut borrow = 0u64;
    for ((o, &t_j), &n_j) in out.iter_mut().zip(t).zip(modulus) {
        let (d, b1) = t_j.overflowing_sub(n_j);
        let (d, b2) = d.overflowing_sub(borrow);
        *o = d;
        borrow = u64::from(b1 | b2);
    }
    // t < N exactly when the subtraction borrows out of the top limb.
    let keep_t = u64::from(t[len] < borrow).wrapping_neg();
    for (o, &t_j) in out.iter_mut().zip(t) {
        *o = (t_j & keep_t) | (*o & !keep_t);
    }
}

/// Modular inverse: returns `x` such that `a * x ≡ 1 (mod m)`, or `None` if
/// `gcd(a, m) != 1`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_inverse(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    assert!(!m.is_zero(), "modulus must be non-zero");
    if m.is_one() {
        return Some(BigUint::zero());
    }
    // Extended Euclid on (a mod m, m), tracking coefficients as
    // (sign, magnitude) pairs to stay within unsigned arithmetic.
    let mut r0 = a % m;
    let mut r1 = m.clone();
    // t coefficients such that t * a ≡ r (mod m)
    let mut t0 = (false, BigUint::one()); // +1
    let mut t1 = (false, BigUint::zero()); // 0

    while !r0.is_zero() {
        let (q, r) = r1.div_rem(&r0);
        // (t1 - q*t0, t0)
        let q_t0 = (t0.0, &q * &t0.1);
        let new_t = signed_sub(&t1, &q_t0);
        r1 = r0;
        r0 = r;
        t1 = t0;
        t0 = new_t;
    }

    if !r1.is_one() {
        return None;
    }
    // t1 is the Bezout coefficient for the original `a`.
    let (neg, mag) = t1;
    let mag = mag % m;
    Some(if neg && !mag.is_zero() { m - mag } else { mag })
}

/// Subtracts two signed magnitudes `(sign, magnitude)` where `sign == true`
/// means negative: returns `a - b`.
fn signed_sub(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with both non-negative
        (false, false) => {
            if a.1 >= b.1 {
                (false, &a.1 - &b.1)
            } else {
                (true, &b.1 - &a.1)
            }
        }
        // a - (-b) = a + b
        (false, true) => (false, &a.1 + &b.1),
        // -a - b = -(a + b)
        (true, false) => (true, &a.1 + &b.1),
        // -a - (-b) = b - a
        (true, true) => {
            if b.1 >= a.1 {
                (false, &b.1 - &a.1)
            } else {
                (true, &a.1 - &b.1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        s.parse().unwrap()
    }

    #[test]
    fn mod_add_wraps() {
        let m = BigUint::from(7u64);
        assert_eq!(mod_add(&BigUint::from(5u64), &BigUint::from(6u64), &m), BigUint::from(4u64));
    }

    #[test]
    fn mod_sub_wraps_below_zero() {
        let m = BigUint::from(7u64);
        assert_eq!(mod_sub(&BigUint::from(2u64), &BigUint::from(5u64), &m), BigUint::from(4u64));
        assert_eq!(mod_sub(&BigUint::from(5u64), &BigUint::from(2u64), &m), BigUint::from(3u64));
        // Operands larger than the modulus are reduced first.
        assert_eq!(mod_sub(&BigUint::from(16u64), &BigUint::from(30u64), &m), BigUint::from(0u64));
    }

    #[test]
    fn mod_mul_small() {
        let m = BigUint::from(97u64);
        assert_eq!(
            mod_mul(&BigUint::from(96u64), &BigUint::from(96u64), &m),
            BigUint::from(1u64)
        );
    }

    #[test]
    fn mod_pow_small_known_values() {
        let m = BigUint::from(1_000_000_007u64);
        assert_eq!(
            mod_pow(&BigUint::from(2u64), &BigUint::from(10u64), &m),
            BigUint::from(1024u64)
        );
        // Fermat's little theorem: a^(p-1) ≡ 1 mod p for prime p.
        assert_eq!(
            mod_pow(&BigUint::from(12345u64), &BigUint::from(1_000_000_006u64), &m),
            BigUint::one()
        );
    }

    #[test]
    fn mod_pow_edge_cases() {
        let m = BigUint::from(13u64);
        assert_eq!(mod_pow(&BigUint::from(5u64), &BigUint::zero(), &m), BigUint::one());
        assert_eq!(mod_pow(&BigUint::zero(), &BigUint::from(5u64), &m), BigUint::zero());
        assert_eq!(
            mod_pow(&BigUint::from(5u64), &BigUint::from(3u64), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    fn mod_pow_large_values() {
        // 2^255 - 19 arithmetic sanity check (the modulus of Curve25519).
        let p = (BigUint::one() << 255) - BigUint::from(19u64);
        let g = BigUint::from(9u64);
        // Euler: g^(p-1) ≡ 1 (mod p) since p is prime and gcd(9, p) = 1.
        let res = mod_pow(&g, &(&p - BigUint::one()), &p);
        assert_eq!(res, BigUint::one());
    }

    #[test]
    fn mod_pow_matches_naive() {
        let m = BigUint::from(65_537u64);
        let base = BigUint::from(31_337u64);
        for e in 0u64..40 {
            let expected = {
                let mut acc = BigUint::one();
                for _ in 0..e {
                    acc = mod_mul(&acc, &base, &m);
                }
                acc
            };
            assert_eq!(mod_pow(&base, &BigUint::from(e), &m), expected, "e = {e}");
        }
    }

    #[test]
    fn mod_inverse_small() {
        let m = BigUint::from(17u64);
        for a in 1u64..17 {
            let inv = mod_inverse(&BigUint::from(a), &m).unwrap();
            assert_eq!(mod_mul(&BigUint::from(a), &inv, &m), BigUint::one(), "a = {a}");
        }
    }

    #[test]
    fn mod_inverse_none_when_not_coprime() {
        assert!(mod_inverse(&BigUint::from(6u64), &BigUint::from(9u64)).is_none());
        assert!(mod_inverse(&BigUint::zero(), &BigUint::from(9u64)).is_none());
    }

    #[test]
    fn mod_inverse_rsa_style() {
        // Typical RSA textbook example: p=61, q=53, n=3233, phi=3120, e=17, d=2753.
        let e = BigUint::from(17u64);
        let phi = BigUint::from(3120u64);
        let d = mod_inverse(&e, &phi).unwrap();
        assert_eq!(d, BigUint::from(2753u64));
    }

    #[test]
    fn mod_inverse_large() {
        let m = big("170141183460469231731687303715884105727"); // 2^127 - 1, a Mersenne prime
        let a = big("123456789012345678901234567890");
        let inv = mod_inverse(&a, &m).unwrap();
        assert_eq!(mod_mul(&a, &inv, &m), BigUint::one());
    }

    #[test]
    fn mod_inverse_of_one_is_one() {
        let m = BigUint::from(101u64);
        assert_eq!(mod_inverse(&BigUint::one(), &m), Some(BigUint::one()));
    }

    #[test]
    fn mod_inverse_modulus_one() {
        assert_eq!(mod_inverse(&BigUint::from(5u64), &BigUint::one()), Some(BigUint::zero()));
    }
}
