//! The [`BigUint`] type: an arbitrary-precision unsigned integer.
//!
//! Representation: little-endian `u64` limbs with no trailing zero limbs
//! (the canonical form of zero is an empty limb vector).  All public
//! operations keep the value normalised.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Shl, Shr, Sub, SubAssign};

/// Number of bits in one limb.
pub(crate) const LIMB_BITS: usize = 64;

/// Error returned when parsing a [`BigUint`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    Empty,
    InvalidDigit(char),
    InvalidRadix(u32),
}

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::Empty => write!(f, "cannot parse an empty string as a BigUint"),
            ParseErrorKind::InvalidDigit(c) => write!(f, "invalid digit {c:?} in BigUint literal"),
            ParseErrorKind::InvalidRadix(r) => write!(f, "unsupported radix {r} (expected 2..=36)"),
        }
    }
}

impl std::error::Error for ParseBigUintError {}

/// An arbitrary-precision unsigned integer.
///
/// `BigUint` supports the arithmetic needed for RSA-style public-key
/// cryptography: addition, subtraction, multiplication, Euclidean division,
/// shifts, comparisons, byte/hex conversion and (via the sibling modules)
/// modular exponentiation, modular inverse and primality testing.
///
/// # Examples
///
/// ```
/// use jxta_bigint::BigUint;
///
/// let a = BigUint::from(1_000_000_007u64);
/// let b = BigUint::from(999_999_937u64);
/// let product = &a * &b;
/// assert_eq!(product.to_decimal_string(), "999999943999999559");
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zeros.
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    #[inline]
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    #[inline]
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` if the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is exactly one.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the value is even (zero counts as even).
    #[inline]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` if the value is odd.
    #[inline]
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Constructs a value from little-endian limbs, normalising trailing zeros.
    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// The little-endian limbs (no trailing zero limbs).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Number of significant bits (`0` for the value zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * LIMB_BITS + (LIMB_BITS - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order) as a boolean.
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / LIMB_BITS;
        let off = i % LIMB_BITS;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to `value`, growing the representation if necessary.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        let limb = i / LIMB_BITS;
        let off = i % LIMB_BITS;
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1u64 << off;
        } else if let Some(l) = self.limbs.get_mut(limb) {
            *l &= !(1u64 << off);
            while self.limbs.last() == Some(&0) {
                self.limbs.pop();
            }
        }
    }

    /// Number of trailing zero bits; returns `None` for the value zero.
    pub fn trailing_zeros(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i * LIMB_BITS + l.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Builds a value from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut shift = 0usize;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << shift;
            shift += 8;
            if shift == LIMB_BITS {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(acc);
        }
        Self::from_limbs(limbs)
    }

    /// Builds a value from little-endian bytes.
    pub fn from_bytes_le(bytes: &[u8]) -> Self {
        let mut rev: Vec<u8> = bytes.to_vec();
        rev.reverse();
        Self::from_bytes_be(&rev)
    }

    /// Serialises as big-endian bytes with no leading zeros (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..first_nonzero);
        out
    }

    /// Serialises as big-endian bytes left-padded with zeros to exactly `len`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(
            raw.len() <= len,
            "BigUint of {} bytes does not fit into {} bytes",
            raw.len(),
            len
        );
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a string in the given radix (2..=36). Accepts `_` separators.
    pub fn from_str_radix(s: &str, radix: u32) -> Result<Self, ParseBigUintError> {
        if !(2..=36).contains(&radix) {
            return Err(ParseBigUintError {
                kind: ParseErrorKind::InvalidRadix(radix),
            });
        }
        let digits: Vec<char> = s.chars().filter(|&c| c != '_').collect();
        if digits.is_empty() {
            return Err(ParseBigUintError {
                kind: ParseErrorKind::Empty,
            });
        }
        let mut value = BigUint::zero();
        let radix_big = BigUint::from(radix as u64);
        for c in digits {
            let d = c
                .to_digit(radix)
                .ok_or(ParseBigUintError {
                    kind: ParseErrorKind::InvalidDigit(c),
                })?;
            value = &value * &radix_big + BigUint::from(d as u64);
        }
        Ok(value)
    }

    /// Parses a hexadecimal string (no `0x` prefix).
    pub fn from_hex(s: &str) -> Result<Self, ParseBigUintError> {
        Self::from_str_radix(s, 16)
    }

    /// Formats as a lowercase hexadecimal string (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        let mut iter = self.limbs.iter().rev();
        if let Some(top) = iter.next() {
            s.push_str(&format!("{top:x}"));
        }
        for limb in iter {
            s.push_str(&format!("{limb:016x}"));
        }
        s
    }

    /// Formats as a decimal string.
    pub fn to_decimal_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        // Repeatedly divide by 10^19 (the largest power of ten in a u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut value = self.clone();
        let mut chunks: Vec<u64> = Vec::new();
        while !value.is_zero() {
            let (q, r) = value.div_rem_u64(CHUNK);
            chunks.push(r);
            value = q;
        }
        let mut s = String::new();
        let mut iter = chunks.iter().rev();
        if let Some(top) = iter.next() {
            s.push_str(&top.to_string());
        }
        for chunk in iter {
            s.push_str(&format!("{chunk:019}"));
        }
        s
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Core arithmetic
    // ------------------------------------------------------------------

    /// `self + other`.
    pub fn add_ref(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in longer.iter().enumerate() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (sum1, c1) = a.overflowing_add(b);
            let (sum2, c2) = sum1.overflowing_add(carry);
            out.push(sum2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (unsigned underflow).
    pub fn sub_ref(&self, other: &BigUint) -> BigUint {
        assert!(
            self >= other,
            "BigUint subtraction underflow: {} - {}",
            self.to_hex(),
            other.to_hex()
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        BigUint::from_limbs(out)
    }

    /// Checked subtraction; returns `None` when the result would underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            None
        } else {
            Some(self.sub_ref(other))
        }
    }

    /// `self * other` (schoolbook multiplication with `u128` intermediates).
    pub fn mul_ref(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let idx = i + j;
                let cur = out[idx] as u128 + (a as u128) * (b as u128) + carry;
                out[idx] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + other.limbs.len();
            while carry > 0 {
                let cur = out[idx] as u128 + carry;
                out[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Squares the value (the same schoolbook product as [`BigUint::mul_ref`];
    /// modular exponentiation squares in Montgomery form instead).
    pub fn square(&self) -> BigUint {
        self.mul_ref(self)
    }

    /// Divides by a single `u64`, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem_u64(&self, divisor: u64) -> (BigUint, u64) {
        assert!(divisor != 0, "division by zero");
        let mut quotient = vec![0u64; self.limbs.len()];
        let mut rem: u128 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            quotient[i] = (cur / divisor as u128) as u64;
            rem = cur % divisor as u128;
        }
        (BigUint::from_limbs(quotient), rem as u64)
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and `remainder < divisor`.
    ///
    /// Implements Knuth's Algorithm D on 64-bit limbs.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, BigUint::from(r));
        }

        // Normalise: shift so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self << shift; // dividend
        let v = divisor << shift; // divisor
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un: Vec<u64> = u.limbs.clone();
        un.push(0); // extra high limb for the algorithm
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];

        let mut q_limbs = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate q_hat from the top two limbs of the current remainder.
            let numerator = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut q_hat = numerator / v_top as u128;
            let mut r_hat = numerator % v_top as u128;
            while q_hat >= (1u128 << 64)
                || q_hat * v_next as u128 > ((r_hat << 64) | un[j + n - 2] as u128)
            {
                q_hat -= 1;
                r_hat += v_top as u128;
                if r_hat >= (1u128 << 64) {
                    break;
                }
            }

            // Multiply-and-subtract: un[j..j+n+1] -= q_hat * vn.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = q_hat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = (un[j + i] as i128) - (p as u64 as i128) - borrow;
                if sub < 0 {
                    un[j + i] = (sub + (1i128 << 64)) as u64;
                    borrow = 1;
                } else {
                    un[j + i] = sub as u64;
                    borrow = 0;
                }
            }
            let sub = (un[j + n] as i128) - (carry as i128) - borrow;
            if sub < 0 {
                // q_hat was one too large: add the divisor back.
                un[j + n] = (sub + (1i128 << 64)) as u64;
                q_hat -= 1;
                let mut carry2: u128 = 0;
                for i in 0..n {
                    let sum = un[j + i] as u128 + vn[i] as u128 + carry2;
                    un[j + i] = sum as u64;
                    carry2 = sum >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry2 as u64);
            } else {
                un[j + n] = sub as u64;
            }

            q_limbs[j] = q_hat as u64;
        }

        let quotient = BigUint::from_limbs(q_limbs);
        let remainder = BigUint::from_limbs(un[..n].to_vec()) >> shift;
        (quotient, remainder)
    }

    /// Remainder of Euclidean division.
    pub fn rem_ref(&self, divisor: &BigUint) -> BigUint {
        self.div_rem(divisor).1
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        let mut a = self.clone();
        let mut b = other.clone();
        let az = a.trailing_zeros().unwrap();
        let bz = b.trailing_zeros().unwrap();
        let common = az.min(bz);
        a = a >> az;
        b = b >> bz;
        loop {
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub_ref(&a);
            if b.is_zero() {
                return a << common;
            }
            b = &b >> b.trailing_zeros().unwrap();
        }
    }
}

// ----------------------------------------------------------------------
// Conversions
// ----------------------------------------------------------------------

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from(v as u64)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl From<usize> for BigUint {
    fn from(v: usize) -> Self {
        BigUint::from(v as u64)
    }
}

impl std::str::FromStr for BigUint {
    type Err = ParseBigUintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            BigUint::from_str_radix(hex, 16)
        } else {
            BigUint::from_str_radix(s, 10)
        }
    }
}

// ----------------------------------------------------------------------
// Comparisons
// ----------------------------------------------------------------------

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                Ordering::Equal
            }
            non_eq => non_eq,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq<u64> for BigUint {
    fn eq(&self, other: &u64) -> bool {
        self.to_u64() == Some(*other)
    }
}

// ----------------------------------------------------------------------
// Operators (owned and by-reference forms)
// ----------------------------------------------------------------------

macro_rules! forward_binop {
    ($trait_:ident, $method:ident, $imp:ident) => {
        impl $trait_ for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                self.$imp(rhs)
            }
        }
        impl $trait_ for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                (&self).$imp(&rhs)
            }
        }
        impl $trait_<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                (&self).$imp(rhs)
            }
        }
        impl $trait_<BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                self.$imp(&rhs)
            }
        }
    };
}

forward_binop!(Add, add, add_ref);
forward_binop!(Sub, sub, sub_ref);
forward_binop!(Mul, mul, mul_ref);

impl Div for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl Div for BigUint {
    type Output = BigUint;
    fn div(self, rhs: BigUint) -> BigUint {
        self.div_rem(&rhs).0
    }
}

impl Rem for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl Rem for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        self.div_rem(&rhs).1
    }
}

impl Rem<&BigUint> for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = self.add_ref(rhs);
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = self.sub_ref(rhs);
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;

    fn shl(self, shift: usize) -> BigUint {
        if self.is_zero() || shift == 0 {
            return self.clone();
        }
        let limb_shift = shift / LIMB_BITS;
        let bit_shift = shift % LIMB_BITS;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Shl<usize> for BigUint {
    type Output = BigUint;
    fn shl(self, shift: usize) -> BigUint {
        &self << shift
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;

    fn shr(self, shift: usize) -> BigUint {
        if self.is_zero() || shift == 0 {
            return self.clone();
        }
        let limb_shift = shift / LIMB_BITS;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = shift % LIMB_BITS;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (LIMB_BITS - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Shr<usize> for BigUint {
    type Output = BigUint;
    fn shr(self, shift: usize) -> BigUint {
        &self >> shift
    }
}

// ----------------------------------------------------------------------
// Formatting
// ----------------------------------------------------------------------

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal_string())
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        s.parse().unwrap()
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
    }

    #[test]
    fn from_u64_roundtrip() {
        for v in [0u64, 1, 2, 255, 256, u32::MAX as u64, u64::MAX] {
            assert_eq!(BigUint::from(v).to_u64(), Some(v));
        }
    }

    #[test]
    fn from_u128_roundtrip() {
        let v = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        assert_eq!(BigUint::from(v).to_u128(), Some(v));
    }

    #[test]
    fn addition_with_carry_chain() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::one();
        let sum = &a + &b;
        assert_eq!(sum.to_hex(), "10000000000000000");
        assert_eq!(sum.bits(), 65);
    }

    #[test]
    fn subtraction_with_borrow_chain() {
        let a = BigUint::from_hex("10000000000000000").unwrap();
        let b = BigUint::one();
        assert_eq!((&a - &b).to_u64(), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = BigUint::one() - BigUint::from(2u64);
    }

    #[test]
    fn checked_sub_returns_none_on_underflow() {
        assert_eq!(BigUint::one().checked_sub(&BigUint::from(2u64)), None);
        assert_eq!(
            BigUint::from(5u64).checked_sub(&BigUint::from(2u64)),
            Some(BigUint::from(3u64))
        );
    }

    #[test]
    fn multiplication_small_values() {
        assert_eq!(
            (BigUint::from(12345u64) * BigUint::from(6789u64)).to_u64(),
            Some(12345 * 6789)
        );
        assert!(
            (BigUint::zero() * BigUint::from(77u64)).is_zero()
        );
    }

    #[test]
    fn multiplication_multi_limb() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = BigUint::from(u64::MAX);
        let sq = a.square();
        let expected = (BigUint::one() << 128) - (BigUint::one() << 65) + BigUint::one();
        assert_eq!(sq, expected);
    }

    #[test]
    fn known_product_decimal() {
        let a = big("123456789012345678901234567890");
        let b = big("987654321098765432109876543210");
        let p = &a * &b;
        assert_eq!(
            p.to_decimal_string(),
            "121932631137021795226185032733622923332237463801111263526900"
        );
    }

    #[test]
    fn division_exact_and_with_remainder() {
        let a = big("121932631137021795226185032733622923332237463801111263526900");
        let b = big("987654321098765432109876543210");
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, big("123456789012345678901234567890"));
        assert!(r.is_zero());

        let (q2, r2) = (&a + BigUint::from(17u64)).div_rem(&b);
        assert_eq!(q2, q);
        assert_eq!(r2, BigUint::from(17u64));
    }

    #[test]
    fn division_by_larger_is_zero() {
        let a = BigUint::from(5u64);
        let b = BigUint::from(7u64);
        let (q, r) = a.div_rem(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn division_knuth_add_back_case() {
        // A case crafted to force the rare "add back" branch of Algorithm D:
        // dividend = 0x7fff800000000001_0000000000000000, divisor = 0x8000000000000001
        let a = BigUint::from_hex("7fff8000000000010000000000000000").unwrap();
        let b = BigUint::from_hex("80000000000000010000000000000000").unwrap();
        let small = BigUint::from_hex("8000000000000001").unwrap();
        let (q, r) = a.div_rem(&small);
        assert_eq!(&q * &small + &r, a);
        assert!(r < small);
        let (q2, r2) = b.div_rem(&small);
        assert_eq!(&q2 * &small + &r2, b);
    }

    #[test]
    fn div_rem_u64_matches_generic() {
        let a = big("123456789012345678901234567890123456789");
        let (q1, r1) = a.div_rem_u64(1_000_000_007);
        let (q2, r2) = a.div_rem(&BigUint::from(1_000_000_007u64));
        assert_eq!(q1, q2);
        assert_eq!(BigUint::from(r1), r2);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = BigUint::from(5u64).div_rem(&BigUint::zero());
    }

    #[test]
    fn shifts_roundtrip() {
        let a = big("123456789012345678901234567890");
        for shift in [0usize, 1, 7, 63, 64, 65, 129, 300] {
            let shifted = &a << shift;
            assert_eq!(&shifted >> shift, a, "shift {shift}");
            assert_eq!(shifted.bits(), a.bits() + shift);
        }
    }

    #[test]
    fn shr_past_end_is_zero() {
        let a = BigUint::from(0xffu64);
        assert!((&a >> 200).is_zero());
    }

    #[test]
    fn bit_access_and_set() {
        let mut v = BigUint::zero();
        v.set_bit(0, true);
        v.set_bit(100, true);
        assert!(v.bit(0));
        assert!(v.bit(100));
        assert!(!v.bit(50));
        assert_eq!(v.bits(), 101);
        v.set_bit(100, false);
        assert_eq!(v, BigUint::one());
        // Clearing a bit beyond the representation is a no-op.
        v.set_bit(500, false);
        assert_eq!(v, BigUint::one());
    }

    #[test]
    fn trailing_zeros_cases() {
        assert_eq!(BigUint::zero().trailing_zeros(), None);
        assert_eq!(BigUint::one().trailing_zeros(), Some(0));
        assert_eq!((BigUint::one() << 77).trailing_zeros(), Some(77));
    }

    #[test]
    fn byte_roundtrip_be_and_le() {
        let bytes = [0x01u8, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09];
        let v = BigUint::from_bytes_be(&bytes);
        assert_eq!(v.to_bytes_be(), bytes);
        let w = BigUint::from_bytes_le(&bytes);
        let mut rev = bytes;
        rev.reverse();
        assert_eq!(w.to_bytes_be(), rev);
    }

    #[test]
    fn byte_parsing_strips_leading_zeros() {
        let v = BigUint::from_bytes_be(&[0, 0, 0, 1, 2]);
        assert_eq!(v.to_bytes_be(), vec![1, 2]);
    }

    #[test]
    fn padded_bytes() {
        let v = BigUint::from(0x0102u64);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_bytes_too_small_panics() {
        let v = BigUint::from(0x010203u64);
        let _ = v.to_bytes_be_padded(2);
    }

    #[test]
    fn hex_roundtrip() {
        let cases = ["0", "1", "ff", "deadbeef", "123456789abcdef0123456789abcdef"];
        for c in cases {
            assert_eq!(BigUint::from_hex(c).unwrap().to_hex(), c);
        }
    }

    #[test]
    fn parse_decimal_and_prefix() {
        assert_eq!(big("1000000"), BigUint::from(1_000_000u64));
        assert_eq!("0xff".parse::<BigUint>().unwrap(), BigUint::from(255u64));
        assert_eq!("1_000".parse::<BigUint>().unwrap(), BigUint::from(1000u64));
    }

    #[test]
    fn parse_errors() {
        assert!("".parse::<BigUint>().is_err());
        assert!("12a".parse::<BigUint>().is_err());
        assert!(BigUint::from_str_radix("10", 1).is_err());
        assert!(BigUint::from_str_radix("10", 37).is_err());
    }

    #[test]
    fn ordering() {
        let a = big("123456789012345678901234567890");
        let b = big("123456789012345678901234567891");
        assert!(a < b);
        assert!(b > a);
        assert!(a <= a.clone());
        assert!(BigUint::zero() < BigUint::one());
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(
            BigUint::from(48u64).gcd(&BigUint::from(36u64)),
            BigUint::from(12u64)
        );
        assert_eq!(BigUint::zero().gcd(&BigUint::from(5u64)), BigUint::from(5u64));
        assert_eq!(BigUint::from(5u64).gcd(&BigUint::zero()), BigUint::from(5u64));
        assert_eq!(
            BigUint::from(17u64).gcd(&BigUint::from(13u64)),
            BigUint::one()
        );
        let a = big("123456789012345678901234567890");
        let g = a.gcd(&(&a * BigUint::from(3u64)));
        assert_eq!(g, a);
    }

    #[test]
    fn display_and_debug() {
        let v = BigUint::from(255u64);
        assert_eq!(format!("{v}"), "255");
        assert_eq!(format!("{v:x}"), "ff");
        assert_eq!(format!("{v:?}"), "BigUint(0xff)");
    }

    #[test]
    fn decimal_string_multi_chunk() {
        // A value larger than 10^19 forces the multi-chunk path.
        let v = big("10000000000000000000000000000000000000001");
        assert_eq!(v.to_decimal_string(), "10000000000000000000000000000000000000001");
    }
}
