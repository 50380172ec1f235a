//! Property-based tests for the arithmetic core.
//!
//! These check the ring axioms, the Euclidean division invariant and the
//! round-trip properties of the serialisation formats over randomly generated
//! values of up to several hundred bits, and the Montgomery exponentiation
//! against the division-based reference up to 2048 bits.

use crate::modular::{mod_inverse, mod_mul, mod_pow, mod_pow_by_division};
use crate::BigUint;
use proptest::prelude::*;

/// Strategy producing a random `BigUint` from raw big-endian bytes
/// (0 to 64 bytes, so up to 512 bits).
fn arb_biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..64).prop_map(|bytes| BigUint::from_bytes_be(&bytes))
}

/// Strategy producing a non-zero `BigUint`.
fn arb_nonzero_biguint() -> impl Strategy<Value = BigUint> {
    arb_biguint().prop_map(|v| if v.is_zero() { BigUint::one() } else { v })
}

/// Strategy producing a value of exactly `bits` bits, for a length drawn
/// uniformly from `bits` (at most 2048).
fn arb_exact_bits(bits: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = BigUint> {
    (bits, proptest::collection::vec(any::<u64>(), 32)).prop_map(|(bits, limbs)| {
        let mut value = BigUint::from_limbs(limbs) >> (2048 - bits);
        value.set_bit(bits - 1, true);
        value
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn montgomery_mod_pow_matches_division_reference(
        modulus in arb_exact_bits(64..=2048).prop_map(|mut m| { m.set_bit(0, true); m }),
        exponent in prop_oneof![
            Just(BigUint::from(2u64)),
            Just(BigUint::from(65_537u64)),
            arb_exact_bits(1..=2048),
        ],
        base in prop_oneof![Just(BigUint::zero()), arb_exact_bits(1..=2048)],
    ) {
        prop_assert_eq!(
            mod_pow(&base, &exponent, &modulus),
            mod_pow_by_division(&base, &exponent, &modulus)
        );
    }

    #[test]
    fn addition_is_commutative(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn addition_is_associative(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!((&a + &b) + &c, &a + (&b + &c));
    }

    #[test]
    fn multiplication_is_commutative(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn multiplication_distributes_over_addition(
        a in arb_biguint(), b in arb_biguint(), c in arb_biguint()
    ) {
        prop_assert_eq!(&a * (&b + &c), &a * &b + &a * &c);
    }

    #[test]
    fn add_then_sub_roundtrips(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!((&a + &b) - &b, a);
    }

    #[test]
    fn division_invariant(a in arb_biguint(), b in arb_nonzero_biguint()) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&q * &b + &r, a);
    }

    #[test]
    fn shifts_are_mul_div_by_powers_of_two(a in arb_biguint(), shift in 0usize..200) {
        let shifted = &a << shift;
        let pow2 = BigUint::one() << shift;
        prop_assert_eq!(&shifted, &(&a * &pow2));
        prop_assert_eq!(&shifted >> shift, a);
    }

    #[test]
    fn byte_roundtrip(a in arb_biguint()) {
        let be = a.to_bytes_be();
        prop_assert_eq!(BigUint::from_bytes_be(&be), a.clone());
        if !a.is_zero() {
            prop_assert_ne!(be[0], 0, "no leading zero bytes");
        }
    }

    #[test]
    fn hex_roundtrip(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip(a in arb_biguint()) {
        let s = a.to_decimal_string();
        prop_assert_eq!(s.parse::<BigUint>().unwrap(), a);
    }

    #[test]
    fn comparison_consistent_with_subtraction(a in arb_biguint(), b in arb_biguint()) {
        if a >= b {
            let d = &a - &b;
            prop_assert_eq!(&b + &d, a);
        } else {
            let d = &b - &a;
            prop_assert!(!d.is_zero());
            prop_assert_eq!(&a + &d, b);
        }
    }

    #[test]
    fn gcd_divides_both(a in arb_nonzero_biguint(), b in arb_nonzero_biguint()) {
        let g = a.gcd(&b);
        prop_assert!(!g.is_zero());
        prop_assert!(a.rem_ref(&g).is_zero());
        prop_assert!(b.rem_ref(&g).is_zero());
    }

    #[test]
    fn mod_pow_respects_exponent_addition(
        base in arb_biguint(),
        e1 in 0u64..50,
        e2 in 0u64..50,
        m in arb_nonzero_biguint()
    ) {
        // base^(e1+e2) == base^e1 * base^e2 (mod m)
        let lhs = mod_pow(&base, &BigUint::from(e1 + e2), &m);
        let rhs = mod_mul(
            &mod_pow(&base, &BigUint::from(e1), &m),
            &mod_pow(&base, &BigUint::from(e2), &m),
            &m,
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mod_inverse_is_an_inverse(a in arb_nonzero_biguint(), m in arb_nonzero_biguint()) {
        prop_assume!(!m.is_one());
        if let Some(inv) = mod_inverse(&a, &m) {
            prop_assert_eq!(mod_mul(&a, &inv, &m), BigUint::one());
            prop_assert!(inv < m);
        } else {
            // If no inverse exists the gcd must be non-trivial.
            prop_assert!(!a.gcd(&m).is_one());
        }
    }

    #[test]
    fn bits_matches_value_range(a in arb_nonzero_biguint()) {
        let bits = a.bits();
        prop_assert!(a >= (BigUint::one() << (bits - 1)));
        prop_assert!(a < (BigUint::one() << bits));
    }
}
