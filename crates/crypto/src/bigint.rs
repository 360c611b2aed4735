//! Arbitrary-precision unsigned integers on 64-bit limbs.
//!
//! [`Uint`] stores its magnitude as little-endian `u64` limbs with no leading
//! zero limbs (canonical form; zero is the empty limb vector). The type
//! implements schoolbook addition/subtraction/multiplication and Knuth
//! Algorithm D division, which is ample for the 512–2048-bit moduli this
//! workspace uses.

use crate::CryptoError;
use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer.
///
/// Canonical representation: little-endian `u64` limbs, no trailing
/// (most-significant) zero limbs. `Uint::zero()` has zero limbs.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Uint {
    limbs: Vec<u64>,
}

impl Uint {
    /// The value 0.
    pub fn zero() -> Self {
        Uint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Uint { limbs: vec![1] }
    }

    /// Construct from a primitive `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Uint::zero()
        } else {
            Uint { limbs: vec![v] }
        }
    }

    /// Construct from a primitive `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut u = Uint { limbs: vec![lo, hi] };
        u.normalize();
        u
    }

    /// Construct from little-endian limbs (normalizing).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut u = Uint { limbs };
        u.normalize();
        u
    }

    /// Construct from big-endian bytes (the natural wire order for DER
    /// INTEGER contents and RSA moduli).
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Uint::from_limbs(limbs)
    }

    /// Serialize to minimal big-endian bytes (no leading zero byte; zero
    /// serializes to a single `0x00`).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        if self.is_zero() {
            return vec![0];
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialize to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// Returns `None` if the value does not fit.
    pub fn to_be_bytes_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = if self.is_zero() { Vec::new() } else { self.to_be_bytes() };
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// Parse from an ASCII hex string (no prefix). Empty input is zero.
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let s = s.as_bytes();
        let mut i = 0;
        // Handle odd-length strings by treating the first nibble alone.
        if s.len() % 2 == 1 {
            bytes.push(hex_val(s[0])?);
            i = 1;
        }
        while i < s.len() {
            bytes.push(hex_val(s[i])? << 4 | hex_val(s[i + 1])?);
            i += 2;
        }
        Some(Uint::from_be_bytes(&bytes))
    }

    /// Render as lowercase hex with no leading zeros (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let bytes = self.to_be_bytes();
        let mut s = String::with_capacity(bytes.len() * 2);
        for (i, b) in bytes.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:x}", b));
            } else {
                s.push_str(&format!("{:02x}", b));
            }
        }
        s
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Value of bit `i` (little-endian bit order), false past the top.
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Borrow the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Lowest 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    #[allow(clippy::needless_range_loop)] // indexed limbs: the standard idiom
    pub fn add(&self, other: &Uint) -> Uint {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for i in 0..a.len() {
            let bi = b.get(i).copied().unwrap_or(0);
            let (s1, c1) = a[i].overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        Uint::from_limbs(out)
    }

    /// `self + v` for a small addend.
    pub fn add_u64(&self, v: u64) -> Uint {
        self.add(&Uint::from_u64(v))
    }

    /// `self - other`; returns `None` when the result would be negative.
    #[allow(clippy::needless_range_loop)] // indexed limbs: the standard idiom
    pub fn checked_sub(&self, other: &Uint) -> Option<Uint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let bi = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(Uint::from_limbs(out))
    }

    /// `self - other`, panicking on underflow. Library code prefers
    /// [`Uint::checked_sub`]; this is for arithmetic already guarded by a
    /// comparison.
    pub fn sub(&self, other: &Uint) -> Uint {
        self.checked_sub(other)
            .expect("Uint::sub underflow — caller must guarantee self >= other")
    }

    /// `self * other` (schoolbook, O(n·m)).
    pub fn mul(&self, other: &Uint) -> Uint {
        if self.is_zero() || other.is_zero() {
            return Uint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        Uint::from_limbs(out)
    }

    /// `self * v` for a small multiplier.
    pub fn mul_u64(&self, v: u64) -> Uint {
        if v == 0 || self.is_zero() {
            return Uint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &a in &self.limbs {
            let cur = a as u128 * v as u128 + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        Uint::from_limbs(out)
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> Uint {
        if self.is_zero() {
            return Uint::zero();
        }
        let (limb_shift, bit_shift) = (n / 64, n % 64);
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Uint::from_limbs(out)
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> Uint {
        let (limb_shift, bit_shift) = (n / 64, n % 64);
        if limb_shift >= self.limbs.len() {
            return Uint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        Uint::from_limbs(out)
    }

    /// Quotient and remainder of `self / divisor` (Knuth Algorithm D).
    pub fn div_rem(&self, divisor: &Uint) -> Result<(Uint, Uint), CryptoError> {
        if divisor.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if self < divisor {
            return Ok((Uint::zero(), self.clone()));
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return Ok((q, Uint::from_u64(r)));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().expect("nonzero").leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Working copy of the dividend with one extra high limb.
        let mut un: Vec<u64> = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate q̂ from the top two dividend limbs and top divisor limb.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / vn[n - 1] as u128;
            let mut rhat = num % vn[n - 1] as u128;
            while qhat >= 1u128 << 64
                || qhat * vn[n - 2] as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += vn[n - 1] as u128;
                if rhat >= 1u128 << 64 {
                    break;
                }
            }

            // Multiply and subtract: un[j..j+n+1] -= qhat * vn.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[i + j] as i128 - (p as u64) as i128 - borrow;
                un[i + j] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - carry as i128 - borrow;
            un[j + n] = t as u64;

            if t < 0 {
                // q̂ was one too large: add the divisor back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[i + j] as u128 + vn[i] as u128 + carry;
                    un[i + j] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = (un[j + n] as u128).wrapping_add(carry) as u64;
            }
            q[j] = qhat as u64;
        }

        let quotient = Uint::from_limbs(q);
        let remainder = Uint::from_limbs(un[..n].to_vec()).shr(shift);
        Ok((quotient, remainder))
    }

    /// Quotient and remainder for a single-limb divisor.
    ///
    /// # Panics
    /// Panics if `d == 0`; single-limb callers check first.
    pub fn div_rem_u64(&self, d: u64) -> (Uint, u64) {
        assert!(d != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (Uint::from_limbs(out), rem as u64)
    }

    /// `self mod d` for a single-limb divisor, without allocating.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub(crate) fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        self.limbs.iter().rev().fold(0u64, |rem, &limb| {
            ((((rem as u128) << 64) | limb as u128) % d as u128) as u64
        })
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Uint) -> Result<Uint, CryptoError> {
        Ok(self.div_rem(m)?.1)
    }

    /// Greatest common divisor (binary-free Euclid; division is cheap here).
    pub fn gcd(&self, other: &Uint) -> Uint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.div_rem(&b).expect("b nonzero").1;
            a = b;
            b = r;
        }
        a
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl PartialOrd for Uint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Uint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl std::fmt::Debug for Uint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Uint(0x{})", self.to_hex())
    }
}

impl std::fmt::Display for Uint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Decimal rendering via repeated division; fine for display purposes.
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10);
            digits.push(b'0' + r as u8);
            cur = q;
        }
        digits.reverse();
        write!(f, "{}", String::from_utf8(digits).expect("ascii digits"))
    }
}

impl From<u64> for Uint {
    fn from(v: u64) -> Self {
        Uint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> Uint {
        Uint::from_u64(v)
    }

    #[test]
    fn zero_is_canonical() {
        assert!(Uint::zero().is_zero());
        assert_eq!(Uint::from_u64(0), Uint::zero());
        assert_eq!(Uint::from_limbs(vec![0, 0, 0]), Uint::zero());
        assert_eq!(Uint::zero().bit_len(), 0);
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(u(2).add(&u(3)), u(5));
        assert_eq!(u(5).sub(&u(3)), u(2));
        assert_eq!(u(7).mul(&u(6)), u(42));
        let (q, r) = u(43).div_rem(&u(6)).unwrap();
        assert_eq!((q, r), (u(7), u(1)));
    }

    #[test]
    fn carry_propagation() {
        let max = Uint::from_u64(u64::MAX);
        let sum = max.add(&Uint::one());
        assert_eq!(sum, Uint::from_u128(1u128 << 64));
        assert_eq!(sum.bit_len(), 65);
        let prod = max.mul(&max);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        let expect = Uint::from_hex("fffffffffffffffe0000000000000001").unwrap();
        assert_eq!(prod, expect);
    }

    #[test]
    fn subtraction_guards() {
        assert_eq!(u(3).checked_sub(&u(5)), None);
        assert_eq!(u(5).checked_sub(&u(5)), Some(Uint::zero()));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        let _ = u(3).sub(&u(5));
    }

    #[test]
    fn multi_limb_division_round_trip() {
        let a = Uint::from_hex("123456789abcdef0fedcba9876543210deadbeefcafebabe").unwrap();
        let b = Uint::from_hex("fedcba98765432100f").unwrap();
        let (q, r) = a.div_rem(&b).unwrap();
        assert!(r < b);
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn division_needs_addback_path() {
        // Crafted operands that historically trigger the Algorithm D
        // "add back" correction (divisor top limb just over half range).
        let a = Uint::from_hex("80000000000000000000000000000000000000000000000003").unwrap();
        let b = Uint::from_hex("800000000000000000000000000000000001").unwrap();
        let (q, r) = a.div_rem(&b).unwrap();
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn division_by_zero_is_error() {
        assert_eq!(u(1).div_rem(&Uint::zero()), Err(CryptoError::DivisionByZero));
    }

    #[test]
    fn byte_round_trip() {
        let v = Uint::from_hex("0102030405060708090a0b0c0d0e0f").unwrap();
        assert_eq!(Uint::from_be_bytes(&v.to_be_bytes()), v);
        assert_eq!(v.to_be_bytes()[0], 0x01);
        // Leading zero bytes are ignored on parse.
        let padded = v.to_be_bytes_padded(32).unwrap();
        assert_eq!(padded.len(), 32);
        assert_eq!(Uint::from_be_bytes(&padded), v);
    }

    #[test]
    fn padded_bytes_too_small() {
        let v = Uint::from_hex("ffffffffffffffffff").unwrap();
        assert_eq!(v.to_be_bytes_padded(8), None);
        assert!(v.to_be_bytes_padded(9).is_some());
    }

    #[test]
    fn hex_round_trip_odd_length() {
        let v = Uint::from_hex("abc").unwrap();
        assert_eq!(v, u(0xabc));
        assert_eq!(v.to_hex(), "abc");
        assert_eq!(Uint::from_hex("xyz"), None);
        assert_eq!(Uint::zero().to_hex(), "0");
    }

    #[test]
    fn shifts() {
        let v = Uint::from_hex("1f").unwrap();
        assert_eq!(v.shl(4), Uint::from_hex("1f0").unwrap());
        assert_eq!(v.shl(64).shr(64), v);
        assert_eq!(v.shl(67).shr(67), v);
        assert_eq!(v.shr(5), Uint::zero());
        assert_eq!(v.shr(4), Uint::one());
    }

    #[test]
    fn bits() {
        let v = Uint::from_hex("8000000000000001").unwrap();
        assert!(v.bit(0));
        assert!(v.bit(63));
        assert!(!v.bit(1));
        assert!(!v.bit(64));
        assert_eq!(v.bit_len(), 64);
    }

    #[test]
    fn ordering() {
        assert!(u(2) < u(3));
        assert!(Uint::from_u128(1 << 64) > Uint::from_u64(u64::MAX));
        assert_eq!(u(7).cmp(&u(7)), Ordering::Equal);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(u(12).gcd(&u(18)), u(6));
        assert_eq!(u(17).gcd(&u(13)), u(1));
        assert_eq!(u(0).gcd(&u(5)), u(5));
        assert_eq!(u(5).gcd(&u(0)), u(5));
    }

    #[test]
    fn decimal_display() {
        assert_eq!(Uint::zero().to_string(), "0");
        assert_eq!(u(1234567890).to_string(), "1234567890");
        let big = Uint::from_hex("de0b6b3a7640000").unwrap(); // 1e18
        assert_eq!(big.to_string(), "1000000000000000000");
    }

    #[test]
    fn mul_u64_matches_mul() {
        let a = Uint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        assert_eq!(a.mul_u64(12345), a.mul(&u(12345)));
        assert_eq!(a.mul_u64(0), Uint::zero());
    }

    #[test]
    fn div_rem_u64_matches_div_rem() {
        let a = Uint::from_hex("123456789abcdef00112233445566778899aabbccddeeff").unwrap();
        let (q1, r1) = a.div_rem_u64(97);
        let (q2, r2) = a.div_rem(&u(97)).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(Uint::from_u64(r1), r2);
    }
}
