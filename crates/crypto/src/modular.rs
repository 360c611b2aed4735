//! Modular arithmetic: addition, multiplication, exponentiation and
//! inversion over [`Uint`] operands.
//!
//! Exponentiation modulo an odd number (every RSA modulus and every
//! Miller–Rabin candidate) runs in Montgomery form ([`Montgomery`]) with a
//! 4-bit fixed window; even moduli fall back to right-to-left
//! square-and-multiply with a full reduction after every step.

use crate::bigint::Uint;
use crate::CryptoError;

/// `(a + b) mod m`.
pub fn mod_add(a: &Uint, b: &Uint, m: &Uint) -> Result<Uint, CryptoError> {
    a.add(b).rem(m)
}

/// `(a * b) mod m`.
pub fn mod_mul(a: &Uint, b: &Uint, m: &Uint) -> Result<Uint, CryptoError> {
    a.mul(b).rem(m)
}

/// `(a - b) mod m`, wrapping negative intermediates into the ring.
pub fn mod_sub(a: &Uint, b: &Uint, m: &Uint) -> Result<Uint, CryptoError> {
    let a = a.rem(m)?;
    let b = b.rem(m)?;
    if a >= b {
        Ok(a.sub(&b))
    } else {
        Ok(a.add(m).sub(&b))
    }
}

/// `base^exp mod m`.
///
/// Odd moduli (every RSA modulus) take the Montgomery fast path with a
/// 4-bit window; even moduli fall back to square-and-multiply with full
/// reductions. Returns an error only for a zero modulus. `x^0 mod 1` is 0
/// (the ring mod 1 has a single element).
pub fn mod_pow(base: &Uint, exp: &Uint, m: &Uint) -> Result<Uint, CryptoError> {
    if m.is_zero() {
        return Err(CryptoError::DivisionByZero);
    }
    if m.is_one() {
        return Ok(Uint::zero());
    }
    if !m.is_even() {
        return Ok(Montgomery::new(m)?.pow(base, exp));
    }
    let mut result = Uint::one();
    let mut acc = base.rem(m)?;
    let bits = exp.bit_len();
    for i in 0..bits {
        if exp.bit(i) {
            result = result.mul(&acc).rem(m)?;
        }
        if i + 1 < bits {
            acc = acc.mul(&acc).rem(m)?;
        }
    }
    Ok(result)
}

/// Montgomery-form modular arithmetic for an odd modulus.
///
/// One CIOS (coarsely integrated operand scanning) multiply kernel,
/// `mont_mul`, does every product: it writes into a caller-owned `k`-limb
/// buffer and keeps its carry limb in a local, so a multiply allocates
/// nothing. [`Montgomery::pow`] works in the ordinary domain; inside the
/// crate, `to_mont`, `pow_mont` and `mont_mul` let a caller that does many
/// operations under one modulus (Miller–Rabin) stay in the Montgomery
/// domain throughout.
pub struct Montgomery {
    /// Modulus limbs, little-endian, length `k`.
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0: u64,
    /// `R² mod n` where `R = 2^(64k)`, used to enter the Montgomery domain.
    r2: Vec<u64>,
    /// `R mod n`: the Montgomery form of 1.
    one: Vec<u64>,
    /// The modulus as a [`Uint`], for reducing oversized inputs.
    modulus: Uint,
}

impl Montgomery {
    /// Build a context for an odd modulus `m > 1`.
    pub fn new(m: &Uint) -> Result<Montgomery, CryptoError> {
        if m.is_zero() || m.is_even() || m.is_one() {
            return Err(CryptoError::NotInvertible);
        }
        let n: Vec<u64> = m.limbs().to_vec();
        let k = n.len();
        // Newton iteration for n[0]^{-1} mod 2^64 (odd, so invertible).
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let n0 = inv.wrapping_neg();
        // R mod n and R² mod n via big-integer reductions.
        let one = padded(&Uint::one().shl(64 * k).rem(m)?, k);
        let r2 = padded(&Uint::one().shl(128 * k).rem(m)?, k);
        Ok(Montgomery {
            n,
            n0,
            r2,
            one,
            modulus: m.clone(),
        })
    }

    /// Number of limbs in the modulus (and in every Montgomery-domain
    /// value of this context).
    pub(crate) fn limbs(&self) -> usize {
        self.n.len()
    }

    /// The Montgomery form of 1 (`R mod n`).
    pub(crate) fn one(&self) -> &[u64] {
        &self.one
    }

    /// CIOS Montgomery product: `out = a·b·R⁻¹ mod n`, fully reduced.
    ///
    /// `a` and `b` are `k`-limb little-endian values below `n`; `out` is a
    /// distinct `k`-limb buffer. The accumulator is `out` itself plus one
    /// carry limb held in a local. Each outer step adds `a[i]·b` and
    /// `m·n` in one pass over the limbs, with `m` chosen so the low limb
    /// cancels, and writes every limb one position down: that is the
    /// divide-by-2⁶⁴. Nothing is allocated.
    #[allow(clippy::needless_range_loop)] // indexed limbs: the standard idiom
    pub(crate) fn mont_mul(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let n = &self.n[..];
        let k = n.len();
        let (a, b, t) = (&a[..k], &b[..k], &mut out[..k]);
        t.fill(0);
        // The limb above t[k-1]: t < 2n keeps it at most 1.
        let mut top = 0u64;
        for &ai in a {
            let s = t[0] as u128 + ai as u128 * b[0] as u128;
            let m = (s as u64).wrapping_mul(self.n0);
            let r = (s as u64) as u128 + m as u128 * n[0] as u128;
            // Two carry chains: the a[i]·b product and the m·n reduction.
            let (mut carry_ab, mut carry_mn) = ((s >> 64) as u64, (r >> 64) as u64);
            for j in 1..k {
                let s = t[j] as u128 + ai as u128 * b[j] as u128 + carry_ab as u128;
                let r = (s as u64) as u128 + m as u128 * n[j] as u128 + carry_mn as u128;
                t[j - 1] = r as u64;
                carry_ab = (s >> 64) as u64;
                carry_mn = (r >> 64) as u64;
            }
            let s = top as u128 + carry_ab as u128;
            let r = (s as u64) as u128 + carry_mn as u128;
            t[k - 1] = r as u64;
            top = (s >> 64) as u64 + (r >> 64) as u64;
        }
        // t < 2n holds; one conditional subtraction normalizes.
        if top != 0 || !less_than(t, n) {
            sub_in_place(t, n);
        }
    }

    /// `a·b` for Montgomery-domain operands, into a fresh buffer.
    fn mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.limbs()];
        self.mont_mul(a, b, &mut out);
        out
    }

    /// Enter the Montgomery domain: `x·R mod n` (any `x`; reduced first
    /// when it is not below `n`).
    pub(crate) fn to_mont(&self, x: &Uint) -> Vec<u64> {
        let k = self.limbs();
        let x = if *x < self.modulus {
            padded(x, k)
        } else {
            padded(&x.rem(&self.modulus).expect("modulus nonzero"), k)
        };
        self.mul(&x, &self.r2)
    }

    /// Leave the Montgomery domain: `x·R⁻¹ mod n`.
    fn to_ordinary(&self, x: &[u64]) -> Uint {
        let mut unit = vec![0u64; self.limbs()];
        unit[0] = 1;
        Uint::from_limbs(self.mul(x, &unit))
    }

    /// `base^exp` for a Montgomery-domain `base`, with a 4-bit fixed
    /// window; the result stays in the Montgomery domain.
    pub(crate) fn pow_mont(&self, base: &[u64], exp: &Uint) -> Vec<u64> {
        let k = self.limbs();
        // Window table: powers 0..15, row i at [i·k, (i+1)·k).
        let mut table = vec![0u64; 16 * k];
        table[..k].copy_from_slice(&self.one);
        table[k..2 * k].copy_from_slice(&base[..k]);
        for i in 2..16 {
            let (done, rest) = table.split_at_mut(i * k);
            self.mont_mul(&done[(i - 1) * k..], &base[..k], &mut rest[..k]);
        }

        let mut acc = self.one.clone();
        let mut tmp = vec![0u64; k];
        let mut started = false;
        for w in (0..exp.bit_len().div_ceil(4)).rev() {
            if started {
                for _ in 0..4 {
                    self.mont_mul(&acc, &acc, &mut tmp);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
            let nibble = (0..4).fold(0usize, |v, b| v | (exp.bit(w * 4 + b) as usize) << b);
            if nibble != 0 {
                self.mont_mul(&acc, &table[nibble * k..(nibble + 1) * k], &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
                started = true;
            }
        }
        acc
    }

    /// `base^exp mod n`, ordinary domain in and out.
    pub fn pow(&self, base: &Uint, exp: &Uint) -> Uint {
        self.to_ordinary(&self.pow_mont(&self.to_mont(base), exp))
    }
}

/// `x`'s limbs zero-extended to `k` (`x` must fit).
fn padded(x: &Uint, k: usize) -> Vec<u64> {
    let mut limbs = x.limbs().to_vec();
    limbs.resize(k, 0);
    limbs
}

/// `a < b` for equal-length little-endian limb slices.
fn less_than(a: &[u64], b: &[u64]) -> bool {
    a.iter().rev().cmp(b.iter().rev()) == std::cmp::Ordering::Less
}

/// `a -= b` in place for equal-length little-endian limb slices, wrapping
/// at `2^(64·len)` (the caller's borrow-out is the dropped top limb).
fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for (ai, &bi) in a.iter_mut().zip(b) {
        let (d1, b1) = ai.overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *ai = d2;
        borrow = b1 || b2;
    }
}

/// Modular inverse of `a` mod `m` via the extended Euclidean algorithm.
///
/// Errors with [`CryptoError::NotInvertible`] when `gcd(a, m) != 1`.
pub fn mod_inv(a: &Uint, m: &Uint) -> Result<Uint, CryptoError> {
    if m.is_zero() {
        return Err(CryptoError::DivisionByZero);
    }
    // Extended Euclid tracking only the coefficient of `a`, in the signed
    // representation (value, is_negative) to avoid a signed bigint type.
    let mut r0 = m.clone();
    let mut r1 = a.rem(m)?;
    let mut t0 = (Uint::zero(), false);
    let mut t1 = (Uint::one(), false);

    while !r1.is_zero() {
        let (q, r2) = r0.div_rem(&r1)?;
        // t2 = t0 - q * t1 in signed arithmetic.
        let qt1 = q.mul(&t1.0);
        let t2 = signed_sub(&t0, &(qt1, t1.1));
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t1 = t2;
    }

    if !r0.is_one() {
        return Err(CryptoError::NotInvertible);
    }
    let (mag, neg) = t0;
    let mag = mag.rem(m)?;
    if neg && !mag.is_zero() {
        Ok(m.sub(&mag))
    } else {
        Ok(mag)
    }
}

/// Signed subtraction on (magnitude, negative) pairs.
fn signed_sub(a: &(Uint, bool), b: &(Uint, bool)) -> (Uint, bool) {
    match (a.1, b.1) {
        // a - b with both nonnegative.
        (false, false) => {
            if a.0 >= b.0 {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        // a - (-b) = a + b
        (false, true) => (a.0.add(&b.0), false),
        // -a - b = -(a + b)
        (true, false) => (a.0.add(&b.0), true),
        // -a - (-b) = b - a
        (true, true) => {
            if b.0 >= a.0 {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
    }
}

/// Least common multiple. Used for the Carmichael function in RSA keygen.
pub fn lcm(a: &Uint, b: &Uint) -> Uint {
    if a.is_zero() || b.is_zero() {
        return Uint::zero();
    }
    let g = a.gcd(b);
    a.div_rem(&g).expect("gcd nonzero").0.mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> Uint {
        Uint::from_u64(v)
    }

    #[test]
    fn mod_pow_small() {
        assert_eq!(mod_pow(&u(2), &u(10), &u(1000)).unwrap(), u(24));
        assert_eq!(mod_pow(&u(3), &u(0), &u(7)).unwrap(), u(1));
        assert_eq!(mod_pow(&u(0), &u(5), &u(7)).unwrap(), u(0));
        assert_eq!(mod_pow(&u(5), &u(3), &u(1)).unwrap(), u(0));
    }

    #[test]
    fn mod_pow_fermat() {
        // a^(p-1) ≡ 1 mod p for prime p, gcd(a,p)=1.
        let p = u(1_000_000_007);
        for a in [2u64, 3, 65537, 999_999_999] {
            assert_eq!(mod_pow(&u(a), &p.sub(&Uint::one()), &p).unwrap(), Uint::one());
        }
    }

    #[test]
    fn mod_pow_large_modulus() {
        // 2^128 mod (2^89 - 1) — Mersenne prime modulus, cross-checked value.
        let m = Uint::from_hex("1ffffffffffffffffffffff").unwrap(); // 2^89-1
        let got = mod_pow(&u(2), &u(128), &m).unwrap();
        // 2^128 = 2^89 * 2^39 ≡ 2^39 (mod 2^89 - 1)
        assert_eq!(got, Uint::one().shl(39));
    }

    #[test]
    fn mod_pow_zero_modulus() {
        assert_eq!(
            mod_pow(&u(2), &u(2), &Uint::zero()),
            Err(CryptoError::DivisionByZero)
        );
    }

    #[test]
    fn mod_inv_basics() {
        let inv = mod_inv(&u(3), &u(11)).unwrap();
        assert_eq!(inv, u(4)); // 3*4 = 12 ≡ 1 mod 11
        assert_eq!(mod_inv(&u(4), &u(8)), Err(CryptoError::NotInvertible));
        assert_eq!(mod_inv(&u(1), &u(2)).unwrap(), u(1));
    }

    #[test]
    fn mod_inv_round_trip_large() {
        let m = Uint::from_hex("ffffffffffffffffffffffffffffff61").unwrap();
        let a = Uint::from_hex("123456789abcdef0123456789abcdef").unwrap();
        let inv = mod_inv(&a, &m).unwrap();
        assert_eq!(mod_mul(&a, &inv, &m).unwrap(), Uint::one());
    }

    #[test]
    fn mod_sub_wraps() {
        assert_eq!(mod_sub(&u(3), &u(5), &u(7)).unwrap(), u(5));
        assert_eq!(mod_sub(&u(5), &u(3), &u(7)).unwrap(), u(2));
        assert_eq!(mod_sub(&u(5), &u(5), &u(7)).unwrap(), u(0));
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(&u(4), &u(6)), u(12));
        assert_eq!(lcm(&u(0), &u(6)), u(0));
        assert_eq!(lcm(&u(7), &u(13)), u(91));
    }

    /// Reference square-and-multiply with full reductions, for cross-checks.
    fn mod_pow_reference(base: &Uint, exp: &Uint, m: &Uint) -> Uint {
        let mut result = Uint::one();
        let mut acc = base.rem(m).unwrap();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul(&acc).rem(m).unwrap();
            }
            acc = acc.mul(&acc).rem(m).unwrap();
        }
        result
    }

    #[test]
    fn montgomery_matches_reference() {
        // Sweep odd moduli of several limb counts and assorted exponents.
        let moduli = [
            Uint::from_u64(3),
            Uint::from_u64(65537),
            Uint::from_hex("ffffffffffffffc5").unwrap(),
            Uint::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934d").unwrap(),
            Uint::from_hex(
                "c107f487b029ebb4d0dd9b0cb530fe64da0ee699f2cc562ab5891f2bd236366b",
            )
            .unwrap(),
        ];
        let exps = [
            Uint::zero(),
            Uint::one(),
            Uint::from_u64(2),
            Uint::from_u64(65537),
            Uint::from_hex("123456789abcdef0123456789abcdef").unwrap(),
        ];
        let bases = [
            Uint::zero(),
            Uint::one(),
            Uint::from_u64(2),
            Uint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap(),
        ];
        for m in &moduli {
            for e in &exps {
                for b in &bases {
                    assert_eq!(
                        mod_pow(b, e, m).unwrap(),
                        mod_pow_reference(b, e, m),
                        "b={b:?} e={e:?} m={m:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn montgomery_matches_reference_on_random_moduli() {
        // Seeded sweep over odd moduli of 64–2048 bits: one to 32 limbs,
        // including the 4-limb (256-bit prime) and 8-limb (512-bit RSA)
        // shapes keygen and signing run on every call.
        let mut rng = crate::SplitMix64::new(0x5EED_CAFE);
        for bits in [64usize, 65, 127, 128, 192, 256, 320, 511, 512, 768, 1024, 1536, 2048] {
            for _ in 0..3 {
                let mut m = rng.next_uint_exact_bits(bits);
                if m.is_even() {
                    m = m.add(&Uint::one());
                }
                // Bases above the modulus exercise the entry reduction.
                let base = rng.next_uint_exact_bits(bits + 16);
                let exp_bits = 1 + rng.next_below(bits.min(512) as u64) as usize;
                let exp = rng.next_uint_exact_bits(exp_bits);
                assert_eq!(
                    mod_pow(&base, &exp, &m).unwrap(),
                    mod_pow_reference(&base, &exp, &m),
                    "bits={bits} m={m:?}"
                );
            }
        }
    }

    #[test]
    fn montgomery_domain_round_trips() {
        let m = Uint::from_hex(
            "c107f487b029ebb4d0dd9b0cb530fe64da0ee699f2cc562ab5891f2bd236366b",
        )
        .unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let a = Uint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        let b = m.sub(&u(2));
        assert_eq!(ctx.to_ordinary(&ctx.to_mont(&a)), a);
        assert_eq!(ctx.to_ordinary(ctx.one()), Uint::one());
        let ab = ctx.to_ordinary(&ctx.mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        assert_eq!(ab, mod_mul(&a, &b, &m).unwrap());
    }

    #[test]
    fn montgomery_rejects_even_modulus() {
        assert!(Montgomery::new(&Uint::from_u64(10)).is_err());
        assert!(Montgomery::new(&Uint::one()).is_err());
        assert!(Montgomery::new(&Uint::zero()).is_err());
        // Even modulus still works through the generic path.
        assert_eq!(mod_pow(&u(3), &u(4), &u(10)).unwrap(), u(1));
    }

    #[test]
    fn montgomery_base_larger_than_modulus() {
        let m = Uint::from_hex("ffffffffffffffc5").unwrap();
        let big = m.mul(&u(3)).add(&u(7));
        assert_eq!(
            mod_pow(&big, &u(5), &m).unwrap(),
            mod_pow_reference(&big, &u(5), &m)
        );
    }

    #[test]
    fn mod_add_mul() {
        assert_eq!(mod_add(&u(5), &u(6), &u(7)).unwrap(), u(4));
        assert_eq!(mod_mul(&u(5), &u(6), &u(7)).unwrap(), u(2));
    }
}
