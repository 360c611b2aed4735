//! Primality testing and prime generation.
//!
//! [`is_prime`] decides inputs below `TRIAL_DIVISION_BOUND` (10 000) by sieve
//! lookup. Larger inputs first face trial division by every prime below the
//! bound, then Miller–Rabin with the 13 `DETERMINISTIC_BASES` (proven
//! correct for every input below 3.3 × 10²⁴), and, above 80 bits,
//! `RANDOM_ROUNDS` (6) more witnesses drawn from the caller's RNG. A random
//! witness exposes a composite with probability at least 3/4, so a
//! composite outside the proven range survives with probability at most
//! 4⁻⁶ = 2⁻¹² even when chosen adversarially (fixed bases give no such
//! guarantee); for random candidates like the ones keygen draws, the
//! average-case bounds of Damgård, Landrock and Pomerance put the error
//! far lower still.
//!
//! All Miller–Rabin arithmetic for one candidate runs in one
//! [`Montgomery`] context, squarings included.

use crate::bigint::Uint;
use crate::modular::Montgomery;
use crate::rng::SplitMix64;

/// Trial-division bound. Candidates are first sieved by every prime below
/// this before any Miller–Rabin round runs — for random 256-bit odd
/// candidates this eliminates the vast majority of composites with cheap
/// single-limb divisions.
const TRIAL_DIVISION_BOUND: u64 = 10_000;

/// Primes below [`TRIAL_DIVISION_BOUND`], computed once.
fn small_primes() -> &'static [u64] {
    use std::sync::OnceLock;
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        let n = TRIAL_DIVISION_BOUND as usize;
        let mut sieve = vec![true; n];
        sieve[0] = false;
        sieve[1] = false;
        let mut i = 2;
        while i * i < n {
            if sieve[i] {
                let mut j = i * i;
                while j < n {
                    sieve[j] = false;
                    j += i;
                }
            }
            i += 1;
        }
        (2..n as u64).filter(|&p| sieve[p as usize]).collect()
    })
}

/// The small primes in consecutive groups, each with the product of its
/// members (which fits in a `u64`), computed once. Trial division reduces
/// a candidate once per group and tests the members against the
/// single-limb remainder.
fn prime_groups() -> &'static [(u64, &'static [u64])] {
    use std::sync::OnceLock;
    static GROUPS: OnceLock<Vec<(u64, &'static [u64])>> = OnceLock::new();
    GROUPS.get_or_init(|| {
        let primes = small_primes();
        let mut groups = Vec::new();
        let mut start = 0;
        while start < primes.len() {
            let (mut product, mut end) = (1u64, start);
            while let Some(next) = primes.get(end).and_then(|&p| product.checked_mul(p)) {
                product = next;
                end += 1;
            }
            groups.push((product, &primes[start..end]));
            start = end;
        }
        groups
    })
}

/// Does any prime below [`TRIAL_DIVISION_BOUND`] divide `n`?
fn has_small_factor(n: &Uint) -> bool {
    prime_groups().iter().any(|&(product, primes)| {
        let r = n.rem_u64(product);
        primes.iter().any(|&p| r.is_multiple_of(p))
    })
}

/// Deterministic Miller–Rabin bases sufficient for n < 3,317,044,064,679,887,385,961,981.
const DETERMINISTIC_BASES: [u64; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

/// Number of additional random Miller–Rabin rounds for candidates above
/// 80 bits, on top of the 13 deterministic bases (see the module docs for
/// the resulting error bound).
const RANDOM_ROUNDS: usize = 6;

/// Probabilistic primality test.
///
/// Exact below 3.3 × 10²⁴; above that a composite passes with probability
/// at most 4^-`RANDOM_ROUNDS` (see the module docs). Random witnesses are
/// drawn from `rng` only once every deterministic base has passed, one per
/// round, stopping at the first witness that proves `n` composite.
pub fn is_prime(n: &Uint, rng: &mut SplitMix64) -> bool {
    if n < &Uint::from_u64(2) {
        return false;
    }
    if n < &Uint::from_u64(TRIAL_DIVISION_BOUND) {
        // Small inputs are decided entirely by the sieve.
        return small_primes().binary_search(&n.low_u64()).is_ok();
    }
    if has_small_factor(n) {
        return false;
    }

    // Write n-1 = d * 2^s with d odd.
    let n_minus_1 = n.sub(&Uint::one());
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }

    // n is odd and above the bound here, so the context always exists.
    let ctx = Montgomery::new(n).expect("odd modulus above the trial bound");
    let minus_one = ctx.to_mont(&n_minus_1);
    let mut sq = vec![0u64; ctx.limbs()];
    let mut witness_passes = |a: &Uint| -> bool {
        let mut x = ctx.pow_mont(&ctx.to_mont(a), &d);
        if x == ctx.one() || x == minus_one {
            return true;
        }
        for _ in 0..s - 1 {
            ctx.mont_mul(&x, &x, &mut sq);
            std::mem::swap(&mut x, &mut sq);
            if x == minus_one {
                return true;
            }
        }
        false
    };

    for &a in &DETERMINISTIC_BASES {
        // Every base is below the trial bound, hence below n.
        if !witness_passes(&Uint::from_u64(a)) {
            return false;
        }
    }

    // Extra random witnesses for large inputs.
    if n.bit_len() > 80 {
        let two = Uint::from_u64(2);
        let upper = n.sub(&two);
        for _ in 0..RANDOM_ROUNDS {
            let a = rng.next_uint_range(&two, &upper);
            if !witness_passes(&a) {
                return false;
            }
        }
    }
    true
}

/// Generate a random prime with exactly `bits` significant bits.
///
/// The candidate stream is deterministic in `rng`, so the same seed always
/// yields the same prime. `bits` must be at least 2.
pub fn gen_prime(bits: usize, rng: &mut SplitMix64) -> Uint {
    assert!(bits >= 2, "prime must have at least 2 bits");
    loop {
        let mut candidate = rng.next_uint_exact_bits(bits);
        // Force odd (except the sole even prime, caught by is_prime on 2).
        if candidate.is_even() {
            candidate = candidate.add(&Uint::one());
            if candidate.bit_len() != bits {
                continue; // overflowed to bits+1; redraw
            }
        }
        if is_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// Generate a prime `p` with exactly `bits` bits such that
/// `gcd(p - 1, e) == 1`, as RSA keygen requires for public exponent `e`.
pub fn gen_prime_coprime(bits: usize, e: &Uint, rng: &mut SplitMix64) -> Uint {
    loop {
        let p = gen_prime(bits, rng);
        if p.sub(&Uint::one()).gcd(e).is_one() {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(0xDEC0DE)
    }

    #[test]
    fn small_primes_and_composites() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 97, 257, 65537, 1_000_000_007];
        let composites = [0u64, 1, 4, 9, 91, 561, 1105, 65536, 1_000_000_006];
        for p in primes {
            assert!(is_prime(&Uint::from_u64(p), &mut r), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime(&Uint::from_u64(c), &mut r), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat tests but not Miller–Rabin.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(&Uint::from_u64(c), &mut r), "{c} is Carmichael");
        }
    }

    #[test]
    fn known_large_prime() {
        // 2^89 - 1 is a Mersenne prime.
        let mut r = rng();
        let m89 = Uint::one().shl(89).sub(&Uint::one());
        assert!(is_prime(&m89, &mut r));
        // 2^90 - 1 is clearly composite.
        let m90 = Uint::one().shl(90).sub(&Uint::one());
        assert!(!is_prime(&m90, &mut r));
    }

    #[test]
    fn generated_primes_have_exact_bits() {
        let mut r = rng();
        for bits in [16usize, 32, 64, 128] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(is_prime(&p, &mut rng()));
        }
    }

    #[test]
    fn gen_prime_deterministic() {
        let p1 = gen_prime(64, &mut SplitMix64::new(99));
        let p2 = gen_prime(64, &mut SplitMix64::new(99));
        assert_eq!(p1, p2);
    }

    /// The pre-Montgomery algorithm, kept verbatim as an oracle: trial
    /// division one prime at a time through `div_rem_u64`, then every
    /// witness through `mod_pow` and squarings through `mul` + `rem`.
    fn is_prime_reference(n: &Uint, rng: &mut SplitMix64) -> bool {
        use crate::modular::mod_pow;
        if n < &Uint::from_u64(2) {
            return false;
        }
        if n < &Uint::from_u64(TRIAL_DIVISION_BOUND) {
            return small_primes().binary_search(&n.low_u64()).is_ok();
        }
        for &p in small_primes() {
            if n.div_rem_u64(p).1 == 0 {
                return false;
            }
        }
        let n_minus_1 = n.sub(&Uint::one());
        let mut d = n_minus_1.clone();
        let mut s = 0usize;
        while d.is_even() {
            d = d.shr(1);
            s += 1;
        }
        let witness_passes = |a: &Uint| -> bool {
            let mut x = match mod_pow(a, &d, n) {
                Ok(x) => x,
                Err(_) => return false,
            };
            if x.is_one() || x == n_minus_1 {
                return true;
            }
            for _ in 0..s - 1 {
                x = x.mul(&x).rem(n).expect("n >= 2");
                if x == n_minus_1 {
                    return true;
                }
            }
            false
        };
        for &a in &DETERMINISTIC_BASES {
            let a = Uint::from_u64(a);
            if &a >= n {
                continue;
            }
            if !witness_passes(&a) {
                return false;
            }
        }
        if n.bit_len() > 80 {
            let two = Uint::from_u64(2);
            let upper = n.sub(&two);
            for _ in 0..RANDOM_ROUNDS {
                let a = rng.next_uint_range(&two, &upper);
                if !witness_passes(&a) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn matches_reference_verdicts_and_rng_state() {
        // Random 256-bit candidates (the prime size of a 512-bit key), odd
        // and even, plus products of two primes that survive trial
        // division. Verdicts and the RNG state afterwards must both match
        // the reference, or keygen's candidate stream would shift.
        let mut draw = SplitMix64::new(0xC0FFEE);
        let mut candidates: Vec<Uint> = (0..3000).map(|_| draw.next_uint_exact_bits(256)).collect();
        for _ in 0..20 {
            candidates.push(gen_prime(128, &mut draw).mul(&gen_prime(128, &mut draw)));
        }
        let (mut fast_rng, mut ref_rng) = (SplitMix64::new(7), SplitMix64::new(7));
        let mut primes = 0;
        for n in &candidates {
            let verdict = is_prime(n, &mut fast_rng);
            assert_eq!(verdict, is_prime_reference(n, &mut ref_rng), "{n:?}");
            assert_eq!(fast_rng.next_u64(), ref_rng.next_u64(), "rng state after {n:?}");
            primes += verdict as usize;
        }
        assert!(primes > 5, "the sweep must reach the random rounds ({primes} primes)");
    }

    #[test]
    fn grouped_trial_division_covers_every_small_prime() {
        let groups = prime_groups();
        let flat: Vec<u64> = groups.iter().flat_map(|(_, g)| g.iter().copied()).collect();
        assert_eq!(flat, small_primes());
        for &(product, members) in groups {
            assert_eq!(members.iter().product::<u64>(), product);
        }
        // A large multiple of the last small prime is caught.
        let last = *small_primes().last().unwrap();
        let n = Uint::one().shl(200).add(&Uint::from_u64(12345)).mul_u64(last);
        assert!(has_small_factor(&n));
        assert!(!is_prime(&n, &mut rng()));
    }

    #[test]
    fn coprime_constraint_holds() {
        let mut r = rng();
        let e = Uint::from_u64(65537);
        let p = gen_prime_coprime(64, &e, &mut r);
        assert!(p.sub(&Uint::one()).gcd(&e).is_one());
    }
}
