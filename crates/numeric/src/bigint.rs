//! Sign–magnitude arbitrary-precision integers with a small-word fast path.
//!
//! Values that fit a machine word are stored inline as an `i64` and use
//! primitive `i128` arithmetic; only values outside the `i64` range spill to
//! a little-endian vector of 32-bit limbs (with no trailing zero limbs, all
//! intermediate arithmetic fitting in `u64`). The representation is
//! canonical — a value is limb-backed **iff** it does not fit `i64` — so
//! equality and hashing are structural. Division on the limb path uses
//! Knuth's Algorithm D with the standard normalization step.
//!
//! The fast path can be disabled at runtime via [`crate::fastpath`], which
//! forces every operation through the limb algorithms (the representation
//! stays canonical either way); the property-test suite uses this to check
//! that both paths agree bit-for-bit.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use core::str::FromStr;

use crate::{fastpath, ParseNumError};

const BASE_BITS: u32 = 32;

/// Sign of a [`BigInt`]. Zero has its own sign so that the magnitude of a
/// zero value is always the empty limb vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Minus,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Plus,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Minus => Sign::Plus,
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
        }
    }

    fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (a, b) if a == b => Sign::Plus,
            _ => Sign::Minus,
        }
    }
}

/// Internal representation. Canonical: `Small` holds every value in
/// `i64::MIN..=i64::MAX`; `Large` holds everything else (so its magnitude
/// never has trailing zero limbs and never fits `i64`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small(i64),
    Large { sign: Sign, mag: Vec<u32> },
}

/// An arbitrary-precision signed integer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    repr: Repr,
}

/// Writes the limbs of a small magnitude into `buf`, returning the
/// occupied prefix.
fn small_limbs(v: u64, buf: &mut [u32; 2]) -> &[u32] {
    buf[0] = v as u32;
    buf[1] = (v >> BASE_BITS) as u32;
    let len = if buf[1] != 0 {
        2
    } else if buf[0] != 0 {
        1
    } else {
        0
    };
    &buf[..len]
}

fn sign_of_i64(v: i64) -> Sign {
    match v.cmp(&0) {
        Ordering::Less => Sign::Minus,
        Ordering::Equal => Sign::Zero,
        Ordering::Greater => Sign::Plus,
    }
}

fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl BigInt {
    /// The integer `0`.
    pub fn zero() -> Self {
        BigInt {
            repr: Repr::Small(0),
        }
    }

    /// The integer `1`.
    pub fn one() -> Self {
        BigInt {
            repr: Repr::Small(1),
        }
    }

    fn small(v: i64) -> Self {
        BigInt {
            repr: Repr::Small(v),
        }
    }

    /// The inline value, when the integer fits `i64`. By the canonical
    /// representation invariant this is `Some` exactly for such values.
    pub(crate) fn as_small(&self) -> Option<i64> {
        match self.repr {
            Repr::Small(v) => Some(v),
            Repr::Large { .. } => None,
        }
    }

    fn from_u128(v: u128) -> Self {
        if v <= i64::MAX as u128 {
            return BigInt::small(v as i64);
        }
        let mut mag = Vec::with_capacity(4);
        let mut v = v;
        while v > 0 {
            mag.push(v as u32);
            v >>= BASE_BITS;
        }
        BigInt {
            repr: Repr::Large {
                sign: Sign::Plus,
                mag,
            },
        }
    }

    fn from_i128(v: i128) -> Self {
        if (i64::MIN as i128..=i64::MAX as i128).contains(&v) {
            return BigInt::small(v as i64);
        }
        let m = BigInt::from_u128(v.unsigned_abs());
        if v < 0 {
            -m
        } else {
            m
        }
    }

    /// Returns `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Small(0))
    }

    /// Returns `true` iff the value is `1`.
    pub fn is_one(&self) -> bool {
        matches!(self.repr, Repr::Small(1))
    }

    /// Returns `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign() == Sign::Minus
    }

    /// Returns `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign() == Sign::Plus
    }

    /// The sign of the value.
    pub fn sign(&self) -> Sign {
        match &self.repr {
            Repr::Small(v) => sign_of_i64(*v),
            Repr::Large { sign, .. } => *sign,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        match &self.repr {
            Repr::Small(v) => BigInt::from_u128(v.unsigned_abs() as u128),
            Repr::Large { mag, .. } => BigInt {
                repr: Repr::Large {
                    sign: Sign::Plus,
                    mag: mag.clone(),
                },
            },
        }
    }

    /// The sign and magnitude limbs of the value. Small values borrow `buf`.
    fn parts<'a>(&'a self, buf: &'a mut [u32; 2]) -> (Sign, &'a [u32]) {
        match &self.repr {
            Repr::Small(v) => (sign_of_i64(*v), small_limbs(v.unsigned_abs(), buf)),
            Repr::Large { sign, mag } => (*sign, mag.as_slice()),
        }
    }

    fn from_mag(sign: Sign, mut mag: Vec<u32>) -> BigInt {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        if mag.is_empty() {
            return BigInt::zero();
        }
        debug_assert_ne!(sign, Sign::Zero);
        if mag.len() <= 2 {
            let v = mag[0] as u64 | ((*mag.get(1).unwrap_or(&0) as u64) << BASE_BITS);
            match sign {
                Sign::Plus if v <= i64::MAX as u64 => return BigInt::small(v as i64),
                Sign::Minus if v <= 1u64 << 63 => return BigInt::small((-(v as i128)) as i64),
                _ => {}
            }
        }
        BigInt {
            repr: Repr::Large { sign, mag },
        }
    }

    /// Number of significant bits of the magnitude (0 for zero).
    pub fn bits(&self) -> u64 {
        match &self.repr {
            Repr::Small(0) => 0,
            Repr::Small(v) => (64 - v.unsigned_abs().leading_zeros()) as u64,
            Repr::Large { mag, .. } => {
                let top = *mag.last().expect("canonical Large is non-empty");
                (mag.len() as u64 - 1) * BASE_BITS as u64 + (32 - top.leading_zeros()) as u64
            }
        }
    }

    /// Compares magnitudes, ignoring sign.
    pub fn cmp_abs(&self, other: &BigInt) -> Ordering {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            return a.unsigned_abs().cmp(&b.unsigned_abs());
        }
        let (mut ab, mut bb) = ([0u32; 2], [0u32; 2]);
        let (_, amag) = self.parts(&mut ab);
        let (_, bmag) = other.parts(&mut bb);
        cmp_mag(amag, bmag)
    }

    /// Euclidean-style division returning `(quotient, remainder)` with the
    /// remainder taking the sign of `self` (truncated division, like Rust's
    /// primitive `/` and `%`).
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    pub fn div_rem(&self, rhs: &BigInt) -> (BigInt, BigInt) {
        assert!(!rhs.is_zero(), "BigInt division by zero");
        if fastpath::enabled() {
            if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
                // i128 avoids the i64::MIN / -1 overflow edge.
                let (a, b) = (*a as i128, *b as i128);
                return (BigInt::from_i128(a / b), BigInt::from_i128(a % b));
            }
        }
        if self.is_zero() {
            return (BigInt::zero(), BigInt::zero());
        }
        let (mut ab, mut bb) = ([0u32; 2], [0u32; 2]);
        let (asign, amag) = self.parts(&mut ab);
        let (bsign, bmag) = rhs.parts(&mut bb);
        match cmp_mag(amag, bmag) {
            Ordering::Less => (BigInt::zero(), self.clone()),
            Ordering::Equal => (BigInt::from_mag(asign.mul(bsign), vec![1]), BigInt::zero()),
            Ordering::Greater => {
                let (q, r) = div_rem_mag(amag, bmag);
                (
                    BigInt::from_mag(asign.mul(bsign), q),
                    BigInt::from_mag(asign, r),
                )
            }
        }
    }

    /// Greatest common divisor of the absolute values; `gcd(0, x) = |x|`.
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        if fastpath::enabled() {
            if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
                let g = gcd_u64(a.unsigned_abs(), b.unsigned_abs());
                return BigInt::from_u128(g as u128);
            }
        }
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let (_, r) = a.div_rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Raises `self` to the power `exp` by repeated squaring.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Approximate conversion to `f64` (round-to-nearest on the top bits;
    /// returns ±∞ when out of range).
    pub fn to_f64(&self) -> f64 {
        let bits = self.bits();
        let v = if bits <= 63 {
            self.low_u64() as f64
        } else {
            // Take the top 64 bits and scale by the dropped exponent.
            let shift = bits - 64;
            let top = self.shr_bits(shift).low_u64();
            top as f64 * 2f64.powi(shift as i32)
        };
        match self.sign() {
            Sign::Minus => -v,
            Sign::Zero => 0.0,
            Sign::Plus => v,
        }
    }

    /// The low 64 bits of the magnitude.
    pub fn low_u64(&self) -> u64 {
        match &self.repr {
            Repr::Small(v) => v.unsigned_abs(),
            Repr::Large { mag, .. } => {
                let lo = *mag.first().unwrap_or(&0) as u64;
                let hi = *mag.get(1).unwrap_or(&0) as u64;
                lo | (hi << BASE_BITS)
            }
        }
    }

    /// Converts to `i64` if it fits.
    pub fn to_i64(&self) -> Option<i64> {
        self.as_small()
    }

    /// Converts to `u64` if it fits and is non-negative.
    pub fn to_u64(&self) -> Option<u64> {
        match &self.repr {
            Repr::Small(v) if *v >= 0 => Some(*v as u64),
            Repr::Small(_) => None,
            Repr::Large { sign, .. } => {
                if *sign == Sign::Minus || self.bits() > 64 {
                    None
                } else {
                    Some(self.low_u64())
                }
            }
        }
    }

    /// Right shift by `n` bits (arithmetic on the magnitude, sign kept).
    pub fn shr_bits(&self, n: u64) -> BigInt {
        let mut buf = [0u32; 2];
        let (sign, mag) = self.parts(&mut buf);
        if sign == Sign::Zero {
            return BigInt::zero();
        }
        let limb_shift = (n / BASE_BITS as u64) as usize;
        let bit_shift = (n % BASE_BITS as u64) as u32;
        if limb_shift >= mag.len() {
            return BigInt::zero();
        }
        let mut out = mag[limb_shift..].to_vec();
        if bit_shift > 0 {
            let mut carry = 0u32;
            for limb in out.iter_mut().rev() {
                let new_carry = *limb << (BASE_BITS - bit_shift);
                *limb = (*limb >> bit_shift) | carry;
                carry = new_carry;
            }
        }
        BigInt::from_mag(sign, out)
    }

    /// Left shift by `n` bits.
    pub fn shl_bits(&self, n: u64) -> BigInt {
        let mut buf = [0u32; 2];
        let (sign, mag) = self.parts(&mut buf);
        if sign == Sign::Zero {
            return BigInt::zero();
        }
        let limb_shift = (n / BASE_BITS as u64) as usize;
        let bit_shift = (n % BASE_BITS as u64) as u32;
        let mut out = vec![0u32; limb_shift];
        out.extend_from_slice(mag);
        if bit_shift > 0 {
            let mut carry = 0u32;
            for limb in out.iter_mut().skip(limb_shift) {
                let new_carry = *limb >> (BASE_BITS - bit_shift);
                *limb = (*limb << bit_shift) | carry;
                carry = new_carry;
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        BigInt::from_mag(sign, out)
    }

    /// Returns `true` iff the value is even.
    pub fn is_even(&self) -> bool {
        match &self.repr {
            Repr::Small(v) => v & 1 == 0,
            Repr::Large { mag, .. } => mag.first().is_none_or(|l| l & 1 == 0),
        }
    }
}

fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

fn add_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &limb) in long.iter().enumerate() {
        let sum = limb as u64 + *short.get(i).unwrap_or(&0) as u64 + carry;
        out.push(sum as u32);
        carry = sum >> BASE_BITS;
    }
    if carry > 0 {
        out.push(carry as u32);
    }
    out
}

/// Requires `a >= b` limbwise-comparison-wise.
fn sub_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
    debug_assert!(cmp_mag(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i64;
    for (i, &limb) in a.iter().enumerate() {
        let diff = limb as i64 - *b.get(i).unwrap_or(&0) as i64 - borrow;
        if diff < 0 {
            out.push((diff + (1i64 << BASE_BITS)) as u32);
            borrow = 1;
        } else {
            out.push(diff as u32);
            borrow = 0;
        }
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// Signed addition over (sign, magnitude) views.
fn add_signed(asign: Sign, amag: &[u32], bsign: Sign, bmag: &[u32]) -> BigInt {
    match (asign, bsign) {
        (Sign::Zero, _) => BigInt::from_mag(bsign, bmag.to_vec()),
        (_, Sign::Zero) => BigInt::from_mag(asign, amag.to_vec()),
        (a, b) if a == b => BigInt::from_mag(a, add_mag(amag, bmag)),
        (a, _) => match cmp_mag(amag, bmag) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_mag(a, sub_mag(amag, bmag)),
            Ordering::Less => BigInt::from_mag(a.flip(), sub_mag(bmag, amag)),
        },
    }
}

/// Limb count above which multiplication switches to Karatsuba. Chosen from
/// the criterion benchmarks: below ~32 limbs (1024 bits) the schoolbook
/// inner loop wins on constants.
const KARATSUBA_THRESHOLD: usize = 32;

fn mul_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    if a.len().min(b.len()) >= KARATSUBA_THRESHOLD {
        return karatsuba_mag(a, b);
    }
    schoolbook_mag(a, b)
}

/// Karatsuba: splits at `m` limbs and recombines with three recursive
/// multiplications: `z1 = (a0+a1)(b0+b1) − z0 − z2`.
fn karatsuba_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
    let m = a.len().max(b.len()) / 2;
    let (a0, a1) = a.split_at(a.len().min(m));
    let (b0, b1) = b.split_at(b.len().min(m));
    let z0 = mul_mag(a0, b0);
    let z2 = mul_mag(a1, b1);
    let a01 = add_mag(a0, a1);
    let b01 = add_mag(b0, b1);
    let mut z1 = mul_mag(&a01, &b01);
    z1 = sub_mag(&z1, &z0);
    z1 = sub_mag(&z1, &z2);
    // result = z0 + z1·B^m + z2·B^{2m}
    let mut out = vec![0u32; a.len() + b.len()];
    add_into(&mut out, &z0, 0);
    add_into(&mut out, &z1, m);
    add_into(&mut out, &z2, 2 * m);
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// `out += v · B^offset` in place (out must be long enough; carries cannot
/// escape because the true product fits `a.len()+b.len()` limbs).
fn add_into(out: &mut [u32], v: &[u32], offset: usize) {
    let mut carry = 0u64;
    let mut i = 0;
    while i < v.len() || carry > 0 {
        let idx = offset + i;
        let add = *v.get(i).unwrap_or(&0) as u64;
        debug_assert!(idx < out.len() || (add == 0 && carry == 0));
        if idx >= out.len() {
            break;
        }
        let sum = out[idx] as u64 + add + carry;
        out[idx] = sum as u32;
        carry = sum >> BASE_BITS;
        i += 1;
    }
}

fn schoolbook_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u64;
        for (j, &y) in b.iter().enumerate() {
            let t = x as u64 * y as u64 + out[i + j] as u64 + carry;
            out[i + j] = t as u32;
            carry = t >> BASE_BITS;
        }
        let mut k = i + b.len();
        while carry > 0 {
            let t = out[k] as u64 + carry;
            out[k] = t as u32;
            carry = t >> BASE_BITS;
            k += 1;
        }
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// Shift a magnitude left by `shift < 32` bits.
fn shl_mag_bits(mag: &[u32], shift: u32) -> Vec<u32> {
    debug_assert!(shift < BASE_BITS);
    let mut out = mag.to_vec();
    if shift > 0 {
        let mut carry = 0u32;
        for limb in out.iter_mut() {
            let new_carry = *limb >> (BASE_BITS - shift);
            *limb = (*limb << shift) | carry;
            carry = new_carry;
        }
        if carry > 0 {
            out.push(carry);
        }
    }
    out
}

/// Shift a magnitude right by `shift < 32` bits, in place.
fn shr_mag_bits(mag: &mut Vec<u32>, shift: u32) {
    debug_assert!(shift < BASE_BITS);
    if shift > 0 {
        let mut carry = 0u32;
        for limb in mag.iter_mut().rev() {
            let new_carry = *limb << (BASE_BITS - shift);
            *limb = (*limb >> shift) | carry;
            carry = new_carry;
        }
    }
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

/// Knuth Algorithm D. Requires `a > b`, `b` non-empty.
fn div_rem_mag(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
    if b.len() == 1 {
        return div_rem_small(a, b[0]);
    }
    // Normalize so the top limb of the divisor has its high bit set.
    let shift = b.last().unwrap().leading_zeros();
    let mut u = shl_mag_bits(a, shift);
    let v = shl_mag_bits(b, shift);
    let n = v.len();
    let m = u.len() - n;
    u.push(0);
    let mut q = vec![0u32; m + 1];
    let v_top = v[n - 1] as u64;
    let v_next = v[n - 2] as u64;
    for j in (0..=m).rev() {
        // Estimate the quotient digit from the top two/three limbs.
        let num = ((u[j + n] as u64) << BASE_BITS) | u[j + n - 1] as u64;
        let mut qhat = num / v_top;
        let mut rhat = num % v_top;
        while qhat >= 1u64 << BASE_BITS
            || qhat * v_next > ((rhat << BASE_BITS) | u[j + n - 2] as u64)
        {
            qhat -= 1;
            rhat += v_top;
            if rhat >= 1u64 << BASE_BITS {
                break;
            }
        }
        // Multiply-and-subtract; fix up with at most one add-back.
        let mut borrow = 0i64;
        let mut carry = 0u64;
        for i in 0..n {
            let p = qhat * v[i] as u64 + carry;
            carry = p >> BASE_BITS;
            let t = u[j + i] as i64 - (p as u32) as i64 - borrow;
            if t < 0 {
                u[j + i] = (t + (1i64 << BASE_BITS)) as u32;
                borrow = 1;
            } else {
                u[j + i] = t as u32;
                borrow = 0;
            }
        }
        let t = u[j + n] as i64 - carry as i64 - borrow;
        if t < 0 {
            // qhat was one too large: add the divisor back.
            u[j + n] = (t + (1i64 << BASE_BITS)) as u32;
            qhat -= 1;
            let mut carry = 0u64;
            for i in 0..n {
                let s = u[j + i] as u64 + v[i] as u64 + carry;
                u[j + i] = s as u32;
                carry = s >> BASE_BITS;
            }
            u[j + n] = u[j + n].wrapping_add(carry as u32);
        } else {
            u[j + n] = t as u32;
        }
        q[j] = qhat as u32;
    }
    u.truncate(n);
    shr_mag_bits(&mut u, shift);
    while q.last() == Some(&0) {
        q.pop();
    }
    (q, u)
}

fn div_rem_small(a: &[u32], d: u32) -> (Vec<u32>, Vec<u32>) {
    debug_assert!(d != 0);
    let mut q = vec![0u32; a.len()];
    let mut rem = 0u64;
    for i in (0..a.len()).rev() {
        let cur = (rem << BASE_BITS) | a[i] as u64;
        q[i] = (cur / d as u64) as u32;
        rem = cur % d as u64;
    }
    while q.last() == Some(&0) {
        q.pop();
    }
    let r = if rem == 0 {
        Vec::new()
    } else {
        vec![rem as u32]
    };
    (q, r)
}

// ---- conversions ----

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> Self {
                BigInt::from_u128(v as u128)
            }
        }
    )*};
}

macro_rules! impl_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> Self {
                BigInt::from_i128(v as i128)
            }
        }
    )*};
}

impl_from_unsigned!(u8, u16, u32, u64, u128, usize);
impl_from_signed!(i8, i16, i32, i64, i128, isize);

// ---- ordering ----

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        if fastpath::enabled() {
            if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
                return a.cmp(b);
            }
        }
        match (self.sign(), other.sign()) {
            (Sign::Minus, Sign::Minus) => other.cmp_abs(self),
            (Sign::Minus, _) => Ordering::Less,
            (Sign::Zero, Sign::Minus) => Ordering::Greater,
            (Sign::Zero, Sign::Zero) => Ordering::Equal,
            (Sign::Zero, Sign::Plus) => Ordering::Less,
            (Sign::Plus, Sign::Plus) => self.cmp_abs(other),
            (Sign::Plus, _) => Ordering::Greater,
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

// ---- arithmetic operators ----

impl<'b> Add<&'b BigInt> for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &'b BigInt) -> BigInt {
        if fastpath::enabled() {
            if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
                return BigInt::from_i128(*a as i128 + *b as i128);
            }
        }
        let (mut ab, mut bb) = ([0u32; 2], [0u32; 2]);
        let (asign, amag) = self.parts(&mut ab);
        let (bsign, bmag) = rhs.parts(&mut bb);
        add_signed(asign, amag, bsign, bmag)
    }
}

impl<'b> Sub<&'b BigInt> for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &'b BigInt) -> BigInt {
        if fastpath::enabled() {
            if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
                return BigInt::from_i128(*a as i128 - *b as i128);
            }
        }
        let (mut ab, mut bb) = ([0u32; 2], [0u32; 2]);
        let (asign, amag) = self.parts(&mut ab);
        let (bsign, bmag) = rhs.parts(&mut bb);
        add_signed(asign, amag, bsign.flip(), bmag)
    }
}

impl<'b> Mul<&'b BigInt> for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &'b BigInt) -> BigInt {
        if fastpath::enabled() {
            if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &rhs.repr) {
                return BigInt::from_i128(*a as i128 * *b as i128);
            }
        }
        let (mut ab, mut bb) = ([0u32; 2], [0u32; 2]);
        let (asign, amag) = self.parts(&mut ab);
        let (bsign, bmag) = rhs.parts(&mut bb);
        BigInt::from_mag(asign.mul(bsign), mul_mag(amag, bmag))
    }
}

impl<'b> Div<&'b BigInt> for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &'b BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl<'b> Rem<&'b BigInt> for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &'b BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_binop {
    ($($trait:ident :: $method:ident),*) => {$(
        impl $trait<BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt { (&self).$method(&rhs) }
        }
        impl<'b> $trait<&'b BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &'b BigInt) -> BigInt { (&self).$method(rhs) }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt { self.$method(&rhs) }
        }
    )*};
}

forward_binop!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.repr {
            Repr::Small(v) => BigInt::from_i128(-(v as i128)),
            // from_mag renormalizes the ±2^63 boundary back to Small.
            Repr::Large { sign, mag } => BigInt::from_mag(sign.flip(), mag),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        self.clone().neg()
    }
}

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

// ---- formatting / parsing ----

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sign, mag) = match &self.repr {
            Repr::Small(0) => return f.pad_integral(true, "", "0"),
            Repr::Small(v) => {
                return f.pad_integral(*v >= 0, "", &v.unsigned_abs().to_string());
            }
            Repr::Large { sign, mag } => (*sign, mag),
        };
        // Repeatedly divide by 10^9 to peel decimal chunks.
        let mut mag = mag.clone();
        let mut chunks = Vec::new();
        while !mag.is_empty() {
            let (q, r) = div_rem_small(&mag, 1_000_000_000);
            chunks.push(r.first().copied().unwrap_or(0));
            mag = q;
        }
        let mut s = chunks.last().unwrap().to_string();
        for c in chunks.iter().rev().skip(1) {
            s.push_str(&format!("{c:09}"));
        }
        f.pad_integral(sign != Sign::Minus, "", &s)
    }
}

impl FromStr for BigInt {
    type Err = ParseNumError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Values that fit i64 — nearly everything machmin serialises — parse
        // on the primitive path. (An overflow falls through to the limb
        // accumulator below; a malformed string fails there with a proper
        // error either way.)
        if let Ok(v) = s.parse::<i64>() {
            return Ok(BigInt::small(v));
        }
        let (negative, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return Err(ParseNumError::new("empty digit string"));
        }
        let mut acc = BigInt::zero();
        let billion = BigInt::from(1_000_000_000u32);
        let bytes = digits.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let take = (bytes.len() - i).min(9);
            let chunk = &digits[i..i + take];
            let v: u32 = chunk
                .parse()
                .map_err(|_| ParseNumError::new("non-digit character"))?;
            let scale = BigInt::from(10u32).pow(take as u32);
            acc = if take == 9 {
                &acc * &billion
            } else {
                &acc * &scale
            };
            acc = &acc + &BigInt::from(v);
            i += take;
        }
        if negative {
            acc = -acc;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigInt::zero().is_zero());
        assert!(BigInt::one().is_one());
        assert_eq!(BigInt::zero(), bi(0));
        assert_eq!(BigInt::one(), bi(1));
        assert!(!bi(-1).is_one());
    }

    #[test]
    fn small_roundtrip_display() {
        for v in [-1_000_000_007i128, -1, 0, 1, 42, i64::MAX as i128] {
            assert_eq!(bi(v).to_string(), v.to_string());
        }
    }

    #[test]
    fn parse_roundtrip() {
        for s in [
            "0",
            "-1",
            "123456789012345678901234567890",
            "-99999999999999999999",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!("".parse::<BigInt>().is_err());
        assert!("12x".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
    }

    #[test]
    fn add_sub_small() {
        for a in [-7i128, -1, 0, 3, 1 << 40] {
            for b in [-9i128, 0, 5, (1 << 41) + 3] {
                assert_eq!(bi(a) + bi(b), bi(a + b), "{a}+{b}");
                assert_eq!(bi(a) - bi(b), bi(a - b), "{a}-{b}");
            }
        }
    }

    #[test]
    fn mul_small() {
        for a in [-7i128, 0, 3, 1 << 40] {
            for b in [-9i128, 0, 5, 1 << 41] {
                assert_eq!(bi(a) * bi(b), bi(a * b));
            }
        }
    }

    #[test]
    fn div_rem_matches_primitive() {
        for a in [-100i128, -37, 0, 1, 99, 12345678901234567890] {
            for b in [-7i128, -1, 1, 3, 1000000007] {
                let (q, r) = bi(a).div_rem(&bi(b));
                assert_eq!(q, bi(a / b), "{a}/{b}");
                assert_eq!(r, bi(a % b), "{a}%{b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = bi(5).div_rem(&BigInt::zero());
    }

    #[test]
    fn multi_limb_mul_div() {
        let a: BigInt = "123456789012345678901234567890123456789".parse().unwrap();
        let b: BigInt = "987654321098765432109876543210".parse().unwrap();
        let p = &a * &b;
        let (q, r) = p.div_rem(&b);
        assert_eq!(q, a);
        assert!(r.is_zero());
        let (q2, r2) = (&p + &BigInt::from(17u32)).div_rem(&b);
        assert_eq!(q2, a);
        assert_eq!(r2, BigInt::from(17u32));
    }

    #[test]
    fn knuth_d_addback_case() {
        // A divisor whose second limb forces the qhat correction path.
        let a = BigInt::from(u128::MAX) * BigInt::from(u64::MAX) + BigInt::from(12345u32);
        let b = BigInt::from((1u128 << 96) - (1u128 << 32) + 7);
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r.cmp_abs(&b) == Ordering::Less);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(5).gcd(&bi(0)), bi(5));
        assert_eq!(bi(0).gcd(&bi(0)), bi(0));
        let a = BigInt::from(2u32).pow(200) * BigInt::from(3u32).pow(5);
        let b = BigInt::from(2u32).pow(150) * BigInt::from(5u32).pow(3);
        assert_eq!(a.gcd(&b), BigInt::from(2u32).pow(150));
    }

    #[test]
    fn pow_and_bits() {
        assert_eq!(bi(2).pow(10), bi(1024));
        assert_eq!(bi(10).pow(0), bi(1));
        assert_eq!(bi(0).pow(5), bi(0));
        assert_eq!(bi(1024).bits(), 11);
        assert_eq!(BigInt::zero().bits(), 0);
        assert_eq!(bi(2).pow(100).bits(), 101);
    }

    #[test]
    fn shifts() {
        let v = bi(0b1011);
        assert_eq!(v.shl_bits(100).shr_bits(100), v);
        assert_eq!(bi(1).shl_bits(64), BigInt::from(1u128 << 64));
        assert_eq!(bi(12345).shr_bits(3), bi(12345 >> 3));
        assert_eq!(bi(1).shr_bits(1), bi(0));
    }

    #[test]
    fn ordering() {
        let mut v = vec![bi(5), bi(-3), bi(0), bi(100), bi(-100)];
        v.sort();
        assert_eq!(v, vec![bi(-100), bi(-3), bi(0), bi(5), bi(100)]);
        let big: BigInt = "99999999999999999999999999".parse().unwrap();
        assert!(big > bi(i128::MAX >> 44));
        assert!(-&big < bi(0));
    }

    #[test]
    fn to_f64_accuracy() {
        assert_eq!(bi(0).to_f64(), 0.0);
        assert_eq!(bi(-5).to_f64(), -5.0);
        assert_eq!(bi(1i128 << 80).to_f64(), 2f64.powi(80));
        let huge = BigInt::from(3u32).pow(100);
        let approx = huge.to_f64();
        let exact = 3f64.powi(100);
        assert!((approx / exact - 1.0).abs() < 1e-12);
    }

    #[test]
    fn to_primitive() {
        assert_eq!(bi(42).to_i64(), Some(42));
        assert_eq!(bi(-42).to_i64(), Some(-42));
        assert_eq!(bi(42).to_u64(), Some(42));
        assert_eq!(bi(-42).to_u64(), None);
        assert_eq!((bi(1) << 70u32).to_i64(), None);
    }

    impl core::ops::Shl<u32> for BigInt {
        type Output = BigInt;
        fn shl(self, n: u32) -> BigInt {
            self.shl_bits(n as u64)
        }
    }

    #[test]
    fn neg_and_abs() {
        assert_eq!(-bi(5), bi(-5));
        assert_eq!(-bi(0), bi(0));
        assert_eq!(bi(-5).abs(), bi(5));
        assert_eq!(bi(5).abs(), bi(5));
    }

    #[test]
    fn assign_ops() {
        let mut x = bi(10);
        x += &bi(5);
        assert_eq!(x, bi(15));
        x -= &bi(20);
        assert_eq!(x, bi(-5));
        x *= &bi(-3);
        assert_eq!(x, bi(15));
    }

    #[test]
    fn even_odd() {
        assert!(bi(0).is_even());
        assert!(bi(2).is_even());
        assert!(!bi(3).is_even());
        assert!(bi(-4).is_even());
    }

    /// The ±2^63 boundary is where the inline representation spills; every
    /// canonicalization edge lives there.
    #[test]
    fn small_large_boundary_is_canonical() {
        let max = bi(i64::MAX as i128);
        let min = bi(i64::MIN as i128);
        assert_eq!(max.to_i64(), Some(i64::MAX));
        assert_eq!(min.to_i64(), Some(i64::MIN));
        // One past the boundary no longer fits.
        assert_eq!((&max + &BigInt::one()).to_i64(), None);
        assert_eq!((&min - &BigInt::one()).to_i64(), None);
        // Crossing back re-inlines (2^63 − 1 and −2^63 fit again).
        assert_eq!(
            (&max + &BigInt::one() - &BigInt::one()).to_i64(),
            Some(i64::MAX)
        );
        assert_eq!(
            (&min - &BigInt::one() + &BigInt::one()).to_i64(),
            Some(i64::MIN)
        );
        // Negation across the asymmetric boundary.
        assert_eq!((-min.clone()).to_i64(), None);
        assert_eq!((-(-min.clone())).to_i64(), Some(i64::MIN));
        assert_eq!(min.abs(), bi(-(i64::MIN as i128)));
        // Equality/hash canonicality: the same value built two ways.
        let via_parse: BigInt = i64::MIN.to_string().parse().unwrap();
        assert_eq!(via_parse, min);
        assert_eq!(via_parse.to_i64(), Some(i64::MIN));
    }

    #[test]
    fn forced_bigint_path_agrees() {
        let vals = [
            0i128,
            1,
            -1,
            42,
            i64::MAX as i128,
            i64::MIN as i128,
            1 << 40,
        ];
        for &a in &vals {
            for &b in &vals {
                let fast = (
                    bi(a) + bi(b),
                    bi(a) - bi(b),
                    bi(a) * bi(b),
                    bi(a).gcd(&bi(b)),
                );
                let slow = {
                    let _guard = crate::fastpath::force_bigint();
                    (
                        bi(a) + bi(b),
                        bi(a) - bi(b),
                        bi(a) * bi(b),
                        bi(a).gcd(&bi(b)),
                    )
                };
                assert_eq!(fast, slow, "a={a} b={b}");
            }
        }
    }
}
