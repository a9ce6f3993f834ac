//! Byte-level number formatting for the JSON-lines and CSV writers, and
//! the line loop their readers share.
//!
//! [`push_f64`] appends exactly the bytes `format!("{x:?}")` produces, but
//! without `core::fmt`: it finds the shortest round-trip decimal with the
//! Ryu algorithm (Adams, PLDI 2018) and lays the digits out by `{:?}`'s
//! rules. Two of those rules differ from Ryu's reference code:
//!
//! * an exact tie between two shortest candidates rounds **up**, not to
//!   even (2⁻²⁵ prints `2.9802322387695313e-8`);
//! * the exponent form (`1e-7`, `1.7976931348623157e308`) is used exactly
//!   when `|x| < 1e-4` or `|x| >= 1e16`; every other value prints in
//!   decimal form with at least one fractional digit (`7200.0`).
//!
//! The 128-bit multiplier tables are not pasted in: they are computed once,
//! on first use, from exact big-integer powers of five.
//!
//! [`push_u64`] and [`push_i64`] write integers two digits at a time from a
//! digit-pair table.
//!
//! [`LineReader`] is the one line loop of every text reader: the trace
//! readers and the telemetry auditor.

use std::io::{self, BufRead};
use std::sync::OnceLock;

/// `"00" "01" … "99"`: two ASCII digits per index.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Writes `v`'s decimal digits right-aligned into `buf`, returning the
/// index of the first digit.
fn digits_u64(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i
}

/// Appends `v` in decimal, as `format!("{v}")` would.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let start = digits_u64(v, &mut buf);
    out.extend_from_slice(&buf[start..]);
}

/// Appends `v` in decimal, as `format!("{v}")` would.
pub fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Appends `x` exactly as `format!("{x:?}")` would: the shortest decimal
/// that parses back to `x`. NaN and the infinities go through `core::fmt`.
pub fn push_f64(out: &mut Vec<u8>, x: f64) {
    if !x.is_finite() {
        out.extend_from_slice(format!("{x:?}").as_bytes());
        return;
    }
    if x.is_sign_negative() {
        out.push(b'-');
    }
    if x == 0.0 {
        out.extend_from_slice(b"0.0");
        return;
    }
    let (mantissa, exp10) = shortest(x.to_bits());
    let mut buf = [0u8; 20];
    let start = digits_u64(mantissa, &mut buf);
    let digits = &buf[start..];
    let n = digits.len() as i32;
    // The value is 0.d₁d₂…dₙ × 10^point.
    let point = exp10 + n;
    let abs = x.abs();
    if !(1e-4..1e16).contains(&abs) {
        out.push(digits[0]);
        if n > 1 {
            out.push(b'.');
            out.extend_from_slice(&digits[1..]);
        }
        out.push(b'e');
        push_i64(out, i64::from(point - 1));
    } else if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(digits);
    } else if point < n {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + (point - n) as usize, b'0');
        out.extend_from_slice(b".0");
    }
}

/// The line loop every text reader shares, over one reused buffer. Lines
/// are numbered from 1, blank ones included, and lose their `\n` or
/// `\r\n`, as with [`BufRead::lines`]; line 1 also loses a UTF-8
/// byte-order mark (U+FEFF, which `str::trim` keeps). A line that is not
/// UTF-8 is an `InvalidData` I/O error, as with `lines`, and
/// [`lineno`](LineReader::lineno) names it. Only the input's buffer and
/// one line are held, so a reader's memory does not grow with its input.
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    lineno: usize,
}

impl<R: BufRead> LineReader<R> {
    /// Reads lines from `inner` (a `&[u8]` is already a [`BufRead`]; wrap
    /// a file in a `BufReader`).
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            lineno: 0,
        }
    }

    /// The number of the line read last (0 before the first).
    pub fn lineno(&self) -> usize {
        self.lineno
    }

    /// The next line and its number, or `None` at the end of the input.
    pub fn next_line(&mut self) -> io::Result<Option<(usize, &str)>> {
        self.buf.clear();
        if self.inner.read_until(b'\n', &mut self.buf)? == 0 {
            return Ok(None);
        }
        self.lineno += 1;
        let mut line = self.buf.as_slice();
        if let Some(rest) = line.strip_suffix(b"\n") {
            line = rest.strip_suffix(b"\r").unwrap_or(rest);
        }
        if self.lineno == 1 {
            line = line.strip_prefix("\u{feff}".as_bytes()).unwrap_or(line);
        }
        let text = std::str::from_utf8(line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        Ok(Some((self.lineno, text)))
    }
}

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bit width of every table entry (the multipliers hold 125 significant
/// bits; an inverse entry can reach 2¹²⁵ + 1).
const POW5_BITS: i32 = 125;
/// `q` reaches 290 for the largest binary exponent (`f64::MAX`).
const POW5_INV_LEN: usize = 291;
/// `-e2 - q` reaches 325 for the smallest (subnormals).
const POW5_LEN: usize = 326;

/// The multiplier tables: `inv[q] ≈ 2^(bits(5^q) - 1 + 125) / 5^q`
/// (rounded up) and `pow[i] ≈ 5^i` scaled to its top 125 bits, each split
/// into `(low, high)` 64-bit halves. Fixed arrays inside the static, so
/// building them allocates nothing.
struct Tables {
    inv: [(u64, u64); POW5_INV_LEN],
    pow: [(u64, u64); POW5_LEN],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(Tables::compute)
}

/// A little-endian unsigned big integer, wide enough for 5^326.
struct Big([u64; 14]);

impl Big {
    fn one() -> Self {
        let mut b = Big([0; 14]);
        b.0[0] = 1;
        b
    }

    fn mul_small(&mut self, m: u64) {
        let mut carry = 0u128;
        for limb in &mut self.0 {
            let p = u128::from(*limb) * u128::from(m) + carry;
            *limb = p as u64;
            carry = p >> 64;
        }
        assert_eq!(carry, 0, "Big overflow");
    }

    fn bits(&self) -> i32 {
        match self.0.iter().rposition(|&l| l != 0) {
            Some(i) => 64 * i as i32 + 64 - self.0[i].leading_zeros() as i32,
            None => 0,
        }
    }

    fn pow2(k: i32) -> Self {
        let mut b = Big([0; 14]);
        b.0[(k / 64) as usize] = 1 << (k % 64);
        b
    }

    fn shl1(&mut self) {
        let mut carry = 0;
        for limb in &mut self.0 {
            let next = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next;
        }
    }

    fn ge(&self, other: &Big) -> bool {
        for (a, b) in self.0.iter().zip(&other.0).rev() {
            if a != b {
                return a > b;
            }
        }
        true
    }

    fn sub(&mut self, other: &Big) {
        let mut borrow = false;
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            let (d, o1) = a.overflowing_sub(b);
            let (d, o2) = d.overflowing_sub(u64::from(borrow));
            *a = d;
            borrow = o1 || o2;
        }
    }

    /// Bits `[lo, lo + 128)` as one integer.
    fn window(&self, lo: i32) -> u128 {
        let mut v = 0u128;
        for k in 0..128 {
            let bit = lo + k;
            if bit >= 0 && (self.0[(bit / 64) as usize] >> (bit % 64)) & 1 == 1 {
                v |= 1 << k;
            }
        }
        v
    }
}

impl Tables {
    fn compute() -> Self {
        let split = |v: u128| (v as u64, (v >> 64) as u64);
        let mut five = Big::one();
        let mut t = Tables {
            inv: [(0, 0); POW5_INV_LEN],
            pow: [(0, 0); POW5_LEN],
        };
        // POW5_LEN > POW5_INV_LEN, so one pass over 5^0, 5^1, … fills both.
        for i in 0..POW5_LEN {
            let len = five.bits();
            // 5^i shifted so that its top bit is bit 124.
            t.pow[i] = split(five.window(len - POW5_BITS));
            if i < POW5_INV_LEN {
                // floor(2^(len - 1 + 125) / 5^i) + 1 by restoring division:
                // the dividend's bits above len - 1 yield no quotient bits,
                // so start from the remainder 2^(len - 1).
                let mut rem = Big::pow2(len - 1);
                let mut q = 0u128;
                for step in 0..=POW5_BITS {
                    if step > 0 {
                        rem.shl1();
                        q <<= 1;
                    }
                    if rem.ge(&five) {
                        rem.sub(&five);
                        q |= 1;
                    }
                }
                t.inv[i] = split(q + 1);
            }
            five.mul_small(5);
        }
        t
    }
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> i32 {
    (e * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> i32 {
    (e * 732_923) >> 20
}

/// `ceil(log2(5^e))` for `1 <= e <= 3528`, and 1 for `e = 0`.
fn pow5_bits(e: i32) -> i32 {
    ((e * 1_217_359) >> 19) + 1
}

/// True if 5^p divides `v` (never 0 here: the bounds are at least 2).
fn multiple_of_pow5(mut v: u64, p: i32) -> bool {
    let mut n = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        n += 1;
    }
    n >= p
}

/// `(m × mul) >> j` for a 64-bit `m` and a 128-bit `mul`, `j >= 64`.
fn mul_shift(m: u64, mul: (u64, u64), j: i32) -> u64 {
    let lo = u128::from(m) * u128::from(mul.0);
    let hi = u128::from(m) * u128::from(mul.1);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// The shortest decimal `mantissa × 10^exp` that rounds to the positive,
/// finite, nonzero `f64` with these `bits` (the sign bit is ignored).
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    let accept_bounds = m2 & 1 == 0;

    // The interval of decimals that round to x is (mm, mp) × 2^e2,
    // inclusive when the mantissa is even. The lower gap halves at a power
    // of two, except at the smallest normal, whose predecessor is a
    // subnormal the same distance away.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    let t = tables();
    let (mut vr, mut vp, mut vm, e10);
    // Whether the lower bound is an exact decimal at the final length.
    // (Ryu also tracks whether x itself is, to round its ties to even;
    // ties round up here, so that flag has no use.)
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let k = POW5_BITS + pow5_bits(q) - 1;
        let j = -e2 + q + k;
        let mul = t.inv[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // Only one of mv, mp and mm can be a multiple of 5, if any; when
        // it is mv, both bounds are inexact.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let k = pow5_bits(i) - POW5_BITS;
        let j = q - k;
        let mul = t.pow[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mm = mv - 1 - mm_shift has a trailing zero bit iff mm_shift
            // is 1; mp = mv + 2 always has one.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal.
    let mut removed = 0;
    // A removed tail of exactly 5 (an exact tie) rounds up, as `{:?}`
    // does; Ryu's reference rounds it to even.
    let output = if vm_trailing_zeros {
        // Rare: the inclusive lower bound may itself be the answer.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let below_interval = vr == vm && (!accept_bounds || !vm_trailing_zeros);
        vr + u64::from(below_interval || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;

    fn ours(x: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    fn check(x: f64) {
        let want = format!("{x:?}");
        let got = ours(x);
        assert_eq!(got, want, "bits {:#018x}", x.to_bits());
    }

    /// Every value the fixed sweep covers besides random bit patterns:
    /// powers of two, powers of ten and their one-ulp neighbours, the
    /// subnormal and normal extremes, integers around 2⁵³, exact ties,
    /// and both sides of the exponent-form switches at 1e-4 and 1e16.
    fn edge_values() -> Vec<f64> {
        let mut v = vec![
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(2),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::EPSILON,
            1e-4,
            1e16,
            0.1 + 0.2,
            5123.456789,
        ];
        for e in -1074..=1023 {
            v.push(2f64.powi(e));
        }
        for k in -325..=309 {
            if let Ok(p) = format!("1e{k}").parse::<f64>() {
                v.push(p);
            }
        }
        for k in 0..(1 << 12) {
            let n = (1u64 << 53) - 2048 + k;
            v.push(n as f64);
        }
        // Exact ties: odd multiples of 2^-e whose shortest form needs 17
        // digits land halfway between two candidates for some e.
        for e in 20..=30 {
            for m in 1..64u64 {
                v.push(m as f64 / (1u64 << e) as f64);
            }
        }
        let mut out = Vec::new();
        for x in v {
            if x.is_finite() {
                out.push(x);
                let b = x.abs().to_bits();
                if b > 0 {
                    out.push(f64::from_bits(b - 1));
                }
                if b < f64::MAX.to_bits() {
                    out.push(f64::from_bits(b + 1));
                }
            }
        }
        let negated: Vec<f64> = out.iter().map(|x| -x).collect();
        out.extend(negated);
        out
    }

    #[test]
    fn tie_rounds_up_like_debug() {
        assert_eq!(ours(2f64.powi(-25)), "2.9802322387695313e-8");
    }

    #[test]
    fn layout_switches_at_1e_minus4_and_1e16() {
        assert_eq!(ours(1e-4), "0.0001");
        assert_eq!(
            ours(f64::from_bits(1e-4f64.to_bits() - 1)),
            "9.999999999999999e-5"
        );
        assert_eq!(ours(1e16), "1e16");
        assert_eq!(ours(9_999_999_999_999_998.0), "9999999999999998.0");
        assert_eq!(ours(7200.0), "7200.0");
        assert_eq!(ours(-0.0), "-0.0");
        assert_eq!(ours(f64::NAN), "NaN");
        assert_eq!(ours(f64::NEG_INFINITY), "-inf");
    }

    #[test]
    fn matches_debug_on_edge_values() {
        for x in edge_values() {
            check(x);
        }
    }

    /// Compares `cases` random finite bit patterns against `{:?}`.
    fn sweep(cases: u64, seed: u64) {
        use std::fmt::Write;
        let mut rng = DetRng::new(seed, "text-f64-oracle");
        let mut got = Vec::with_capacity(32);
        let mut want = String::with_capacity(32);
        let mut done = 0;
        while done < cases {
            let x = f64::from_bits(rng.next_u64());
            if !x.is_finite() {
                continue;
            }
            got.clear();
            push_f64(&mut got, x);
            want.clear();
            write!(want, "{x:?}").unwrap();
            let got = std::str::from_utf8(&got).unwrap();
            assert_eq!(got, want, "bits {:#018x}", x.to_bits());
            done += 1;
        }
    }

    #[test]
    fn matches_debug_on_a_million_random_bit_patterns() {
        sweep(1_000_000, 1);
    }

    /// The extended sweep: 20 M more random bit patterns. Run it in
    /// release with `cargo test --release -p simkit -- --ignored`.
    #[test]
    #[ignore]
    fn matches_debug_on_extended_random_sweep() {
        sweep(20_000_000, 2);
    }

    #[test]
    fn integers_match_display() {
        let mut rng = DetRng::new(3, "text-int-oracle");
        let mut out = Vec::new();
        let mut want = String::new();
        for shift in 0..64 {
            for _ in 0..100 {
                let u = rng.next_u64() >> shift;
                push_u64(&mut out, u);
                push_i64(&mut out, u as i64);
                want.push_str(&format!("{u}{}", u as i64));
            }
        }
        for v in [0, 9, 10, 99, 100, u64::MAX] {
            push_u64(&mut out, v);
            want.push_str(&v.to_string());
        }
        for v in [i64::MIN, -1, i64::MAX] {
            push_i64(&mut out, v);
            want.push_str(&v.to_string());
        }
        assert_eq!(String::from_utf8(out).unwrap(), want);
    }

    /// Lines read the same whatever the input's buffer size: a 5-byte
    /// `BufReader` splits nearly every line.
    #[test]
    fn line_reader_reads_the_same_lines_at_any_buffer_size() {
        let text = "\u{feff}a,b\r\n\nlong line past the buffer\r\n\u{feff}é\nlast";
        let want = [
            (1, "a,b"),
            (2, ""),
            (3, "long line past the buffer"),
            (4, "\u{feff}é"),
            (5, "last"),
        ];
        let read = |mut lines: LineReader<&mut dyn BufRead>| {
            let mut got = Vec::new();
            while let Some((n, line)) = lines.next_line().unwrap() {
                got.push((n, line.to_string()));
            }
            got
        };
        for got in [
            read(LineReader::new(&mut text.as_bytes())),
            read(LineReader::new(&mut io::BufReader::with_capacity(
                5,
                text.as_bytes(),
            ))),
        ] {
            let got: Vec<(usize, &str)> = got.iter().map(|(n, l)| (*n, l.as_str())).collect();
            assert_eq!(got, want);
        }
        let mut lines = LineReader::new(&b"ok\nbad \xff\nnever"[..]);
        assert_eq!(lines.next_line().unwrap(), Some((1, "ok")));
        let err = lines.next_line().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(lines.lineno(), 2, "the error names the bad line");
    }
}
