//! The in-buffer line scanner and peak-line tokenizer under the MGF and
//! MS2 readers. [`LineScanner`] hands out each line as a slice of its own
//! read buffer; [`peak`] reads `m/z intensity` straight off those bytes,
//! but only when the result is provably bit-equal to `str::parse`. Every
//! other line goes through [`utf8`] to the reader's `&str` handler.

use crate::Peak;
use std::io::{self, ErrorKind, Read};

/// Buffer length, unless one line is longer.
const BUF_LEN: usize = 64 * 1024;

/// Splits a byte stream into physical lines without copying them.
pub(super) struct LineScanner<R> {
    reader: R,
    buf: Vec<u8>,
    /// `buf[start..end]` is read but not yet handed out.
    start: usize,
    end: usize,
    eof: bool,
    lineno: usize,
}

impl<R: Read> LineScanner<R> {
    pub(super) fn new(reader: R) -> Self {
        let buf = vec![0; BUF_LEN];
        Self {
            reader,
            buf,
            start: 0,
            end: 0,
            eof: false,
            lineno: 0,
        }
    }

    /// The next line — 1-based number and bytes without the `\n` — or
    /// `None` at end of input. Like `read_line`, a last line needs no
    /// terminator and a `\r` is left on the line.
    pub(super) fn next_line(&mut self) -> io::Result<Option<(usize, &[u8])>> {
        let mut searched = 0;
        let line_end = loop {
            if let Some(at) = find_newline(&self.buf[self.start + searched..self.end]) {
                break self.start + searched + at;
            }
            searched = self.end - self.start;
            if self.eof && searched == 0 {
                return Ok(None);
            } else if self.eof {
                break self.end;
            }
            self.fill()?;
        };
        let line = &self.buf[self.start..line_end];
        self.start = (line_end + 1).min(self.end);
        self.lineno += 1;
        Ok(Some((self.lineno, line)))
    }

    /// Reads once into the free end of the buffer. With no room left, the
    /// unfinished line moves to the front; if it already starts there it
    /// is as long as the buffer, which then doubles.
    fn fill(&mut self) -> io::Result<()> {
        if self.end == self.buf.len() && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        } else if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        loop {
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(0) => self.eof = true,
                Ok(n) => self.end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            return Ok(());
        }
    }
}

/// Position of the first `\n`, eight bytes at a time: `x - 0x01…01 & !x &
/// 0x80…80` has its lowest set bit in the first zero byte of `x`.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const LOW: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (at, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ NEWLINES;
        let zeros = x.wrapping_sub(LOW) & !x & HIGH;
        if zeros != 0 {
            return Some(at * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == b'\n')?;
    Some(bytes.len() - tail.len() + at)
}

/// A line as `&str`, with the error `read_line` gives for invalid UTF-8.
pub(super) fn utf8(line: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(line)
        .map_err(|_| io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8"))
}

/// The ASCII members of `char::is_whitespace` (so, unlike
/// `u8::is_ascii_whitespace`, with `\x0B`).
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// `10^i` for the fraction lengths [`decimal`] accepts; all exact.
const POW10: [f64; 15] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14,
];

/// Takes the first token of `bytes` — after any whitespace, up to the
/// next or the end — if it is `digits[.digits]` with at most 15 digits,
/// and returns it as the `f64` `str::parse` gives, with the bytes after
/// it. Mantissa (< 2^53) and power of ten are exact, so the one division
/// rounds the true value once. Any other token is `None`.
fn decimal(bytes: &[u8]) -> Option<(f64, &[u8])> {
    let bytes = &bytes[bytes.iter().position(|&b| !is_space(b))?..];
    // Wraps on a number too long to be accepted anyway.
    let mut mantissa = 0u64;
    let mut digits_from = |mut at: usize| {
        while let Some(digit) = bytes.get(at).map(|b| b.wrapping_sub(b'0')) {
            if digit > 9 {
                break;
            }
            mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(digit));
            at += 1;
        }
        at
    };
    // Integer digits are `bytes[..point]`, fraction digits after the point.
    let point = digits_from(0);
    let end = match bytes.get(point) {
        Some(b'.') => digits_from(point + 1),
        _ => point,
    };
    let fraction = end.saturating_sub(point + 1);
    let delimited = bytes.get(end).map_or(true, |&b| is_space(b));
    if point == 0 || end == point + 1 || point + fraction > 15 || !delimited {
        return None;
    }
    Some((mantissa as f64 / POW10[fraction], &bytes[end..]))
}

/// `value as f32` when that equals parsing the same token as `f32`.
/// Rounding twice differs from rounding once only if the `f64` sits
/// exactly between two `f32`s, that is, the 29 bits the cast drops are
/// `1000…0` — what [`decimal`] returns is 0 or within 1e-14..1e15, so
/// always in the normal `f32` range, where those are the bits dropped.
fn narrow(value: f64) -> Option<f32> {
    (value.to_bits() & 0x1FFF_FFFF != 0x1000_0000).then_some(value as f32)
}

/// The peak of an `m/z intensity [extra columns]` line, if the `&str`
/// handlers would read the same one: two leading [`decimal`] tokens, an
/// intensity [`narrow`] takes, and nothing after them that is not ASCII
/// or is the `=` that makes an MGF line a header. `None` decides nothing —
/// the caller takes the `&str` path.
pub(super) fn peak(line: &[u8]) -> Option<Peak> {
    let (mz, rest) = decimal(line)?;
    let (intensity, rest) = decimal(rest)?;
    if rest.iter().any(|&b| b == b'=' || !b.is_ascii()) {
        return None;
    }
    Some(Peak::new(mz, narrow(intensity)?))
}

#[cfg(test)]
mod tests {
    use super::super::{mgf, ms2};
    use super::*;
    use crate::synth::{SyntheticConfig, SyntheticGenerator};
    use crate::{MsError, Spectrum};
    use spechd_rng::{Rng, Xoshiro256StarStar};

    /// `decimal` on a whole token.
    fn fast(token: &str) -> Option<f64> {
        let (value, rest) = decimal(token.as_bytes())?;
        assert!(rest.is_empty(), "{token:?} left {rest:?}");
        Some(value)
    }

    /// Whatever `decimal` and `narrow` accept equals `str::parse` bit for
    /// bit; returns which of the two accepted.
    fn check_token(token: &str) -> (bool, bool) {
        let Some(value) = fast(token) else {
            return (false, false);
        };
        let parsed: f64 = token.parse().expect("decimal took a non-number");
        assert_eq!(value.to_bits(), parsed.to_bits(), "f64 {token:?}");
        let Some(narrowed) = narrow(value) else {
            return (true, false);
        };
        let parsed: f32 = token.parse().unwrap();
        assert_eq!(narrowed.to_bits(), parsed.to_bits(), "f32 {token:?}");
        (true, true)
    }

    /// `lo..hi` random decimal digits, the first one not zero.
    fn random_digits(rng: &mut impl Rng, lo: usize, hi: usize) -> String {
        (0..rng.range_usize(lo, hi))
            .map(|i| char::from(b'0' + rng.range_usize(usize::from(i == 0), 10) as u8))
            .collect()
    }

    #[test]
    fn decimal_and_narrow_equal_str_parse_on_a_million_tokens() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5ca9);
        let (mut taken, mut narrowed) = (0u32, 0u32);
        let mut check = |token: &str, must_take: bool| {
            let (took, narrow_took) = check_token(token);
            assert!(took || !must_take, "{token:?} should take the fast path");
            taken += u32::from(took);
            narrowed += u32::from(narrow_took);
        };
        for round in 0..1_000_000 {
            let token = match round % 8 {
                // The writers' formats, over the magnitudes spectra have.
                0 => format!("{:.5}", rng.range_f64(50.0, 2500.0)),
                1 => format!(
                    "{:.3}",
                    rng.next_f32() * 10f32.powi(rng.range_usize(0, 8) as i32)
                ),
                2 => format!("{:.6}", rng.range_f64(100.0, 3000.0)),
                // 1 to 15 digits with the point anywhere (or nowhere).
                3 | 4 => {
                    let mut digits = random_digits(&mut rng, 1, 16);
                    let point = rng.range_usize(1, digits.len() + 1);
                    if point < digits.len() {
                        digits.insert(point, '.');
                    }
                    digits
                }
                // Leading and trailing zeros.
                5 => format!(
                    "{}{}.{}{}",
                    "0".repeat(rng.range_usize(0, 4)),
                    random_digits(&mut rng, 1, 5),
                    random_digits(&mut rng, 1, 4),
                    "0".repeat(rng.range_usize(0, 4)),
                ),
                // 16 and 17 digits and more: never taken.
                6 => {
                    let mut digits = random_digits(&mut rng, 16, 24);
                    digits.insert(rng.range_usize(1, 16), '.');
                    assert_eq!(fast(&digits), None, "{digits:?}");
                    digits
                }
                // Small, short numbers, where ties in the last place live.
                _ => format!("{}.{}", rng.range_usize(0, 100), rng.range_usize(0, 1000)),
            };
            check(&token, round % 8 != 6);
        }
        for token in [
            "0",
            "0.0",
            "000.000",
            "1",
            "7.5",
            "999999999999999",
            "0.00000000000001",
        ] {
            check(token, true);
        }
        let refused = [
            "",
            ".",
            "1.",
            ".5",
            "+1",
            "-0",
            "-1.5",
            "1e3",
            "1E3",
            "1.5e-3",
            "inf",
            "nan",
            "NaN",
            "infinity",
            "1..2",
            "1.2.3",
            "1,5",
            "0x10",
            "1_000",
            "١٢٣",
            "1.5\u{a0}",
            "1e-40",
            "0.000000000000001",
            "1000000000000000",
            "340282350000000000000000000000000000000",
        ];
        for token in refused {
            assert_eq!(fast(token), None, "{token:?}");
        }
        assert!(taken > 870_000 && narrowed > 870_000, "{taken} {narrowed}");
    }

    #[test]
    fn narrow_refuses_f32_midpoints_and_is_needed() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x3d);
        let (mut refused, mut would_differ) = (0, 0);
        for _ in 0..200_000 {
            // A value exactly between two adjacent `f32`s in [2^e, 2^(e+1)).
            let exponent = rng.range_usize(0, 49) as i32;
            let step = 2f64.powi(exponent - 23);
            let midpoint = 2f64.powi(exponent) + (rng.range_usize(0, 1 << 23) as f64 + 0.5) * step;
            // As many decimals as 15 digits leave room for: the midpoint
            // itself when its expansion is that short, otherwise a number
            // that may still round to it as `f64` — the double-rounding case.
            // Below 2^49, so at most 15 integer digits.
            let decimals = 15 - format!("{midpoint:.0}").len();
            let exact = format!("{midpoint:.decimals$}");
            let below = format!("{:.decimals$}", midpoint - step / 1e6);
            let above = format!("{:.decimals$}", midpoint + step / 1e6);
            for token in [exact.trim_end_matches('0'), &exact, &below, &above] {
                let token = token.trim_end_matches('.');
                let (took, narrow_took) = check_token(token);
                if took && !narrow_took {
                    refused += 1;
                    let value = fast(token).unwrap();
                    assert_eq!(value, midpoint, "{token:?}");
                    would_differ += u32::from(value as f32 != token.parse::<f32>().unwrap());
                }
            }
        }
        // The guard fired, and without it some casts would have been wrong.
        assert!(
            refused > 100_000 && would_differ > 100,
            "{refused} {would_differ}"
        );
    }

    /// Every peak line of the file `batch_mgf` parses at seed 1 takes the
    /// fast path: 47 205 lines, 94 410 tokens, none through `str::parse`.
    #[test]
    fn every_peak_line_the_writer_emits_takes_the_fast_path() {
        let spectra = SyntheticGenerator::new(SyntheticConfig {
            num_spectra: 1_250,
            num_peptides: 250,
            peptide_len_range: (15, 15),
            seed: 1,
            ..SyntheticConfig::default()
        })
        .generate();
        let rounded = mgf::read(mgf::to_string(spectra.spectra()).as_bytes()).unwrap();
        let text = mgf::to_string(&rounded);
        let peak_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
            .collect();
        assert_eq!(peak_lines.len(), 47_205);
        for line in peak_lines {
            assert!(peak(line.as_bytes()).is_some(), "{line:?}");
        }
        assert_eq!(mgf::read(text.as_bytes()).unwrap(), rounded);
    }

    #[test]
    fn peak_lines_the_str_handlers_read_differently_are_refused() {
        for line in [
            "100.0 1.0 x=y",    // an MGF header
            "100.0 1.0 \u{e9}", // not ASCII: Unicode space or invalid UTF-8 may follow
            "100.0",
            "100.0 ",
            "",
            " \t ",
            "100.0 1.0e3",
            "TITLE=1 2",
            "1=2 3",
        ] {
            assert_eq!(peak(line.as_bytes()), None, "{line:?}");
        }
        assert_eq!(peak(b"100.0 1.0 \xff"), None);
        let with_spaces = peak(b" \t100.5\x0b\x0c 2.25 extra 1 \r");
        assert_eq!(with_spaces, Some(Peak::new(100.5, 2.25)));
    }

    /// What a reader returned, comparable: values to the bit (the
    /// shortest-round-trip `Debug` of a float names one float), errors by
    /// variant, line, message and I/O kind.
    fn outcome(result: Result<Vec<Spectrum>, MsError>) -> String {
        match result {
            Err(MsError::Io(e)) => format!("Io({:?}, {e})", e.kind()),
            other => format!("{other:?}"),
        }
    }

    fn sample_spectra(count: usize, seed: u64) -> Vec<Spectrum> {
        let dataset = SyntheticGenerator::new(SyntheticConfig {
            num_spectra: count,
            num_peptides: count.div_ceil(3),
            seed,
            ..SyntheticConfig::default()
        })
        .generate();
        dataset.spectra().to_vec()
    }

    /// One seeded edit of `text`, drawn from the ways a file goes wrong.
    fn mutate(text: &mut Vec<u8>, rng: &mut impl Rng) {
        let mut lines: Vec<Vec<u8>> = text.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        let pick = rng.range_usize(0, lines.len());
        match rng.range_usize(0, 16) {
            0 | 1 => {
                let at = rng.range_usize(0, text.len());
                text[at] = rng.next_u32() as u8;
                return;
            }
            2 => {
                lines.remove(pick);
            }
            3 => lines.insert(pick, lines[pick].clone()),
            4 => lines.iter_mut().for_each(|l| l.push(b'\r')),
            5 => lines[pick].push(b'\r'),
            // No final newline (the writers end with one, so the last
            // element is empty), or a blank line.
            6 => {
                lines.pop();
            }
            7 => lines.insert(pick, b" \t\x0b".to_vec()),
            8 => lines
                .iter_mut()
                .flatten()
                .filter(|b| **b == b' ')
                .for_each(|b| *b = b'\t'),
            9 => lines[pick] = [b"\x0b ", &lines[pick][..], b"\x0c \x0b"].concat(),
            10 => lines.insert(
                pick,
                "TITLE=s\u{e9}ance \u{2265} 3\u{a0}".as_bytes().to_vec(),
            ),
            11 => lines[pick].extend("\u{2003}7.5 \u{e9}".as_bytes()),
            12 => {
                let at = rng.range_usize(0, lines[pick].len() + 1);
                lines[pick].insert(at, [0xff, 0xc3, 0x80][rng.range_usize(0, 3)]);
            }
            13 => lines[pick].extend(b" a=b"),
            14 => {
                let at = rng.range_usize(0, lines[pick].len() + 1);
                let insert =
                    *rng.choose(&[&b"="[..], b"+", b"-", b"e3", b"1e", b".", b"nan ", b"inf "]);
                lines[pick].splice(at..at, insert.iter().copied());
            }
            // A line longer than the scanner's buffer.
            _ => lines[pick].extend(std::iter::repeat(b' ').take(BUF_LEN + 9).chain(*b"1 x")),
        }
        *text = lines.join(&b'\n');
    }

    #[test]
    fn readers_match_the_read_line_oracles_on_mutated_files() {
        let spectra = sample_spectra(6, 11);
        let mgf_text = format!("# run\nCOM=x\n{}", mgf::to_string(&spectra)).into_bytes();
        let ms2_text = ms2::to_string(&spectra).into_bytes();
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x22);
        let (mut oks, mut errs) = (0, 0);
        for round in 0..1_500 {
            for (original, is_mgf) in [(&mgf_text, true), (&ms2_text, false)] {
                let mut text = original.clone();
                for _ in 0..rng.range_usize(1, 4) {
                    mutate(&mut text, &mut rng);
                }
                let (new, old) = if is_mgf {
                    (mgf::read(&text[..]), mgf::read_oracle(&text[..]))
                } else {
                    (ms2::read(&text[..]), ms2::read_oracle(&text[..]))
                };
                if new.is_ok() {
                    oks += 1;
                } else {
                    errs += 1;
                }
                assert_eq!(outcome(new), outcome(old), "round {round}, mgf {is_mgf}");
            }
        }
        assert!(oks > 500 && errs > 500, "{oks} ok, {errs} errors");
    }

    /// Hands out `data` at most `chunk` bytes a call, with an
    /// `Interrupted` error before every chunk when asked to.
    struct Chunked<'a> {
        data: &'a [u8],
        chunk: usize,
        interrupt: bool,
        interrupted: bool,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupt && !self.interrupted {
                self.interrupted = true;
                return Err(ErrorKind::Interrupted.into());
            }
            self.interrupted = false;
            let n = self.chunk.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn parsing_does_not_depend_on_how_the_bytes_arrive() {
        let spectra = sample_spectra(120, 5);
        // No final newline, CRLF, and a line longer than the buffer.
        let long_title = format!("TITLE={}\r\nPEPMASS", "t".repeat(BUF_LEN * 2 + 3));
        let mgf_text =
            mgf::to_string(&spectra)
                .replace('\n', "\r\n")
                .replacen("PEPMASS", &long_title, 1);
        let ms2_text = ms2::to_string(&spectra);
        let (mgf_text, ms2_text) = (
            mgf_text.trim_end().as_bytes(),
            ms2_text.trim_end().as_bytes(),
        );
        let mgf_whole = outcome(mgf::read(mgf_text));
        let ms2_whole = outcome(ms2::read(ms2_text));
        assert_eq!(mgf_whole, outcome(mgf::read_oracle(mgf_text)));
        assert_eq!(ms2_whole, outcome(ms2::read_oracle(ms2_text)));
        assert!(mgf_whole.starts_with("Ok") && ms2_whole.starts_with("Ok"));
        for (chunk, interrupt) in [
            (1, false),
            (7, false),
            (4_095, false),
            (65_537, false),
            (7, true),
            (65_537, true),
        ] {
            let chunked = |data| Chunked {
                data,
                chunk,
                interrupt,
                interrupted: false,
            };
            assert_eq!(outcome(mgf::read(chunked(mgf_text))), mgf_whole, "{chunk}");
            assert_eq!(outcome(ms2::read(chunked(ms2_text))), ms2_whole, "{chunk}");
        }
    }

    #[test]
    fn read_errors_surface_after_the_lines_before_them() {
        struct Failing(bool);
        impl Read for Failing {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if std::mem::replace(&mut self.0, true) {
                    return Err(io::Error::other("disk on fire"));
                }
                let text = b"BEGIN IONS\nPEPMASS=4";
                buf[..text.len()].copy_from_slice(text);
                Ok(text.len())
            }
        }
        let mut lines = LineScanner::new(Failing(false));
        assert_eq!(lines.next_line().unwrap(), Some((1, &b"BEGIN IONS"[..])));
        assert_eq!(lines.next_line().unwrap_err().to_string(), "disk on fire");
        let err = mgf::read(Failing(false)).unwrap_err();
        assert!(matches!(err, MsError::Io(_)), "{err}");
    }
}
