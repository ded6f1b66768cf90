//! Mascot Generic Format (MGF) reader and writer.
//!
//! MGF is a line-oriented text format: each spectrum is a
//! `BEGIN IONS`/`END IONS` block with `KEY=VALUE` headers (`TITLE`,
//! `PEPMASS`, `CHARGE`, `RTINSECONDS`) followed by `m/z intensity` peak
//! lines. The reader skips unknown headers and comment lines (`#`, `;`),
//! matching the tolerance of common proteomics parsers.

use super::scan::{self, LineScanner};
use crate::{MsError, Peak, Precursor, Spectrum};
use std::io::{Read, Write};

/// Reads all spectra from an MGF stream.
///
/// A `&mut` reference can be passed for any `R: Read`. The reader buffers
/// the stream itself — 64 KiB, or the longest line if that is longer — so
/// a `File` needs no `BufReader` in front. Peak lines of plain decimals,
/// at most 15 digits each, are read straight off that buffer; any other
/// line (header, comment, sign, exponent, `inf`/`nan`, longer number,
/// non-ASCII) is checked as UTF-8 and goes through `str::parse`. Both
/// routes give the same values and the same errors.
///
/// # Errors
///
/// Returns [`MsError::Parse`] (with line number) on malformed blocks and
/// [`MsError::Io`] on read failures and invalid UTF-8. Spectra with a
/// missing `PEPMASS` are rejected; a missing `CHARGE` defaults to 2+ (the
/// MGF convention for unspecified tryptic data).
///
/// # Examples
///
/// ```
/// use spechd_ms::formats::mgf;
/// let text = "BEGIN IONS\nTITLE=scan=1\nPEPMASS=500.2\nCHARGE=2+\n\
///             210.1 33.0\n310.2 11.5\nEND IONS\n";
/// let spectra = mgf::read(text.as_bytes())?;
/// assert_eq!(spectra.len(), 1);
/// assert_eq!(spectra[0].peak_count(), 2);
/// # Ok::<(), spechd_ms::MsError>(())
/// ```
pub fn read<R: Read>(reader: R) -> Result<Vec<Spectrum>, MsError> {
    let mut lines = LineScanner::new(reader);
    let mut blocks = Blocks::default();
    while let Some((lineno, line)) = lines.next_line()? {
        match scan::peak(line) {
            Some(peak) if blocks.begin_line.is_some() => blocks.peaks.push(peak),
            _ => blocks.line(lineno, scan::utf8(line)?)?,
        }
    }
    blocks.finish()
}

/// The block state machine: what [`read`] has seen so far.
#[derive(Default)]
struct Blocks {
    spectra: Vec<Spectrum>,
    /// Line of the open `BEGIN IONS`, if any.
    begin_line: Option<usize>,
    title: String,
    pepmass: Option<f64>,
    charge: Option<u8>,
    rt: Option<f64>,
    peaks: Vec<Peak>,
}

impl Blocks {
    /// Handles one line, with or without its terminator.
    fn line(&mut self, lineno: usize, line: &str) -> Result<(), MsError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
            return Ok(());
        }
        if line.eq_ignore_ascii_case("BEGIN IONS") {
            if self.begin_line.is_some() {
                return Err(MsError::parse(lineno, "nested BEGIN IONS"));
            }
            self.begin_line = Some(lineno);
            self.title.clear();
            self.pepmass = None;
            self.charge = None;
            self.rt = None;
            self.peaks.clear();
            return Ok(());
        }
        if line.eq_ignore_ascii_case("END IONS") {
            if self.begin_line.take().is_none() {
                return Err(MsError::parse(lineno, "END IONS without BEGIN IONS"));
            }
            let mz = self
                .pepmass
                .ok_or_else(|| MsError::parse(lineno, "spectrum block missing PEPMASS"))?;
            let z = self.charge.unwrap_or(2);
            let precursor =
                Precursor::new(mz, z).map_err(|e| MsError::parse(lineno, e.to_string()))?;
            let spec_title = if self.title.is_empty() {
                format!("index={}", self.spectra.len())
            } else {
                self.title.clone()
            };
            // The next block starts with room for as many peaks as this one.
            let room = Vec::with_capacity(self.peaks.len());
            let peaks = std::mem::replace(&mut self.peaks, room);
            let mut s = Spectrum::new(spec_title, precursor, peaks)
                .map_err(|e| MsError::parse(lineno, e.to_string()))?;
            if let Some(seconds) = self.rt {
                s = s.with_retention_time(seconds);
            }
            self.spectra.push(s);
            return Ok(());
        }
        if self.begin_line.is_none() {
            // Global headers (e.g. COM=, SEARCH=) are permitted and skipped.
            return Ok(());
        }
        if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            let is = |name: &str| key.eq_ignore_ascii_case(name);
            if is("TITLE") {
                self.title.clear();
                self.title.push_str(value.trim());
            } else if is("PEPMASS") {
                // PEPMASS may carry "mz [intensity]".
                let first = value.split_whitespace().next().unwrap_or("");
                self.pepmass =
                    Some(first.parse::<f64>().map_err(|_| {
                        MsError::parse(lineno, format!("invalid PEPMASS {value:?}"))
                    })?);
            } else if is("CHARGE") {
                self.charge =
                    Some(parse_charge(value).ok_or_else(|| {
                        MsError::parse(lineno, format!("invalid CHARGE {value:?}"))
                    })?);
            } else if is("RTINSECONDS") {
                self.rt = Some(value.trim().parse::<f64>().map_err(|_| {
                    MsError::parse(lineno, format!("invalid RTINSECONDS {value:?}"))
                })?);
            } // any other header: skip
            return Ok(());
        }
        // Peak line: "mz intensity" (extra columns tolerated).
        let mut parts = line.split_whitespace();
        let mz: f64 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| MsError::parse(lineno, format!("invalid peak line {line:?}")))?;
        let intensity: f32 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| MsError::parse(lineno, format!("invalid peak line {line:?}")))?;
        self.peaks.push(Peak::new(mz, intensity));
        Ok(())
    }

    fn finish(self) -> Result<Vec<Spectrum>, MsError> {
        match self.begin_line {
            Some(line) => Err(MsError::parse(line, "unterminated BEGIN IONS block")),
            None => Ok(self.spectra),
        }
    }
}

/// [`read`] as it was before the scanner — `read_line` into one `String`,
/// every line through [`Blocks::line`] — kept as the oracle the scanner's
/// differential tests compare against.
#[cfg(test)]
pub(super) fn read_oracle<R: Read>(reader: R) -> Result<Vec<Spectrum>, MsError> {
    use std::io::BufRead;
    let mut reader = std::io::BufReader::new(reader);
    let mut blocks = Blocks::default();
    let mut buf = String::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            return blocks.finish();
        }
        lineno += 1;
        blocks.line(lineno, &buf)?;
    }
}

fn parse_charge(value: &str) -> Option<u8> {
    let v = value.trim();
    // Accept "2", "2+", "+2"; take the first charge of a list like "2+ and 3+".
    let token = v.split([',', ' ']).next()?;
    let digits: String = token.chars().filter(|c| c.is_ascii_digit()).collect();
    digits.parse::<u8>().ok().filter(|&z| z > 0)
}

/// Writes spectra as MGF.
///
/// A `&mut` reference can be passed for any `W: Write`.
///
/// # Errors
///
/// Returns [`MsError::Io`] on write failures.
pub fn write<W: Write>(mut writer: W, spectra: &[Spectrum]) -> Result<(), MsError> {
    for s in spectra {
        writeln!(writer, "BEGIN IONS")?;
        writeln!(writer, "TITLE={}", s.title())?;
        writeln!(writer, "PEPMASS={:.6}", s.precursor().mz())?;
        writeln!(writer, "CHARGE={}+", s.precursor().charge())?;
        if let Some(rt) = s.retention_time() {
            writeln!(writer, "RTINSECONDS={rt:.3}")?;
        }
        for p in s.peaks() {
            writeln!(writer, "{:.5} {:.3}", p.mz, p.intensity)?;
        }
        writeln!(writer, "END IONS")?;
    }
    Ok(())
}

/// Serializes spectra to an MGF string (convenience wrapper over
/// [`write()`]).
pub fn to_string(spectra: &[Spectrum]) -> String {
    let mut buf = Vec::new();
    write(&mut buf, spectra).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("MGF output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spectra() -> Vec<Spectrum> {
        vec![
            Spectrum::new(
                "scan=1",
                Precursor::new(500.25, 2).unwrap(),
                vec![Peak::new(210.1, 33.0), Peak::new(310.2, 11.5)],
            )
            .unwrap()
            .with_retention_time(65.2),
            Spectrum::new(
                "scan=2",
                Precursor::new(612.0, 3).unwrap(),
                vec![Peak::new(220.0, 5.0)],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn roundtrip() {
        let spectra = sample_spectra();
        let text = to_string(&spectra);
        let parsed = read(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].title(), "scan=1");
        assert_eq!(parsed[0].precursor().charge(), 2);
        assert!((parsed[0].precursor().mz() - 500.25).abs() < 1e-6);
        assert_eq!(parsed[0].peak_count(), 2);
        assert!((parsed[0].retention_time().unwrap() - 65.2).abs() < 1e-3);
        assert_eq!(parsed[1].precursor().charge(), 3);
    }

    #[test]
    fn charge_formats() {
        assert_eq!(parse_charge("2+"), Some(2));
        assert_eq!(parse_charge("+3"), Some(3));
        assert_eq!(parse_charge(" 2 "), Some(2));
        assert_eq!(parse_charge("2+ and 3+"), Some(2));
        assert_eq!(parse_charge("zero"), None);
        assert_eq!(parse_charge("0"), None);
    }

    #[test]
    fn missing_charge_defaults_to_two() {
        let text = "BEGIN IONS\nTITLE=x\nPEPMASS=444.4\n100.0 1.0\nEND IONS\n";
        let spectra = read(text.as_bytes()).unwrap();
        assert_eq!(spectra[0].precursor().charge(), 2);
    }

    #[test]
    fn pepmass_with_intensity_column() {
        let text = "BEGIN IONS\nPEPMASS=444.4 12345.6\n100.0 1.0\nEND IONS\n";
        let spectra = read(text.as_bytes()).unwrap();
        assert!((spectra[0].precursor().mz() - 444.4).abs() < 1e-9);
    }

    #[test]
    fn missing_pepmass_is_error() {
        let text = "BEGIN IONS\nTITLE=x\n100.0 1.0\nEND IONS\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("PEPMASS"));
    }

    #[test]
    fn unterminated_block_is_error() {
        let text = "BEGIN IONS\nPEPMASS=444.4\n100.0 1.0\n";
        assert!(read(text.as_bytes()).is_err());
    }

    #[test]
    fn unterminated_block_names_its_begin_line() {
        let text = "# c\nBEGIN IONS\nPEPMASS=4\nEND IONS\n\nBEGIN IONS\nPEPMASS=444.4\n100.0 1.0";
        for result in [read(text.as_bytes()), read_oracle(text.as_bytes())] {
            match result.unwrap_err() {
                MsError::Parse { line, message } => {
                    assert_eq!(line, 6);
                    assert!(message.contains("unterminated"), "got: {message}");
                }
                other => panic!("expected a parse error, got {other}"),
            }
        }
    }

    #[test]
    fn nested_begin_is_error() {
        let text = "BEGIN IONS\nBEGIN IONS\n";
        assert!(read(text.as_bytes()).is_err());
    }

    #[test]
    fn end_without_begin_is_error() {
        let text = "END IONS\n";
        assert!(read(text.as_bytes()).is_err());
    }

    #[test]
    fn comments_and_unknown_headers_skipped() {
        let text = "# comment\nCOM=run42\nBEGIN IONS\nTITLE=x\nPEPMASS=400\n\
                    SCANS=17\n; another comment\n100.0 1.0 extra_col\nEND IONS\n";
        let spectra = read(text.as_bytes()).unwrap();
        assert_eq!(spectra.len(), 1);
        assert_eq!(spectra[0].peak_count(), 1);
    }

    #[test]
    fn bad_peak_line_is_error() {
        let text = "BEGIN IONS\nPEPMASS=400\nnot_a_number 1.0\nEND IONS\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "got: {err}");
    }

    #[test]
    fn crlf_input_reads_like_lf() {
        let lf = "COM=run42\nBEGIN IONS\nTitle=scan 7\nPEPMASS=444.4 9.0\ncharge=3+\n\
                  RTINSECONDS=12.5\n\n100.0 1.0\n200.5 2.5\nEND IONS\n";
        let crlf = lf.replace('\n', "\r\n");
        let spectra = read(crlf.as_bytes()).unwrap();
        assert_eq!(spectra, read(lf.as_bytes()).unwrap());
        assert_eq!(spectra[0].title(), "scan 7");
        assert_eq!(spectra[0].precursor().charge(), 3);
        assert_eq!(spectra[0].peak_count(), 2);
    }

    #[test]
    fn bad_peak_line_number_counts_blank_comment_and_crlf_lines() {
        // 1-based, counting every physical line: the bad peak is line 7.
        let text =
            "# c\r\n\r\nBEGIN IONS\r\nPEPMASS=400\r\n; c\r\n100.0 1.0\r\n100.0 x\r\nEND IONS\r\n";
        match read(text.as_bytes()).unwrap_err() {
            MsError::Parse { line, message } => {
                assert_eq!(line, 7);
                assert!(message.contains("\"100.0 x\""), "got: {message}");
            }
            other => panic!("expected a parse error, got {other}"),
        }
    }

    #[test]
    fn empty_title_gets_index() {
        let text = "BEGIN IONS\nPEPMASS=400\n100.0 1.0\nEND IONS\n";
        let spectra = read(text.as_bytes()).unwrap();
        assert_eq!(spectra[0].title(), "index=0");
    }

    #[test]
    fn empty_input_gives_empty_vec() {
        assert!(read("".as_bytes()).unwrap().is_empty());
    }

    #[test]
    fn peaks_sorted_after_read() {
        let text = "BEGIN IONS\nPEPMASS=400\n300.0 1.0\n100.0 2.0\nEND IONS\n";
        let spectra = read(text.as_bytes()).unwrap();
        assert!(spectra[0].peaks()[0].mz < spectra[0].peaks()[1].mz);
    }
}
