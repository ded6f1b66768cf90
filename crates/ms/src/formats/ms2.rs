//! MS2 text format reader and writer.
//!
//! The MS2 format (McDonald et al. 2004) stores one fragmentation spectrum
//! per `S` record:
//!
//! ```text
//! H   CreationDate ...          (file-level headers)
//! S   42  42  500.25            (scan start, scan end, precursor m/z)
//! I   RTime   65.2              (per-spectrum info, optional)
//! Z   2   999.49                (charge, singly-protonated mass)
//! 210.1 33.0                    (peak lines)
//! ```

use super::scan::{self, LineScanner};
use crate::{MsError, Peak, Precursor, Spectrum, PROTON_MASS};
use std::io::{Read, Write};

/// Reads all spectra from an MS2 stream.
///
/// When a spectrum carries several `Z` lines (ambiguous charge), the first
/// is used — the convention of most downstream tools. Buffering and the
/// two routes a line can take are those of
/// [`mgf::read`](super::mgf::read): 64 KiB or the longest line, plain
/// decimal peak lines read off the buffer, everything else through
/// `str::parse`.
///
/// # Errors
///
/// Returns [`MsError::Parse`] with a line number on malformed records and
/// [`MsError::Io`] on read failures and invalid UTF-8.
///
/// # Examples
///
/// ```
/// use spechd_ms::formats::ms2;
/// let text = "H\tCreation\ttest\nS\t1\t1\t500.25\nZ\t2\t999.49\n210.1 33.0\n";
/// let spectra = ms2::read(text.as_bytes())?;
/// assert_eq!(spectra.len(), 1);
/// # Ok::<(), spechd_ms::MsError>(())
/// ```
pub fn read<R: Read>(reader: R) -> Result<Vec<Spectrum>, MsError> {
    let mut lines = LineScanner::new(reader);
    let mut records = Records::default();
    while let Some((lineno, line)) = lines.next_line()? {
        match (&mut records.current, scan::peak(line)) {
            (Some(pending), Some(peak)) => pending.peaks.push(peak),
            _ => records.line(lineno, scan::utf8(line)?)?,
        }
    }
    records.finish()
}

/// The record state machine: what [`read`] has seen so far.
#[derive(Default)]
struct Records {
    spectra: Vec<Spectrum>,
    current: Option<PendingSpectrum>,
}

impl Records {
    /// Handles one line, with or without its terminator.
    fn line(&mut self, lineno: usize, line: &str) -> Result<(), MsError> {
        let trimmed = line.trim();
        let mut fields = trimmed.split_whitespace();
        match fields.next() {
            None | Some("H") => {} // blank line, file header
            Some("S") => {
                if let Some(pending) = self.current.take() {
                    self.spectra.push(pending.build(lineno)?);
                }
                let scan = fields
                    .next()
                    .ok_or_else(|| MsError::parse(lineno, "S record missing scan number"))?;
                let _scan_end = fields.next();
                let mz: f64 = fields
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| MsError::parse(lineno, "S record missing precursor m/z"))?;
                self.current = Some(PendingSpectrum {
                    line: lineno,
                    scan: scan.to_string(),
                    precursor_mz: mz,
                    charge: None,
                    rt: None,
                    peaks: Vec::new(),
                });
            }
            Some("Z") => {
                let pending = self
                    .current
                    .as_mut()
                    .ok_or_else(|| MsError::parse(lineno, "Z record before S record"))?;
                let z: u8 = fields
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| MsError::parse(lineno, "invalid Z record"))?;
                if pending.charge.is_none() {
                    pending.charge = Some(z);
                }
            }
            Some("I") => {
                let pending = self
                    .current
                    .as_mut()
                    .ok_or_else(|| MsError::parse(lineno, "I record before S record"))?;
                if let (Some("RTime"), Some(v)) = (fields.next(), fields.next()) {
                    pending.rt = v.parse::<f64>().ok();
                }
            }
            Some(first) => {
                let pending = self
                    .current
                    .as_mut()
                    .ok_or_else(|| MsError::parse(lineno, "peak line before S record"))?;
                let mz: f64 = first.parse().map_err(|_| {
                    MsError::parse(lineno, format!("invalid peak line {trimmed:?}"))
                })?;
                let intensity: f32 =
                    fields.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                        MsError::parse(lineno, format!("invalid peak line {trimmed:?}"))
                    })?;
                pending.peaks.push(Peak::new(mz, intensity));
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Vec<Spectrum>, MsError> {
        if let Some(pending) = self.current.take() {
            let line = pending.line;
            self.spectra.push(pending.build(line)?);
        }
        Ok(self.spectra)
    }
}

/// [`read`] as it was before the scanner — a `String` per line from
/// `lines()`, every line through [`Records::line`] — kept as the oracle
/// the scanner's differential tests compare against.
#[cfg(test)]
pub(super) fn read_oracle<R: Read>(reader: R) -> Result<Vec<Spectrum>, MsError> {
    use std::io::BufRead;
    let mut records = Records::default();
    for (idx, line) in std::io::BufReader::new(reader).lines().enumerate() {
        records.line(idx + 1, &line?)?;
    }
    records.finish()
}

struct PendingSpectrum {
    /// Line of the `S` record.
    line: usize,
    scan: String,
    precursor_mz: f64,
    charge: Option<u8>,
    rt: Option<f64>,
    peaks: Vec<Peak>,
}

impl PendingSpectrum {
    fn build(self, lineno: usize) -> Result<Spectrum, MsError> {
        let precursor = Precursor::new(self.precursor_mz, self.charge.unwrap_or(2))
            .map_err(|e| MsError::parse(lineno, e.to_string()))?;
        let mut s = Spectrum::new(format!("scan={}", self.scan), precursor, self.peaks)
            .map_err(|e| MsError::parse(lineno, e.to_string()))?;
        if let Some(rt) = self.rt {
            s = s.with_retention_time(rt);
        }
        Ok(s)
    }
}

/// Writes spectra in MS2 format.
///
/// # Errors
///
/// Returns [`MsError::Io`] on write failures.
pub fn write<W: Write>(mut writer: W, spectra: &[Spectrum]) -> Result<(), MsError> {
    writeln!(writer, "H\tCreationDate\tspechd")?;
    writeln!(writer, "H\tExtractor\tspechd-ms")?;
    for (i, s) in spectra.iter().enumerate() {
        let scan = i + 1;
        writeln!(writer, "S\t{scan}\t{scan}\t{:.6}", s.precursor().mz())?;
        if let Some(rt) = s.retention_time() {
            writeln!(writer, "I\tRTime\t{rt:.3}")?;
        }
        let z = s.precursor().charge();
        let mh = (s.precursor().mz() - PROTON_MASS) * f64::from(z) + PROTON_MASS;
        writeln!(writer, "Z\t{z}\t{mh:.6}")?;
        for p in s.peaks() {
            writeln!(writer, "{:.5} {:.3}", p.mz, p.intensity)?;
        }
    }
    Ok(())
}

/// Serializes spectra to an MS2 string.
pub fn to_string(spectra: &[Spectrum]) -> String {
    let mut buf = Vec::new();
    write(&mut buf, spectra).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("MS2 output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Spectrum> {
        vec![
            Spectrum::new(
                "a",
                Precursor::new(500.25, 2).unwrap(),
                vec![Peak::new(210.1, 33.0), Peak::new(310.2, 11.5)],
            )
            .unwrap()
            .with_retention_time(65.2),
            Spectrum::new(
                "b",
                Precursor::new(612.4, 3).unwrap(),
                vec![Peak::new(250.0, 9.0)],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn roundtrip() {
        let text = to_string(&sample());
        let parsed = read(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert!((parsed[0].precursor().mz() - 500.25).abs() < 1e-6);
        assert_eq!(parsed[0].precursor().charge(), 2);
        assert_eq!(parsed[0].peak_count(), 2);
        assert!((parsed[0].retention_time().unwrap() - 65.2).abs() < 1e-3);
        assert_eq!(parsed[1].precursor().charge(), 3);
        assert_eq!(parsed[0].title(), "scan=1");
    }

    #[test]
    fn multiple_z_lines_take_first() {
        let text = "S\t1\t1\t500.0\nZ\t2\t999.0\nZ\t3\t1499.0\n100.0 1.0\n";
        let parsed = read(text.as_bytes()).unwrap();
        assert_eq!(parsed[0].precursor().charge(), 2);
    }

    #[test]
    fn missing_z_defaults_to_two() {
        let text = "S\t1\t1\t500.0\n100.0 1.0\n";
        let parsed = read(text.as_bytes()).unwrap();
        assert_eq!(parsed[0].precursor().charge(), 2);
    }

    #[test]
    fn peak_before_s_is_error() {
        let text = "100.0 1.0\n";
        assert!(read(text.as_bytes()).is_err());
    }

    #[test]
    fn z_before_s_is_error() {
        assert!(read("Z\t2\t999.0\n".as_bytes()).is_err());
    }

    #[test]
    fn malformed_s_record_is_error() {
        assert!(read("S\t1\n".as_bytes()).is_err());
        assert!(read("S\t1\t1\tnot_a_number\n".as_bytes()).is_err());
    }

    #[test]
    fn invalid_final_record_names_its_s_line() {
        let text = "H\tx\ty\nS\t1\t1\t500.0\n100.0 1.0\nS\t2\t2\t-1.0\nZ\t2\t1.0\n100.0 1.0\n";
        for result in [read(text.as_bytes()), read_oracle(text.as_bytes())] {
            match result.unwrap_err() {
                MsError::Parse { line, message } => {
                    assert_eq!(line, 4);
                    assert!(message.contains("precursor"), "got: {message}");
                }
                other => panic!("expected a parse error, got {other}"),
            }
        }
    }

    #[test]
    fn header_lines_ignored() {
        let text = "H\tCreationDate\tsomewhen\nS\t1\t1\t500.0\nZ\t2\t999.0\n100.0 1.0\n";
        assert_eq!(read(text.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn empty_input() {
        assert!(read("".as_bytes()).unwrap().is_empty());
    }

    #[test]
    fn spectrum_without_peaks_allowed() {
        let text = "S\t1\t1\t500.0\nZ\t2\t999.0\n";
        let parsed = read(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 1);
        assert!(parsed[0].is_empty());
    }
}
