//! Output checking: per-epoch records, recorded references, and the
//! comparison that tolerates exact critical-value payments.
//!
//! A record holds everything the mechanism decides in one epoch. The
//! decisions that must never move — admissions and their paths,
//! rejections, the stop reason, evictions — are compared exactly (the
//! rejections are the batch minus the admissions, so the arrival count,
//! the admission count and the admission digest pin them). Payments are
//! compared per winner within the relative tolerance of the
//! critical-value bisection, so an exact critical value `p` with
//! `p ≤ p_bisect ≤ p·(1+tol)` passes against a bisection reference.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Relative tolerance of the engine's critical-value bisection
/// (`ufp_mechanism::PaymentConfig::default().relative_tolerance`).
pub const PAYMENT_REL_TOL: f64 = 1e-9;

/// Absolute slack for payments at the bisection's value floor (`1e-12`).
const PAYMENT_ABS_TOL: f64 = 1e-12;

/// FNV-1a, 64-bit.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The checked outputs of one epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRecord {
    /// Epoch within the pass (1-based).
    pub epoch: usize,
    /// Stop reason code (see `workload::stop_code`).
    pub stop: char,
    /// Requests decided (scheduled arrivals plus readmissions).
    pub arrivals: usize,
    pub accepted: usize,
    /// Digest of `(request id, path edges)` over the epoch's admissions,
    /// in admission order.
    pub admissions: u64,
    /// Admissions evicted by the topology batch applied before the epoch.
    pub evicted: usize,
    /// Digest of the evicted request ids, in eviction order.
    pub evictions: u64,
    /// Payment of each admission, in admission order.
    pub payments: Vec<f64>,
}

impl EpochRecord {
    /// One reference-file line. Payments are written in the shortest form
    /// that reads back to the same bits, or as `-` when every payment is
    /// zero.
    pub fn to_line(&self) -> String {
        let mut s = format!(
            "{} {} {} {} {:016x} {} {:016x}",
            self.epoch,
            self.stop,
            self.arrivals,
            self.accepted,
            self.admissions,
            self.evicted,
            self.evictions
        );
        if self.payments.iter().all(|&p| p == 0.0) {
            s.push_str(" -");
        } else {
            for p in &self.payments {
                let _ = write!(s, " {p:e}");
            }
        }
        s
    }

    pub fn parse(line: &str) -> Result<EpochRecord, String> {
        let bad = |what: &str| format!("malformed reference line ({what}): {line}");
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 8 {
            return Err(bad("too few fields"));
        }
        let num = |i: usize| f[i].parse::<usize>().map_err(|_| bad("count"));
        let hex = |i: usize| u64::from_str_radix(f[i], 16).map_err(|_| bad("digest"));
        let accepted = num(3)?;
        let payments = if f[7] == "-" && f.len() == 8 {
            vec![0.0; accepted]
        } else {
            f[7..]
                .iter()
                .map(|p| p.parse::<f64>().map_err(|_| bad("payment")))
                .collect::<Result<Vec<_>, _>>()?
        };
        Ok(EpochRecord {
            epoch: num(0)?,
            stop: f[1].chars().next().ok_or_else(|| bad("stop"))?,
            arrivals: num(2)?,
            accepted,
            admissions: hex(4)?,
            evicted: num(5)?,
            evictions: hex(6)?,
            payments,
        })
    }

    /// Bit-exact equality, payments included (the traced == untraced and
    /// pass == pass contracts).
    pub fn identical(&self, other: &EpochRecord) -> bool {
        self.epoch == other.epoch
            && self.stop == other.stop
            && self.arrivals == other.arrivals
            && self.accepted == other.accepted
            && self.admissions == other.admissions
            && self.evicted == other.evicted
            && self.evictions == other.evictions
            && self.payments.len() == other.payments.len()
            && self
                .payments
                .iter()
                .zip(&other.payments)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Whether payment `got` matches the recorded `want`.
pub fn payment_matches(want: f64, got: f64) -> bool {
    let scale = want.abs().max(got.abs());
    (got - want).abs() <= PAYMENT_REL_TOL * scale + PAYMENT_ABS_TOL
}

/// Compare an epoch's outputs against its reference record.
pub fn compare(want: &EpochRecord, got: &EpochRecord) -> Result<(), String> {
    let exact = [
        ("epoch", want.epoch == got.epoch),
        ("stop reason", want.stop == got.stop),
        ("arrivals", want.arrivals == got.arrivals),
        ("admission count", want.accepted == got.accepted),
        ("admissions or paths", want.admissions == got.admissions),
        ("eviction count", want.evicted == got.evicted),
        ("evictions", want.evictions == got.evictions),
        ("payment count", want.payments.len() == got.payments.len()),
    ];
    if let Some((what, _)) = exact.iter().find(|(_, ok)| !ok) {
        return Err(format!("epoch {}: {what} differ", want.epoch));
    }
    for (i, (&w, &g)) in want.payments.iter().zip(&got.payments).enumerate() {
        if !payment_matches(w, g) {
            return Err(format!(
                "epoch {}: payment of winner {i} is {g:e}, reference {w:e}",
                want.epoch
            ));
        }
    }
    Ok(())
}

/// A recorded reference: one record per epoch of one pass of the trace.
pub struct Reference {
    pub epochs: Vec<EpochRecord>,
}

impl Reference {
    /// Where the reference of `workload` at `seed` lives, relative to the
    /// benchmark's directory.
    pub fn path(dir: &Path, workload: &str, seed: u64) -> PathBuf {
        dir.join("refs").join(workload).join(format!("{seed}.txt"))
    }

    pub fn load(path: &Path) -> Result<Option<Reference>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let epochs = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(EpochRecord::parse)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Some(Reference { epochs }))
    }

    pub fn save(path: &Path, header: &str, records: &[EpochRecord]) -> Result<(), String> {
        let mut text = format!("# {header}\n");
        for r in records {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The checker's self-test, run before every measurement: a recorded
/// record reads back bit for bit, a payment perturbed within the
/// bisection tolerance is accepted, and a payment perturbed beyond it or
/// a flipped admission is rejected.
pub fn self_test() -> Result<(), String> {
    let mut digest = Digest::default();
    for v in [3u32, 1, 4, 1, 5] {
        digest.write_u32(v);
    }
    let want = EpochRecord {
        epoch: 3,
        stop: 'G',
        arrivals: 150,
        accepted: 3,
        admissions: digest.finish(),
        evicted: 0,
        evictions: Digest::default().finish(),
        payments: vec![0.731_234_567_891_234, 1.25e-3, 0.0],
    };
    if !want.identical(&EpochRecord::parse(&want.to_line())?) {
        return Err("a record does not read back bit for bit".to_string());
    }

    let mut within = want.clone();
    within.payments[0] *= 1.0 - 0.5 * PAYMENT_REL_TOL;
    within.payments[1] *= 1.0 + 0.9 * PAYMENT_REL_TOL;
    compare(&want, &within).map_err(|e| format!("in-tolerance payment rejected: {e}"))?;

    let mut beyond = want.clone();
    beyond.payments[0] *= 1.0 + 10.0 * PAYMENT_REL_TOL;
    if compare(&want, &beyond).is_ok() {
        return Err("a payment beyond the bisection tolerance was accepted".to_string());
    }

    let mut flipped = want.clone();
    flipped.accepted -= 1;
    flipped.payments.pop();
    let mut d = Digest::default();
    for v in [3u32, 1, 4, 1] {
        d.write_u32(v);
    }
    flipped.admissions = d.finish();
    if compare(&want, &flipped).is_ok() {
        return Err("a flipped admission was accepted".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_self_test_passes() {
        self_test().unwrap();
    }

    #[test]
    fn zero_payments_compress_and_round_trip() {
        let r = EpochRecord {
            epoch: 1,
            stop: 'N',
            arrivals: 10,
            accepted: 2,
            admissions: 7,
            evicted: 1,
            evictions: 9,
            payments: vec![0.0, 0.0],
        };
        assert!(r.to_line().ends_with(" -"));
        assert!(r.identical(&EpochRecord::parse(&r.to_line()).unwrap()));
    }

    #[test]
    fn payment_tolerance_is_symmetric_and_tight() {
        assert!(payment_matches(1.0, 1.0 + 0.5e-9));
        assert!(payment_matches(1.0, 1.0 - 0.5e-9));
        assert!(!payment_matches(1.0, 1.0 + 5e-9));
        assert!(!payment_matches(0.0, 1e-6));
    }
}
