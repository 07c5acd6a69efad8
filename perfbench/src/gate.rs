//! The correctness gate, run after the timed phase: every served body
//! must equal, byte for byte, what an in-process cache-off
//! `Service::handle` answers for the same request, and that reference
//! must report success (`"verified":true` on synthesis slots,
//! `"success":true` on map slots, `"ok":true` everywhere). A streamed
//! batch's reference is the buffered body of the same jobs, since
//! `Service::handle` always buffers.

use nanoxbar_service::{Json, Service, ServiceConfig};

use crate::drive::{fnv, Phase, Served};
use crate::workload::Plan;

/// Outcome of the gate over one run's samples.
#[derive(Default)]
pub struct GateReport {
    /// Requests sent.
    pub attempted: usize,
    /// Requests not answered, refused, or answered wrongly.
    pub failed: usize,
    /// Answered with 200 but differing from the reference (or not
    /// chunked exactly when streaming was asked for).
    pub mismatches: usize,
    /// References that were not a success (a program defect).
    pub unsuccessful: usize,
    /// Digest of the answers to each client's first [`PREFIX`] requests.
    pub digest_prefix: u64,
    /// Digest of the answers to every distinct request.
    pub digest_all: u64,
    /// First few problems, for the log.
    pub problems: Vec<String>,
}

impl GateReport {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.unsuccessful == 0
    }
}

/// Bodies per client in the seed-stable digest.
pub const PREFIX: u64 = 64;

/// Whether one result slot reports success.
fn slot_ok(slot: &Json) -> bool {
    if slot.get("ok").and_then(Json::as_bool) != Some(true) {
        return false;
    }
    if let Some(map) = slot.get("map") {
        return map.get("success").and_then(Json::as_bool) == Some(true);
    }
    if slot.get("ideal").is_some() {
        return true;
    }
    slot.get("verified").and_then(Json::as_bool) == Some(true)
}

/// Whether a reference body reports success on every slot.
pub fn body_ok(body: &[u8]) -> bool {
    let Some(json) = std::str::from_utf8(body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
    else {
        return false;
    };
    match json.get("results").and_then(Json::as_array) {
        Some(slots) => !slots.is_empty() && slots.iter().all(slot_ok),
        None => slot_ok(&json),
    }
}

fn fold(digest: u64, hash: u64) -> u64 {
    fnv(&[digest.to_le_bytes(), hash.to_le_bytes()].concat())
}

/// Checks every answer of `phases` against the reference service.
pub fn check(plan: &Plan, phases: &[&Phase]) -> GateReport {
    let reference = Service::new(&ServiceConfig {
        addr: "127.0.0.1:0".into(),
        cache_capacity: 0,
        ..ServiceConfig::default()
    })
    .expect("a stateless service boots");
    let mut report = GateReport::default();
    for phase in phases {
        report.attempted += phase.attempted as usize;
        report.failed += phase.refused as usize;
        if phase.refused > 0 && report.problems.len() < 5 {
            report
                .problems
                .push(format!("{} requests refused or unanswered", phase.refused));
        }
    }
    let mut served: Vec<&Served> = phases.iter().flat_map(|p| &p.served).collect();
    served.sort_by_key(|s| (s.client, s.index));

    for chunk in served.chunks(128) {
        let reqs: Vec<_> = chunk
            .iter()
            .map(|s| plan.request(s.client, s.index))
            .collect();
        // Reference (hash, length, success) per request, two threads.
        let references: Vec<(u64, usize, bool)> = std::thread::scope(|scope| {
            let halves: Vec<_> = reqs
                .chunks(reqs.len().div_ceil(2).max(1))
                .map(|part| {
                    let reference = &reference;
                    scope.spawn(move || {
                        part.iter()
                            .map(|req| {
                                let response = reference.handle(&req.http());
                                let ok = response.status == 200 && body_ok(&response.body);
                                (fnv(&response.body), response.body.len(), ok)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            halves
                .into_iter()
                .flat_map(|h| h.join().expect("reference threads do not panic"))
                .collect()
        });
        for (answer, (hash, len, ok)) in chunk.iter().zip(references) {
            let answers = answer.answers as usize;
            let inconsistent = answer.inconsistent as usize;
            // A streamed request must come back chunked, and its
            // de-chunked body must equal the buffered reference.
            let wrong = (answer.body_hash, answer.body_len) != (hash, len)
                || answer.chunked != answer.stream;
            report.mismatches += if wrong { answers } else { inconsistent };
            if !ok {
                report.unsuccessful += answers;
            }
            let bad = if wrong || !ok { answers } else { inconsistent };
            if bad > 0 {
                report.failed += bad;
                if report.problems.len() < 5 {
                    let problem = if !ok {
                        "reference body reports failure"
                    } else if wrong {
                        "body or framing differs from the reference"
                    } else {
                        "repeated request answered differently"
                    };
                    report.problems.push(format!(
                        "client {} request {}: {problem}",
                        answer.client, answer.index
                    ));
                }
                continue;
            }
            report.digest_all = fold(report.digest_all, answer.body_hash);
            if answer.index < PREFIX {
                report.digest_prefix = fold(report.digest_prefix, answer.body_hash);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_flags_per_slot_kind() {
        assert!(body_ok(
            br#"{"ok":true,"strategy":"diode","verified":true}"#
        ));
        assert!(!body_ok(br#"{"ok":true,"strategy":"diode"}"#));
        assert!(!body_ok(
            br#"{"ok":true,"strategy":"diode","verified":false}"#
        ));
        assert!(body_ok(
            br#"{"ok":true,"verified":true,"map":{"success":true}}"#
        ));
        assert!(!body_ok(
            br#"{"ok":true,"verified":true,"map":{"success":false}}"#
        ));
        assert!(body_ok(
            br#"{"ok":true,"strategy":"analog-mvm","ideal":[1]}"#
        ));
        assert!(!body_ok(
            br#"{"ok":false,"kind":"bad-request","error":"x"}"#
        ));
        assert!(body_ok(
            br#"{"count":2,"results":[{"ok":true,"verified":true},{"ok":true,"ideal":[]}]}"#
        ));
        assert!(!body_ok(
            br#"{"count":2,"results":[{"ok":true,"verified":true},{"ok":false}]}"#
        ));
        assert!(!body_ok(b"not json"));
    }
}
