//! Parser totality over every on-disk format. One JSON parser
//! (`telemetry::Json`) reads trace JSONL, engine and tracker checkpoints,
//! bench reports and perf-ledger lines. This deterministic mutation fuzz
//! damages writer-generated documents and requires of every reader:
//!
//! * no panic, whatever the input (checked with `catch_unwind`);
//! * a typed `Err` whenever the damage breaks the grammar (truncation,
//!   nesting past `MAX_DEPTH`, `NaN`/`1e999`/`01` numbers, bad `\u`
//!   escapes);
//! * checkpoint restore rejects every mutation of the checksummed payload.
//!
//! Byte flips and duplicate keys may leave a well-formed document; for
//! those only the no-panic rule applies (and the payload rule for
//! checkpoints).

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use afmm::checkpoint::engine_from_json;
use afmm::{
    validate_trace, FaultEvent, FaultSchedule, FmmEngine, FmmParams, HeteroNode, LbConfig,
    Strategy, StrategyTracker, ValidateOptions,
};
use bench::harness::{BenchReport, LedgerEntry, Metric, Scenario, SCHEMA_VERSION};
use fmm_math::GravityKernel;
use proptest::prelude::*;
use telemetry::json::{obj, Json, MAX_DEPTH};
use telemetry::{EventRecord, RecordKind, Recorder, Value};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Format {
    Trace,
    Engine,
    Tracker,
    Report,
    Ledger,
}

use Format::*;

fn tracker_node() -> HeteroNode {
    HeteroNode::system_a(4, 2)
}

/// Writer-generated documents of every format.
fn corpus() -> &'static [(Format, String)] {
    static CORPUS: OnceLock<Vec<(Format, String)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let bodies = nbody::plummer(300, 1.0, 1.0, 77);
        let params = FmmParams::default();
        let mut engine = FmmEngine::new(GravityKernel::default(), params, &bodies.pos, 16);
        engine.refresh_lists();
        let mut docs = vec![(
            Engine,
            afmm::checkpoint::engine_to_json(&engine.checkpoint_state()),
        )];

        // A traced tracker run: its checkpoint carries records, faults,
        // device status and filters; its trace carries the real schema.
        let rec = Recorder::enabled();
        let mut tracker = StrategyTracker::with_telemetry(
            GravityKernel::default(),
            params,
            tracker_node(),
            Strategy::Full,
            LbConfig::default(),
            &bodies.pos,
            None,
            rec.clone(),
        );
        let mut faults = FaultSchedule::new();
        faults.push(
            1,
            FaultEvent::GpuSlowdown {
                device: 1,
                factor: 2.5,
            },
        );
        faults.push(2, FaultEvent::TimingNoise { sigma: 0.01 });
        faults.push(2, FaultEvent::GpuDropout { device: 0 });
        tracker.set_fault_schedule(faults);
        for _ in 0..4 {
            tracker.step(&bodies.pos).unwrap();
        }
        docs.push((Tracker, tracker.checkpoint(&bodies.pos)));

        let edge = EventRecord {
            seq: u64::MAX,
            step: 3,
            kind: RecordKind::Span,
            name: "edge.values",
            dur_s: Some(f64::NAN),
            fields: vec![
                ("u", Value::U64(u64::MAX)),
                ("i", Value::I64(i64::MIN)),
                ("nz", Value::F64(-0.0)),
                ("inf", Value::F64(f64::INFINITY)),
                ("s", Value::Str("q\"\\\n\u{1} — ü 🚀".into())),
            ],
        };
        docs.extend(
            rec.events()
                .iter()
                .chain([&edge])
                .map(|r| (Trace, r.to_json())),
        );

        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            host: BenchReport::current_host(),
            commit: "0123456789abcdef0123456789abcdef01234567".into(),
            config: obj(vec![
                ("mode", Json::Str("quick".into())),
                ("reps", Json::U64(3)),
            ]),
            scenarios: vec![Scenario {
                name: "solve_step".into(),
                params: obj(vec![("n", Json::U64(4096)), ("s", Json::U64(64))]),
                metrics: vec![
                    Metric::wall("wall_s", "s", vec![0.5, 0.52, 0.49], 1),
                    Metric::virtual_point("virtual_compute_s", "s", 1.25e-3),
                ],
                snapshot: obj(vec![(
                    "cost_model",
                    obj(vec![("c_m2l", Json::F64(2.5e-9))]),
                )]),
            }],
        };
        let ledger = LedgerEntry::from_report(&report, 1_700_000_000).to_json();
        docs.extend([(Ledger, ledger), (Report, report.to_json())]);
        docs
    })
}

/// A corpus document of a format drawn by `rng`.
fn document(rng: &mut Rng) -> (Format, &'static str) {
    let format = [Trace, Engine, Tracker, Report, Ledger][rng.below(5)];
    let docs: Vec<&str> = corpus()
        .iter()
        .filter(|(f, _)| *f == format)
        .map(|(_, d)| d.as_str())
        .collect();
    (format, docs[rng.below(docs.len())])
}

/// Read `text` as `format` with the production reader.
/// A panic fails the test, naming the input.
fn read(format: Format, text: &str) -> Result<(), String> {
    let read = || match format {
        Trace => {
            let rec = EventRecord::from_json(text)?;
            // The replay validator must digest whatever the reader accepts.
            validate_trace(&[rec], &ValidateOptions::default());
            Ok(())
        }
        Engine => engine_from_json(text).map(drop).map_err(|e| e.to_string()),
        Tracker => StrategyTracker::restore(GravityKernel::default(), tracker_node(), text)
            .map(drop)
            .map_err(|e| e.to_string()),
        Report => BenchReport::from_json(text).map(drop),
        Ledger => LedgerEntry::from_json_warn(text).map(drop),
    };
    catch_unwind(AssertUnwindSafe(read)).unwrap_or_else(|_| {
        let head: String = text.chars().take(200).collect();
        panic!("{format:?} reader panicked on {head:?}")
    })
}

/// The per-case mutation stream (a 64-bit LCG).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// Number tokens and string-opening quotes outside string literals.
fn lex(text: &str) -> (Vec<Range<usize>>, Vec<usize>) {
    let b = text.as_bytes();
    let (mut numbers, mut quotes) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                quotes.push(i);
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'-' | b'0'..=b'9' => {
                let len = b[i..]
                    .iter()
                    .take_while(|c| matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                    .count();
                numbers.push(i..i + len);
                i += len;
            }
            _ => i += 1,
        }
    }
    (numbers, quotes)
}

fn splice(text: &str, at: Range<usize>, with: &str) -> String {
    format!("{}{with}{}", &text[..at.start], &text[at.end..])
}

/// Damage `text` one way; the flag says whether the grammar is now broken
/// (so every reader must return `Err`).
fn mutate(text: &str, kind: usize, rng: &mut Rng) -> (String, bool) {
    let body = text.trim_end();
    let (numbers, quotes) = lex(body);
    match kind {
        // Byte flip to a structural or control byte.
        0 => {
            const BYTES: &[u8] = b"{}[],:\"\\-+.eE09ntfx \t\x00\x01\x7f";
            let mut bytes = body.as_bytes().to_vec();
            bytes[rng.below(body.len())] = BYTES[rng.below(BYTES.len())];
            (String::from_utf8_lossy(&bytes).into_owned(), false)
        }
        // Truncation: every strict prefix of an object is malformed.
        1 => {
            let mut cut = rng.below(body.len());
            while !body.is_char_boundary(cut) {
                cut -= 1;
            }
            (body[..cut].to_string(), true)
        }
        // Duplicate key: repeat an object's first key with a null value.
        2 => {
            let opens: Vec<usize> = body.match_indices("{\"").map(|(i, _)| i).collect();
            let at = opens[rng.below(opens.len())];
            let key_end = body[at + 2..].find('"').unwrap() + at + 2;
            let dup = format!("{}:null,", &body[at + 1..=key_end]);
            (splice(body, at + 1..at + 1, &dup), false)
        }
        // Nesting past the bound in place of a number.
        3 => {
            let at = numbers[rng.below(numbers.len())].clone();
            let depth = MAX_DEPTH + 1 + rng.below(100_000);
            let deep = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
            (splice(body, at, &deep), true)
        }
        // A number JSON cannot hold, or `-0`, which it can.
        4 => {
            const BAD: [&str; 8] = ["1e999", "-1e400", "NaN", "Infinity", "01", "1.", "-", "-0"];
            let at = numbers[rng.below(numbers.len())].clone();
            let with = BAD[rng.below(BAD.len())];
            (splice(body, at, with), with != "-0")
        }
        // A broken `\u` escape at the start of a string.
        _ => {
            const BAD: [&str; 6] = [
                "\\uZZZZ",
                "\\ud800",
                "\\udc00x",
                "\\u12G",
                "\\ud800\\u0041",
                "\\q",
            ];
            let at = quotes[rng.below(quotes.len())] + 1;
            (splice(body, at..at, BAD[rng.below(BAD.len())]), true)
        }
    }
}

const MUTATIONS: usize = 6;

#[test]
fn corpus_reads_back_unmutated() {
    let traces = corpus().iter().filter(|(f, _)| *f == Trace).count();
    assert!(traces > 10, "the traced run emitted too few records");
    for (format, text) in corpus() {
        read(*format, text).unwrap_or_else(|e| panic!("{format:?}: {e}"));
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.to_json()).unwrap(), v, "{format:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn readers_are_total_under_mutation(kind in 0usize..MUTATIONS, seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (format, doc) = document(&mut rng);
        let (text, broken) = mutate(doc, kind, &mut rng);
        let result = read(format, &text);
        if broken {
            prop_assert!(Json::parse(&text).is_err(), "kind {kind} parsed: {text:.200}");
            prop_assert!(result.is_err(), "{format:?} accepted kind {kind}: {text:.200}");
        }
    }

    #[test]
    fn checkpoint_restore_rejects_every_payload_mutation(
        tracker in any::<bool>(),
        kind in 0usize..MUTATIONS,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed);
        // The corpus opens with the engine and the tracker checkpoint.
        let (format, text) = &corpus()[usize::from(tracker)];
        let format = *format;
        let (_, spans) = Json::parse_spanned(text).unwrap();
        let payload = spans.last().unwrap().clone();
        let (damaged, _) = mutate(&text[payload.clone()], kind, &mut rng);
        if damaged == text[payload.clone()] {
            return Ok(());
        }
        let mutated = splice(text, payload, &damaged);
        let err = read(format, &mutated);
        prop_assert!(err.is_err(), "{format:?} restored a mutated payload (kind {kind})");
    }
}
