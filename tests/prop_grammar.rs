//! The shared spec grammar: every `key=value` parser and the CLI's argument
//! parser, fuzzed with strings built from the grammars' own tokens, plus a
//! table of the rules they share and the declared size bounds.
//!
//! * **no panics** — any token soup yields `Ok` or the grammar's own typed
//!   error, and whatever parses re-parses from its canonical form to
//!   itself;
//! * **shared rules** — one row per grammar: surrounding whitespace and a
//!   trailing separator are accepted, `0x` seeds are accepted, and a
//!   repeated key is rejected (topology `link` excepted);
//! * **bounds** — sweep `bits=`/`iters=` and CLI `--bits` accept their
//!   declared maximum and reject one past it, without allocating a message
//!   or running a channel (the chaos `kills=`/`stalls=` bound has a table
//!   row here and its own unit test).
//!
//! Run under a pinned `PROPTEST_RNG_SEED` in CI for reproducible streams.

use gpgpu_cli::Args;
use gpgpu_serve::chaos::MAX_EVENTS;
use gpgpu_serve::ChaosPlan;
use gpgpu_sim::{EngineMode, FaultPlan, LatencyTable};
use gpgpu_spec::grammar;
use gpgpu_spec::sweep::{MAX_BITS, MAX_ITERATIONS};
use gpgpu_spec::{
    ArchDescriptor, Architecture, DefenseSpec, SpecError, SweepRequest, TopologySpec,
};
use proptest::prelude::*;

/// The token alphabet: every grammar's keys and value words, the
/// separators, numbers (hex and overflowing ones included), whitespace and
/// a few non-ASCII characters.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    // Sweep, topology, defense, arch-descriptor, fault, chaos and
    // latency-family keys.
    "device", "family", "iters", "bits", "seed", "faults", "defense", "topology", "devices",
    "link", "lat", "slot", "lanes", "partition", "randsched", "fuzz", "arch", "subcores",
    "issue", "regs", "dep", "sector", "intensity", "period", "burst", "set", "kinds", "kills",
    "stalls", "corrupt", "knob", "fixed", "base", "slope", "lo", "hi", "esat", "eknee",
    // Value words.
    "kepler", "ampere", "l1", "atomic", "nvlink", "evict", "storm", "all", "none", "default",
    "scoreboard", "dense", "event", "analytical", "op", "l1_hit", "kepler+kepler", "0-1",
    // Separators and numbers (hex and past-u64 ones included).
    "=", "=", ",", ",", ";", ";", ":", "+", "|", "-", "x", "0", "1", "2", "7", "16", "0.5",
    "4096", "0x", "0x5eed", "18446744073709551616", "4000000000",
    // Whitespace and non-ASCII.
    " ", " ", "\t", "\n", "é", "\u{a0}", "\u{0}", "ß",
];

const LATENCY_HEADER: &str = "gpgpu-latency-table v1 device=kepler";

/// How many of the leading [`TOKENS`] are grammar keys.
const KEYS: usize = 38;

/// A string of up to 24 tokens.
fn token_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..TOKENS.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

/// Up to 8 `key=value` fields over the same alphabet, each followed by a
/// random separator, so that most draws get past the tokenizer into the
/// grammars' value checks.
fn field_soup() -> impl Strategy<Value = String> {
    const SEPARATORS: [&str; 6] = [",", ";", ":", " ", "+", "|"];
    let field = (0..KEYS, proptest::collection::vec(KEYS..TOKENS.len(), 1..4), 0..6usize);
    proptest::collection::vec(field, 0..8).prop_map(|fields| {
        let mut out = String::new();
        for (key, value, sep) in fields {
            out.push_str(TOKENS[key]);
            out.push('=');
            value.into_iter().for_each(|i| out.push_str(TOKENS[i]));
            out.push_str(SEPARATORS[sep]);
        }
        out
    })
}

fn any_soup() -> impl Strategy<Value = String> {
    prop_oneof![token_soup(), field_soup()]
}

/// The canonical Ampere descriptor, the base of the arch-descriptor rows.
fn ampere() -> String {
    Architecture::Ampere.descriptor().to_spec()
}

/// One grammar's entry point, reduced to accept/reject.
type Parse = fn(&str) -> Result<(), String>;

fn sweep(s: &str) -> Result<(), String> {
    SweepRequest::from_spec(s).map(drop).map_err(|e| e.to_string())
}

fn topology(s: &str) -> Result<(), String> {
    TopologySpec::from_spec(s).map(drop).map_err(|e| e.to_string())
}

fn defense(s: &str) -> Result<(), String> {
    DefenseSpec::from_spec(s).map(drop).map_err(|e| e.to_string())
}

fn arch(s: &str) -> Result<(), String> {
    ArchDescriptor::parse(s).map(drop).map_err(|e| e.to_string())
}

fn faults(s: &str) -> Result<(), String> {
    FaultPlan::from_spec(s).map(drop).map_err(|e| e.to_string())
}

fn chaos(s: &str) -> Result<(), String> {
    ChaosPlan::from_spec(s).map(drop).map_err(|e| e.to_string())
}

fn latency_family(row: &str) -> Result<(), String> {
    LatencyTable::from_spec(&format!("{LATENCY_HEADER}\n{row}\n")).map(drop).map_err(|e| e.reason)
}

fn engine(s: &str) -> Result<(), String> {
    s.parse::<EngineMode>().map(drop).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Every spec entry point answers any token soup with `Ok` or its own
    /// typed error, and whatever it accepts is a fixed point of its
    /// canonical form.
    #[test]
    fn every_grammar_answers_any_token_soup_without_panicking(s in any_soup()) {
        match SweepRequest::from_spec(&s) {
            Ok(r) => prop_assert_eq!(SweepRequest::from_spec(&r.to_spec()), Ok(r)),
            Err(e) => prop_assert!(matches!(e, SpecError::InvalidSweep { .. }), "{e:?}"),
        }
        match TopologySpec::from_spec(&s) {
            Ok(t) => prop_assert_eq!(TopologySpec::from_spec(&t.to_spec()), Ok(t)),
            Err(e) => prop_assert!(matches!(e, SpecError::InvalidTopology { .. }), "{e:?}"),
        }
        match DefenseSpec::from_spec(&s) {
            Ok(d) => prop_assert_eq!(DefenseSpec::from_spec(&d.to_spec()), Ok(d)),
            Err(e) => prop_assert!(matches!(e, SpecError::InvalidDefense { .. }), "{e:?}"),
        }
        for spec in [s.clone(), format!("{};{s}", ampere())] {
            match ArchDescriptor::parse(&spec) {
                Ok(d) => prop_assert_eq!(ArchDescriptor::parse(&d.to_spec()), Ok(d)),
                Err(e) => prop_assert!(matches!(e, SpecError::InvalidSubCore { .. }), "{e:?}"),
            }
        }
        match FaultPlan::from_spec(&s) {
            Ok(p) => prop_assert_eq!(FaultPlan::from_spec(&p.to_spec()), Ok(p)),
            Err(e) => prop_assert!(matches!(e, SpecError::InvalidFaults { .. }), "{e:?}"),
        }
        match ChaosPlan::from_spec(&s) {
            Ok(p) => prop_assert_eq!(ChaosPlan::from_spec(&p.to_spec()), Ok(p)),
            Err(e) => prop_assert!(matches!(e, SpecError::InvalidChaos { .. }), "{e:?}"),
        }
        for text in [s.clone(), format!("{LATENCY_HEADER}\nfamily l1 {s}\n")] {
            if let Ok(t) = LatencyTable::from_spec(&text) {
                prop_assert_eq!(LatencyTable::from_spec(&t.to_spec()), Ok(t));
            }
        }
        match s.parse::<EngineMode>() {
            Ok(m) => prop_assert_eq!(m.label().parse::<EngineMode>(), Ok(m)),
            Err(e) => prop_assert!(matches!(e, SpecError::InvalidEngine { .. }), "{e:?}"),
        }
    }

    /// The CLI parser answers any token soup, as a flag value or as the
    /// whole argument list, with `Ok` or an error message.
    #[test]
    fn args_parse_answers_any_token_soup_without_panicking(s in any_soup()) {
        let flags =
            ["--bits", "--faults", "--topology", "--defense", "--engine", "--request", "--chaos"];
        for flag in flags {
            for command in ["l1", "nvlink", "arena", "sweep"] {
                let argv = [command, flag, s.as_str()].map(str::to_string);
                let _ = Args::parse(&argv);
            }
        }
        let argv: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        let _ = Args::parse(&argv);
    }
}

/// One row per grammar: specs its rules must accept and specs they must
/// reject.
#[test]
fn every_grammar_shares_the_same_rules() {
    let ampere = ampere();
    let spaced = ampere.replace(';', " ; ").replace('=', " = ");
    let rows: [(&str, Parse, Vec<String>, Vec<String>); 8] = [
        (
            "sweep",
            sweep,
            vec![" family=l1 ; iters=4 ;".into(), "seed=0x7".into()],
            vec!["seed=1;seed=2".into(), "iters=18446744073709551615".into()],
        ),
        (
            "topology",
            topology,
            vec![
                " devices=kepler+kepler , link=0-1: lat=9 :,".into(),
                "devices=kepler+kepler+kepler,link=0-1,link=1-2".into(),
            ],
            vec![
                "devices=kepler,devices=kepler,link=0-1".into(),
                "devices=kepler+kepler,link=0-1:lat=9:lat=9".into(),
            ],
        ),
        (
            "defense",
            defense,
            vec![" partition=2 , randsched=0x7 ,".into()],
            vec!["partition=2,partition=2".into()],
        ),
        (
            "arch descriptor",
            arch,
            vec![format!("{ampere};"), format!(" {spaced} ")],
            vec![format!("{ampere};issue=2"), "arch=ampere".into()],
        ),
        (
            "faults",
            faults,
            vec![" seed=0x7 , kinds=evict+storm ,".into()],
            vec!["seed=1,seed=2".into(), "kinds=evict,kinds=storm".into()],
        ),
        (
            "chaos",
            chaos,
            vec![" seed=0x7 , kills=2 ,".into()],
            vec!["kills=1,kills=2".into(), format!("stalls={}", MAX_EVENTS + 1)],
        ),
        (
            "latency family row",
            latency_family,
            vec!["family l1  knob=iterations  base=1 ".into()],
            vec!["family l1 lo=1 lo=2".into(), "family l1 base=x".into()],
        ),
        ("engine", engine, vec![" Dense ".into(), "event-driven".into()], vec!["warp9".into()]),
    ];
    for (grammar, parse, accepted, rejected) in rows {
        for spec in accepted {
            assert_eq!(parse(&spec), Ok(()), "{grammar} must accept {spec:?}");
        }
        for spec in rejected {
            assert!(parse(&spec).is_err(), "{grammar} must reject {spec:?}");
        }
    }
}

/// Hex and decimal spell the same seed in every grammar that has one.
#[test]
fn hex_and_decimal_seeds_agree() {
    assert_eq!(FaultPlan::from_spec("seed=0x7"), FaultPlan::from_spec("seed=7"));
    assert_eq!(ChaosPlan::from_spec("seed=0x7"), ChaosPlan::from_spec("seed=7"));
    assert_eq!(SweepRequest::from_spec("seed=0x7"), SweepRequest::from_spec("seed=7"));
    assert_eq!(DefenseSpec::from_spec("randsched=0x7"), DefenseSpec::from_spec("randsched=7"));
    assert_eq!(grammar::seed("0X5EED"), Some(0x5EED));
    assert_eq!(grammar::seed("0x"), None);
}

#[test]
fn bounded_reader_accepts_the_bound_and_rejects_one_past_it() {
    assert_eq!(grammar::bounded("16", 16u64), Some(16));
    assert_eq!(grammar::bounded("17", 16u64), None);
    assert_eq!(grammar::bounded("18446744073709551616", u64::MAX), None);
}

#[test]
fn sweep_bits_are_bounded_at_parse_and_validation_time() {
    let at = SweepRequest::from_spec(&format!("bits={MAX_BITS}")).unwrap();
    assert_eq!(at.bits, MAX_BITS);
    assert_eq!(at.validate(), Ok(()));
    let past = SweepRequest::from_spec(&format!("bits={}", MAX_BITS + 1)).unwrap_err();
    assert!(matches!(past, SpecError::InvalidSweep { .. }), "{past:?}");
    let built = SweepRequest { bits: MAX_BITS + 1, ..SweepRequest::default() };
    assert!(matches!(built.validate(), Err(SpecError::InvalidSweep { .. })));
}

#[test]
fn sweep_iters_are_bounded_at_parse_and_validation_time() {
    let at = SweepRequest::from_spec(&format!("iters=1+{MAX_ITERATIONS}")).unwrap();
    assert_eq!(at.iterations, vec![1, MAX_ITERATIONS]);
    let past = SweepRequest::from_spec(&format!("iters=1+{}", MAX_ITERATIONS + 1)).unwrap_err();
    assert!(matches!(past, SpecError::InvalidSweep { .. }), "{past:?}");
    let built = SweepRequest { iterations: vec![MAX_ITERATIONS + 1], ..SweepRequest::default() };
    assert!(matches!(built.validate(), Err(SpecError::InvalidSweep { .. })));
}

#[test]
fn cli_bits_are_bounded() {
    let argv = |bits: String| ["l1".to_string(), "--bits".to_string(), bits];
    assert_eq!(Args::parse(&argv(MAX_BITS.to_string())).unwrap().bits, MAX_BITS as usize);
    let err = Args::parse(&argv((MAX_BITS + 1).to_string())).unwrap_err();
    assert!(err.contains("invalid --bits value"), "{err}");
    let err = Args::parse(&argv("99999999999".to_string())).unwrap_err();
    assert!(err.contains("invalid --bits value"), "{err}");
}
