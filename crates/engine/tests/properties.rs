//! Property-based tests: the threaded engine is observationally equivalent
//! to the sequential engine on arbitrary workloads, its map-reduce is the
//! level-wise pairwise tree over the map's outputs, and its span trees stay
//! well-formed even while injected worker panics force restarts.

use cdp_engine::{EngineError, ExecutionEngine, RunCtx};
use cdp_faults::{FaultHook, FaultInjector, FaultPlan, FaultStats, NoFaults};
use cdp_obs::{TraceSnapshot, Tracer};
use proptest::prelude::*;

/// The oracle of the engine's reduce shape: adjacent pairs first, then
/// pairs of pairs, an odd last part carried up a level unchanged, until one
/// value remains.
fn level_wise_reduce<U>(mut parts: Vec<U>, g: impl Fn(U, U) -> U) -> Option<U> {
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut iter = parts.into_iter();
        while let Some(a) = iter.next() {
            next.push(match iter.next() {
                Some(b) => g(a, b),
                None => a,
            });
        }
        parts = next;
    }
    parts.pop()
}

/// A leaf per index and a combine that is not associative: the result
/// spells out the whole tree, parentheses and all.
fn leaf(i: usize) -> String {
    i.to_string()
}

fn paren(a: String, b: String) -> String {
    format!("({a} {b})")
}

/// `try_map_reduce` and the oracle over `try_map_indexed`, each on its own
/// fresh injector for `plan`, with the fault accounting each one left.
type Outcome = (Result<Option<String>, EngineError>, FaultStats);

fn both_ways(
    engine: ExecutionEngine,
    n: usize,
    plan: FaultPlan,
    tracer: &Tracer,
) -> (Outcome, Outcome) {
    let ctx = RunCtx {
        tracer: tracer.clone(),
        ..RunCtx::default()
    };
    let hook = FaultInjector::new(plan);
    let streamed = engine.try_map_reduce(n, leaf, paren, &hook, &ctx);
    let streamed = (streamed, hook.snapshot());
    let hook = FaultInjector::new(plan);
    let collected = engine
        .try_map_indexed(n, leaf, &hook, &ctx)
        .map(|parts| level_wise_reduce(parts, paren));
    (streamed, (collected, hook.snapshot()))
}

/// Every size from nothing to 300 parts, on the sequential engine and on
/// one to eight workers, traced and untraced: the streamed fold builds the
/// level-wise tree exactly.
#[test]
fn map_reduce_is_the_level_wise_tree_at_every_size() {
    let engines = std::iter::once(ExecutionEngine::Sequential)
        .chain((1..=8).map(|workers| ExecutionEngine::Threaded { workers }));
    for engine in engines {
        for tracer in [Tracer::disabled(), Tracer::collecting()] {
            let ctx = RunCtx {
                tracer,
                ..RunCtx::default()
            };
            for n in 0..=300 {
                let streamed = engine.try_map_reduce(n, leaf, paren, &NoFaults, &ctx);
                let expected = level_wise_reduce((0..n).map(leaf).collect(), paren);
                assert_eq!(streamed, Ok(expected), "{} at n = {n}", engine.name());
            }
        }
    }
}

/// Order-independent structural fingerprint of a span tree: the sorted
/// multiset of `(name, parent name)` edges. Thread assignment and record
/// order may differ between reruns; causal structure must not.
fn structure(snap: &TraceSnapshot) -> Vec<(String, Option<String>)> {
    let mut edges: Vec<(String, Option<String>)> = snap
        .spans
        .iter()
        .map(|s| (s.name.clone(), snap.parent_name(s).map(str::to_owned)))
        .collect();
    edges.sort();
    edges
}

proptest! {
    /// The threaded map over borrowed items equals the sequential one and a
    /// plain iterator: same length, same order, whichever worker stole what.
    #[test]
    fn map_indexed_equivalence(items in prop::collection::vec(0u64..1_000_000, 0..200), workers in 1usize..9) {
        let f = |i: usize| items[i].wrapping_mul(2654435761).rotate_left(13);
        let seq = ExecutionEngine::Sequential.map_indexed(items.len(), f);
        let par = ExecutionEngine::Threaded { workers }.map_indexed(items.len(), f);
        prop_assert_eq!(&seq, &par);
        prop_assert_eq!(seq, (0..items.len()).map(f).collect::<Vec<u64>>());
    }

    /// Mapped parts reduce in a shape fixed by the part count alone, so even
    /// non-associative floating-point accumulation matches exactly.
    #[test]
    fn map_parts_then_tree_reduce_is_bit_identical(
        items in prop::collection::vec(-1e3..1e3f64, 0..100),
        part_len in 1usize..16,
        workers in 1usize..5,
    ) {
        let f = |part: &[f64]| part.iter().fold(1.0f64, |acc, x| acc * 0.99 + (x * 1.000001 - 0.5));
        let g = |a: f64, b: f64| a * 0.5 + b;
        let ctx = RunCtx::default();
        let seq = level_wise_reduce(ExecutionEngine::Sequential.map_parts(&items, part_len, f, &ctx), g);
        let par = level_wise_reduce(ExecutionEngine::Threaded { workers }.map_parts(&items, part_len, f, &ctx), g);
        prop_assert_eq!(seq.map(f64::to_bits), par.map(f64::to_bits));
    }

    /// `map_parts` covers the input in contiguous, in-order, non-overlapping
    /// windows of `part_len` (last one ragged), identically on both engines.
    #[test]
    fn map_parts_partitions_in_order(
        items in prop::collection::vec(-1e3..1e3f64, 0..150),
        part_len in 1usize..40,
        workers in 1usize..8,
    ) {
        let f = |part: &[f64]| (part.len(), part.iter().sum::<f64>().to_bits());
        let ctx = RunCtx::default();
        let seq = ExecutionEngine::Sequential.map_parts(&items, part_len, f, &ctx);
        let par = ExecutionEngine::Threaded { workers }.map_parts(&items, part_len, f, &ctx);
        prop_assert_eq!(&seq, &par);

        let expected: Vec<(usize, u64)> = items.chunks(part_len).map(f).collect();
        prop_assert_eq!(&seq, &expected);
        prop_assert_eq!(
            seq.iter().map(|(len, _)| len).sum::<usize>(),
            items.len()
        );
    }
}

proptest! {
    /// Under any injected order the map-reduce is the map then the oracle:
    /// a recoverable order gives the same tree and the same fault
    /// accounting, a fatal one an error, on both engines, traced or not.
    #[test]
    fn map_reduce_matches_map_then_reduce_under_injected_orders(
        n in 0usize..=300,
        workers in 1usize..9,
        seed in 0u64..1_000,
        panic_p in 0.0f64..0.6,
    ) {
        let plan = FaultPlan {
            seed,
            worker_panic: panic_p,
            ..FaultPlan::none()
        };
        let (reference, _) = both_ways(ExecutionEngine::Sequential, n, plan, &Tracer::disabled());
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers },
        ] {
            for tracer in [Tracer::disabled(), Tracer::collecting()] {
                let (streamed, collected) = both_ways(engine, n, plan, &tracer);
                prop_assert_eq!(&streamed, &collected);
                prop_assert_eq!(&streamed, &reference);
            }
        }
        if reference.1.fatal == 0 {
            let expected = level_wise_reduce((0..n).map(leaf).collect(), paren);
            prop_assert_eq!(reference.0, Ok(expected));
        } else {
            prop_assert!(reference.0.is_err());
        }
    }

    #[test]
    fn outcomes_and_span_trees_survive_injected_worker_panics(
        n in 1usize..64,
        workers in 1usize..9,
        seed in 0u64..1_000,
        panic_p in 0.0f64..0.6,
    ) {
        let plan = FaultPlan {
            seed,
            worker_panic: panic_p,
            ..FaultPlan::none()
        };
        // A fresh injector per run resets the fault epoch, so the same
        // plan replays the same panic schedule.
        let run = |engine: &ExecutionEngine, tracer: Tracer| {
            let hook = FaultInjector::new(plan);
            let ctx = RunCtx { tracer, ..RunCtx::default() };
            let out = engine.try_map_indexed(
                n,
                |i| (i as u64).wrapping_mul(2654435761),
                &hook,
                &ctx,
            );
            (out, ctx.tracer.snapshot())
        };
        // One order is drawn per call whatever the engine, so the outcome —
        // recovered values or the fatal error — is the same on every engine,
        // traced or not.
        let (reference, _) = run(&ExecutionEngine::Sequential, Tracer::disabled());

        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers },
        ] {
            let (untraced, _) = run(&engine, Tracer::disabled());
            prop_assert_eq!(&untraced, &reference);
            let (first, snap) = run(&engine, Tracer::collecting());
            prop_assert_eq!(&first, &reference);

            // Well-formed even mid-panic: no orphans, children inside
            // parents, every task under its map, restarts under tasks.
            prop_assert_eq!(snap.dropped_spans, 0);
            if let Err(e) = snap.validate() {
                prop_assert!(false, "malformed span tree: {}", e);
            }
            prop_assert!(snap.span_count("engine.map") >= 1);
            for span in &snap.spans {
                match span.name.as_str() {
                    "engine.map" => {
                        prop_assert_eq!(snap.parent_name(span), None)
                    }
                    "engine.task" => {
                        prop_assert_eq!(snap.parent_name(span), Some("engine.map"))
                    }
                    "engine.restart" => {
                        prop_assert_eq!(snap.parent_name(span), Some("engine.task"))
                    }
                    other => prop_assert!(false, "unexpected span {:?}", other),
                }
            }

            // Rerun-identical under the fixed seed: same causal structure.
            let (second, resnap) = run(&engine, Tracer::collecting());
            prop_assert_eq!(&second, &reference);
            prop_assert_eq!(structure(&snap), structure(&resnap));
        }
    }
}
