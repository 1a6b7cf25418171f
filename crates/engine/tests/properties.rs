//! Property-based tests: the threaded engine is observationally equivalent
//! to the sequential engine on arbitrary workloads, and its span trees
//! stay well-formed even while injected worker panics force restarts.

use cdp_engine::{tree_reduce, ExecutionEngine, RunCtx};
use cdp_faults::{FaultInjector, FaultPlan};
use cdp_obs::{TraceSnapshot, Tracer};
use proptest::prelude::*;

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
        let seq = tree_reduce(ExecutionEngine::Sequential.map_parts(&items, part_len, f, &ctx), g);
        let par = tree_reduce(ExecutionEngine::Threaded { workers }.map_parts(&items, part_len, f, &ctx), g);
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
