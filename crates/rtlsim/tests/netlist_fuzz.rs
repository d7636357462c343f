//! Kernel fuzzing: random combinational netlists must settle to the
//! same values a direct topological evaluation produces, for random
//! 4-value inputs — regardless of component registration order or which
//! input pokes trigger re-evaluation.

use proptest::prelude::*;
use rtlsim::{CompKind, Ctx, Lv, SignalId, Simulator};

#[derive(Debug, Clone, Copy)]
enum Gate {
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Not(usize),
}

/// A random DAG: `n_inputs` primary inputs, then `gates[i]` reads only
/// nodes with smaller indices.
#[derive(Debug, Clone)]
struct Netlist {
    n_inputs: usize,
    gates: Vec<Gate>,
}

fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..=6, 1usize..=24).prop_flat_map(|(n_inputs, n_gates)| {
        let gate = move |idx: usize| {
            let max = n_inputs + idx;
            (0..4u8, 0..max, 0..max).prop_map(move |(kind, a, b)| match kind {
                0 => Gate::And(a, b),
                1 => Gate::Or(a, b),
                2 => Gate::Xor(a, b),
                _ => Gate::Not(a),
            })
        };
        let gates: Vec<_> = (0..n_gates).map(gate).collect();
        gates.prop_map(move |gates| Netlist { n_inputs, gates })
    })
}

fn reference_eval(nl: &Netlist, inputs: &[Lv]) -> Vec<Lv> {
    let mut vals: Vec<Lv> = inputs.to_vec();
    for g in &nl.gates {
        let v = match *g {
            Gate::And(a, b) => vals[a] & vals[b],
            Gate::Or(a, b) => vals[a] | vals[b],
            Gate::Xor(a, b) => vals[a] ^ vals[b],
            Gate::Not(a) => !vals[a],
        };
        vals.push(v);
    }
    vals
}

fn build_sim(nl: &Netlist) -> (Simulator, Vec<SignalId>) {
    let mut sim = Simulator::new();
    let mut sigs = Vec::new();
    for i in 0..nl.n_inputs {
        sigs.push(sim.signal_init(format!("in{i}"), 8, 0));
    }
    for (i, _) in nl.gates.iter().enumerate() {
        sigs.push(sim.signal(format!("g{i}"), 8));
    }
    // Register gates in REVERSE order to stress delta-cycle convergence
    // (downstream gates are registered before their drivers).
    for (i, g) in nl.gates.iter().enumerate().rev() {
        let out = sigs[nl.n_inputs + i];
        let g = *g;
        let (sa, sb) = match g {
            Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => (sigs[a], sigs[b]),
            Gate::Not(a) => (sigs[a], sigs[a]),
        };
        sim.add_component(
            format!("gate{i}"),
            CompKind::UserStatic,
            Box::new(move |ctx: &mut Ctx<'_>| {
                let v = match g {
                    Gate::And(..) => ctx.get(sa) & ctx.get(sb),
                    Gate::Or(..) => ctx.get(sa) | ctx.get(sb),
                    Gate::Xor(..) => ctx.get(sa) ^ ctx.get(sb),
                    Gate::Not(..) => !ctx.get(sa),
                };
                ctx.set(out, v);
            }),
            &[sa, sb],
        );
    }
    (sim, sigs)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn random_netlists_settle_to_the_reference_fixpoint(
        nl in arb_netlist(),
        stimuli in prop::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let n = nl.n_inputs;
        let (mut sim, sigs) = build_sim(&nl);
        // Apply a few rounds of input changes, checking convergence after
        // each (events between rounds stress incremental re-evaluation).
        let mut inputs = vec![Lv::zeros(8); n];
        sim.settle().unwrap();
        for (round, idx) in stimuli.iter().enumerate() {
            // Derive new input values deterministically from the index.
            for (i, item) in inputs.iter_mut().enumerate() {
                let raw = (idx.index(251) * (i + 17) * (round + 3)) as u64;
                *item = Lv::from_planes(8, raw, raw >> 7);
            }
            for (i, v) in inputs.iter().enumerate() {
                sim.poke(sigs[i], *v);
            }
            sim.settle().unwrap();
            let want = reference_eval(&nl, &inputs);
            for (j, w) in want.iter().enumerate() {
                let got = sim.peek(sigs[j]);
                prop_assert!(
                    got.eq_case(w),
                    "round {round}, node {j}: got {got:?}, want {w:?}"
                );
            }
        }
    }
}
