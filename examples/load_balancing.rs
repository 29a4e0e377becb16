//! The four load balancers on a pathologically imbalanced layout.
//!
//! Reproduces the flavor of the paper's §4: the same imbalance, four
//! redistribution strategies, with message and element-movement costs.
//! Every run is checked: no element is lost or duplicated (the sorted
//! union is unchanged), order-maintaining keeps the global order, and the
//! final sizes meet each strategy's balance bound.
//!
//! Run with: `cargo run --release --example load_balancing`

use cgselect::{
    balance::{rebalance, Balancer},
    Distribution, Layout, Machine, MachineModel,
};

fn main() {
    let p = 8;
    let n = 1 << 16;

    for layout in [Layout::Hoarded, Layout::Staircase] {
        println!("=== initial layout: {layout:?}, n = {n}, p = {p} ===");
        let parts = cgselect::generate_with_layout(Distribution::Random, layout, n, p, 3);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        println!("before: {sizes:?}");
        let mut sorted: Vec<u64> = parts.concat();
        sorted.sort_unstable();

        for bal in [Balancer::None].into_iter().chain(Balancer::ALL_ACTIVE) {
            let results = Machine::with_model(p, MachineModel::cm5())
                .run(|proc| {
                    let mut mine = parts[proc.rank()].clone();
                    let rep = rebalance(bal, proc, &mut mine);
                    (mine, rep)
                })
                .expect("balancing run failed");

            let after: Vec<usize> = results.iter().map(|(data, _)| data.len()).collect();
            let msgs: u64 = results.iter().map(|(_, r)| r.messages_sent).sum();
            let moved: u64 = results.iter().map(|(_, r)| r.elements_sent).sum();
            let time = results.iter().map(|(_, r)| r.seconds).fold(0.0, f64::max);
            println!(
                "{:>28} ({}): after={:?}  msgs={:>3}  moved={:>6}  time={:>9.5}s",
                bal.name(),
                bal.label(),
                after,
                msgs,
                moved,
                time,
            );

            let concat: Vec<u64> = results.iter().flat_map(|(data, _)| data.clone()).collect();
            if bal == Balancer::Omlb {
                assert_eq!(concat, parts.concat(), "order-maintaining must keep the global order");
            }
            let mut union = concat;
            union.sort_unstable();
            assert_eq!(union, sorted, "{} lost or duplicated elements", bal.name());
            let spread = |s: &[usize]| s.iter().max().unwrap() - s.iter().min().unwrap();
            let bound = match bal {
                Balancer::None => spread(&sizes),
                Balancer::DimExchange => p.ilog2() as usize,
                _ => 1,
            };
            assert!(
                spread(&after) <= bound,
                "{}: sizes {after:?} spread beyond {bound}",
                bal.name()
            );
        }
        println!();
    }

    println!(
        "Order-maintaining / modified / global exchange balance exactly;\n\
         dimension exchange balances to within log2(p); global exchange\n\
         needs the fewest messages on concentrated imbalance."
    );
}
