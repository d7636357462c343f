//! Table I — "An example of SimB for configuring a new module".
//!
//! Regenerates the paper's table: the SimB that swaps module id=0x02
//! into reconfigurable region id=0x01 with a 4-word random payload,
//! with the per-word interpretation produced by the actual ICAP parser.

use bench::harness;
use resim::{annotate_simb, build_simb, SimbKind};

fn main() {
    harness::args(&[], &[]);
    println!("Table I — An example SimB for configuring a new module");
    println!("(module id=0x02 into region id=0x01, 4 payload words)\n");
    println!("{:<12} Explanation / actions taken", "SimB");
    println!("{}", harness::rule(76));
    let simb = build_simb(SimbKind::Config { module: 0x02 }, 0x01, 4, 2013);
    for (word, label) in annotate_simb(&simb) {
        println!("{word:#010X}   {label}");
    }
    println!();
    println!("Paper reference: SYNC 0xAA995566, FAR write 0x30002001/0x01020000,");
    println!("CMD WCFG, Type-2 FDRI size=4, 4 random words (word 0 starts error");
    println!("injection, word 3 ends it and triggers the swap), CMD DESYNC.");
}
